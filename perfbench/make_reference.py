"""Regenerate reference.json: the program's scalar outputs for a range of seeds.

Run from the repository root, at the commit whose outputs become the
reference (normally only when the benchmark is defined):

    python3 perfbench/make_reference.py

Each seed in ``SEEDS`` runs every workload once at full size and stores what
``checks`` compares: effective ranks and map metrics for the pipeline
workloads, and the closed-form values for ``closed_form``.  The whole file is
written anew.
"""

from __future__ import annotations

import json

import checks
import workloads

OUT = workloads.ROOT / ".perfbench-out" / "reference"
SEEDS = range(32)


def main() -> int:
    seeds = {}
    for seed in SEEDS:
        entry = seeds[str(seed)] = {}
        for name in workloads.WORKLOADS:
            inputs = workloads.make_inputs(name, seed, OUT / name)
            extracted = []
            for unit in range(workloads.units(name, inputs)):
                workloads.prepare(name, inputs)
                outputs = workloads.run_iteration(name, inputs, unit)
                extracted.append(checks.extract(name, inputs, outputs))
            entry[name] = checks.reference_form(name, extracted)
        print(f"seed {seed} done", flush=True)
    payload = {
        "format": "submig-perfbench-reference/1",
        "note": "program outputs at the commit that defined the benchmark",
        "seeds": seeds,
    }
    with open(checks.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
