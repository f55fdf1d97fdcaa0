"""Repeat the benchmark over seeds and summarise medians, spreads and layer shares.

Run from the repository root:

    python3 perfbench/repeat.py --label "what was measured" --out .perfbench-out/summary.json

Every workload of BENCHMARK.json runs untraced once per seed in ``SEEDS``, in
seed-major order so that slow phases of a shared machine fall on all
workloads alike, and the whole set is made ``SETS`` times; then each workload
runs once traced.  The spread of an end-to-end metric is the distance between
the first and third quartile of a set's values, as a share of their median;
the benchmark aims to keep it below a third of the metric's bound.  The
agreement of a metric is how much worse the last set's median is than the
first one's, as a share of the first, to be held within the bound.  The layer
shares are each layer's self time over the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(10)
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="free text stored with the summary")
    parser.add_argument("--out", default=str(ROOT / ".perfbench-out" / "summary.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for number in range(SETS):
        results = {w: [] for w in names}
        for seed in SEEDS:
            for w in names:
                results[w].append(run(w, seed, seconds, 0))
                print(f"set {number} {w} seed {seed}: "
                      f"{json.dumps(results[w][-1]['metrics'])}", flush=True)
        sets.append(results)

    summary = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for w in names:
        rows = [r for results in sets for r in results[w]]
        entry = {
            "seeds": list(SEEDS),
            "attempted": sum(r["attempted"] for r in rows),
            "failed": sum(r["failed"] for r in rows),
            "all_correct": all(r["correct"] for r in rows),
            "longest_run_s": max(r["elapsed_s"] for r in rows),
            "provenance": rows[0]["record"]["provenance"],
            "sets": [],
            "agreement": {},
        }
        for results in sets:
            stats = {
                name: dict(spread([r["metrics"][name]["value"] for r in results[w]]),
                           bound=m["bound"])
                for name, m in metrics.items()
            }
            entry["sets"].append(stats)
        for name, m in metrics.items():
            first, last = (entry["sets"][i][name]["median"] for i in (0, -1))
            worse = (last - first) / first * (1 if m["better"] == "lower" else -1)
            entry["agreement"][name] = {"worse_by": worse, "bound": m["bound"]}
            spreads = " ".join(f"{s[name]['spread']:.3f}" for s in entry["sets"])
            print(f"{w:12s} {name:12s} median {first:.4g} spreads {spreads} "
                  f"(aim < {m['bound'] / 3:.3f}) last set worse by {worse:+.3f} "
                  f"(bound {m['bound']})")
        traced = run(w, SEEDS[0], seconds, 1)["metrics"]
        layers = {k: v["value"] for k, v in traced.items()}
        wall = layers["trace.wall_s"]
        entry["per_layer"] = layers
        entry["layer_shares"] = {
            k: v / wall
            for k, v in layers.items()
            if k.endswith(("_s", ".s")) and not k.endswith("_per_s")
            and not k.startswith(("trace.", "process.")) and v
        }
        summary["workloads"][w] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
