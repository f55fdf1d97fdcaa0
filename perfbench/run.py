"""Benchmark of the submig imaging pipeline and its closed-form analysis.

Run from the repository root:

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 55 --trace 0

Workloads: ``fig1`` and ``closed_form`` are the ones BENCHMARK.json gates (it
says why each exists); ``fig4`` and ``snr_sweep`` run the same way for
diagnosis.  A run repeats whole passes over the workload's inputs in this one
process for about ``--seconds`` seconds and checks every iteration's outputs
(``checks.py``).  A pass is one iteration, except for ``closed_form``, whose
pass is one iteration per seeded point.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: ``wall_s``, the median seconds per pass (taken iteration by
iteration over the passes); ``setup_s``, the median over ``SETUP_PROBES``
fresh interpreters of importing submig and making the inputs; and
``peak_rss_mb``, the peak resident memory at the end of the first iteration.  With ``--trace 1`` passes
alternate untraced and traced, and the line holds the per-layer metrics of
``spans.py``, per traced pass.  Each run also writes its full record
(samples, provenance, check results, spans) under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 21
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="submig benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cap_blas_threads() -> None:
    # must run before numpy is imported: BLAS threads never exceed the cores
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        raw = os.environ.get(var, "")
        if raw.isdigit() and int(raw) > nproc:
            os.environ[var] = str(nproc)


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def setup_probe(workload: str, seed: int) -> float:
    """Import of submig plus input generation, in this fresh interpreter."""
    t0 = time.perf_counter()
    import workloads

    workloads.make_inputs(workload, seed, OUT / "setup")
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> list[float]:
    # each probe is a fresh interpreter, run one at a time before measuring
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def seconds_per_pass(samples: list[float], units: int) -> float:
    """Median seconds per pass, taken unit by unit over the passes."""
    passes = [samples[i:i + units] for i in range(0, len(samples), units)]
    return sum(statistics.median(col) for col in zip(*passes))


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, with the count."""
    n = len(samples)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    pct = 100.0 * (n - 10) / n
    return {"value": sorted(samples)[n - 11], "percentile": pct, "samples": n}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "submig" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_blas_threads()
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import checks
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    setup = setup_seconds(args.workload, args.seed)
    out_dir = OUT / "run" / args.workload
    inputs = workloads.make_inputs(args.workload, args.seed, out_dir)
    reference = checks.load_reference()["seeds"].get(str(args.seed), {}).get(args.workload)
    checker = checks.Checker(args.workload, inputs, reference)

    attempted = failed = 0
    problems: list[str] = []

    def account(outputs, error):
        nonlocal attempted, failed
        attempted += 1
        found = [error] if error else checker.check(outputs)
        if found:
            failed += 1
            problems.extend(p for p in found if p not in problems)

    units = workloads.units(args.workload, inputs)
    untraced: list[float] = []
    traced: list[float] = []
    cpu: list[float] = []
    written = [0, 0]
    rss_mb = None
    tracer = spans.Tracer()

    def one_pass(samples: list[float], trace: bool) -> float:
        # every unit once; the checks run outside the timed and traced region
        nonlocal rss_mb
        begin = time.perf_counter()
        for unit in range(units):
            if trace:
                tracer.iteration = len(samples)
                with tracer:
                    wall, used, outputs, error = workloads.timed_iteration(
                        args.workload, inputs, unit
                    )
                cpu.append(used)
                size, count = workloads.persisted(inputs)
                written[0] += size
                written[1] += count
            else:
                wall, _, outputs, error = workloads.timed_iteration(args.workload, inputs, unit)
            if rss_mb is None:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            samples.append(wall)
            account(outputs, error)
        return time.perf_counter() - begin

    # whole passes only, so every unit is sampled equally often
    start = time.perf_counter()
    passes: list[float] = []
    while True:
        seconds = one_pass(untraced, False)
        if args.trace:
            seconds += one_pass(traced, True)
        passes.append(seconds)
        if time.perf_counter() - start + statistics.median(passes) > args.seconds:
            break

    if args.trace:
        n = len(traced) // units
        # overhead as the change in wall_s: medians, so the first pass's warm-up drops out
        overhead = seconds_per_pass(traced, units) - seconds_per_pass(untraced, units)
        values = spans.layer_metrics(
            tracer, n, sum(traced) / n, sum(cpu) / n, overhead, (written[0], written[1])
        )
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": seconds_per_pass(untraced, units),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "untraced_s": untraced,
        "traced_s": traced,
        "wall_s_tail": tail([sum(untraced[i:i + units]) for i in range(0, len(untraced), units)]),
        "setup_s_samples": setup,
        "reference_checked": reference is not None,
        "problems": problems,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps(tracer.span_records()) + "\n", encoding="ascii"
        )
    print(json.dumps({k: record[k] for k in ("provenance", "wall_s_tail", "reference_checked")}))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
