"""The four benchmark workloads: inputs made from a seed, and one iteration each.

Every workload drives the program only through its public modules, looked up
at call time (``cli.main``, ``harness.run_experiment``, ``analysis.analytic_mf``
and so on), so that the span wrappers in ``spans.py`` see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from submig import analysis, cli, geometry, harness  # noqa: E402
from submig.imaging import ImageGrid  # noqa: E402

WORKLOADS = ("fig1", "fig4", "snr_sweep", "closed_form")

# snr_sweep: clean data takes the rank-deficient SVD path (m_eff 11-16), 10 dB
# gives 44-46 and 0 dB 47, so the sweep varies what the SVD and correlation
# depend on while the tiny grid keeps the map cheap
SNR_LEVELS = (math.inf, 10.0, 0.0)
SNR_GRID = 41

# closed_form: sigma1's segment points at the preset band, evaluated one
# search point per call (the batch form sums over points); each point is
# paired with one E1/E2 radius
CLOSED_FORM_POINTS = 16
CLOSED_FORM_BOX = 0.75
CLOSED_FORM_R = (0.02, 1.0)
# share of each stratum the seeded jitter may cover
JITTER = 0.25

# reduced sizes keep the self-tests short; they exercise the same code paths
REDUCED_GRID = 21
REDUCED_FREQUENCIES = 2
REDUCED_CLOSED_FORM = 2


def _stratified_points(rng: np.random.Generator, count: int, half_width: float) -> np.ndarray:
    # one point near the centre of each cell of a near-square grid of cells:
    # the seed moves every point, but the radii to the scatterers, and hence
    # the quadrature work per pass, stay nearly the same from seed to seed
    cols = math.ceil(math.sqrt(count))
    rows = math.ceil(count / cols)
    cell = np.array([2.0 * half_width / cols, 2.0 * half_width / rows])
    idx = np.arange(count)
    centre = -half_width + (np.stack([idx % cols, idx // cols], axis=-1) + 0.5) * cell
    return centre + rng.uniform(-0.5, 0.5, (count, 2)) * JITTER * cell


def _stratified_radii(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    width = (hi - lo) / count
    return lo + (np.arange(count) + 0.5 + rng.uniform(-0.5, 0.5, count) * JITTER) * width


def make_inputs(workload: str, seed: int, out_dir: Path, reduced: bool = False) -> dict:
    """Inputs of one workload, a pure function of (workload, seed, reduced)."""
    seed = int(seed)
    if workload == "fig1":
        argv = ["--preset", "fig1", "--seed", str(seed), "--out-dir", str(out_dir)]
        cfg = harness.preset_config("fig1", seed=seed)
        if reduced:
            argv += ["--grid", str(REDUCED_GRID), "--F", str(REDUCED_FREQUENCIES)]
            cfg = replace(
                cfg,
                grid=ImageGrid(nx=REDUCED_GRID, ny=REDUCED_GRID),
                frequencies=REDUCED_FREQUENCIES,
            )
        # the program receives only argv; the config is what the checks expect
        return {"argv": argv, "out_dir": Path(out_dir), "configs": [cfg]}
    if workload == "fig4":
        cfg = harness.preset_config("fig4", seed=seed)
        if reduced:
            cfg = replace(
                cfg,
                grid=ImageGrid(nx=REDUCED_GRID, ny=REDUCED_GRID),
                frequencies=REDUCED_FREQUENCIES,
            )
        return {"configs": [cfg]}
    if workload == "snr_sweep":
        base = harness.preset_config("fig1", seed=seed)
        n = REDUCED_GRID if reduced else SNR_GRID
        base = replace(base, grid=ImageGrid(nx=n, ny=n))
        if reduced:
            base = replace(base, frequencies=REDUCED_FREQUENCIES)
        return {"configs": [replace(base, snr_db=snr) for snr in SNR_LEVELS]}
    if workload == "closed_form":
        fig1 = harness.preset_config("fig1")
        inclusion = fig1.inclusions[0].resolve()
        m = geometry.effective_segment_count(inclusion.curve, fig1.lambda_min)
        scat = analysis.ScattererSet(
            np.array([smp.point for smp in geometry.sample_curve(inclusion, m)])
        )
        band = analysis.BandLimits.from_wavelengths(
            fig1.lambda_max, fig1.lambda_min, fig1.frequencies
        )
        rng = np.random.default_rng(seed)
        count = REDUCED_CLOSED_FORM if reduced else CLOSED_FORM_POINTS
        points = _stratified_points(rng, count, CLOSED_FORM_BOX)
        radii = _stratified_radii(rng, count, *CLOSED_FORM_R)
        return {"scatterers": scat, "band": band, "points": points, "radii": radii}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def prepare(workload: str, inputs: dict) -> None:
    """Untimed reset before an iteration: fig1 starts from an empty run directory."""
    if workload == "fig1":
        shutil.rmtree(inputs["out_dir"], ignore_errors=True)


def persisted(inputs: dict) -> tuple[int, int]:
    """Bytes and files in the run directory an iteration wrote (fig1 only)."""
    out = inputs.get("out_dir")
    if out is None or not Path(out).is_dir():
        return 0, 0
    files = [p for p in Path(out).iterdir() if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def units(workload: str, inputs: dict) -> int:
    """Iterations in one pass over the inputs: one per seeded closed_form point."""
    return len(inputs["points"]) if workload == "closed_form" else 1


def run_iteration(workload: str, inputs: dict, unit: int = 0) -> dict:
    """One timed iteration; returns what the output checks need.

    A closed_form iteration is one seeded point (MF, WMF(1) and LOG there)
    and one seeded radius (E1/E2); the other workloads have one iteration
    per pass.
    """
    if workload == "fig1":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(inputs["argv"]))
        return {"rc": rc, "stdout": buf.getvalue(), "out_dir": inputs["out_dir"]}
    if workload in ("fig4", "snr_sweep"):
        return {"reports": [harness.run_experiment(cfg) for cfg in inputs["configs"]]}
    if workload == "closed_form":
        scat, band = inputs["scatterers"], inputs["band"]
        z = inputs["points"][unit]
        return {
            "unit": unit,
            "mf": analysis.analytic_mf(z, scat, band),
            "wmf1": analysis.analytic_wmf(z, scat, band, n=1),
            "log": analysis.analytic_log(z, scat, band),
            "e1_e2": analysis.e1_e2(float(inputs["radii"][unit]), band),
        }
    raise ValueError(f"unknown workload {workload!r}")


def timed_iteration(workload: str, inputs: dict, unit: int = 0):
    """Untimed reset, then one timed iteration.

    Returns (wall seconds, cpu seconds, outputs or None, error text or None).
    """
    prepare(workload, inputs)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        outputs, error = run_iteration(workload, inputs, unit), None
    except Exception:  # a raising iteration is counted as failed, the run goes on
        outputs, error = None, traceback.format_exc()
    return time.perf_counter() - t0, time.process_time() - c0, outputs, error
