"""Layer spans recorded from outside the program.

Each entry of ``BINDINGS`` wraps one function where its caller looks it up:
``harness`` and ``analysis`` import what they call by name, so the wrapper
goes on ``harness.svd`` rather than ``spectral.svd``.  A span is kept in
memory as (layer, start, end, parent span index, iteration) and the list is
written out when the run ends.  A layer whose every binding has disappeared
from the program is reported as ``None`` instead of failing the run.

The traced wall time splits into the self time of the work layers (what
``trace.attributed_frac`` counts), the self time of the ``WRAPPERS``, which
only call other layers, and ``bench.unattributed_s``, the time outside every
span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

PERSIST = "persist"

# (layer, module, attribute)
BINDINGS = (
    ("cli.main", "submig.cli", "main"),
    ("harness.run_experiment", "submig.cli", "run_experiment"),
    ("harness.run_experiment", "submig.harness", "run_experiment"),
    ("forward.assemble_msr", "submig.harness", "assemble_msr"),
    ("forward.add_awgn", "submig.harness", "add_awgn"),
    ("geometry.sample_curve", "submig.forward", "sample_curve"),
    ("spectral.svd", "submig.harness", "svd"),
    ("imaging.map", "submig.harness", "map_multi"),
    ("imaging.map", "submig.harness", "map_single"),
    ("harness.sidelobe_energy", "submig.harness", "sidelobe_energy"),
    ("harness.localization_error", "submig.harness", "localization_error"),
    ("harness.distance_to_curves", "submig.harness", "distance_to_curves"),
    (PERSIST, "submig.harness", "save_config"),
    (PERSIST, "submig.harness", "save_msr"),
    (PERSIST, "submig.harness", "save_spectrum_csv"),
    (PERSIST, "submig.harness", "save_map_csv"),
    (PERSIST, "submig.harness", "save_map_pgm"),
    ("analysis.analytic_mf", "submig.analysis", "analytic_mf"),
    ("analysis.analytic_wmf", "submig.analysis", "analytic_wmf"),
    ("analysis.analytic_log", "submig.analysis", "analytic_log"),
    ("analysis.e1_e2", "submig.analysis", "e1_e2"),
    ("specfun.quad_adaptive", "submig.analysis", "quad_adaptive"),
    ("specfun.quad_adaptive", "submig.geometry", "quad_adaptive"),
    ("specfun.quad_adaptive", "submig.specfun", "quad_adaptive"),
    ("specfun.bessel_j", "submig.analysis", "bessel_j"),
    ("specfun.bessel_j", "submig.specfun", "bessel_j"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BINDINGS))
POINT_LAYERS = ("analysis.analytic_mf", "analysis.analytic_wmf", "analysis.analytic_log")
# entry points whose own work is dispatch: trace.attributed_frac leaves out their self time
WRAPPERS = ("cli.main", "harness.run_experiment")


def _count_map_points(counts, args, kwargs, result):
    counts["imaging.map_points"] += result.grid.nx * result.grid.ny * len(result.omegas)


def _count_distance_points(counts, args, kwargs, result):
    counts["harness.distance_points"] += len(result)


def _count_bessel_evals(counts, args, kwargs, result):
    counts["specfun.bessel_j_evals"] += int(np.size(result))


def _count_m_eff(counts, args, kwargs, result):
    counts["spectral.m_eff_sum"] += sum(result.m_eff)
    counts["spectral.m_eff_n"] += len(result.m_eff)


# counters read from each call's result, after its span has ended
_HOOKS = {
    "imaging.map": _count_map_points,
    "harness.distance_to_curves": _count_distance_points,
    "specfun.bessel_j": _count_bessel_evals,
    "harness.run_experiment": _count_m_eff,
}


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.iteration = -1
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def __enter__(self):
        for layer, module_name, attr in BINDINGS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            self.present.add(layer)
            setattr(module, attr, self._wrap(layer, original))
            self._installed.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        self._stack.clear()
        return False

    def _wrap(self, layer, fn):
        hook = _HOOKS.get(layer)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts[layer + ".calls"] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "iteration": it}
            for n, s, e, p, it in self.spans
        ]

    def self_times(self) -> tuple[dict, dict, float]:
        """Per-layer self and inclusive seconds, and the top-level total."""
        incl = [e - s for _, s, e, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += incl[i]
        self_s, incl_s = defaultdict(float), defaultdict(float)
        top = 0.0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            self_s[name] += incl[i] - child[i]
            if parent is None:
                top += incl[i]
            if name in POINT_LAYERS and (parent is None or self.spans[parent][0] not in POINT_LAYERS):
                incl_s["analysis.points"] += incl[i]
                incl_s["analysis.point_calls"] += 1
        return self_s, incl_s, top


def layer_metrics(tracer: Tracer, passes: int, wall_s: float, cpu_s: float,
                  overhead_s: float, persisted: tuple[int, int]) -> dict:
    """Every per-layer metric, per traced pass; absent layers are None.

    ``wall_s`` and ``cpu_s`` are mean seconds per traced pass, ``overhead_s``
    how much tracing raises ``wall_s``, and ``persisted`` the (bytes, files)
    written over all traced passes.
    """
    self_s, incl_s, top = tracer.self_times()
    work = sum(v for layer, v in self_s.items() if layer not in WRAPPERS)
    counts = tracer.counts
    n = max(passes, 1)

    def sec(layer):
        return self_s[layer] / n if layer in tracer.present else None

    def calls(layer):
        return counts[layer + ".calls"] / n if layer in tracer.present else None

    def per(layer, key):
        return counts[key] / n if layer in tracer.present else None

    def ratio(layer, num, den):
        if layer not in tracer.present:
            return None
        return num / den if den > 0 else 0.0

    m = {
        "spectral.svd_s": sec("spectral.svd"),
        "spectral.svd_calls": calls("spectral.svd"),
        "spectral.m_eff_mean": ratio(
            "harness.run_experiment", counts["spectral.m_eff_sum"], counts["spectral.m_eff_n"]
        ),
        "imaging.map_s": sec("imaging.map"),
        "imaging.map_calls": calls("imaging.map"),
        "imaging.map_points_per_s": ratio(
            "imaging.map", counts["imaging.map_points"], self_s["imaging.map"]
        ),
        "harness.sidelobe_energy_s": sec("harness.sidelobe_energy"),
        "harness.localization_error_s": sec("harness.localization_error"),
        "harness.distance_to_curves_s": sec("harness.distance_to_curves"),
        "harness.distance_to_curves_calls": calls("harness.distance_to_curves"),
        "harness.distance_points": per("harness.distance_to_curves", "harness.distance_points"),
        "persist.s": sec(PERSIST),
        "persist.calls": calls(PERSIST),
        "persist.bytes": persisted[0] / n if PERSIST in tracer.present else None,
        "persist.files": persisted[1] / n if PERSIST in tracer.present else None,
        "forward.assemble_msr_s": sec("forward.assemble_msr"),
        "forward.add_awgn_s": sec("forward.add_awgn"),
        "geometry.sample_curve_s": sec("geometry.sample_curve"),
        "geometry.sample_curve_calls": calls("geometry.sample_curve"),
        "analysis.analytic_mf_s": sec("analysis.analytic_mf"),
        "analysis.analytic_wmf_s": sec("analysis.analytic_wmf"),
        "analysis.analytic_log_s": sec("analysis.analytic_log"),
        "analysis.e1_e2_s": sec("analysis.e1_e2"),
        "analysis.s_per_point": (
            incl_s["analysis.points"] / incl_s["analysis.point_calls"]
            if incl_s["analysis.point_calls"]
            else (0.0 if any(layer in tracer.present for layer in POINT_LAYERS) else None)
        ),
        "specfun.quad_adaptive_calls": calls("specfun.quad_adaptive"),
        "specfun.quad_adaptive_s": sec("specfun.quad_adaptive"),
        "specfun.bessel_j_s": sec("specfun.bessel_j"),
        "specfun.bessel_j_calls": calls("specfun.bessel_j"),
        "specfun.bessel_j_evals": per("specfun.bessel_j", "specfun.bessel_j_evals"),
        "cli.main_s": sec("cli.main"),
        "harness.run_experiment_s": sec("harness.run_experiment"),
        "bench.unattributed_s": wall_s - top / n,
        "process.cpu_s": cpu_s,
        "process.cpu_util": cpu_s / wall_s if wall_s > 0 else 0.0,
        "trace.wall_s": wall_s,
        "trace.attributed_frac": (work / n) / wall_s if wall_s > 0 else 0.0,
        "trace.overhead_s": overhead_s,
    }
    return m
