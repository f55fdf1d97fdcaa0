"""Self-tests of the benchmark itself, at reduced sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the program's own test collection.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from submig import harness  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
LAYER_TABLE = json.loads((HERE / "layers.json").read_text(encoding="ascii"))["layers"]
SCRATCH = workloads.ROOT / ".perfbench-out" / "selftest"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _inputs(name: str, seed: int = 3) -> dict:
    return workloads.make_inputs(name, seed, SCRATCH / name, reduced=True)


def _run(name: str, inputs: dict) -> list[dict]:
    """One pass: the outputs of every unit."""
    outputs = []
    for unit in range(workloads.units(name, inputs)):
        workloads.prepare(name, inputs)
        outputs.append(workloads.run_iteration(name, inputs, unit))
    return outputs


def _comparable(inputs: dict) -> str:
    return repr({k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in inputs.items()})


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    for reduced in (False, True):
        first = workloads.make_inputs(name, 11, SCRATCH / name, reduced=reduced)
        again = workloads.make_inputs(name, 11, SCRATCH / name, reduced=reduced)
        other = workloads.make_inputs(name, 12, SCRATCH / name, reduced=reduced)
        assert _comparable(first) == _comparable(again)
        assert _comparable(first) != _comparable(other)


def test_metric_names_are_well_formed_and_complete():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    with spans.Tracer() as tracer:
        pass
    computed = spans.layer_metrics(tracer, 1, 1.0, 1.0, 1.0, (0, 0))
    assert set(computed) == {m["name"] for m in SPEC["per_layer"]}
    tabled = {metric for row in LAYER_TABLE for metric in row["metrics"]}
    assert tabled == set(computed)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reduced_run_passes_its_output_check(name):
    inputs = _inputs(name)
    checker = checks.Checker(name, inputs, None)
    for _ in range(2):
        for outputs in _run(name, inputs):
            assert checker.check(outputs) == []


def test_closed_form_check_catches_a_wrong_value():
    inputs = _inputs("closed_form")
    outputs = _run("closed_form", inputs)[0]
    outputs["log"] *= 1.0 + 1e-7
    problems = checks.Checker("closed_form", inputs, None).check(outputs)
    assert any("log at point 0" in p for p in problems)


def test_seed_outside_the_reference_still_checks_every_closed_form_point():
    seed = 1000
    assert str(seed) not in checks.load_reference()["seeds"]
    inputs = workloads.make_inputs("closed_form", seed, SCRATCH / "closed_form")
    unit = workloads.units("closed_form", inputs) - 1
    assert unit >= checks.MPMATH_POINTS
    outputs = workloads.run_iteration("closed_form", inputs, unit)
    assert checks.Checker("closed_form", inputs, None).check(outputs) == []
    outputs["wmf1"] *= 1.0 + 1e-7
    problems = checks.Checker("closed_form", inputs, None).check(outputs)
    assert any(f"wmf1 at point {unit}" in p and "quadrature" in p for p in problems)


@pytest.mark.parametrize("key", ["sidelobe_energy", "localization_error", "peak_x"])
def test_seed_outside_the_reference_still_checks_map_metrics(key):
    inputs = workloads.make_inputs("fig4", 1000, SCRATCH / "fig4", reduced=True)
    (outputs,) = _run("fig4", inputs)
    report = outputs["reports"][0]
    metrics = {tag: dict(m) for tag, m in report.metrics.items()}
    metrics["LOG"][key] += 1e-3 if key == "peak_x" else metrics["LOG"][key] * 1e-9
    outputs["reports"][0] = replace(report, metrics=metrics)
    problems = checks.Checker("fig4", inputs, None).check(outputs)
    assert any(p.startswith(f"LOG {key.split('_')[0]}") for p in problems)


def test_later_iteration_must_reproduce_the_maps():
    inputs = _inputs("fig4")
    checker = checks.Checker("fig4", inputs, None)
    (outputs,) = _run("fig4", inputs)
    assert checker.check(outputs) == []
    report = outputs["reports"][0]
    values = report.maps["MF"].values.copy()
    values.flat[0] = np.nextafter(values.flat[0], np.inf)
    maps = dict(report.maps, MF=replace(report.maps["MF"], values=values))
    outputs["reports"][0] = replace(report, maps=maps)
    assert checker.check(outputs) == ["outputs differ from the first iteration of this run"]


def test_map_check_catches_a_wrong_value():
    inputs = _inputs("fig4")
    (outputs,) = _run("fig4", inputs)
    report = outputs["reports"][0]
    values = report.maps["LOG"].values.copy()
    values *= 1.0 + 1e-9
    maps = dict(report.maps, LOG=replace(report.maps["LOG"], values=values))
    outputs["reports"][0] = replace(report, maps=maps)
    problems = checks.Checker("fig4", inputs, None).check(outputs)
    assert any("LOG map differs from the oracle" in p for p in problems)


def test_reference_check_catches_a_changed_scalar():
    inputs = _inputs("fig4")
    (outputs,) = _run("fig4", inputs)
    extracted = checks.extract("fig4", inputs, outputs)
    ref = json.loads(json.dumps(checks.reference_form("fig4", [extracted])))
    assert checks.Checker("fig4", inputs, ref).check(outputs) == []
    ref["runs"][0]["metrics"]["MF"]["sidelobe_energy"] *= 1.0 + 1e-11
    problems = checks.Checker("fig4", inputs, ref).check(outputs)
    assert any("MF sidelobe_energy" in p for p in problems)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_records_the_layers_it_exercises(name):
    inputs = _inputs(name)
    tracer = spans.Tracer()
    tracer.iteration = 0
    with tracer:
        _run(name, inputs)
    recorded = {span[0] for span in tracer.spans}
    expected = {
        row["layer"]
        for row in LAYER_TABLE
        if name in row["mostly_on"] and row["layer"] in spans.LAYERS
    }
    assert expected and expected <= recorded
    metrics = spans.layer_metrics(tracer, 1, 1.0, 1.0, 1.0, workloads.persisted(inputs))
    for row in LAYER_TABLE:
        if name in row["mostly_on"]:
            assert all(metrics[m] is not None and metrics[m] > 0 for m in row["metrics"])
    # wrappers are removed again when the block ends
    assert not hasattr(harness.svd, "__wrapped__")


def test_missing_binding_is_reported_as_null(monkeypatch):
    monkeypatch.delattr(harness, "svd")
    with spans.Tracer() as tracer:
        pass
    metrics = spans.layer_metrics(tracer, 1, 1.0, 1.0, 1.0, (0, 0))
    assert metrics["spectral.svd_s"] is None
    assert metrics["spectral.svd_calls"] is None
    assert metrics["imaging.map_s"] == 0.0


def test_run_without_program_sources_fails_without_a_result():
    bare = SCRATCH / "bare"
    (bare / "perfbench").mkdir(parents=True, exist_ok=True)
    (bare / "BENCHMARK.json").write_bytes((workloads.ROOT / "BENCHMARK.json").read_bytes())
    for path in HERE.iterdir():
        if path.is_file():
            (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_committed_reference_covers_the_full_size_inputs():
    reference = checks.load_reference()["seeds"]
    assert {str(seed) for seed in range(32)} <= set(reference)
    inputs = workloads.make_inputs("closed_form", 0, SCRATCH / "closed_form")
    checker = checks.Checker("closed_form", inputs, reference["0"]["closed_form"])
    assert checker.check(workloads.run_iteration("closed_form", inputs, 3)) == []
