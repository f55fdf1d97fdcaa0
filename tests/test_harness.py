import ast
import importlib
import importlib.util
import io
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submig import forward as fwd
from submig import geometry as geo
from submig import harness
from submig import imaging as img
from submig.cli import build_parser, config_from_args, main


def small_config(**overrides):
    base = dict(
        inclusions=(harness.InclusionSpec(curve="sigma1"),),
        directions=16,
        frequencies=2,
        lambda_max=0.5,
        lambda_min=0.4,
        snr_db=math.inf,
        seed=0,
        functionals=("MF", "WMF(1)", "LOG"),
        grid=img.ImageGrid(nx=41, ny=41),
        tau=0.01,
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def brute_force_distance(points, curves, samples_per_curve=2001):
    # every sample against every point, with the same squared-distance expression
    anchor = np.concatenate(
        [
            np.asarray(c.position(np.linspace(c.s_min, c.s_max, samples_per_curve)))
            for c in curves
        ]
    )
    pts = np.asarray(points, dtype=float)
    d2 = (pts[:, None, 0] - anchor[None, :, 0]) ** 2 + (
        pts[:, None, 1] - anchor[None, :, 1]
    ) ** 2
    return np.sqrt(d2.min(axis=1))


SIGMA1 = [geo.get_curve("sigma1")]
SIGMA12 = [geo.get_curve("sigma1"), geo.get_curve("sigma2")]


class TestDistanceToCurves:
    @pytest.mark.parametrize("curves", [SIGMA1, SIGMA12], ids=["sigma1", "sigma1+sigma2"])
    def test_grid_bitwise_equal_to_brute_force(self, curves):
        pts = img.ImageGrid(nx=101, ny=101).points()
        got = harness.distance_to_curves(pts, curves)
        assert np.array_equal(got, brute_force_distance(pts, curves))

    @pytest.mark.parametrize("curves", [SIGMA1, SIGMA12], ids=["sigma1", "sigma1+sigma2"])
    def test_far_grid_bitwise_equal_to_brute_force(self, curves):
        pts = img.ImageGrid(x_min=-3, x_max=3, y_min=-3, y_max=3, nx=61, ny=61).points()
        got = harness.distance_to_curves(pts, curves)
        assert np.array_equal(got, brute_force_distance(pts, curves))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_points_bitwise_equal_to_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2.0, 2.0, (3000, 2))
        for curves in (SIGMA1, SIGMA12):
            got = harness.distance_to_curves(pts, curves)
            assert np.array_equal(got, brute_force_distance(pts, curves))

    def test_sample_count_not_a_block_multiple(self, monkeypatch):
        pts = np.array([[0.0, 0.0], [0.4, -0.3], [5.0, 5.0]])
        for samples in (2, 63, 65, 130):
            monkeypatch.setattr(harness, "_CURVE_SAMPLES", samples)
            got = harness.distance_to_curves(pts, SIGMA12)
            assert np.array_equal(got, brute_force_distance(pts, SIGMA12, samples))

    def test_points_on_samples_are_zero(self):
        c = SIGMA1[0]
        pts = np.asarray(c.position(np.linspace(c.s_min, c.s_max, 2001)))[::97]
        assert np.all(harness.distance_to_curves(pts, SIGMA1) == 0.0)

    def test_memory_bounded_by_point_chunks(self):
        # fig1's grid: near the curve a point keeps several blocks of samples,
        # and 2048-point passes peaked at ~22 MB on it
        pts = img.ImageGrid().points()
        tracemalloc.start()
        try:
            out = harness.distance_to_curves(pts, SIGMA1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (pts.shape[0],)
        assert peak < 6e6, peak


TUBE_VARIANTS = {
    "sf-only": {"functionals": ("SF",)},
    "inf-snr": {"snr_db": math.inf},
    "5-tag": {"functionals": ("SF", "MF", "WMF(1)", "WMF(2)", "LOG")},
}


class TestTubeField:
    # each preset, and each variant, meets each of the three grid sizes once
    @pytest.mark.parametrize(
        "preset, variant, n",
        [
            (preset, variant, (41, 101, 201)[(i + j) % 3])
            for i, preset in enumerate(("fig1", "fig2", "fig3", "fig4"))
            for j, variant in enumerate(TUBE_VARIANTS)
        ],
    )
    def test_run_metrics_equal_the_full_fields(self, preset, variant, n):
        cfg = replace(
            harness.preset_config(preset, seed=3),
            grid=img.ImageGrid(nx=n, ny=n),
            **TUBE_VARIANTS[variant],
        )
        report = harness.run_experiment(cfg)
        curves = [spec.resolve().curve for spec in cfg.inclusions]
        full = harness.distance_to_curves(cfg.grid.points(), curves)
        bands = fwd.FrequencySet.from_band(cfg.lambda_max, cfg.lambda_min, cfg.frequencies)
        wavelength = float(bands.wavelengths[-1])
        k = sum(geo.effective_segment_count(c, wavelength) for c in curves)
        for tag, image in report.maps.items():
            metrics = report.metrics[tag]
            assert metrics["sidelobe_energy"] == harness.sidelobe_energy(
                image, full, wavelength / 2.0
            ), tag
            assert metrics["localization_error"] == harness.localization_error(image, full, k), tag

    def test_points_at_the_tube_radius(self):
        # rows at exactly the tube radius from a horizontal segment, whose
        # samples lie on its line: their distance is the radius, not above it
        line = geo.PolynomialCurve(x_coeffs=(-0.5, 1.0), y_coeffs=(0.0,), s_min=0.0, s_max=1.0)
        tube = 0.25
        grid = img.ImageGrid(x_min=-1.0, x_max=1.0, y_min=-1.0, y_max=1.0, nx=41, ny=41)
        pts = grid.points()
        full = harness.distance_to_curves(pts, [line])
        assert np.count_nonzero(full == tube) >= 20
        top = np.array([0, 17, 820])
        got = harness._tube_field(pts, [line], tube, top)
        assert np.array_equal(got > tube, full > tube)
        assert np.array_equal(got[top], full[top])

    @pytest.mark.parametrize("curves", [SIGMA1, SIGMA12], ids=["sigma1", "sigma1+sigma2"])
    @pytest.mark.parametrize("tube", [0.05, 0.15, 0.4])
    def test_side_of_the_tube_everywhere(self, curves, tube):
        pts = img.ImageGrid(x_min=-1.5, x_max=1.5, y_min=-1.5, y_max=1.5, nx=121, ny=121).points()
        full = harness.distance_to_curves(pts, curves)
        got = harness._tube_field(pts, curves, tube, [])
        assert np.array_equal(got > tube, full > tube)


class TestMetrics:
    def _uniform_map(self, n=41):
        grid = img.ImageGrid(nx=n, ny=n)
        return img.ImageMap(
            grid=grid, values=np.ones((n, n)), tag="MF", omegas=(12.566,)
        )

    def test_uniform_map_fraction_matches_area(self):
        image = self._uniform_map()
        curves = [geo.get_curve("sigma1")]
        dist = harness.distance_to_curves(image.grid.points(), curves)
        expected = np.mean(dist > 0.15)
        assert harness.sidelobe_energy(image, dist, 0.15) == pytest.approx(
            expected, abs=1e-12
        )

    def test_half_inside_tube(self):
        # flat map on a grid split by a horizontal line curve
        line = geo.PolynomialCurve(
            x_coeffs=(-1.0, 2.0), y_coeffs=(0.0,), s_min=0.0, s_max=1.0
        )
        grid = img.ImageGrid(nx=41, ny=40, y_min=-1.0, y_max=1.0)
        image = img.ImageMap(
            grid=grid, values=np.ones((40, 41)), tag="MF", omegas=(12.566,)
        )
        dist = harness.distance_to_curves(grid.points(), [line])
        got = harness.sidelobe_energy(image, dist, 0.5)
        assert got == pytest.approx(np.mean(dist > 0.5), abs=1e-12)
        assert got == pytest.approx(0.5, abs=0.03)

    def test_delta_on_curve(self):
        curve = geo.get_curve("sigma1")
        grid = img.ImageGrid(nx=41, ny=41)
        values = np.zeros((41, 41))
        point = curve.position(0.0)
        ix = np.argmin(np.abs(grid.xs - point[0]))
        iy = np.argmin(np.abs(grid.ys - point[1]))
        values[iy, ix] = 1.0
        image = img.ImageMap(grid=grid, values=values, tag="MF", omegas=(12.566,))
        dist = harness.distance_to_curves(grid.points(), [curve])
        assert harness.sidelobe_energy(image, dist, 0.15) == 0.0
        assert harness.localization_error(image, dist, 1) < 0.05

    def test_localization_uniform_map_mean_distance(self):
        image = self._uniform_map()
        curves = [geo.get_curve("sigma1")]
        dist = harness.distance_to_curves(image.grid.points(), curves)
        got = harness.localization_error(image, dist, image.values.size)
        assert got == pytest.approx(dist.mean(), abs=1e-12)

    @pytest.mark.parametrize("curves", [SIGMA1, SIGMA12], ids=["sigma1", "sigma1+sigma2"])
    def test_metrics_match_their_definitions(self, curves):
        grid = img.ImageGrid(nx=37, ny=29)
        values = np.random.default_rng(3).random((29, 37))
        image = img.ImageMap(grid=grid, values=values, tag="MF", omegas=(12.566,))
        dist = harness.distance_to_curves(grid.points(), curves)
        brute = brute_force_distance(grid.points(), curves)
        flat = values.ravel()
        assert harness.sidelobe_energy(image, dist, 0.15) == pytest.approx(
            flat[brute > 0.15].sum() / flat.sum(), rel=1e-12
        )
        ranked = sorted(range(flat.size), key=lambda i: -flat[i])
        for k in (1, 7, flat.size):
            assert harness.localization_error(image, dist, k) == pytest.approx(
                brute[ranked[:k]].mean(), rel=1e-12
            )
        with pytest.raises(ValueError, match="distance field"):
            harness.sidelobe_energy(image, dist[:-1], 0.15)
        with pytest.raises(ValueError, match="distance field"):
            harness.localization_error(image, dist.reshape(29, 37), 3)

    @settings(max_examples=300, deadline=None)
    @given(
        nx=st.integers(2, 9), ny=st.integers(2, 9), top=st.integers(0, 3),
        values=st.lists(st.integers(0, 3), min_size=81, max_size=81), k=st.integers(1, 81),
    )
    @example(nx=5, ny=5, top=0, values=[0] * 81, k=7)  # an all-equal map
    def test_top_points_are_the_stable_argsort(self, nx, ny, top, values, k):
        # integer values clipped at `top`, so ties are many
        size = nx * ny
        image = img.ImageMap(
            grid=img.ImageGrid(nx=nx, ny=ny),
            values=np.minimum(values[:size], top).reshape(ny, nx).astype(float),
            tag="MF", omegas=(12.566,),
        )
        for k in (min(k, size), size):
            expected = np.argsort(-image.values.ravel(), kind="stable")[:k]
            assert np.array_equal(harness._top_points(image, k), expected)

    def test_localization_k_bounds(self):
        image = self._uniform_map()
        dist = harness.distance_to_curves(image.grid.points(), SIGMA1)
        with pytest.raises(ValueError):
            harness.localization_error(image, dist, 0)
        with pytest.raises(ValueError):
            harness.localization_error(image, dist, 10**9)


class TestRunExperiment:
    def test_report_completeness(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "run"))
        report = harness.run_experiment(cfg)
        assert set(report.maps) == {"MF", "WMF(1)", "LOG"}
        for tag, metric in report.metrics.items():
            assert all(math.isfinite(v) for v in metric.values())
        assert len(report.omegas) == 2
        assert len(report.m_eff) == 2
        out = tmp_path / "run"
        for name in (
            "config.txt",
            "msr_f00.txt",
            "msr_f01.txt",
            "spectrum_f00.csv",
            "map_mf.csv",
            "map_mf_norm.csv",
            "map_mf.pgm",
            "map_wmf1.csv",
            "map_log.csv",
            "metrics.json",
        ):
            assert (out / name).exists(), name

    def test_run_errors_gain_the_config_context(self, monkeypatch):
        # small_config runs cleanly on its own, so the failure is injected
        def failing_svd(matrix):
            raise ValueError("injected failure")

        monkeypatch.setattr(harness, "svd", failing_svd)
        with pytest.raises(harness.ExperimentError) as exc:
            harness.run_experiment(small_config())
        assert isinstance(exc.value.__cause__, ValueError)
        assert str(exc.value.__cause__) == "injected failure"
        assert "curves=sigma1" in str(exc.value) and "injected failure" in str(exc.value)

    def test_underflowing_signal_power_stops_a_noisy_run(self):
        # the config cannot see the matrix's power without assembling it
        thin = (harness.InclusionSpec(curve="sigma1", h=1e-200),)
        with pytest.raises(harness.ExperimentError, match="signal power"):
            harness.run_experiment(small_config(inclusions=thin, snr_db=10.0))
        assert harness.run_experiment(small_config(inclusions=thin)).metrics

    def test_single_frequency_metrics_use_the_imaged_wavelength(self):
        # F = 1 images at lambda_max alone, so lambda_min changes nothing in the run
        reports = [
            harness.run_experiment(
                replace(
                    harness.preset_config("fig1"),
                    frequencies=1,
                    lambda_min=lambda_min,
                    grid=img.ImageGrid(nx=41, ny=41),
                )
            )
            for lambda_min in (0.3, 0.5)
        ]
        assert reports[0].omegas == reports[1].omegas
        for tag in reports[0].maps:
            assert np.array_equal(reports[0].maps[tag].values, reports[1].maps[tag].values)
        assert reports[0].metrics == reports[1].metrics

    def test_multi_inclusion_linearity(self):
        # union MSR equals the entrywise sum of the single-inclusion MSRs
        dirs = fwd.make_directions(24)
        omega = 2 * math.pi / 0.5
        inc1 = harness.InclusionSpec(curve="sigma1").resolve()
        inc2 = harness.InclusionSpec(curve="sigma2", eps=10.0, mu=10.0).resolve()
        k1 = fwd.assemble_msr(dirs, omega, inc1).entries
        k2 = fwd.assemble_msr(dirs, omega, inc2).entries
        cfg = small_config(
            inclusions=(
                harness.InclusionSpec(curve="sigma1"),
                harness.InclusionSpec(curve="sigma2", eps=10.0, mu=10.0),
            ),
            directions=24,
            frequencies=1,
            lambda_max=0.5,
            lambda_min=0.5,
            out_dir=None,
        )
        report = harness.run_experiment(cfg)
        # reproduce the run's first matrix from the saved spectra instead:
        # assemble directly and compare spectra
        from submig import spectral

        direct = spectral.svd(k1 + k2)
        assert np.allclose(report.spectra[0], direct.s, atol=1e-10 * direct.s[0])

    def test_determinism_byte_identical(self, tmp_path):
        cfg_a = small_config(snr_db=10.0, out_dir=str(tmp_path / "a"))
        cfg_b = small_config(snr_db=10.0, out_dir=str(tmp_path / "b"))
        harness.run_experiment(cfg_a)
        harness.run_experiment(cfg_b)
        for name in ("map_mf.csv", "map_wmf1.csv", "map_log.csv", "spectrum_f00.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_one_correlation_pass_and_one_distance_field(self, monkeypatch):
        calls, points = {"correlation": 0, "distance": 0}, []
        correlation, distance = img._subspace_correlation, harness.distance_to_curves

        def count_correlation(*args, **kwargs):
            calls["correlation"] += 1
            return correlation(*args, **kwargs)

        def count_distance(pts, curves):
            calls["distance"] += 1
            points.extend(pts)
            return distance(pts, curves)

        monkeypatch.setattr(img, "_subspace_correlation", count_correlation)
        monkeypatch.setattr(harness, "distance_to_curves", count_distance)
        cfg = small_config(functionals=("MF", "WMF(1)", "LOG"))
        report = harness.run_experiment(cfg)
        assert set(report.maps) == {"MF", "WMF(1)", "LOG"}
        assert calls == {"correlation": cfg.frequencies, "distance": 1}
        # the exact distances of the points the tube bounds leave undecided
        assert len(points) < 0.1 * cfg.grid.nx * cfg.grid.ny

    def test_sf_only_run_correlates_one_frequency(self, monkeypatch):
        calls = 0
        correlation = img._subspace_correlation

        def count_correlation(*args, **kwargs):
            nonlocal calls
            calls += 1
            return correlation(*args, **kwargs)

        monkeypatch.setattr(img, "_subspace_correlation", count_correlation)
        report = harness.run_experiment(small_config(frequencies=10, functionals=("SF",)))
        assert calls == 1
        assert set(report.maps) == {"SF"}

    def test_sf_functional_uses_finest_wavelength(self):
        cfg = small_config(functionals=("SF",))
        report = harness.run_experiment(cfg)
        assert report.maps["SF"].omegas == (report.omegas[-1],)

    def test_invalid_functional_rejected(self):
        with pytest.raises(ValueError):
            small_config(functionals=("XYZ",))

    @pytest.mark.parametrize("frequencies", [2, 10])
    def test_sf_alongside_mf_reuses_the_correlation_pass(self, monkeypatch, frequencies):
        # SF is |c_F| of the shared pass, the map map_single computes on its own
        sf_only = harness.run_experiment(small_config(frequencies=frequencies, functionals=("SF",)))
        calls = 0
        correlation = img._subspace_correlation

        def count_correlation(*args, **kwargs):
            nonlocal calls
            calls += 1
            return correlation(*args, **kwargs)

        monkeypatch.setattr(img, "_subspace_correlation", count_correlation)
        both = harness.run_experiment(
            small_config(frequencies=frequencies, functionals=("SF", "MF"))
        )
        assert calls == frequencies
        assert np.array_equal(both.maps["SF"].values, sf_only.maps["SF"].values)
        assert both.maps["SF"].omegas == sf_only.maps["SF"].omegas == (both.omegas[-1],)


def assert_no_child_left():
    # every child of this process has been reaped, none is running or a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def same_run_files(a: Path, b: Path) -> bool:
    # byte-identical run directories, but for the metrics.json timestamp
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        one, two = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "metrics.json":
            one = b"".join(ln for ln in one.splitlines(True) if b"timestamp_utc" not in ln)
            two = b"".join(ln for ln in two.splitlines(True) if b"timestamp_utc" not in ln)
        if one != two:
            return False
    return True


class TestMapWriter:
    def test_child_error_raised_as_written_in_process(self, tmp_path):
        out = tmp_path / "run"
        (out / "map_mf.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as exc:
            harness.run_experiment(small_config(out_dir=str(out)))
        assert exc.value.filename == str(out / "map_mf.csv")
        assert str(exc.value) == f"[Errno 21] Is a directory: '{out / 'map_mf.csv'}'"
        # metrics.json marks a complete run directory
        assert not (out / "metrics.json").exists()
        assert_no_child_left()

    def test_child_share_error_raised_without_fork(self, tmp_path, monkeypatch):
        # the same error, filename and message when no child runs
        monkeypatch.delattr(harness.os, "fork")
        self.test_child_error_raised_as_written_in_process(tmp_path)

    def test_child_value_error_gains_the_config_context(self, tmp_path, monkeypatch):
        def failing_pgm(image, path):
            raise ValueError("injected failure")

        monkeypatch.setattr(harness, "save_map_pgm", failing_pgm)
        with pytest.raises(harness.ExperimentError) as exc:
            harness.run_experiment(small_config(out_dir=str(tmp_path / "run")))
        assert type(exc.value.__cause__) is ValueError
        assert str(exc.value.__cause__) == "injected failure"
        assert_no_child_left()

    def test_child_exit_without_a_message(self, tmp_path, monkeypatch):
        # the child leaves without writing its share; the run writes it again
        parent, save_pgm = os.getpid(), harness.save_map_pgm

        def exiting_pgm(image, path):
            if os.getpid() != parent:
                os._exit(3)
            save_pgm(image, path)

        monkeypatch.setattr(harness, "save_map_pgm", exiting_pgm)
        harness.run_experiment(small_config(out_dir=str(tmp_path / "run")))
        assert_no_child_left()
        monkeypatch.delattr(harness.os, "fork")
        harness.run_experiment(small_config(out_dir=str(tmp_path / "inline")))
        assert same_run_files(tmp_path / "run", tmp_path / "inline")

    def test_child_killed_after_a_partial_file(self, tmp_path, monkeypatch):
        # the child cuts a written map short and is killed; the run's rewrite
        # leaves every file complete
        parent, save_csv = os.getpid(), harness.save_map_csv

        def killed_csv(image, path, *args, **kwargs):
            save_csv(image, path, *args, **kwargs)
            if os.getpid() != parent:
                with open(path, "r+b") as fh:
                    fh.truncate(Path(path).stat().st_size // 2)
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(harness, "save_map_csv", killed_csv)
        harness.run_experiment(small_config(out_dir=str(tmp_path / "run")))
        assert_no_child_left()
        monkeypatch.delattr(harness.os, "fork")
        harness.run_experiment(small_config(out_dir=str(tmp_path / "inline")))
        assert same_run_files(tmp_path / "run", tmp_path / "inline")

    def test_parent_error_after_the_fork(self, tmp_path, monkeypatch):
        def failing_distance(*args, **kwargs):
            raise ValueError("injected failure")

        monkeypatch.setattr(harness, "distance_to_curves", failing_distance)
        out = tmp_path / "run"
        with pytest.raises(harness.ExperimentError, match="injected failure"):
            harness.run_experiment(small_config(out_dir=str(out)))
        assert not (out / "metrics.json").exists()
        assert_no_child_left()

    def test_unflushed_output_appears_once(self, tmp_path, capfd, monkeypatch):
        # stdout block-buffered, as when it is a pipe or a file: text still in
        # the buffer at the fork must not be written by the child as well
        stdout = io.TextIOWrapper(open(os.dup(1), "wb"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            print("written before the run")
            harness.run_experiment(small_config(out_dir=str(tmp_path / "run")))
        finally:
            stdout.close()
        assert capfd.readouterr().out.count("written before the run") == 1
        assert_no_child_left()

    def test_inline_writer_writes_the_same_files(self, tmp_path, monkeypatch):
        # a reduced fig1, written by the forked child and then in-process
        cfg = replace(harness.preset_config("fig1"), grid=img.ImageGrid(nx=41, ny=41), frequencies=3)
        harness.run_experiment(replace(cfg, out_dir=str(tmp_path / "forked")))
        monkeypatch.delattr(harness.os, "fork")
        harness.run_experiment(replace(cfg, out_dir=str(tmp_path / "inline")))
        names = {p.name for p in (tmp_path / "inline").iterdir()}
        assert {"map_mf.csv", "map_log_norm.csv", "map_wmf1.pgm", "metrics.json"} <= names
        assert same_run_files(tmp_path / "forked", tmp_path / "inline")

    @pytest.mark.parametrize(
        "functionals, own",
        [
            (("SF",), ()),
            (("MF", "WMF(1)", "LOG"), ("log",)),
            (("SF", "MF", "WMF(1)", "WMF(2)", "WMF(3)", "LOG"), ("wmf3", "log")),
        ],
        ids=["1-tag", "3-tag", "6-tag"],
    )
    def test_run_writes_the_last_third_of_the_maps(self, tmp_path, monkeypatch, functionals, own):
        # the child writes the other tags' files; the directory is the inline run's
        cfg = replace(
            harness.preset_config("fig1"),
            grid=img.ImageGrid(nx=41, ny=41),
            frequencies=3,
            functionals=functionals,
        )
        log, parent = tmp_path / "writers.txt", os.getpid()
        for name in ("save_map_csv", "save_map_pgm"):

            def logged(image, path, *args, save=getattr(harness, name), **kwargs):
                with open(log, "a", encoding="ascii") as fh:
                    fh.write(f"{Path(path).name} {os.getpid() == parent}\n")
                save(image, path, *args, **kwargs)

            monkeypatch.setattr(harness, name, logged)
        harness.run_experiment(replace(cfg, out_dir=str(tmp_path / "split")))
        writers = dict(line.split() for line in log.read_text(encoding="ascii").splitlines())
        slugs = [harness._tag_slug(tag) for tag in functionals]
        assert writers == {
            name: str(slug in own)
            for slug in slugs
            for name in (f"map_{slug}.csv", f"map_{slug}_norm.csv", f"map_{slug}.pgm")
        }
        assert_no_child_left()
        monkeypatch.delattr(harness.os, "fork")
        harness.run_experiment(replace(cfg, out_dir=str(tmp_path / "inline")))
        assert same_run_files(tmp_path / "split", tmp_path / "inline")

    def test_error_in_the_runs_own_share(self, tmp_path):
        out = tmp_path / "run"
        (out / "map_log.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as exc:
            harness.run_experiment(small_config(out_dir=str(out)))
        assert exc.value.filename == str(out / "map_log.csv")
        assert not (out / "metrics.json").exists()
        assert_no_child_left()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "tag, known",
        [("SF", True), ("MF", True), ("WMF(0)", True), ("WMF(12)", True), ("LOG", True),
         ("WMF(01)", False), ("sf", False), ("MF\n", False), ("", False)],
        ids=["SF", "MF", "WMF0", "WMF12", "LOG", "WMF01", "sf", "MF-newline", "empty"],
    )
    def test_config_and_map_multi_share_one_vocabulary(self, tag, known):
        grid = img.ImageGrid(nx=3, ny=3)
        total = np.ones((3, 3), dtype=complex)

        def accepts(build):
            try:
                build()
            except ValueError:
                return False
            return True

        config_ok = accepts(lambda: harness.ExperimentConfig(functionals=(tag,)))
        map_ok = accepts(lambda: img.map_multi(total, [2 * math.pi / 0.5], grid, tag))
        assert config_ok == map_ok == known

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_tau_in_open_unit_interval(self, tau):
        with pytest.raises(ValueError, match="tau"):
            small_config(tau=tau)

    @pytest.mark.parametrize("directions", [1, 0, -4])
    def test_at_least_two_directions(self, directions):
        with pytest.raises(ValueError, match="directions"):
            small_config(directions=directions)

    @pytest.mark.parametrize("frequencies", [0, -1])
    def test_at_least_one_frequency(self, frequencies):
        with pytest.raises(ValueError, match="frequenc"):
            small_config(frequencies=frequencies)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("directions", 48.0),
            ("directions", True),
            ("frequencies", 2.5),
            ("frequencies", "2"),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            small_config(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = small_config(directions=np.int64(48), frequencies=np.int32(2), seed=np.int64(3))
        assert (cfg.directions, cfg.frequencies, cfg.seed) == (48, 2, 3)

    @pytest.mark.parametrize(
        "lambda_max, lambda_min",
        [(0.5, 0.0), (0.5, -0.3), (0.3, 0.5), (0.5, 0.5), (math.nan, 0.3), (math.inf, 0.3)],
    )
    def test_wavelength_band(self, lambda_max, lambda_min):
        with pytest.raises(ValueError, match="lambda_min"):
            small_config(lambda_max=lambda_max, lambda_min=lambda_min)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(c=(0.0, 0.0, 0.0)), "steering vector c"),
            (dict(c=(1.0, 0.0)), "steering vector c"),
            (dict(functionals=("LOG",), lambda_max=7.0, lambda_min=6.0), "LOG needs omega > 1"),
            (dict(functionals=("LOG",), lambda_max=2 * math.pi, lambda_min=6.0), "LOG"),
            (dict(functionals=("MF", "MF")), "repeat"),
            (dict(functionals=("SF", "LOG", "SF")), "repeat"),
            (dict(c=(math.nan, 0.0, 1.0)), "steering vector c"),
            (dict(snr_db=math.nan), "snr_db"),
            (dict(snr_db=-math.inf), "snr_db"),
            (dict(snr_db=-4000.0), "snr_db"),
            (dict(seed=-1), "seed"),
            (dict(functionals=("MF\n",)), "unknown functional"),
            (dict(functionals=("WMF(\u0663)",)), "unknown functional"),
            # WMF(01) would name WMF(1) a second time under another tag
            (dict(functionals=("WMF(1)", "WMF(01)")), "unknown functional tag 'WMF\\(01\\)'"),
            (dict(functionals=("WMF(00)",)), "unknown functional"),
            # assemble_msr's prefactor h omega^2 ... at the band's ends
            (dict(functionals=("MF",), lambda_max=1e300), "underflows to 0.*lambda_max"),
            (dict(inclusions=(harness.InclusionSpec(curve="sigma1", h=1e308),)),
             "overflows.*h is too large"),
        ],
        ids=[
            "c-zero", "c-short", "log-band", "log-omega-one", "repeated", "repeated-sf",
            "c-nan", "snr-nan", "snr-minus-inf", "snr-overflow", "seed", "trailing-newline",
            "non-ascii-power", "leading-zero-power", "zero-power-padded",
            "prefactor-underflow", "prefactor-overflow",
        ],
    )
    def test_rejected_before_the_run(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "spec, match",
        [
            (dict(curve="sigma9"), "unknown curve 'sigma9'"),
            (dict(curve=""), "unknown curve ''"),
            (dict(curve="sigma1", h=-1.0), "h must be positive"),
            (dict(curve="sigma1", h=math.nan), "h must be positive"),
            (dict(curve="sigma1", eps=0.5), "eps=0.5"),
            (dict(curve="sigma1", mu=0.99), "mu=0.99"),
            (dict(curve="sigma1", h=math.inf), "h must be positive and finite"),
            (dict(curve="sigma1", eps=math.inf), "eps=inf"),
            (dict(curve="sigma1", mu=math.inf), "mu=inf"),
            # zero contrast: the inclusion matches the background and scatters nothing
            (dict(curve="sigma1", eps=1.0, mu=1.0), "eps = mu = 1"),
        ],
        ids=["curve", "curve-empty", "h", "h-nan", "eps", "mu", "h-inf", "eps-inf", "mu-inf",
             "zero-contrast"],
    )
    def test_inclusion_rejected_when_built(self, spec, match):
        with pytest.raises(ValueError, match=match):
            harness.InclusionSpec(**spec)

    @pytest.mark.parametrize(
        "band, curves, m",
        [
            # F = 1 runs at lambda_max alone, F > 1 down to lambda_min
            (dict(frequencies=1, lambda_max=0.5, lambda_min=0.3), ("sigma1",), 5),
            (dict(frequencies=2, lambda_max=0.5, lambda_min=0.4), ("sigma1",), 6),
            # the longer curve sets the bound: M = 7 for sigma1, 8 for sigma2
            (dict(frequencies=10, lambda_max=0.5, lambda_min=0.3), ("sigma1", "sigma2"), 8),
        ],
        ids=["F1", "F2", "two-curves"],
    )
    def test_segment_count_below_directions(self, band, curves, m):
        # the resolution rule M < N, checked when the config is built
        inclusions = tuple(harness.InclusionSpec(curve=name) for name in curves)
        with pytest.raises(fwd.ConfigurationError, match=f"M={m} must stay below N={m} ") as exc:
            small_config(inclusions=inclusions, directions=m, **band)
        assert f"({curves[-1]} at wavelength " in str(exc.value)
        assert small_config(inclusions=inclusions, directions=m + 1, **band).directions == m + 1

    @pytest.mark.parametrize(
        "band, curves, k, small, enough",
        [
            (dict(frequencies=1, lambda_max=0.5, lambda_min=0.3), ("sigma1",), 5, (2, 2), (2, 3)),
            (dict(frequencies=2, lambda_max=0.5, lambda_min=0.4), ("sigma1",), 6, (2, 2), (2, 3)),
            # the peaks of both curves: M = 7 for sigma1 and 8 for sigma2
            (dict(frequencies=10, lambda_max=0.5, lambda_min=0.3), ("sigma1", "sigma2"), 15,
             (2, 7), (3, 5)),
        ],
        ids=["F1", "F2", "two-curves"],
    )
    def test_grid_holds_the_map_peaks(self, band, curves, k, small, enough):
        # localization_error reads the sum of M top points of each map, so a
        # grid with fewer points is rejected when the config is built
        inclusions = tuple(harness.InclusionSpec(curve=name) for name in curves)
        nx, ny = small
        with pytest.raises(ValueError, match=f"grid {nx}x{ny} has fewer points than the {k} "):
            small_config(inclusions=inclusions, grid=img.ImageGrid(nx=nx, ny=ny), **band)
        # a grid just large enough runs to the end
        nx, ny = enough
        report = harness.run_experiment(
            small_config(inclusions=inclusions, grid=img.ImageGrid(nx=nx, ny=ny), **band)
        )
        assert set(report.metrics) == {"MF", "WMF(1)", "LOG"}

    def test_valid_edges_accepted(self):
        # the smallest configurations the pipeline accepts stay valid
        small_config(directions=7, tau=1e-9)  # sigma1 has M = 6 at lambda = 0.4
        small_config(snr_db=-3000.0)  # a noise factor of 1e300 is still finite
        small_config(frequencies=1, lambda_max=0.5, lambda_min=0.5)
        small_config(tau=0.999)
        small_config(functionals=("MF",), lambda_max=7.0, lambda_min=6.0)
        small_config(functionals=("LOG",), lambda_max=6.0, lambda_min=5.0)
        small_config(functionals=("WMF(0)", "WMF(10)"))
        for name in harness.PRESETS:
            harness.preset_config(name)


class TestConfigFiles:
    def test_roundtrip(self, tmp_path):
        cfg = harness.preset_config("fig4")
        path = tmp_path / "cfg.txt"
        harness.save_config(cfg, path)
        back = harness.load_config(path)
        assert back.inclusions == cfg.inclusions
        assert back.directions == cfg.directions
        assert back.functionals == cfg.functionals
        assert back.grid == cfg.grid
        assert back.c == cfg.c
        assert harness._config_hash(back) == harness._config_hash(cfg)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(snr_db=10, lambda_max=np.float64(0.5)),
            dict(c=(1, 0, np.int64(1)), tau=np.float64(0.01), seed=np.int64(0)),
            dict(grid=img.ImageGrid(x_min=-1, x_max=np.float64(1.0), y_min=np.int32(-1), y_max=1)),
            dict(inclusions=(
                harness.InclusionSpec(curve="sigma1", h=np.float64(0.015), eps=5, mu=np.float32(5)),
            )),
        ],
        ids=["ints-and-numpy-floats", "steering-tau-seed", "grid-bounds", "materials"],
    )
    def test_equal_configs_hash_equally(self, tmp_path, overrides):
        cfg, default = harness.ExperimentConfig(**overrides), harness.ExperimentConfig()
        assert cfg == default
        path = tmp_path / "cfg.txt"
        harness.save_config(cfg, path)
        back = harness.load_config(path)
        assert back == cfg
        hashes = {harness._config_hash(c) for c in (cfg, back, default)}
        assert len(hashes) == 1

    def test_preset_hashes_pinned(self, tmp_path):
        # metrics.json and the CLI print these; a change to the hash moves them
        fig1 = "44b5b1b1d1766c67c5598f451f6b566e6ca43d15ae76ea00975d635457150003"
        fig4 = "88d2d497da393416531dcfa510f6971ee4ea6722001b9691a18ddc4d0c52349d"
        for name, expected in (("fig1", fig1), ("fig4", fig4)):
            cfg = harness.preset_config(name)
            path = tmp_path / f"{name}.txt"
            harness.save_config(cfg, path)
            assert harness._config_hash(cfg) == expected
            assert harness._config_hash(harness.load_config(path)) == expected

    def test_header_versioned(self, tmp_path):
        path = tmp_path / "cfg.txt"
        harness.save_config(harness.preset_config("fig1"), path)
        assert path.read_text().splitlines()[0] == "# submig config v1"

    def test_infinite_snr_roundtrip(self, tmp_path):
        cfg = replace(harness.preset_config("fig1"), snr_db=math.inf)
        path = tmp_path / "cfg.txt"
        harness.save_config(cfg, path)
        assert harness.load_config(path).snr_db == math.inf

    def test_presets_cover_figures(self):
        assert set(harness.PRESETS) == {"fig1", "fig2", "fig3", "fig4"}
        sigma1, sigma2 = (harness.InclusionSpec(curve=name) for name in ("sigma1", "sigma2"))
        inclusions = {
            "fig1": (sigma1,),
            "fig2": (sigma2,),
            "fig3": (sigma1, sigma2),
            "fig4": (sigma1, replace(sigma2, eps=10.0, mu=10.0)),
        }
        for name, expected in inclusions.items():
            assert harness.preset_config(name) == harness.ExperimentConfig(inclusions=expected)
        assert harness.preset_config("fig4", out_dir="run", seed=3) == harness.ExperimentConfig(
            inclusions=inclusions["fig4"], out_dir="run", seed=3
        )
        fig4 = harness.preset_config("fig4")
        assert fig4.inclusions[0].eps == 5.0
        assert fig4.inclusions[1].eps == 10.0
        fig3 = harness.preset_config("fig3")
        assert {s.eps for s in fig3.inclusions} == {5.0}

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            harness.preset_config("fig9")

    @pytest.mark.parametrize("line", ["curvs = sigma2", "snr = 5"])
    def test_unknown_key_rejected(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        harness.save_config(harness.preset_config("fig1"), path)
        path.write_text(path.read_text() + line + "\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError, match=f"'{key}'") as exc:
            harness.load_config(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("c = 1,2", "c takes 3 values, got '1,2'"),
            ("c = 1,0,1,5", "c takes 3 values"),
            ("bounds = -1,1", "bounds takes 4 values"),
            ("grid = 51,52,53", "grid takes 1 or 2 values"),
            ("grid = 51.5", "grid has a malformed value"),
            ("eps = 5,10", "eps takes 1 value"),
            ("tau = abc", "tau has a malformed value 'abc'"),
            ("tau = 0.1,0.2", "tau takes 1 value"),
            ("directions = 4.5", "directions has a malformed value"),
            ("seed = ", "seed has a malformed value"),
            ("snr_db = nan", "snr_db must be"),
            ("curves = sigma1,,sigma2", "unknown curve ''"),
            ("functionals = MF,,LOG", "unknown functional tag ''"),
            ("no equals sign", "malformed line"),
        ],
    )
    def test_malformed_value_rejected(self, tmp_path, line, match):
        # appended last, so the line overrides the saved value of its key
        path = tmp_path / "cfg.txt"
        harness.save_config(harness.preset_config("fig1"), path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match=re.escape(match)) as exc:
            harness.load_config(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_missing_keys_keep_the_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# submig config v1\ntau = 0.05\n")
        assert harness.load_config(path) == harness.ExperimentConfig(tau=0.05)
        assert harness.load_config(path, out_dir="run").out_dir == "run"


# the flag that spells each file key (functionals: one --functional per tag)
FLAG_OF_KEY = {
    "curves": "--curves", "eps": "--eps", "mu": "--mu", "h": "--h", "directions": "--N",
    "frequencies": "--F", "lambda_max": "--lambda-max", "lambda_min": "--lambda-min",
    "snr_db": "--snr-db", "seed": "--seed", "grid": "--grid", "tau": "--tau", "c": "--c",
}

TWO_CURVES = harness.ExperimentConfig(
    inclusions=(
        harness.InclusionSpec(curve="sigma1", h=0.02, eps=3.0, mu=7.0),
        harness.InclusionSpec(curve="sigma2", h=0.01, eps=10.0, mu=2.5),
    ),
    snr_db=math.inf,
    seed=11,
    functionals=("SF", "WMF(2)"),
    grid=img.ImageGrid(nx=150, ny=97),
    c=(1.0, 1.0, 0.0),
)


class TestOneParser:
    @pytest.mark.parametrize(
        "cfg",
        [*(harness.preset_config(name) for name in harness.PRESETS), TWO_CURVES],
        ids=[*harness.PRESETS, "two-curves"],
    )
    def test_flags_and_file_give_the_same_config(self, tmp_path, cfg):
        path = tmp_path / "cfg.txt"
        harness.save_config(cfg, path)
        argv = []
        for line in path.read_text().splitlines()[1:]:
            key, value = (part.strip() for part in line.split("="))
            if key == "functionals":
                for tag in value.split(","):
                    argv += ["--functional", tag]
            elif key == "bounds":
                assert cfg.grid == replace(img.ImageGrid(), nx=cfg.grid.nx, ny=cfg.grid.ny)
            else:
                argv += [FLAG_OF_KEY[key], value]
        from_flags = config_from_args(build_parser().parse_args(argv))
        from_file = harness.load_config(path)
        assert from_flags == from_file == cfg
        assert harness._config_hash(from_flags) == harness._config_hash(from_file)


class TestCli:
    def _cfg(self, argv):
        return config_from_args(build_parser().parse_args(argv))

    def test_preset_with_overrides(self):
        cfg = self._cfg(
            [
                "--preset",
                "fig1",
                "--seed",
                "7",
                "--snr-db",
                "inf",
                "--grid",
                "51",
                "--out-dir",
                "out",
            ]
        )
        assert cfg.seed == 7
        assert cfg.snr_db == math.inf
        assert cfg.grid.nx == 51 and cfg.grid.ny == 51
        assert cfg.out_dir == "out"

    def test_curves_and_materials(self):
        cfg = self._cfg(
            ["--curves", "sigma1,sigma2", "--eps", "5,10", "--mu", "5,10", "--h", "0.02"]
        )
        assert len(cfg.inclusions) == 2
        assert cfg.inclusions[1].eps == 10.0
        assert cfg.inclusions[0].h == 0.02

    def test_functional_flags(self):
        cfg = self._cfg(["--functional", "MF", "--functional", "LOG"])
        assert cfg.functionals == ("MF", "LOG")

    def test_steering_flag(self):
        cfg = self._cfg(["--c", "1,0,0"])
        assert cfg.c == (1.0, 0.0, 0.0)

    def test_wavelength_pair_overridden_together(self):
        # both new wavelengths lie below the default lambda_min
        cfg = self._cfg(["--lambda-max", "0.2", "--lambda-min", "0.1"])
        assert (cfg.lambda_max, cfg.lambda_min) == (0.2, 0.1)

    def test_overrides_validated_together(self):
        # LOG is a default functional but is rejected at lambda_max = 7: the
        # wavelengths and the functionals are applied at once
        cfg = self._cfg(["--lambda-max", "7", "--lambda-min", "6", "--functional", "MF"])
        assert (cfg.lambda_max, cfg.lambda_min, cfg.functionals) == (7.0, 6.0, ("MF",))
        cfg = self._cfg(["--preset", "fig4", "--functional", "MF", "--lambda-max", "7"])
        assert cfg.lambda_max == 7.0 and len(cfg.inclusions) == 2

    def test_curve_is_an_alias_of_curves(self):
        assert self._cfg(["--curve", "sigma2"]).inclusions == (
            harness.InclusionSpec(curve="sigma2"),
        )
        # the last flag given wins
        assert len(self._cfg(["--curve", "sigma2", "--curves", "sigma1,sigma2"]).inclusions) == 2
        assert len(self._cfg(["--curves", "sigma1,sigma2", "--curve", "sigma2"]).inclusions) == 1
        assert self._cfg(["--tau", "0.2", "--tau", "0.3"]).tau == 0.3

    def test_config_file_source(self, tmp_path):
        path = tmp_path / "cfg.txt"
        harness.save_config(harness.preset_config("fig2"), path)
        cfg = self._cfg(["--config", str(path), "--tau", "0.05"])
        assert cfg.inclusions[0].curve == "sigma2"
        assert cfg.tau == 0.05

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--tau", "2"], "tau"),
            (["--grid", "1"], "grid resolution"),
            (["--functional", "XYZ"], "functional"),
            (["--config", "missing.cfg"], "missing.cfg"),
            (["--c", "0,0,0"], "steering vector c"),
            (["--functional", "LOG", "--lambda-max", "7", "--lambda-min", "6", "--F", "2"],
             "LOG"),
            (["--functional", "MF", "--functional", "MF"], "functional"),
            (["--curve", "sigma9"], "curve"),
            (["--curves", "sigma1,,sigma2"], "curve"),
            (["--eps", "0.5"], "eps"),
            (["--h", "-1"], "h must"),
            (["--snr-db", "nan"], "snr_db"),
            (["--grid", "51,52,53"], "grid takes"),
            (["--c", "1,0,1,5"], "c takes"),
            (["--tau", "abc"], "tau has"),
            (["--N", "4.5"], "directions has"),
            (["--config", "bad.cfg"], "bad.cfg: c takes"),
            (["--N", "4", "--grid", "11", "--F", "1"], "M=5 must stay below N=4"),
            (["--functional", "WMF(1)", "--functional", "WMF(01)"], "WMF(01)"),
            (["--eps", "1", "--mu", "1"], "eps = mu = 1"),
            (["--h", "inf"], "h must"),
            (["--eps", "inf"], "eps=inf"),
            (["--mu", "inf"], "mu=inf"),
            (["--snr-db", "-4000"], "snr_db"),
            (["--preset", "fig1", "--N", "7"], "M=7 must stay below N=7 directions"),
            (["--lambda-max", "1e300", "--functional", "MF"], "lambda_max is too large"),
            (["--h", "1e308"], "h is too large"),
            (["--preset", "fig1", "--grid", "2"], "grid 2x2 has fewer points than the 7 "),
        ],
        ids=[
            "tau", "grid", "functional", "config", "c", "log-band", "repeated-functional",
            "unknown-curve", "empty-curve", "eps", "h", "snr-nan", "grid-count", "c-count",
            "tau-malformed", "directions-malformed", "config-c-count",
            "segments-exceed-directions", "non-canonical-power", "zero-contrast", "h-inf",
            "eps-inf", "mu-inf", "snr-overflow", "preset-segments-exceed-directions",
            "prefactor-underflow", "prefactor-overflow", "grid-below-peaks",
        ],
    )
    def test_bad_config_is_a_usage_error(self, argv, names, tmp_path):
        (tmp_path / "bad.cfg").write_text("c = 1,2\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "submig.cli", *argv, "--out-dir", str(tmp_path / "out")],
            env=env, cwd=tmp_path, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: submig") and "submig: error: " in proc.stderr
        error = proc.stderr.splitlines()[-1]
        assert error.startswith("submig: error: ") and names in error
        assert proc.stderr.count("submig: error: ") == 1
        assert not (tmp_path / "out").exists()


def test_list_presets_output(capsys):
    # the presets are built on demand; the listing is pinned byte for byte
    assert main(["--list-presets"]) == 0
    assert capsys.readouterr().out == (
        "fig1: curves=sigma1 N=48 F=10 lambda=0.5..0.3 snr_db=10.0 seed=0\n"
        "fig2: curves=sigma2 N=48 F=10 lambda=0.5..0.3 snr_db=10.0 seed=0\n"
        "fig3: curves=sigma1,sigma2 N=48 F=10 lambda=0.5..0.3 snr_db=10.0 seed=0\n"
        "fig4: curves=sigma1,sigma2 N=48 F=10 lambda=0.5..0.3 snr_db=10.0 seed=0\n"
    )


def test_import_builds_no_config():
    # presets are settings built on demand, so an import pays for no M < N check
    script = (
        "import sys\n"
        "built = []\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == '__post_init__':\n"
        "        built.append(type(frame.f_locals['self']).__name__)\n"
        "sys.setprofile(watch)\n"
        "import submig, submig.cli\n"
        "sys.setprofile(None)\n"
        "print('ExperimentConfig' in built, 'InclusionSpec' in built)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    # the default inclusion is built once, as the dataclass default
    assert proc.stdout == "False True\n"


def test_artifacts_independent_of_blas_threads(tmp_path):
    # a reduced fig4 in fresh interpreters at one and two BLAS threads (set
    # before numpy is imported), and in this process
    argv = ["--preset", "fig4", "--grid", "41", "--F", "3", "--out-dir"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "submig.cli", *argv, str(out)],
            check=True, env=env, capture_output=True,
        )
        outputs[threads] = out
    outputs["in-process"] = tmp_path / "in-process"
    assert main([*argv, str(outputs["in-process"])]) == 0
    names = sorted(p.name for p in outputs["1"].iterdir())
    assert names == sorted(p.name for p in outputs["2"].iterdir())
    assert any(n.endswith(".pgm") for n in names) and "msr_f02.txt" in names
    for name in names:
        one = (outputs["1"] / name).read_bytes()
        two = (outputs["2"] / name).read_bytes()
        if name == "metrics.json":
            one = b"".join(ln for ln in one.splitlines(True) if b"timestamp_utc" not in ln)
            two = b"".join(ln for ln in two.splitlines(True) if b"timestamp_utc" not in ln)
        assert one == two, name
    maps = [name for name in names if name.startswith("map_")]
    assert len(maps) == 3 * 3
    for name in maps:
        assert (outputs["in-process"] / name).read_bytes() == (outputs["1"] / name).read_bytes()


def test_benchmark_bindings_resolve():
    # perfbench/spans.py wraps these names from outside the program; a name
    # that no longer resolves turns its layer metrics into null
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for _, module, attr in spans.BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.BINDINGS and not missing


def test_runtime_imports_only_numpy():
    # the package runs on the standard library and numpy alone
    allowed = set(sys.stdlib_module_names) | {"numpy", "submig"}
    src = Path(__file__).resolve().parents[1] / "src" / "submig"
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign
