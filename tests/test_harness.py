import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from submig import forward as fwd
from submig import geometry as geo
from submig import harness
from submig import imaging as img
from submig.cli import build_parser, config_from_args


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

    def test_sample_count_not_a_block_multiple(self):
        pts = np.array([[0.0, 0.0], [0.4, -0.3], [5.0, 5.0]])
        for samples in (2, 63, 65, 130):
            got = harness.distance_to_curves(pts, SIGMA12, samples)
            assert np.array_equal(got, brute_force_distance(pts, SIGMA12, samples))

    def test_points_on_samples_are_zero(self):
        c = SIGMA1[0]
        pts = np.asarray(c.position(np.linspace(c.s_min, c.s_max, 2001)))[::97]
        assert np.all(harness.distance_to_curves(pts, SIGMA1) == 0.0)


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
        assert harness.sidelobe_energy(image, curves, 0.15) == pytest.approx(
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
        got = harness.sidelobe_energy(image, [line], 0.5)
        dist = harness.distance_to_curves(grid.points(), [line])
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
        assert harness.sidelobe_energy(image, [curve], 0.15) == 0.0
        assert harness.localization_error(image, [curve], 1) < 0.05

    def test_localization_uniform_map_mean_distance(self):
        image = self._uniform_map()
        curves = [geo.get_curve("sigma1")]
        dist = harness.distance_to_curves(image.grid.points(), curves)
        got = harness.localization_error(image, curves, image.values.size)
        assert got == pytest.approx(dist.mean(), abs=1e-12)

    def test_localization_k_bounds(self):
        image = self._uniform_map()
        with pytest.raises(ValueError):
            harness.localization_error(image, [geo.get_curve("sigma1")], 0)
        with pytest.raises(ValueError):
            harness.localization_error(image, [geo.get_curve("sigma1")], 10**9)


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

    def test_zero_contrast_raises_with_context(self):
        cfg = small_config(
            inclusions=(harness.InclusionSpec(curve="sigma1", eps=1.0, mu=1.0),)
        )
        with pytest.raises(harness.ExperimentError) as exc:
            harness.run_experiment(cfg)
        assert isinstance(exc.value.__cause__, img.EmptySubspaceError)
        assert "curves=sigma1" in str(exc.value)

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

    def test_sf_functional_uses_finest_wavelength(self):
        cfg = small_config(functionals=("SF",))
        report = harness.run_experiment(cfg)
        assert report.maps["SF"].omegas == (report.omegas[-1],)

    def test_invalid_functional_rejected(self):
        with pytest.raises(ValueError):
            small_config(functionals=("XYZ",))


class TestConfigValidation:
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
        "lambda_max, lambda_min",
        [(0.5, 0.0), (0.5, -0.3), (0.3, 0.5), (0.5, 0.5), (math.nan, 0.3)],
    )
    def test_wavelength_band(self, lambda_max, lambda_min):
        with pytest.raises(ValueError, match="lambda_min"):
            small_config(lambda_max=lambda_max, lambda_min=lambda_min)

    def test_valid_edges_accepted(self):
        # the smallest configurations the pipeline accepts stay valid
        small_config(directions=2, tau=1e-9)
        small_config(frequencies=1, lambda_max=0.5, lambda_min=0.5)
        small_config(tau=0.999)
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

    def test_config_file_source(self, tmp_path):
        path = tmp_path / "cfg.txt"
        harness.save_config(harness.preset_config("fig2"), path)
        cfg = self._cfg(["--config", str(path), "--tau", "0.05"])
        assert cfg.inclusions[0].curve == "sigma2"
        assert cfg.tau == 0.05


def test_artifacts_independent_of_blas_threads(tmp_path):
    # a reduced fig1 in fresh interpreters at one and two BLAS threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "submig.cli", "--preset", "fig1", "--grid", "41",
             "--F", "3", "--out-dir", str(out)],
            check=True, env=env, capture_output=True,
        )
        outputs[threads] = out
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
