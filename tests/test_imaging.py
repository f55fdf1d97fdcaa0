import math

import numpy as np
import pytest

from submig import forward as fwd
from submig import geometry as geo
from submig import imaging as img
from submig import spectral

OMEGA_05 = 2 * math.pi / 0.5


def sigma1_inclusion(eps=5.0, mu=5.0):
    return geo.ThinInclusion(curve=geo.get_curve("sigma1"), permittivity=eps, permeability=mu)


def pipeline(inclusion, wavelengths, n=48, snr_db=math.inf, seed=0):
    dirs = fwd.make_directions(n)
    ks = []
    for i, lam in enumerate(wavelengths):
        k = fwd.assemble_msr(dirs, 2 * math.pi / lam, inclusion)
        if snr_db != math.inf:
            k = fwd.add_awgn(k, snr_db, fwd.derive_stream_seed(seed, i))
        ks.append((k, spectral.svd(k)))
    return dirs, ks


class TestTestVector:
    def test_monopole_components(self):
        dirs = fwd.make_directions(8)
        w = img.test_vector((0.0, 0.0), OMEGA_05, dirs, img.SteeringConfig(c=(1, 0, 0)))
        assert np.allclose(w, 1.0 / math.sqrt(8), atol=1e-14)

    def test_unit_norm(self):
        dirs = fwd.make_directions(48)
        w = img.test_vector((0.3, -0.1), OMEGA_05, dirs)
        assert np.vdot(w, w).real == pytest.approx(1.0, abs=1e-14)

    def test_component_formula(self):
        dirs = fwd.make_directions(48)
        z = np.array([0.3, -0.1])
        w = img.test_vector(z, OMEGA_05, dirs)
        amps = 1.0 + dirs.thetas[:, 1]
        expected = amps * np.exp(1j * OMEGA_05 * (dirs.thetas @ z))
        expected = expected / np.linalg.norm(amps)
        assert np.allclose(w, expected, atol=1e-14)
        # first direction is (-1, 0): amplitude 1, phase exp(-i omega 0.3)
        assert w[0] * np.linalg.norm(amps) == pytest.approx(
            np.exp(-1j * OMEGA_05 * 0.3), rel=1e-12
        )

    def test_degenerate_steering(self):
        dirs = fwd.DirectionSet(thetas=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        with pytest.raises(img.DegenerateSteeringError):
            img.test_vector((0.0, 0.0), OMEGA_05, dirs, img.SteeringConfig(c=(0, 0, 1)))

    def test_zero_c_rejected(self):
        with pytest.raises(ValueError):
            img.SteeringConfig(c=(0.0, 0.0, 0.0))


class TestMapSingle:
    def test_zero_contrast_empty_subspace(self):
        inc = sigma1_inclusion(eps=1.0, mu=1.0)
        dirs, ks = pipeline(inc, [0.5], n=16)
        k, factors = ks[0]
        with pytest.raises(img.EmptySubspaceError):
            img.map_single(k, factors, img.ImageGrid(nx=21, ny=21))

    def test_synthetic_rank_one_peak_location(self):
        dirs = fwd.make_directions(32)
        target = np.array([0.31, -0.22])
        w = img.test_vector(target, OMEGA_05, dirs)
        k = fwd.MsrMatrix(omega=OMEGA_05, entries=np.outer(w, w), dirs=dirs)
        grid = img.ImageGrid(nx=81, ny=81)
        out = img.map_single(k, spectral.svd(k), grid)
        iy, ix = np.unravel_index(np.argmax(out.values), out.values.shape)
        cell = np.hypot(grid.xs[1] - grid.xs[0], grid.ys[1] - grid.ys[0])
        assert np.hypot(grid.xs[ix] - target[0], grid.ys[iy] - target[1]) <= cell

    def test_on_curve_dominates_median(self):
        # monopole-dominated contrast keeps the signal subspace at M vectors
        inc = sigma1_inclusion(eps=5.0, mu=1.0)
        dirs, ks = pipeline(inc, [0.5])
        k, factors = ks[0]
        grid = img.ImageGrid(nx=101, ny=101)
        out = img.map_single(k, factors, grid)
        samples = geo.sample_curve(inc, 5)
        on_curve = []
        for smp in samples:
            ix = np.argmin(np.abs(grid.xs - smp.point[0]))
            iy = np.argmin(np.abs(grid.ys - smp.point[1]))
            on_curve.append(out.values[iy, ix])
        assert min(on_curve) >= 5.0 * np.median(out.values)

    def test_tag_and_band(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5])
        out = img.map_single(*ks[0], img.ImageGrid(nx=11, ny=11))
        assert out.tag == "SF"
        assert out.omegas == (OMEGA_05,)


class TestCorrelationKernel:
    @staticmethod
    def pointwise_map(k, factors, grid, cfg, tau=0.01):
        # the definition: full steering matrix, both subspace projections
        m = spectral.effective_rank(factors, tau)
        amps = cfg.c[0] + cfg.c[1] * k.dirs.thetas[:, 0] + cfg.c[2] * k.dirs.thetas[:, 1]
        w = amps * np.exp(1j * k.omega * (grid.points() @ k.dirs.thetas.T))
        if cfg.normalize:
            w = w / np.linalg.norm(amps)
        left = w.conj() @ factors.u[:, :m]
        right = w.conj() @ factors.v[:, :m].conj()
        return np.abs(np.sum(left * right, axis=1)).reshape(grid.ny, grid.nx)

    @pytest.mark.parametrize(
        "grid, cfg",
        [
            (img.ImageGrid(nx=23, ny=37), img.SteeringConfig()),
            (img.ImageGrid(x_min=-2, x_max=0.5, nx=40, ny=16), img.SteeringConfig(c=(1, 1, 0))),
            (img.ImageGrid(nx=2, ny=2), img.SteeringConfig(c=(1, 0, 1), normalize=False)),
        ],
    )
    def test_matches_pointwise_definition(self, grid, cfg):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.4], n=32, snr_db=10.0, seed=5)
        got = img.map_single(*ks[0], grid, cfg).values
        want = self.pointwise_map(*ks[0], grid, cfg)
        assert np.max(np.abs(got - want)) <= 1e-13 * want.max()


class TestMapMulti:
    def test_single_frequency_reduces_to_sf(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5])
        grid = img.ImageGrid(nx=31, ny=31)
        single = img.map_single(*ks[0], grid)
        multi = img.map_multi(ks, grid, weight="one")
        assert np.allclose(multi.values, single.values / 1.0, atol=1e-14)

    def test_power0_is_mf_times_f(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, np.linspace(0.5, 0.3, 3))
        grid = img.ImageGrid(nx=21, ny=21)
        mf = img.map_multi(ks, grid, weight="one")
        w0 = img.map_multi(ks, grid, weight="power(0)")
        assert np.allclose(w0.values, 3.0 * mf.values, rtol=1e-12)
        assert mf.tag == "MF" and w0.tag == "WMF(0)"

    def test_global_phase_invariance(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, np.linspace(0.5, 0.3, 3))
        grid = img.ImageGrid(nx=21, ny=21)
        base = img.map_multi(ks, grid, weight="log")
        phase = np.exp(0.9j)
        ks_rot = []
        for k, _ in ks:
            k2 = fwd.MsrMatrix(omega=k.omega, entries=phase * k.entries, dirs=k.dirs)
            ks_rot.append((k2, spectral.svd(k2)))
        rot = img.map_multi(ks_rot, grid, weight="log")
        assert np.max(np.abs(rot.values - base.values)) < 1e-9

    def test_grid_restriction_consistency(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5, 0.4])
        full = img.ImageGrid(x_min=-1, x_max=1, y_min=-1, y_max=1, nx=21, ny=21)
        sub = img.ImageGrid(x_min=-1, x_max=0, y_min=-1, y_max=0, nx=11, ny=11)
        out_full = img.map_multi(ks, full, weight="one")
        out_sub = img.map_multi(ks, sub, weight="one")
        assert np.allclose(out_sub.values, out_full.values[:11, :11], atol=1e-12)

    def test_log_requires_omega_above_one(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [15.0])  # omega = 2 pi / 15 < 1
        with pytest.raises(ValueError):
            img.map_multi(ks, img.ImageGrid(nx=11, ny=11), weight="log")

    def test_mixed_direction_sets_rejected(self):
        inc = sigma1_inclusion()
        _, ks_a = pipeline(inc, [0.5], n=48)
        _, ks_b = pipeline(inc, [0.4], n=24)
        with pytest.raises(fwd.ConfigurationError):
            img.map_multi(ks_a + ks_b, img.ImageGrid(nx=11, ny=11))

    def test_unknown_weight(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5])
        with pytest.raises(ValueError):
            img.map_multi(ks, img.ImageGrid(nx=11, ny=11), weight="cubic")


class TestExports:
    def _map(self):
        inc = sigma1_inclusion()
        dirs, ks = pipeline(inc, [0.5])
        return img.map_single(*ks[0], img.ImageGrid(nx=11, ny=11))

    def test_csv_layout(self, tmp_path):
        out = self._map()
        path = tmp_path / "map.csv"
        img.save_map_csv(out, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# submig map v1"
        assert lines[4] == "x,y,value"
        assert len(lines) == 5 + 11 * 11
        x, y, v = (float(tok) for tok in lines[5].split(","))
        assert (x, y) == (-1.0, -1.0)
        assert v == out.values[0, 0]

    def test_pgm_16bit(self, tmp_path):
        out = self._map()
        path = tmp_path / "map.pgm"
        img.save_map_pgm(out, path)
        data = path.read_bytes()
        header, _, rest = data.partition(b"65535\n")
        assert header.startswith(b"P5\n")
        pixels = np.frombuffer(rest, dtype=">u2").reshape(11, 11)
        # top row of the file is the largest y
        iy, ix = np.unravel_index(np.argmax(out.values), out.values.shape)
        assert pixels[10 - iy, ix] == 65535

    def test_pgm_8bit(self, tmp_path):
        out = self._map()
        path = tmp_path / "map8.pgm"
        img.save_map_pgm(out, path, bits=8)
        assert b"255\n" in path.read_bytes()


def test_grid_validation():
    with pytest.raises(ValueError):
        img.ImageGrid(nx=1)
    with pytest.raises(ValueError):
        img.ImageGrid(x_min=1.0, x_max=-1.0)


def test_grid_points_order():
    grid = img.ImageGrid(x_min=0, x_max=1, y_min=0, y_max=2, nx=2, ny=3)
    pts = grid.points()
    assert np.allclose(pts[0], [0, 0])
    assert np.allclose(pts[1], [1, 0])  # x varies fastest
    assert np.allclose(pts[-1], [1, 2])
