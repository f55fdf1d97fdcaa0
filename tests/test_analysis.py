import math

import numpy as np
import pytest

from submig import analysis as ana
from submig.specfun import bessel_j
from conftest import composite_simpson

# experiment band: wavelengths 0.5 down to 0.3, ten frequencies
BAND = ana.BandLimits.from_wavelengths(0.5, 0.3, 10)
J0_FIRST_ZERO = 2.404825557695772768621632


def single_scatterer(x=0.0, y=0.0):
    return ana.ScattererSet(points=np.array([[x, y]]))


def band_average_oracle(weight_fn, r, band, panels=8192):
    """Brute-force (F/width) * integral of weight(w) J0(w r)^2 dw."""
    val = composite_simpson(
        lambda w: weight_fn(w) * bessel_j(0, w * r) ** 2, band.omega1, band.omega_f, panels
    )
    return band.count / band.width * val


class TestAnalyticSf:
    def test_at_scatterer(self):
        assert ana.analytic_sf((0.0, 0.0), single_scatterer(), 12.0) == pytest.approx(1.0)

    def test_at_first_zero(self):
        omega = 12.0
        r = J0_FIRST_ZERO / omega
        assert abs(ana.analytic_sf((r, 0.0), single_scatterer(), omega)) < 1e-10

    def test_two_scatterers_additive(self):
        scat = ana.ScattererSet(points=np.array([[0.3, 0.0], [-0.3, 0.0]]))
        z = (0.0, 0.4)  # equidistant
        one = ana.analytic_sf(z, single_scatterer(0.3, 0.0), 12.0)
        assert ana.analytic_sf(z, scat, 12.0) == pytest.approx(2.0 * one, rel=1e-12)

    def test_bounded_by_count(self):
        scat = ana.ScattererSet(points=np.array([[0.1, 0.2], [-0.4, 0.1], [0.0, -0.3]]))
        rng = np.random.default_rng(0)
        for z in rng.uniform(-1, 1, size=(50, 2)):
            assert ana.analytic_sf(z, scat, 12.566) <= 3.0

    def test_broadcasts(self):
        zs = np.zeros((5, 2))
        vals = ana.analytic_sf(zs, single_scatterer(), 10.0)
        assert vals.shape == (5,)
        assert np.allclose(vals, 1.0)


class TestAnalyticMf:
    def test_at_scatterer_equals_count(self):
        got = ana.analytic_mf((0.0, 0.0), single_scatterer(), BAND)
        assert got == pytest.approx(BAND.count, rel=1e-12)

    def test_far_field_decay(self):
        r = 101.0 / BAND.omega1
        got = ana.analytic_mf((r, 0.0), single_scatterer(), BAND)
        assert got < 0.05 * BAND.count

    def test_matches_defining_integral(self):
        r = 0.1
        oracle = band_average_oracle(lambda w: 1.0, r, BAND)
        got = ana.analytic_mf((r, 0.0), single_scatterer(), BAND)
        assert abs(got - oracle) <= 1e-6 * abs(oracle)


class TestAnalyticWmf:
    def test_n0_equals_mf(self):
        z = (0.07, -0.02)
        assert ana.analytic_wmf(z, single_scatterer(), BAND, n=0) == pytest.approx(
            ana.analytic_mf(z, single_scatterer(), BAND), rel=1e-12
        )

    def test_n1_at_scatterer(self):
        got = ana.analytic_wmf((0.0, 0.0), single_scatterer(), BAND, n=1)
        expected = BAND.count * (BAND.omega_f + BAND.omega1) / 2.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_n1_matches_defining_integral(self):
        r = 0.1
        oracle = band_average_oracle(lambda w: w, r, BAND)
        got = ana.analytic_wmf((r, 0.0), single_scatterer(), BAND, n=1)
        assert abs(got - oracle) <= 1e-6 * abs(oracle)

    def test_n2_matches_defining_integral(self):
        r = 0.3
        oracle = band_average_oracle(lambda w: w**2, r, BAND)
        got = ana.analytic_wmf((r, 0.0), single_scatterer(), BAND, n=2)
        assert abs(got - oracle) <= 1e-6 * abs(oracle)

    def test_bad_power(self):
        with pytest.raises(ValueError):
            ana.analytic_wmf((0.0, 0.0), single_scatterer(), BAND, n=-1)


class TestAnalyticLog:
    def test_at_scatterer_closed_form(self):
        got = ana.analytic_log((0.0, 0.0), single_scatterer(), BAND)
        w1, wf = BAND.omega1, BAND.omega_f
        expected = (
            BAND.count / (wf - w1) * (wf * math.log(wf) - w1 * math.log(w1) - (wf - w1))
        )
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("r", [0.01, 0.05, 0.1, 0.3, 1.0])
    def test_matches_defining_integral(self, r):
        oracle = band_average_oracle(np.log, r, BAND)
        got = ana.analytic_log((r, 0.0), single_scatterer(), BAND)
        assert abs(got - oracle) <= 1e-6 * abs(oracle)

    def test_peak_exceeds_offside(self):
        near = ana.analytic_log((0.1, 0.0), single_scatterer(), BAND)
        far = ana.analytic_log((0.5, 0.0), single_scatterer(), BAND)
        assert near > far > 0.0

    def test_rejects_low_band(self):
        low = ana.BandLimits(0.5, 2.0, 5)
        with pytest.raises(ValueError):
            ana.analytic_log((0.0, 0.0), single_scatterer(), low)


class TestBatchPoints:
    Z = np.array([[0.3, 0.1], [0.6, -0.4]])
    FUNCTIONALS = {
        "mf": ana.analytic_mf,
        "wmf1": lambda z, scat, band: ana.analytic_wmf(z, scat, band, n=1),
        "wmf2": lambda z, scat, band: ana.analytic_wmf(z, scat, band, n=2),
        "log": ana.analytic_log,
    }

    @pytest.mark.parametrize("name", sorted(FUNCTIONALS))
    def test_one_scatterer_one_value_per_point(self, name):
        func = self.FUNCTIONALS[name]
        scat = single_scatterer(0.1, 0.2)
        got = func(self.Z, scat, BAND)
        assert got.shape == (2,)
        assert list(got) == [func(z, scat, BAND) for z in self.Z]
        if name == "mf":
            assert got == pytest.approx([1.2099, 0.2625], abs=1e-4)

    @pytest.mark.parametrize("name", sorted(FUNCTIONALS))
    def test_two_scatterers_one_value_per_point(self, name):
        func = self.FUNCTIONALS[name]
        scat = ana.ScattererSet(points=np.array([[0.1, 0.2], [-0.3, 0.0]]))
        got = func(self.Z, scat, BAND)
        assert list(got) == [func(z, scat, BAND) for z in self.Z]

    def test_batch_shape_follows_points(self):
        z = np.array([[[0.0, 0.0], [0.2, 0.1]], [[0.4, -0.1], [0.1, 0.1]]])
        got = ana.analytic_mf(z, single_scatterer(), BAND)
        assert got.shape == (2, 2)
        assert got[0, 0] == pytest.approx(BAND.count, rel=1e-12)

    def test_scalar_path_returns_float(self):
        assert isinstance(ana.analytic_log((0.3, 0.1), single_scatterer(), BAND), float)


class TestE1E2:
    def test_small_r_limits(self):
        e1, e2 = ana.e1_e2(1e-4, BAND)
        assert abs(e1 - BAND.width) < 1e-3
        assert abs(e2) < 1e-4

    def test_dominance_near_scatterer(self):
        e1, e2 = ana.e1_e2(0.05, BAND)
        assert e1 > e2
        assert -e1 + e2 < 0.0

    def test_negligible_far_away(self):
        for r in (5.0, 10.0):
            e1, e2 = ana.e1_e2(r, BAND)
            assert abs(e1) < 0.1 * BAND.width
            assert abs(e2) < 0.1 * BAND.width

    def test_sign_within_sqrt2_region(self):
        r0 = math.sqrt(2.0) / BAND.omega_f
        for r in np.linspace(r0 / 50, r0, 12):
            e1, e2 = ana.e1_e2(float(r), BAND)
            assert -e1 + e2 < 0.0

    def test_matches_brute_force(self):
        r = 0.2
        e1, e2 = ana.e1_e2(r, BAND)
        oe1 = composite_simpson(lambda w: bessel_j(0, w * r) ** 2, BAND.omega1, BAND.omega_f)
        oe2 = composite_simpson(
            lambda w: (np.log(w) - 1.0) * bessel_j(1, w * r) ** 2,
            BAND.omega1,
            BAND.omega_f,
        )
        assert e1 == pytest.approx(oe1, abs=1e-9)
        assert e2 == pytest.approx(oe2, abs=1e-9)

    def test_requires_positive_r(self):
        with pytest.raises(ValueError):
            ana.e1_e2(0.0, BAND)


class TestValidation:
    def test_band_limits(self):
        with pytest.raises(ValueError):
            ana.BandLimits(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            ana.BandLimits(1.0, 2.0, 1)

    def test_scatterer_set(self):
        with pytest.raises(ValueError):
            ana.ScattererSet(points=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            ana.ScattererSet(points=np.array([[np.nan, 0.0]]))


def test_e1e2_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    ana.save_e1e2_csv([0.05, 0.2, 1.0], BAND, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# submig e1e2 v1"
    assert lines[3] == "r,e1,e2,e2_minus_e1"
    assert len(lines) == 4 + 3
    r, e1, e2, diff = (float(t) for t in lines[4].split(","))
    assert (e2 - e1) == pytest.approx(diff, abs=1e-15)
