import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from submig import analysis as ana
from submig import geometry as geo
from submig.specfun import bessel_j, quad_adaptive
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


class TestFusedScattererSum:
    """The scatterer sum is integrated as one function per search point."""

    SCAT = ana.ScattererSet(points=np.array([[0.0, 0.0], [0.5, 0.3], [-0.4, -0.2]]))
    Z = (1.2, 0.9)
    R = np.hypot(*(np.asarray(Z) - SCAT.points).T)
    FUNCTIONALS = {
        "mf": (ana.analytic_mf, lambda w: 1),
        "wmf2": (lambda z, scat, band: ana.analytic_wmf(z, scat, band, n=2), lambda w: w**2),
        "log": (ana.analytic_log, mp.log),
    }

    @pytest.mark.parametrize("name", sorted(FUNCTIONALS))
    def test_matches_mpmath_sum(self, name):
        func, weight = self.FUNCTIONALS[name]
        assert BAND.omega_f * self.R.max() > 30.0  # arguments reach the midpoint-rule range
        radii = [mp.mpf(float(r)) for r in self.R]
        with mp.workdps(25):
            a, b = mp.mpf(BAND.omega1), mp.mpf(BAND.omega_f)
            integral = mp.quad(
                lambda w: weight(w) * sum(mp.besselj(0, w * r) ** 2 for r in radii),
                mp.linspace(a, b, 9),
            )
            want = float(BAND.count / (b - a) * integral)
        assert func(self.Z, self.SCAT, BAND) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(FUNCTIONALS))
    def test_additive_over_scatterers(self, name):
        func, _ = self.FUNCTIONALS[name]
        a, b = (ana.ScattererSet(points=p) for p in ([[0.5, 0.3]], [[-0.4, -0.2]]))
        both = ana.ScattererSet(points=np.array([[0.5, 0.3], [-0.4, -0.2]]))
        want = func(self.Z, a, BAND) + func(self.Z, b, BAND)
        assert func(self.Z, both, BAND) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "name, calls",
        [("mf", 1), ("wmf1", 0), ("wmf2", 1), ("log", 1)],
    )
    def test_one_quadrature_per_point(self, monkeypatch, name, calls):
        func = TestBatchPoints.FUNCTIONALS[name]
        seen = []

        def counting(f, a, b):
            seen.append((a, b))
            return quad_adaptive(f, a, b)

        monkeypatch.setattr(ana, "quad_adaptive", counting)
        func(self.Z, self.SCAT, BAND)
        assert len(seen) == calls


class TestQuadratureAccuracy:
    """The closed forms against mpmath on the fig1 scatterers and band."""

    INC = geo.ThinInclusion(curve=geo.get_curve("sigma1"))
    M = geo.effective_segment_count(INC.curve, 0.3)
    SCAT = ana.ScattererSet(points=np.array([smp.point for smp in geo.sample_curve(INC, M)]))

    # the origin, near the scatterers, and a point whose farthest scatterer
    # puts the largest argument omega_f r at ~61, near the fig1 grid's corner
    @pytest.mark.parametrize("z", [(0.0, 0.0), (1.5, -1.6)])
    def test_mf_log_e1_e2_match_mpmath(self, z):
        r = np.hypot(*(np.asarray(z) - self.SCAT.points).T)
        r_far = float(r.max())
        with mp.workdps(20):
            a, b = mp.mpf(BAND.omega1), mp.mpf(BAND.omega_f)
            breaks = mp.linspace(a, b, 9)
            radii = [mp.mpf(float(v)) for v in r]
            scale = BAND.count / (b - a)

            def j0sq_sum(w):
                return sum(mp.besselj(0, w * v) ** 2 for v in radii)

            want = {
                "mf": scale * mp.quad(j0sq_sum, breaks),
                "log": scale * mp.quad(lambda w: mp.log(w) * j0sq_sum(w), breaks),
                "e1": mp.quad(lambda w: mp.besselj(0, w * r_far) ** 2, breaks),
                "e2": mp.quad(lambda w: (mp.log(w) - 1) * mp.besselj(1, w * r_far) ** 2, breaks),
            }
        e1, e2 = ana.e1_e2(r_far, BAND)
        got = {
            "mf": ana.analytic_mf(z, self.SCAT, BAND),
            "log": ana.analytic_log(z, self.SCAT, BAND),
            "e1": e1,
            "e2": e2,
        }
        for name, value in got.items():
            assert abs(value / float(want[name]) - 1) <= 1e-13, name


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


def test_closed_forms_independent_of_blas_threads():
    # sigma1's segment points at the preset band, in fresh interpreters at one
    # and two BLAS threads; the reprs carry every bit
    script = (
        "import numpy as np\n"
        "from submig import analysis as ana, geometry as geo\n"
        "inc = geo.ThinInclusion(curve=geo.get_curve('sigma1'))\n"
        "m = geo.effective_segment_count(inc.curve, 0.3)\n"
        "scat = ana.ScattererSet(np.array([s.point for s in geo.sample_curve(inc, m)]))\n"
        "band = ana.BandLimits.from_wavelengths(0.5, 0.3, 10)\n"
        "for z, r in (((0.1, 0.45), 0.05), ((-0.6, -0.3), 0.7)):\n"
        "    z = np.array(z)\n"
        "    print(repr(ana.analytic_mf(z, scat, band)), repr(ana.analytic_log(z, scat, band)),\n"
        "          repr(ana.e1_e2(r, band)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs[threads] = proc.stdout
    assert len(outputs["1"].splitlines()) == 2
    assert outputs["1"] == outputs["2"]
