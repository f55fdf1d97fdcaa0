import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submig import specfun as sf
from conftest import composite_simpson

mp.mp.dps = 30

# first positive zero of J0, found by bisection on the high-precision series
J0_FIRST_ZERO = 2.404825557695772768621632

# mpmath gold values anchoring both sides of the integral identities
INT_LOG_J0SQ_1_5 = 0.4142889458642882355643
INT_LOG_J0SQ_05_20 = 1.277170248750928538544
INT_J0SQ_1_5 = 0.5360889006216668915237
INT_J0SQ_05_50 = 1.608421092338218794979
INT_J0SQ_0_10 = 1.571266461263411730478


def j0_zero_by_bisection():
    lo, hi = mp.mpf(2), mp.mpf(3)
    for _ in range(120):
        mid = (lo + hi) / 2
        if mp.besselj(0, lo) * mp.besselj(0, mid) <= 0:
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2)


class TestBesselJ:
    def test_at_zero(self):
        assert sf.bessel_j(0, 0.0) == 1.0
        assert sf.bessel_j(1, 0.0) == 0.0

    def test_first_j0_zero(self):
        assert abs(j0_zero_by_bisection() - J0_FIRST_ZERO) < 1e-14
        assert abs(sf.bessel_j(0, J0_FIRST_ZERO)) < 1e-10

    @pytest.mark.parametrize("n", [0, 1])
    def test_absolute_accuracy_below_30(self, n):
        # across x = 8, below which the rule keeps the node count it takes at 8
        xs = np.concatenate(
            [[0.0], np.linspace(1e-9, 30.0, 411), [8.0 - 1e-12, 8.0, 8.0 + 1e-12]]
        )
        ref = np.array([float(mp.besselj(n, mp.mpf(x))) for x in xs])
        assert np.max(np.abs(sf.bessel_j(n, xs) - ref)) <= 5e-15
        scalar = np.array([sf.bessel_j(n, float(x)) for x in xs])
        assert np.max(np.abs(scalar - ref)) <= 5e-15

    @pytest.mark.parametrize("n", [0, 1])
    def test_dense_around_8(self, n):
        # both sides of the node floor, densely
        xs = np.linspace(7.9, 8.1, 801)
        ref = np.array([float(mp.besselj(n, mp.mpf(x))) for x in xs])
        assert np.max(np.abs(sf.bessel_j(n, xs) - ref)) <= 1e-15
        scalar = np.array([sf.bessel_j(n, float(x)) for x in xs])
        assert np.max(np.abs(scalar - ref)) <= 1e-15

    @pytest.mark.parametrize("n", [0, 1])
    def test_absolute_accuracy_from_8_to_200(self, n):
        # a scalar call sizes the rule by its own argument, the tightest case;
        # a batch sizes it by the largest, and a short block by its own largest
        xs = np.linspace(8.0, 200.0, 769)
        ref = np.array([float(mp.besselj(n, mp.mpf(x))) for x in xs])
        scalar = np.array([sf.bessel_j(n, float(x)) for x in xs])
        assert np.max(np.abs(scalar - ref)) <= 5e-15
        assert np.max(np.abs(sf.bessel_j(n, xs) - ref)) <= 5e-15
        blocks = np.concatenate([sf.bessel_j(n, part) for part in np.array_split(xs, 48)])
        assert np.max(np.abs(blocks - ref)) <= 5e-15

    @pytest.mark.parametrize("n", [0, 1])
    def test_relative_accuracy_above_30(self, n):
        xs = np.linspace(30.5, 200.0, 307)
        for x in xs:
            ref = float(mp.besselj(n, mp.mpf(x)))
            if abs(ref) < 1e-4:  # stay clear of zeros of J_n
                continue
            assert abs(sf.bessel_j(n, float(x)) - ref) <= 1e-10 * abs(ref)

    def test_asymptotic_form_on_50_200(self):
        xs = np.linspace(50.0, 200.0, 601)
        for n in (0, 1):
            lead = np.sqrt(2.0 / (np.pi * xs)) * np.cos(xs - n * np.pi / 2 - np.pi / 4)
            assert np.all(np.abs(sf.bessel_j(n, xs) - lead) < 0.5 * xs**-1.5)

    def test_small_argument_form(self):
        xs = np.linspace(1e-6, 0.0099, 57)
        for n in (0, 1):
            lead = (xs / 2.0) ** n / math.gamma(n + 1)
            assert np.all(np.abs(sf.bessel_j(n, xs) - lead) < xs ** (n + 2))

    def test_derivative_relation(self):
        # d/dx J0 = -J1 against central differences
        xs = np.linspace(0.1, 30.0, 300)
        eps = 1e-6
        fd = (sf.bessel_j(0, xs + eps) - sf.bessel_j(0, xs - eps)) / (2 * eps)
        assert np.max(np.abs(fd + sf.bessel_j(1, xs))) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.bessel_j(0, -0.5)
        with pytest.raises(ValueError):
            sf.bessel_j(0, math.nan)
        with pytest.raises(ValueError):
            sf.bessel_j(0, math.inf)
        with pytest.raises(ValueError):
            sf.bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_j(0.5, 1.0)
        with pytest.raises(ValueError, match="order must be 0 or 1"):
            sf.bessel_j(2, 1.0)
        with pytest.raises(ValueError, match="order must be 0 or 1"):
            sf.bessel_j(True, 1.0)

    def test_array_shape_preserved(self):
        x = np.linspace(0, 20, 12).reshape(3, 4)
        assert sf.bessel_j(0, x).shape == (3, 4)
        assert isinstance(sf.bessel_j(0, 1.0), float)


class TestQuadAdaptive:
    def test_constant(self):
        assert sf.quad_adaptive(lambda x: 1.0, 0.0, 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_sin(self):
        assert sf.quad_adaptive(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_j0sq_matches_identity_rhs(self):
        direct = sf.quad_adaptive(lambda x: sf.bessel_j(0, x) ** 2, 0.0, 10.0)
        rhs = 10.0 * sf.bessel_envelope(10.0) + sf.quad_adaptive(
            lambda x: sf.bessel_j(1, x) ** 2, 0.0, 10.0
        )
        assert direct == pytest.approx(rhs, abs=1e-8)
        assert direct == pytest.approx(INT_J0SQ_0_10, abs=1e-9)

    def test_one_integrand_call_per_level(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(np.sin(8.0 * x))

        with mp.workdps(20):
            want = mp.quad(lambda t: mp.exp(mp.sin(8 * t)), mp.linspace(0, 10, 41))
        assert sf.quad_adaptive(f, 0.0, 10.0) == pytest.approx(float(want), rel=1e-12)
        n = sf._GAUSS_NODES
        # the whole interval and both halves first, then both halves of every
        # active interval; an interval splits into at most two
        assert len(sizes) > 2
        assert sizes[0] == 3 * n
        assert all(size % (2 * n) == 0 for size in sizes[1:])
        assert sizes[1] <= 2 * (2 * n)
        assert all(b <= 2 * a for a, b in zip(sizes[1:], sizes[2:]))

    def test_empty_interval(self):
        assert sf.quad_adaptive(np.sin, 1.3, 1.3) == 0.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            sf.quad_adaptive(np.sin, 1.0, 0.0)

    def test_convergence_error_carries_estimate(self):
        # a jump off every dyadic point: its interval never meets the tolerance
        with pytest.raises(sf.ConvergenceError) as exc:
            sf.quad_adaptive(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0)
        assert exc.value.estimate == pytest.approx(1.0 / 3.0, abs=1e-9)

    @given(st.floats(0.1, 3.0), st.floats(0.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_polynomial_exactness(self, span, a):
        # the n-point Gauss rule is exact for cubics; adaptivity must not
        # break that
        b = a + span
        got = sf.quad_adaptive(lambda x: x**3 - 2.0 * x, a, b)
        exact = (b**4 - a**4) / 4.0 - (b**2 - a**2)
        assert got == pytest.approx(exact, abs=1e-10, rel=1e-12)

    def test_exact_to_degree_2n_minus_1_in_one_level(self):
        sizes = []
        degree = 2 * sf._GAUSS_NODES - 1

        def f(x):
            sizes.append(x.size)
            return x**degree

        exact = (1.5 ** (degree + 1) - 1.0) / (degree + 1)
        assert sf.quad_adaptive(f, -1.0, 1.5) == pytest.approx(exact, rel=1e-14)
        assert sizes == [3 * sf._GAUSS_NODES]  # accepted at the first level

    def test_gauss_legendre_nodes_and_weights(self):
        n = sf._GAUSS_NODES
        assert sf._GL_NODES.shape == sf._GL_WEIGHTS.shape == (n,)
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(sf._GL_NODES - x)) <= 2e-16
        # leggauss's own weights are off by up to ~7e-15 relative at n = 16
        assert np.max(np.abs(sf._GL_WEIGHTS / w - 1)) <= 1e-14
        # correctly rounded: Newton's method on P_n in 40 digits, started
        # from the table, with P_n' from the recurrence
        with mp.workdps(40):
            for xi, wi in zip(sf._GL_NODES, sf._GL_WEIGHTS):
                t = mp.mpf(xi)
                for _ in range(4):
                    p_prev, p = mp.mpf(1), t
                    for k in range(2, n + 1):
                        p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
                    dp = n * (t * p - p_prev) / (t * t - 1)
                    t -= p / dp
                assert xi == float(t)
                assert wi == float(2 / ((1 - t * t) * dp * dp))


class TestIntegralIdentities:
    def test_j0sq_empty(self):
        assert sf.integral_j0sq(0.0, 0.0) == 0.0

    def test_j0sq_1_5(self):
        brute = sf.quad_adaptive(lambda x: sf.bessel_j(0, x) ** 2, 1.0, 5.0)
        assert sf.integral_j0sq(1.0, 5.0) == pytest.approx(brute, abs=1e-8)
        assert sf.integral_j0sq(1.0, 5.0) == pytest.approx(INT_J0SQ_1_5, abs=1e-9)

    def test_j0sq_05_50(self):
        brute = composite_simpson(lambda x: sf.bessel_j(0, x) ** 2, 0.5, 50.0)
        assert sf.integral_j0sq(0.5, 50.0) == pytest.approx(brute, abs=1e-7)
        assert sf.integral_j0sq(0.5, 50.0) == pytest.approx(INT_J0SQ_05_50, abs=1e-8)

    def test_j0sq_domain(self):
        with pytest.raises(ValueError):
            sf.integral_j0sq(-1.0, 5.0)
        with pytest.raises(ValueError):
            sf.integral_j0sq(5.0, 1.0)

    def test_log_empty(self):
        assert sf.integral_log_j0sq(1.0, 1.0) == 0.0

    def test_log_1_5(self):
        brute = sf.quad_adaptive(lambda x: np.log(x) * sf.bessel_j(0, x) ** 2, 1.0, 5.0)
        assert sf.integral_log_j0sq(1.0, 5.0) == pytest.approx(brute, abs=1e-8)
        assert sf.integral_log_j0sq(1.0, 5.0) == pytest.approx(INT_LOG_J0SQ_1_5, abs=1e-9)

    def test_log_05_20(self):
        brute = sf.quad_adaptive(lambda x: np.log(x) * sf.bessel_j(0, x) ** 2, 0.5, 20.0)
        assert sf.integral_log_j0sq(0.5, 20.0) == pytest.approx(brute, abs=1e-8)
        assert sf.integral_log_j0sq(0.5, 20.0) == pytest.approx(INT_LOG_J0SQ_05_20, abs=1e-8)

    def test_log_domain(self):
        with pytest.raises(ValueError):
            sf.integral_log_j0sq(0.0, 5.0)
        with pytest.raises(ValueError):
            sf.integral_log_j0sq(-1.0, 5.0)

    @given(st.floats(0.01, 49.0), st.floats(0.05, 10.0))
    @example(a=0.01, width=8.0)  # ln x is steep here: a fixed-panel oracle misses by 1.5e-7
    @settings(max_examples=20, deadline=None)
    def test_log_identity_property(self, a, width):
        b = min(a + width, 50.0)
        breaks = mp.linspace(a, b, math.ceil(b - a) + 1)
        ref = mp.quad(lambda x: mp.log(x) * mp.besselj(0, x) ** 2, breaks)
        assert abs(sf.integral_log_j0sq(a, b) - float(ref)) < 1e-7

    @given(st.floats(0.0, 49.0), st.floats(0.05, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_j0sq_identity_property(self, a, width):
        b = min(a + width, 50.0)
        brute = composite_simpson(lambda x: sf.bessel_j(0, x) ** 2, a, b, panels=2048)
        assert abs(sf.integral_j0sq(a, b) - brute) < 1e-7
