import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submig import geometry as geo
from submig import specfun as sf

# closed form for the sigma1 length: [s*sqrt(1+s^2)/2 + asinh(s)/2] on [-0.5, 0.5]
SIGMA1_LENGTH = 1.0402288194345508716


def unit_segment():
    return geo.PolynomialCurve(x_coeffs=(0.0, 1.0), y_coeffs=(0.0,), s_min=0.0, s_max=1.0)


class TestCurveLength:
    def test_unit_segment(self):
        assert geo.curve_length(unit_segment()) == pytest.approx(1.0, abs=1e-12)

    def test_sigma1_closed_form(self):
        sigma1 = geo.get_curve("sigma1")

        def anti(s):
            return s * math.sqrt(1 + s * s) / 2 + math.asinh(s) / 2

        assert geo.curve_length(sigma1) == pytest.approx(anti(0.5) - anti(-0.5), abs=1e-9)
        assert geo.curve_length(sigma1) == pytest.approx(SIGMA1_LENGTH, abs=1e-9)

    @pytest.mark.parametrize("name", ["sigma1", "sigma2"])
    def test_catalog_lengths_match_mpmath(self, name):
        curve = geo.get_curve(name)
        with mp.workdps(30):
            x = [mp.mpf(c) for c in curve.x_coeffs]
            y = [mp.mpf(c) for c in curve.y_coeffs]

            def speed(s):
                dx = sum(k * c * s ** (k - 1) for k, c in enumerate(x) if k)
                dy = sum(k * c * s ** (k - 1) for k, c in enumerate(y) if k)
                return mp.sqrt(dx * dx + dy * dy)

            want = mp.quad(speed, [curve.s_min, curve.s_max])
            assert abs(geo.curve_length(curve) / want - 1) <= 1e-15

    def test_halfcircle_arc(self):
        # cubic fit is not a circle; use the parametric circle directly
        class Circle(geo.ParametricCurve):
            s_min = 0.0
            s_max = math.pi

            def position(self, s):
                s = np.asarray(s, dtype=float)
                return np.stack([np.cos(s), np.sin(s)], axis=-1)

            def derivative(self, s):
                s = np.asarray(s, dtype=float)
                return np.stack([-np.sin(s), np.cos(s)], axis=-1)

        assert geo.curve_length(Circle()) == pytest.approx(math.pi, abs=1e-10)

    def test_length_integrated_once_per_curve(self):
        calls = []

        @dataclass(frozen=True)
        class CountedCurve(geo.PolynomialCurve):
            def speed(self, s):
                calls.append(np.size(s))
                return super().speed(s)

        curve = CountedCurve(x_coeffs=(0.0, 1.0), y_coeffs=(0.25, 0.0, 0.75))
        equal = CountedCurve(x_coeffs=(0.0, 1.0), y_coeffs=(0.25, 0.0, 0.75))
        calls.clear()  # the regularity check at construction evaluates the speed
        first = geo.curve_length(curve)
        assert calls
        calls.clear()
        assert geo.curve_length(curve) == first
        assert geo.curve_length(equal) == first
        assert not calls
        # the memo returns the quadrature's value bit for bit
        assert first == sf.quad_adaptive(curve.speed, curve.s_min, curve.s_max)


class TestFrames:
    def test_axis_aligned(self):
        t, n = geo.frames(unit_segment(), 0.0)
        assert np.allclose(t, [1.0, 0.0], atol=1e-15)
        assert np.allclose(n, [0.0, 1.0], atol=1e-15)

    def test_sigma1_at_02(self):
        # derivative of (s - 0.2, -0.5 s^2 + 0.5) is (1, -s)
        t, n = geo.frames(geo.get_curve("sigma1"), 0.2)
        scale = math.sqrt(1.04)
        assert np.allclose(t, [1.0 / scale, -0.2 / scale], atol=1e-12)
        assert np.allclose(n, [0.2 / scale, 1.0 / scale], atol=1e-12)

    def test_sigma2_at_0(self):
        t, n = geo.frames(geo.get_curve("sigma2"), 0.0)
        assert np.allclose(t, [1.0, 0.0], atol=1e-15)
        assert np.allclose(n, [0.0, 1.0], atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            geo.frames(unit_segment(), 2.0)


class TestEffectiveSegmentCount:
    def test_exact_division(self):
        assert geo.effective_segment_count(unit_segment(), 0.5) == 4

    def test_ceiling(self):
        assert geo.effective_segment_count(unit_segment(), 0.3) == 7

    def test_sigma1(self):
        assert geo.effective_segment_count(geo.get_curve("sigma1"), 0.5) == 5

    def test_monotone_in_wavelength(self):
        curve = geo.get_curve("sigma2")
        lams = np.linspace(0.1, 2.0, 40)
        counts = [geo.effective_segment_count(curve, lam) for lam in lams]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            geo.effective_segment_count(unit_segment(), 0.0)


class TestSampleCurve:
    def test_single_midpoint(self):
        inc = geo.ThinInclusion(curve=unit_segment())
        (s,) = geo.sample_curve(inc, 1)
        assert np.allclose(s.point, [0.5, 0.0], atol=1e-9)
        assert s.weight == pytest.approx(1.0, abs=1e-12)

    def test_two_midpoints(self):
        inc = geo.ThinInclusion(curve=unit_segment())
        s1, s2 = geo.sample_curve(inc, 2)
        assert np.allclose(s1.point, [0.25, 0.0], atol=1e-9)
        assert np.allclose(s2.point, [0.75, 0.0], atol=1e-9)
        assert s1.weight == pytest.approx(0.5, abs=1e-12)

    def test_sigma1_equal_gaps(self):
        inc = geo.ThinInclusion(curve=geo.get_curve("sigma1"))
        samples = geo.sample_curve(inc, 5)
        # dense cumulative arclength oracle
        s_grid = np.linspace(-0.5, 0.5, 20001)
        speed = np.sqrt(1.0 + s_grid**2)
        cum = np.concatenate([[0.0], np.cumsum((speed[:-1] + speed[1:]) / 2 * np.diff(s_grid))])
        arcs = np.interp([smp.s for smp in samples], s_grid, cum)
        gaps = np.diff(arcs)
        assert np.max(np.abs(gaps - gaps[0])) < 1e-6

    def test_points_on_curve(self):
        inc = geo.ThinInclusion(curve=geo.get_curve("sigma2"))
        for smp in geo.sample_curve(inc, 7):
            assert np.linalg.norm(inc.curve.position(smp.s) - smp.point) < 1e-9

    def test_weights_sum_to_length(self):
        inc = geo.ThinInclusion(curve=geo.get_curve("sigma1"))
        samples = geo.sample_curve(inc, 9)
        assert math.fsum(s.weight for s in samples) == pytest.approx(
            geo.curve_length(inc.curve), abs=1e-9
        )

    def test_frames_orthonormal(self):
        inc = geo.ThinInclusion(curve=geo.get_curve("sigma2"))
        for smp in geo.sample_curve(inc, 8):
            assert abs(np.linalg.norm(smp.tangent) - 1.0) < 1e-12
            assert abs(np.linalg.norm(smp.normal) - 1.0) < 1e-12
            assert abs(smp.tangent @ smp.normal) < 1e-12

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            geo.sample_curve(geo.ThinInclusion(curve=unit_segment()), 0)

    def test_memoised_on_curve_and_count(self):
        curve = geo.get_curve("sigma2")
        first = geo.sample_curve(geo.ThinInclusion(curve=curve), 6)
        # other materials, the same curve and count: the same samples
        assert geo.sample_curve(geo.ThinInclusion(curve=curve, permittivity=9.0), 6) is first
        assert geo.sample_curve(geo.ThinInclusion(curve=curve), 7) is not first
        for smp in first:
            for array in (smp.point, smp.tangent, smp.normal):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0

    @given(st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_gap_uniformity_property(self, m):
        inc = geo.ThinInclusion(curve=geo.get_curve("sigma1"))
        samples = geo.sample_curve(inc, m)
        length = geo.curve_length(inc.curve)
        s_grid = np.linspace(-0.5, 0.5, 20001)
        speed = np.sqrt(1.0 + s_grid**2)
        cum = np.concatenate([[0.0], np.cumsum((speed[:-1] + speed[1:]) / 2 * np.diff(s_grid))])
        arcs = np.interp([smp.s for smp in samples], s_grid, cum)
        expected = (np.arange(m) + 0.5) * length / m
        assert np.max(np.abs(arcs - expected)) < 1e-6


class TestThinInclusion:
    def test_validation(self):
        with pytest.raises(ValueError):
            geo.ThinInclusion(curve=unit_segment(), half_thickness=0.0)
        with pytest.raises(ValueError):
            geo.ThinInclusion(curve=unit_segment(), permittivity=0.5)
        with pytest.raises(ValueError):
            geo.ThinInclusion(curve=unit_segment(), permeability=0.5)

    def test_zero_contrast_constructible(self):
        inc = geo.ThinInclusion(curve=unit_segment(), permittivity=1.0, permeability=1.0)
        assert inc.permittivity == 1.0

    def test_irregular_curve_rejected(self):
        with pytest.raises(ValueError):
            geo.PolynomialCurve(x_coeffs=(0.0, 0.0, 1.0), y_coeffs=(0.0, 0.0, 1.0))

    def test_unknown_catalog_name(self):
        with pytest.raises(ValueError):
            geo.get_curve("sigma9")
