"""Supporting curves, thin inclusions, and wavelength-driven curve sampling.

Curves are parametric maps s -> R^2 with a nonvanishing derivative.  The
imaging model replaces a thin inclusion by representative points at the
arclength midpoints of segments no longer than half a wavelength.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import ConvergenceError, quad_adaptive

__all__ = [
    "ParametricCurve",
    "PolynomialCurve",
    "ThinInclusion",
    "CurveSample",
    "CURVE_CATALOG",
    "get_curve",
    "curve_length",
    "frames",
    "effective_segment_count",
    "sample_curve",
]

_S_EPS = 1e-12


class ParametricCurve:
    """Regular parametric curve on [s_min, s_max]; subclasses implement the maps.

    A curve is an immutable, hashable value: :func:`curve_length` caches on it.
    """

    s_min: float
    s_max: float

    def position(self, s):
        raise NotImplementedError

    def derivative(self, s):
        raise NotImplementedError

    def speed(self, s):
        d = self.derivative(s)
        return np.hypot(d[..., 0], d[..., 1])


@dataclass(frozen=True)
class PolynomialCurve(ParametricCurve):
    """Curve with polynomial coordinates; coefficients in ascending powers of s."""

    x_coeffs: tuple[float, ...]
    y_coeffs: tuple[float, ...]
    s_min: float = -0.5
    s_max: float = 0.5

    def __post_init__(self):
        if not self.s_min < self.s_max:
            raise ValueError("requires s_min < s_max")
        s = np.linspace(self.s_min, self.s_max, 1001)
        if np.min(self.speed(s)) <= 0.0:
            raise ValueError("curve is not regular: derivative vanishes")

    def _eval(self, coeffs, s):
        acc = np.zeros_like(np.asarray(s, dtype=float))
        for c in reversed(coeffs):
            acc = acc * s + c
        return acc

    def _eval_deriv(self, coeffs, s):
        dcoeffs = tuple(k * c for k, c in enumerate(coeffs))[1:]
        if not dcoeffs:
            return np.zeros_like(np.asarray(s, dtype=float))
        return self._eval(dcoeffs, s)

    def position(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack([self._eval(self.x_coeffs, s), self._eval(self.y_coeffs, s)], axis=-1)

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        return np.stack(
            [self._eval_deriv(self.x_coeffs, s), self._eval_deriv(self.y_coeffs, s)], axis=-1
        )


# experiment curves: sigma1 is a downward parabola arc, sigma2 a cubic arc
CURVE_CATALOG: dict[str, ParametricCurve] = {
    "sigma1": PolynomialCurve(x_coeffs=(-0.2, 1.0), y_coeffs=(0.5, 0.0, -0.5)),
    "sigma2": PolynomialCurve(x_coeffs=(0.2, 1.0), y_coeffs=(-0.6, 0.0, 1.0, 1.0)),
}


def get_curve(name: str) -> ParametricCurve:
    try:
        return CURVE_CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown curve {name!r}; available: {sorted(CURVE_CATALOG)}"
        ) from None


@dataclass(frozen=True)
class ThinInclusion:
    """Tubular neighborhood of a supporting curve with contrasting materials.

    The background has unit permittivity and permeability.  Equal inclusion
    and background parameters are admitted so that degenerate zero-contrast
    configurations remain constructible for testing.
    """

    curve: ParametricCurve
    half_thickness: float = 0.015
    permittivity: float = 5.0
    permeability: float = 5.0

    def __post_init__(self):
        if not self.half_thickness > 0.0:
            raise ValueError("half_thickness must be positive")
        if not self.permittivity >= 1.0:
            raise ValueError("requires permittivity >= 1, the background's")
        if not self.permeability >= 1.0:
            raise ValueError("requires permeability >= 1, the background's")


@dataclass(frozen=True)
class CurveSample:
    """Representative point with local frame and arclength weight |sigma|/M."""

    point: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    weight: float
    s: float = field(default=math.nan)


@functools.lru_cache(maxsize=64)
def curve_length(curve: ParametricCurve) -> float:
    """Arclength of the curve via adaptive quadrature of its speed.

    Memoised on the curve, so each curve's length is integrated once.
    """
    return quad_adaptive(curve.speed, curve.s_min, curve.s_max)


def frames(curve: ParametricCurve, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangent and left unit normal (tangent rotated by +pi/2) at s."""
    s = float(s)
    if not (curve.s_min - _S_EPS <= s <= curve.s_max + _S_EPS):
        raise ValueError(f"s={s} outside parameter range [{curve.s_min}, {curve.s_max}]")
    d = np.asarray(curve.derivative(s), dtype=float)
    norm = math.hypot(d[0], d[1])
    if norm == 0.0:
        raise ValueError(f"curve derivative vanishes at s={s}")
    t = d / norm
    n = np.array([-t[1], t[0]])
    return t, n


def effective_segment_count(curve: ParametricCurve, wavelength: float) -> int:
    """Smallest M with segments of arclength at most half a wavelength."""
    if not (wavelength > 0.0 and math.isfinite(wavelength)):
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    ratio = 2.0 * curve_length(curve) / wavelength
    return max(1, math.ceil(ratio - 1e-9))


def _arclength_table(curve: ParametricCurve, cells: int = 4096):
    # per-cell Simpson increments of the speed, cumulative from s_min
    s = np.linspace(curve.s_min, curve.s_max, 2 * cells + 1)
    v = curve.speed(s)
    h = (curve.s_max - curve.s_min) / cells
    inc = h / 6.0 * (v[0:-2:2] + 4.0 * v[1:-1:2] + v[2::2])
    cum = np.concatenate([[0.0], np.cumsum(inc)])
    return s[::2], cum


def _invert_arclength(curve, s_nodes, cum, target: float) -> float:
    # bisection on the cell containing the target, Simpson for partial lengths
    idx = int(np.searchsorted(cum, target, side="right") - 1)
    idx = min(max(idx, 0), len(s_nodes) - 2)
    lo, hi = s_nodes[idx], s_nodes[idx + 1]
    base = cum[idx]

    def partial(s_to):
        pts = np.array([lo, 0.5 * (lo + s_to), s_to])
        v = curve.speed(pts)
        return (s_to - lo) / 6.0 * (v[0] + 4.0 * v[1] + v[2])

    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        g = base + partial(mid) - target
        if abs(g) < 1e-10:
            return mid
        if g < 0.0:
            a = mid
        else:
            b = mid
        if b - a < 1e-15 * max(1.0, abs(b)):
            return 0.5 * (a + b)
    raise ConvergenceError(f"arclength inversion failed at target {target}", 0.5 * (a + b))


def sample_curve(inclusion: ThinInclusion, m: int) -> list[CurveSample]:
    """Midpoints of m equal-arclength segments, each weighted |sigma|/m."""
    if m < 1:
        raise ValueError(f"segment count must be >= 1, got {m}")
    curve = inclusion.curve
    total = curve_length(curve)
    s_nodes, cum = _arclength_table(curve)
    # align the table with the quadrature-based total length
    cum = cum * (total / cum[-1])
    weight = total / m
    samples = []
    for k in range(m):
        target = (k + 0.5) * weight
        s_star = _invert_arclength(curve, s_nodes, cum, target)
        t, n = frames(curve, s_star)
        samples.append(
            CurveSample(
                point=np.asarray(curve.position(s_star), dtype=float),
                tangent=t,
                normal=n,
                weight=weight,
                s=s_star,
            )
        )
    return samples
