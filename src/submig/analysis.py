"""Closed-form Bessel-sum predictions of the imaging functionals.

Each multi-frequency functional is (F/width) times the band integral of a
weight g against sum_m J0(omega r_m)^2 over the scatterer radii r_m.  By
parts, with (J0^2 + J1^2)'(x) = -2 J1(x)^2 / x and G an antiderivative of g,
that is [G(omega) sum_m (J0^2 + J1^2)(omega r_m)] plus the integral of
(2G/omega - g) sum_m J1(omega r_m)^2: one specfun core for every functional,
each its pair (G, 2G/omega - g).  MF is (omega, 1), WMF(n) is
(omega^(n+1)/(n+1), (1-n)/(1+n) omega^n), with no remainder at n = 1, and LOG
is (omega ln omega - omega, ln omega - 2).  A remainder's scatterer sum is one
adaptive quadrature per search point, so the 1e-10 tolerances apply to that
sum.  On the fig1 scatterers and band it takes 48 abscissae while omega_f r
stays below ~30, and 112 at the grid's corners (omega_f r up to ~45).  At nine
points from on the curve to omega_f r = 61, MF, WMF(n) for n <= 4, LOG, E1 and
E2 agree with mpmath (25 digits) to within 1.4e-14 relative.  The diagnostics
E1 and E2, integrated as the paper defines them, show why the log weighting
suppresses artifacts near the scatterers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _j0sq_by_parts, bessel_j, quad_adaptive

__all__ = [
    "ScattererSet",
    "BandLimits",
    "analytic_sf",
    "analytic_mf",
    "analytic_wmf",
    "analytic_log",
    "e1_e2",
    "save_e1e2_csv",
]


@dataclass(frozen=True)
class ScattererSet:
    """Effective segment points acting as point-like scatterers."""

    points: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        if p.size == 0 or p.shape[1] != 2 or not np.all(np.isfinite(p)):
            raise ValueError("need a nonempty list of finite points in R^2")
        object.__setattr__(self, "points", p)


@dataclass(frozen=True)
class BandLimits:
    """Frequency band [omega1, omega_f] sampled by count frequencies."""

    omega1: float
    omega_f: float
    count: int

    def __post_init__(self):
        for name in ("omega1", "omega_f"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (0.0 < self.omega1 < self.omega_f):
            raise ValueError("requires 0 < omega1 < omega_f")
        count = self.count
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 2:
            raise ValueError(f"count must be an integer >= 2, got {count!r}")

    @classmethod
    def from_wavelengths(cls, lambda_max: float, lambda_min: float, count: int) -> "BandLimits":
        return cls(2.0 * math.pi / lambda_max, 2.0 * math.pi / lambda_min, count)

    @property
    def width(self) -> float:
        return self.omega_f - self.omega1


def _radii(z, scat: ScattererSet) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    diff = z[..., None, :] - scat.points
    return np.hypot(diff[..., 0], diff[..., 1])


def analytic_sf(z, scat: ScattererSet, omega: float):
    """Single-frequency structure: sum of J0(omega |z - y_m|)^2.

    Broadcasts over a trailing-(2) array of search points.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    r = _radii(z, scat)
    vals = np.sum(bessel_j(0, omega * r) ** 2, axis=-1)
    return float(vals) if np.ndim(vals) == 0 else vals


def _structure(z, scat: ScattererSet, band: BandLimits, anti, rest):
    # (F/width) * the band integral of a weight g against sum_m J0(omega r_m)^2,
    # per point, by specfun's by-parts core: anti is g's antiderivative G and
    # rest is 2G/omega - g, or None where that vanishes
    z = np.asarray(z, dtype=float)
    if z.ndim > 1:
        values = [_structure(p, scat, band, anti, rest) for p in z.reshape(-1, 2)]
        return np.array(values).reshape(z.shape[:-1])
    integral = _j0sq_by_parts(anti, rest, band.omega1, band.omega_f, _radii(z, scat))
    return band.count / band.width * integral


def analytic_mf(z, scat: ScattererSet, band: BandLimits) -> float:
    """Multi-frequency structure: (F/width) * integral of J0(omega r)^2.

    By parts with G = omega: envelope boundary terms plus the quadrature of
    J1^2.  A trailing-(2) batch of search points gives one value per point.
    """
    return _structure(z, scat, band, lambda w: w, lambda w: 1.0)


def analytic_wmf(z, scat: ScattererSet, band: BandLimits, n: int = 1) -> float:
    """Power-weighted structure: (F/width) * integral of omega^n J0(omega r)^2.

    By parts with G = omega^(n+1)/(n+1): envelope boundary terms plus the
    quadrature of (1-n)/(1+n) omega^n J1^2, none for n = 1; n = 0 is MF.  A
    trailing-(2) batch of search points gives one value per point.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"weight power must be a nonnegative integer, got {n!r}")
    rest = None if n == 1 else lambda w: (1 - n) / (1 + n) * w**n
    return _structure(z, scat, band, lambda w: w ** (n + 1) / (n + 1), rest)


def analytic_log(z, scat: ScattererSet, band: BandLimits) -> float:
    """Log-weighted structure: (F/width) * integral of ln(omega) J0(omega r)^2.

    By parts with G = omega ln(omega) - omega: envelope boundary terms plus
    the quadrature of (ln omega - 2) J1^2; requires omega1 > 1 for positive
    weights.  A trailing-(2) batch of search points gives one value per point.
    """
    if band.omega1 <= 1.0:
        raise ValueError(f"log weighting needs omega1 > 1, got {band.omega1}")
    return _structure(z, scat, band, lambda w: w * math.log(w) - w, lambda w: np.log(w) - 2.0)


def e1_e2(r: float, band: BandLimits) -> tuple[float, float]:
    """Improvement diagnostics over the band at separation r > 0.

    E1 integrates J0(omega r)^2, E2 integrates (ln omega - 1) J1(omega r)^2;
    a negative -E1 + E2 near the scatterer is the improvement mechanism of
    the log weighting.
    """
    if not r > 0.0:
        raise ValueError(f"separation must be positive, got {r}")
    e1 = quad_adaptive(lambda w: bessel_j(0, w * r) ** 2, band.omega1, band.omega_f)
    e2 = quad_adaptive(
        lambda w: (np.log(w) - 1.0) * bessel_j(1, w * r) ** 2,
        band.omega1,
        band.omega_f,
    )
    return e1, e2


def save_e1e2_csv(radii, band: BandLimits, path) -> None:
    """Sweep of (r, E1, E2, -E1+E2) rows for sign-region plots."""
    lines = [
        "# submig e1e2 v1",
        f"# omega1 {band.omega1!r}",
        f"# omega_f {band.omega_f!r}",
        "r,e1,e2,e2_minus_e1",
    ]
    for r in radii:
        e1, e2 = e1_e2(float(r), band)
        lines.append(f"{float(r)!r},{e1!r},{e2!r},{e2 - e1!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
