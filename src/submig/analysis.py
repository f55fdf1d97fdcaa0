"""Closed-form Bessel-sum predictions of the imaging functionals.

Each multi-frequency functional is a sum over the scatterer points of one
band integral.  Its closed form is envelope (J0^2 + J1^2) boundary terms,
one vectorised evaluation over the scatterer radii, plus a remainder
integral with no elementary closed form, all scaled by F/width.  One core
evaluates that shape for MF, WMF(n) and LOG, which differ only in the
boundary factor and the remainder integrand.  The remainder's scatterer sum is
integrated as one function on (abscissae x scatterers) arrays, one adaptive
Gauss-Legendre quadrature per search point, so the 1e-10 tolerances apply to
that sum.  On the default band near the inclusion (omega r up to ~32) the
16-point rule on the band and on its two halves already agree, so each
remainder costs 48 abscissae; the default grid's far corners (omega r
~61-75) take 112-240.  On the fig1 scatterers and band, MF, WMF(1), LOG, E1
and E2 agree with mpmath to within 1.5e-14 relative at nine points from on
the curve to near the grid's corner.
The two improvement diagnostics E1 and E2 quantify why the log-weighted
functional suppresses artifacts near the scatterers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_envelope, bessel_j, quad_adaptive

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
        if not (0.0 < self.omega1 < self.omega_f):
            raise ValueError("requires 0 < omega1 < omega_f")
        if self.count < 2:
            raise ValueError("requires at least two frequencies")

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
    # (F/width) * (boundary terms + remainder) of one band integral, per point:
    # anti(w) * (J0^2 + J1^2)(w r) summed over the radii r from omega1 to
    # omega_f, plus one quadrature of rest(w, x = w r), the remainder integrand
    # already summed over the scatterers; either part may be None
    z = np.asarray(z, dtype=float)
    if z.ndim > 1:
        values = [_structure(p, scat, band, anti, rest) for p in z.reshape(-1, 2)]
        return np.array(values).reshape(z.shape[:-1])
    r = _radii(z, scat)
    total = 0.0
    if anti is not None:
        env = bessel_envelope(np.outer([band.omega1, band.omega_f], r))
        total = math.fsum(
            np.concatenate([anti(band.omega_f) * env[1], -anti(band.omega1) * env[0]])
        )
    if rest is not None:
        total += quad_adaptive(lambda w: rest(w, w[:, None] * r), band.omega1, band.omega_f)
    return band.count / band.width * total


def analytic_mf(z, scat: ScattererSet, band: BandLimits) -> float:
    """Multi-frequency structure: band-averaged integral of J0(omega r)^2.

    Envelope boundary terms plus the quadrature remainder of J1^2, scaled by
    count/band-width; equals (F/width) * integral of J0(omega r)^2 d omega.
    A trailing-(2) batch of search points gives one value per point.
    """
    return _structure(
        z, scat, band, lambda w: w, lambda w, x: (bessel_j(1, x) ** 2).sum(axis=1)
    )


def analytic_wmf(z, scat: ScattererSet, band: BandLimits, n: int = 1) -> float:
    """Power-weighted structure: (F/width) * integral of omega^n J0(omega r)^2.

    The n = 1 remainder vanishes identically (the x^2/2 envelope
    antiderivative), so that case is fully closed-form; n = 0 is MF.  A
    trailing-(2) batch of search points gives one value per point.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"weight power must be a nonnegative integer, got {n!r}")
    if n == 0:
        return analytic_mf(z, scat, band)
    if n == 1:
        return _structure(z, scat, band, lambda w: 0.5 * w**2, None)
    return _structure(
        z, scat, band, None, lambda w, x: w**n * (bessel_j(0, x) ** 2).sum(axis=1)
    )


def analytic_log(z, scat: ScattererSet, band: BandLimits) -> float:
    """Log-weighted structure: (F/width) * integral of ln(omega) J0(omega r)^2.

    Boundary terms omega ln(omega) * envelope minus the quadrature remainder
    of J0^2 - (ln omega - 1) J1^2; requires omega1 > 1 for positive weights.
    A trailing-(2) batch of search points gives one value per point.
    """
    if band.omega1 <= 1.0:
        raise ValueError(f"log weighting needs omega1 > 1, got {band.omega1}")

    def rest(w, x):  # the remainder negated, as the core adds it
        ln1 = np.log(w)[:, None] - 1.0
        return (ln1 * bessel_j(1, x) ** 2 - bessel_j(0, x) ** 2).sum(axis=1)

    return _structure(z, scat, band, lambda w: w * math.log(w), rest)


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
