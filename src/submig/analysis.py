"""Closed-form Bessel-sum predictions of the imaging functionals.

Each multi-frequency functional concentrates, per scatterer point, into
boundary terms of the envelope J0^2 + J1^2 plus a remainder integral; the
remainders have no elementary closed form and are evaluated by quadrature.
The two improvement diagnostics E1 and E2 quantify why the log-weighted
functional suppresses artifacts near the scatterers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import Quadrature, bessel_envelope, bessel_j, quad_adaptive

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


def _per_point(func, z, *args):
    # one scalar evaluation per search point of a trailing-(2) batch
    z = np.asarray(z, dtype=float)
    return np.array([func(p, *args) for p in z.reshape(-1, 2)]).reshape(z.shape[:-1])


def analytic_sf(z, scat: ScattererSet, omega: float):
    """Single-frequency structure: sum of J0(omega |z - y_m|)^2.

    Broadcasts over a trailing-(2) array of search points.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    r = _radii(z, scat)
    vals = np.sum(bessel_j(0, omega * r) ** 2, axis=-1)
    return float(vals) if np.ndim(vals) == 0 else vals


def analytic_mf(z, scat: ScattererSet, band: BandLimits, q: Quadrature | None = None) -> float:
    """Multi-frequency structure: band-averaged integral of J0(omega r)^2.

    Envelope boundary terms plus the quadrature remainder of J1^2, scaled by
    count/band-width; equals (F/width) * integral of J0(omega r)^2 d omega.
    A trailing-(2) batch of search points gives one value per point.
    """
    if np.ndim(z) > 1:
        return _per_point(analytic_mf, z, scat, band, q)
    total = 0.0
    for r in _radii(np.asarray(z, dtype=float), scat):
        boundary = band.omega_f * bessel_envelope(band.omega_f * r) - band.omega1 * (
            bessel_envelope(band.omega1 * r)
        )
        rest = quad_adaptive(
            lambda w: bessel_j(1, w * r) ** 2, band.omega1, band.omega_f, q
        )
        total += boundary + rest
    return band.count / band.width * total


def analytic_wmf(
    z, scat: ScattererSet, band: BandLimits, n: int = 1, q: Quadrature | None = None
) -> float:
    """Power-weighted structure: (F/width) * integral of omega^n J0(omega r)^2.

    The n = 1 remainder vanishes identically (the x^2/2 envelope
    antiderivative), so that case is fully closed-form.  A trailing-(2)
    batch of search points gives one value per point.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"weight power must be a nonnegative integer, got {n!r}")
    if np.ndim(z) > 1:
        return _per_point(analytic_wmf, z, scat, band, n, q)
    if n == 0:
        return analytic_mf(z, scat, band, q)
    total = 0.0
    for r in _radii(np.asarray(z, dtype=float), scat):
        if n == 1:
            total += 0.5 * (
                band.omega_f**2 * bessel_envelope(band.omega_f * r)
                - band.omega1**2 * bessel_envelope(band.omega1 * r)
            )
        else:
            total += quad_adaptive(
                lambda w: w**n * bessel_j(0, w * r) ** 2, band.omega1, band.omega_f, q
            )
    return band.count / band.width * total


def analytic_log(z, scat: ScattererSet, band: BandLimits, q: Quadrature | None = None) -> float:
    """Log-weighted structure: (F/width) * integral of ln(omega) J0(omega r)^2.

    Boundary terms omega ln(omega) * envelope minus the quadrature remainder
    of J0^2 - (ln omega - 1) J1^2; requires omega1 > 1 for positive weights.
    A trailing-(2) batch of search points gives one value per point.
    """
    if band.omega1 <= 1.0:
        raise ValueError(f"log weighting needs omega1 > 1, got {band.omega1}")
    if np.ndim(z) > 1:
        return _per_point(analytic_log, z, scat, band, q)
    total = 0.0
    for r in _radii(np.asarray(z, dtype=float), scat):
        boundary = band.omega_f * math.log(band.omega_f) * bessel_envelope(
            band.omega_f * r
        ) - band.omega1 * math.log(band.omega1) * bessel_envelope(band.omega1 * r)
        rest = quad_adaptive(
            lambda w: bessel_j(0, w * r) ** 2
            - (np.log(w) - 1.0) * bessel_j(1, w * r) ** 2,
            band.omega1,
            band.omega_f,
            q,
        )
        total += boundary - rest
    return band.count / band.width * total


def e1_e2(r: float, band: BandLimits, q: Quadrature | None = None) -> tuple[float, float]:
    """Improvement diagnostics over the band at separation r > 0.

    E1 integrates J0(omega r)^2, E2 integrates (ln omega - 1) J1(omega r)^2;
    a negative -E1 + E2 near the scatterer is the improvement mechanism of
    the log weighting.
    """
    if not r > 0.0:
        raise ValueError(f"separation must be positive, got {r}")
    e1 = quad_adaptive(lambda w: bessel_j(0, w * r) ** 2, band.omega1, band.omega_f, q)
    e2 = quad_adaptive(
        lambda w: (np.log(w) - 1.0) * bessel_j(1, w * r) ** 2,
        band.omega1,
        band.omega_f,
        q,
    )
    return e1, e2


def save_e1e2_csv(radii, band: BandLimits, path, q: Quadrature | None = None) -> None:
    """Sweep of (r, E1, E2, -E1+E2) rows for sign-region plots."""
    lines = [
        "# submig e1e2 v1",
        f"# omega1 {band.omega1!r}",
        f"# omega_f {band.omega_f!r}",
        "r,e1,e2,e2_minus_e1",
    ]
    for r in radii:
        e1, e2 = e1_e2(float(r), band, q)
        lines.append(f"{float(r)!r},{e1!r},{e2!r},{e2 - e1!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
