"""Complex SVD with a fixed phase convention, and signal-subspace thresholding.

The factorization is LAPACK's (``numpy.linalg.svd``).  Each left singular
vector is rotated so that its lead entry is real and positive, and the
matching right vector by the same phase, so the factors are reproducible
from one call to the next.  The lead is the first entry whose magnitude is
within 1e-12 (relative) of the vector's largest, so rounding cannot choose
between tied entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvdFactors", "svd", "effective_rank", "save_spectrum_csv"]

DEFAULT_RANK_THRESHOLD = 0.01
# magnitudes within this relative distance of a vector's largest are tied.
# The phase rotation rounds every magnitude by ~2 eps, which can carry an
# entry across the window's edge: on 606 clean sigma1/sigma2 MSRs (N = 32,
# 48, 64) that moved the lead of 101 vectors at 4 eps and of none at 1e-12
_LEAD_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD K = U diag(s) V^H with descending singular values.

    :func:`effective_rank` gives the signal-subspace size at a threshold.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(matrix) -> SvdFactors:
    """Full SVD with a deterministic phase convention.

    Accepts an ndarray or any object with a complex ``entries`` array.  The
    lead entry of each left vector is made real and positive: the one of
    lowest index among those whose magnitude is at least (1 - 1e-12) times
    the vector's largest, so that entries tied up to rounding always give
    the same lead, before and after the rotation.  Singular values at or
    below n * eps * sigma_1 are set to exactly 0.
    """
    entries = getattr(matrix, "entries", matrix)
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    n = a.shape[1]
    u, s, vh = np.linalg.svd(a)
    v = vh.conj().T

    cutoff = n * np.finfo(float).eps * (s[0] if s[0] > 0.0 else 1.0)
    s[s <= cutoff] = 0.0

    # phase convention: the first entry of each left vector tied with its
    # largest magnitude is made real positive
    mag = np.abs(u)
    tied = mag >= (1.0 - _LEAD_TIE_RTOL) * mag.max(axis=0)
    lead = u[np.argmax(tied, axis=0), np.arange(n)]
    phase = lead / np.abs(lead)
    u, v = u / phase, v / phase

    return SvdFactors(u=u, s=s, v=v)


def effective_rank(factors: SvdFactors, tau: float = DEFAULT_RANK_THRESHOLD) -> int:
    """Number of singular values at or above tau times the largest."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {tau}")
    top = factors.s[0] if factors.s.size else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(factors.s >= tau * top))


def save_spectrum_csv(factors: SvdFactors, omega: float, path) -> None:
    """Write (m, sigma_m, sigma_m/sigma_1) rows for threshold diagnostics."""
    top = float(factors.s[0]) if factors.s.size and factors.s[0] > 0.0 else 1.0
    lines = ["# submig spectrum v1", f"# omega {float(omega)!r}", "m,sigma,ratio"]
    for m, sig in enumerate(factors.s, start=1):
        lines.append(f"{m},{float(sig)!r},{float(sig) / top!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
