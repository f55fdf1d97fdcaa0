"""Complex SVD with a fixed phase convention, and signal-subspace thresholding.

The factorization is LAPACK's (``numpy.linalg.svd``).  Each left singular
vector is rotated so that its largest-magnitude entry is real and positive,
and the matching right vector by the same phase, so the factors are
reproducible from one call to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SvdFactors", "svd", "effective_rank", "save_spectrum_csv"]

DEFAULT_RANK_THRESHOLD = 0.01


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD K = U diag(s) V^H with descending singular values.

    ``m_eff`` is the signal-subspace size at the default relative threshold;
    use :func:`effective_rank` for other thresholds.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    m_eff: int


def svd(matrix) -> SvdFactors:
    """Full SVD with a deterministic phase convention.

    Accepts an ndarray or any object with a complex ``entries`` array.  The
    largest-magnitude entry of each left vector is made real and positive.
    Singular values at or below n * eps * sigma_1 are set to exactly 0.
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

    # phase convention: largest-magnitude entry of each left vector real positive
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(n)]
    phase = lead / np.abs(lead)
    u, v = u / phase, v / phase

    factors = SvdFactors(u=u, s=s, v=v, m_eff=0)
    object.__setattr__(factors, "m_eff", effective_rank(factors, DEFAULT_RANK_THRESHOLD))
    return factors


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
