"""Far-field synthesis: multi-static response matrices and calibrated noise.

The forward model is the leading-order asymptotic far-field of a thin
inclusion sampled at half-wavelength segment midpoints; no PDE is solved.
Matrices are exactly symmetric by construction (sums of outer products).

Noise streams: one PCG64 generator per matrix, seeded through
``numpy.random.SeedSequence(seed)``; the real parts of all entries are drawn
first (C order), then the imaginary parts.  Use :func:`derive_stream_seed`
to split a master seed into per-matrix substreams.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import ThinInclusion, effective_segment_count, sample_curve

__all__ = [
    "ConfigurationError",
    "DirectionSet",
    "FrequencySet",
    "MsrMatrix",
    "make_directions",
    "assemble_msr",
    "add_awgn",
    "derive_stream_seed",
    "save_msr",
    "load_msr",
]


class ConfigurationError(ValueError):
    """Configuration violates a model assumption (for instance M >= N)."""


@dataclass(frozen=True)
class DirectionSet:
    """N distinct incident unit vectors; observation directions are their negatives."""

    thetas: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thetas, dtype=float)
        if t.ndim != 2 or t.shape[1] != 2 or t.shape[0] < 2:
            raise ValueError("need at least two directions in R^2")
        if np.max(np.abs(np.hypot(t[:, 0], t[:, 1]) - 1.0)) > 1e-12:
            raise ValueError("directions must be unit vectors")
        object.__setattr__(self, "thetas", t)

    @property
    def count(self) -> int:
        return self.thetas.shape[0]


def make_directions(n: int) -> DirectionSet:
    """Equiangular incident directions -[cos(2 pi (l-1)/n), sin(2 pi (l-1)/n)]."""
    if n < 2:
        raise ValueError(f"need at least 2 directions, got {n}")
    ang = 2.0 * math.pi * np.arange(n) / n
    return DirectionSet(thetas=-np.stack([np.cos(ang), np.sin(ang)], axis=-1))


@dataclass(frozen=True)
class FrequencySet:
    """Wavelengths descending from lambda_1 to lambda_F; omega_f = 2 pi / lambda_f."""

    wavelengths: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.wavelengths, dtype=float))
        if w.size < 1 or np.any(w <= 0.0):
            raise ValueError("need at least one positive wavelength")
        if w.size > 1 and np.any(np.diff(w) >= 0.0):
            raise ValueError("wavelengths must be strictly descending")
        object.__setattr__(self, "wavelengths", w)

    @classmethod
    def from_band(cls, lambda_max: float, lambda_min: float, count: int) -> "FrequencySet":
        if count < 1:
            raise ValueError("need at least one frequency")
        if count == 1:
            return cls(wavelengths=np.array([lambda_max]))
        return cls(wavelengths=np.linspace(lambda_max, lambda_min, count))

    @property
    def omegas(self) -> np.ndarray:
        return 2.0 * math.pi / self.wavelengths

    @property
    def count(self) -> int:
        return self.wavelengths.size


@dataclass(frozen=True)
class MsrMatrix:
    """N x N far-field matrix at one frequency, with its direction set."""

    omega: float
    entries: np.ndarray
    dirs: DirectionSet
    provenance: str = "clean"
    snr_db: float | None = None
    seed: int | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        n = self.dirs.count
        if e.shape != (n, n):
            raise ValueError(f"entries shape {e.shape} does not match {n} directions")
        if not np.all(np.isfinite(e.real)) or not np.all(np.isfinite(e.imag)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "entries", e)


def _contrast_terms(inclusion: ThinInclusion) -> tuple[float, float, float]:
    # against the unit background: eps0 = mu0 = 1
    mu = inclusion.permeability
    c0 = inclusion.permittivity - 1.0
    ev_t = 2.0 * (1.0 / mu - 1.0)
    ev_n = 2.0 * (1.0 - mu)
    return c0, ev_t, ev_n


def _prefactor(omega: float, h: float) -> complex:
    """Scale h omega^2 (1 + i) / (4 sqrt(pi omega)) of the MSR matrix at omega.

    The one rule on it, for assemble_msr and the run config: it must neither
    underflow to 0 nor overflow, or the matrix is all zeros or not finite.
    """
    try:
        scale = h * omega**2 * (1.0 + 1.0j) / (4.0 * math.sqrt(omega * math.pi))
    except OverflowError:  # omega**2
        scale = complex(math.inf, math.inf)
    if scale == 0.0:
        raise ConfigurationError(
            f"MSR prefactor underflows to 0 at omega={omega:.6g} (h={h}): "
            "lambda_max is too large or h too small"
        )
    if not cmath.isfinite(scale):
        raise ConfigurationError(
            f"MSR prefactor overflows at omega={omega:.6g} (h={h}): h is too large"
        )
    return scale


def assemble_msr(dirs: DirectionSet, omega: float, inclusion: ThinInclusion) -> MsrMatrix:
    """Clean MSR matrix at omega; resolution requires M < N segment points."""
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError(f"omega must be positive, got {omega}")
    wavelength = 2.0 * math.pi / omega
    m = effective_segment_count(inclusion.curve, wavelength)
    if m >= dirs.count:
        raise ConfigurationError(
            f"effective segment count M={m} must stay below N={dirs.count}"
        )
    scale = _prefactor(omega, inclusion.half_thickness)
    samples = sample_curve(inclusion, m)
    c0, ev_t, ev_n = _contrast_terms(inclusion)
    n = dirs.count
    k = np.zeros((n, n), dtype=complex)
    # outer products keep the matrix exactly symmetric entry by entry
    for smp in samples:
        e = np.exp(1j * omega * (dirs.thetas @ smp.point))
        at = dirs.thetas @ smp.tangent
        an = dirs.thetas @ smp.normal
        k += smp.weight * (
            c0 * np.outer(e, e)
            + ev_t * np.outer(at * e, at * e)
            + ev_n * np.outer(an * e, an * e)
        )
    k *= scale
    return MsrMatrix(omega=omega, entries=k, dirs=dirs)


def _noise_factor(snr_db: float) -> float:
    """Noise-to-signal power ratio 10^(-snr_db/10); 0 for snr_db = +inf (no noise)."""
    try:
        factor = 10.0 ** (-snr_db / 10.0)
    except OverflowError:  # an SNR so low that the factor overflows
        factor = math.inf
    if not factor < math.inf:  # also NaN and -inf
        raise ValueError(f"snr_db must be inf or give a finite 10^(-snr_db/10), got {snr_db}")
    return factor


def add_awgn(k: MsrMatrix, snr_db: float, seed: int) -> MsrMatrix:
    """Additive circularly-symmetric complex Gaussian noise at a target SNR.

    Per-entry noise variance is P_s * 10^(-snr_db/10) with P_s the mean
    squared entry magnitude; snr_db = +inf means no noise.  A nonzero matrix
    whose P_s is below the smallest normal float raises ValueError, since its
    noise would vanish.  Deterministic for a given integer seed.
    """
    snr_db = float(snr_db)
    factor = _noise_factor(snr_db)
    if snr_db == math.inf:
        return replace(k)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    n = k.dirs.count
    signal_power = float(np.mean(np.abs(k.entries) ** 2))
    if signal_power < np.finfo(float).tiny and np.any(k.entries):
        # squaring tiny entries underflowed: sigma would be 0 or keep a few bits
        raise ValueError(
            f"signal power {signal_power!r} of a nonzero matrix is below the smallest "
            "normal float, so noise cannot be scaled to it"
        )
    sigma = math.sqrt(signal_power * factor / 2.0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
    noise = sigma * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return MsrMatrix(
        omega=k.omega,
        entries=k.entries + noise,
        dirs=k.dirs,
        provenance="noisy",
        snr_db=snr_db,
        seed=int(seed),
    )


def derive_stream_seed(master_seed: int, index: int) -> int:
    """Per-matrix substream seed: SeedSequence(master, spawn_key=(index,))."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# text serialization (round-trips losslessly at 17 significant digits)

def save_msr(k: MsrMatrix, path) -> None:
    """Write the documented text format: versioned header plus re/im rows.

    The format records only N; directions are assumed to be the canonical
    equiangular set of :func:`make_directions`.
    """
    n = k.dirs.count
    if not np.allclose(k.dirs.thetas, make_directions(n).thetas, atol=1e-12):
        raise ValueError("only canonical equiangular direction sets are serializable")
    lines = [
        "# submig msr v1",
        f"# n {n}",
        f"# omega {k.omega:.17g}",
        f"# provenance {k.provenance}",
        f"# snr_db {'none' if k.snr_db is None else format(k.snr_db, '.17g')}",
        f"# seed {'none' if k.seed is None else k.seed}",
    ]
    # one % operation per row; %.17g and format(v, ".17g") print the same digits
    row_format = " ".join(["%.17g"] * (2 * n))
    rows = np.ascontiguousarray(k.entries).view(float).tolist()
    lines.extend(row_format % tuple(row) for row in rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_msr(path) -> MsrMatrix:
    """Read the text format written by :func:`save_msr`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "# submig msr v1":
        raise ValueError(f"{path}: not a submig msr v1 file")
    header = {}
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("# ") and i > 0:
            key, _, value = line[2:].partition(" ")
            header[key] = value
        elif i > 0:
            body_start = i
            break
    n = int(header["n"])
    rows = []
    for line in lines[body_start : body_start + n]:
        vals = [float(tok) for tok in line.split()]
        rows.append([complex(re, im) for re, im in zip(vals[0::2], vals[1::2])])
    snr = header.get("snr_db", "none")
    seed = header.get("seed", "none")
    return MsrMatrix(
        omega=float(header["omega"]),
        entries=np.array(rows, dtype=complex),
        dirs=make_directions(n),
        provenance=header.get("provenance", "clean"),
        snr_db=None if snr == "none" else float(snr),
        seed=None if seed == "none" else int(seed),
    )
