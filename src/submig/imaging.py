"""Steering vectors and the subspace-migration imaging functionals.

Each functional correlates a unit-norm steering vector with the thresholded
signal subspace of the response matrix and takes the magnitude of the
accumulated product, optionally weighted per frequency (1, omega^n, or
ln omega).  Steering vectors are built from separable x and y phase tables
and a map is evaluated over fixed-size blocks of grid rows, so memory stays
bounded on large grids; values agree with the pointwise formula to rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .forward import ConfigurationError, DirectionSet, MsrMatrix
from .spectral import SvdFactors, effective_rank

__all__ = [
    "DegenerateSteeringError",
    "EmptySubspaceError",
    "SteeringConfig",
    "ImageGrid",
    "ImageMap",
    "test_vector",
    "map_single",
    "map_multi",
    "save_map_csv",
    "save_map_pgm",
]


class DegenerateSteeringError(ValueError):
    """The steering coefficients annihilate every direction component."""


class EmptySubspaceError(ValueError):
    """No singular value passes the threshold: nothing to image."""


@dataclass(frozen=True)
class SteeringConfig:
    """Steering coefficients c acting on [1, theta]; unit-norm by default."""

    c: tuple[float, float, float] = (1.0, 0.0, 1.0)
    normalize: bool = True

    def __post_init__(self):
        c = tuple(float(v) for v in self.c)
        if len(c) != 3 or not any(v != 0.0 for v in c):
            raise ValueError("steering vector c must be a nonzero 3-vector")
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class ImageGrid:
    """Uniform search grid over a rectangle, at least 2 points per axis."""

    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = -1.0
    y_max: float = 1.0
    nx: int = 201
    ny: int = 201

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid bounds must be nonempty intervals")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid resolution must be at least 2 per axis")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def points(self) -> np.ndarray:
        """Grid points as an (ny*nx, 2) array, x varying fastest."""
        gx, gy = np.meshgrid(self.xs, self.ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class ImageMap:
    """Nonnegative map values on a grid, tagged by functional and band."""

    grid: ImageGrid
    values: np.ndarray
    tag: str
    omegas: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(f"values shape {v.shape} does not match the grid")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("map values must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    def normalized(self) -> np.ndarray:
        peak = self.values.max()
        return self.values / peak if peak > 0.0 else self.values.copy()


def _direction_amplitudes(dirs: DirectionSet, cfg: SteeringConfig) -> np.ndarray:
    c0, c1, c2 = cfg.c
    amps = c0 + c1 * dirs.thetas[:, 0] + c2 * dirs.thetas[:, 1]
    if np.all(amps == 0.0):
        raise DegenerateSteeringError(
            f"c={cfg.c} is orthogonal to [1, theta] for every direction"
        )
    return amps


def test_vector(
    z, omega: float, dirs: DirectionSet, cfg: SteeringConfig | None = None
) -> np.ndarray:
    """Steering vector W(z; omega), unit Euclidean norm under the default config."""
    if cfg is None:
        cfg = SteeringConfig()
    z = np.asarray(z, dtype=float).reshape(2)
    amps = _direction_amplitudes(dirs, cfg)
    w = amps * np.exp(1j * omega * (dirs.thetas @ z))
    return w / np.linalg.norm(amps) if cfg.normalize else w


_CHUNK_ROWS = 16


def _subspace_correlation(
    k: MsrMatrix, factors: SvdFactors, grid: ImageGrid, cfg: SteeringConfig, tau: float
) -> np.ndarray:
    # c(z) = w(z)^H (U_m V_m^H) conj(w(z)); exp(-i omega z.theta) factors into
    # an x table and a y table, so only (nx + ny) * N exponentials are taken
    m_eff = effective_rank(factors, tau)
    if m_eff == 0:
        raise EmptySubspaceError(
            f"no singular value above tau={tau} at omega={k.omega}"
        )
    amps = _direction_amplitudes(k.dirs, cfg)
    if cfg.normalize:
        amps = amps / np.linalg.norm(amps)
    thetas = k.dirs.thetas
    x_table = amps * np.exp(-1j * k.omega * np.outer(grid.xs, thetas[:, 0]))
    y_table = np.exp(-1j * k.omega * np.outer(grid.ys, thetas[:, 1]))
    projector = factors.u[:, :m_eff] @ factors.v[:, :m_eff].conj().T
    out = np.empty((grid.ny, grid.nx), dtype=complex)
    for start in range(0, grid.ny, _CHUNK_ROWS):
        rows = y_table[start : start + _CHUNK_ROWS]
        w_bar = (rows[:, None, :] * x_table[None, :, :]).reshape(-1, thetas.shape[0])
        out[start : start + rows.shape[0]] = np.sum(
            (w_bar @ projector) * w_bar, axis=1
        ).reshape(rows.shape[0], grid.nx)
    return out


def map_single(
    k: MsrMatrix,
    factors: SvdFactors,
    grid: ImageGrid,
    cfg: SteeringConfig | None = None,
    tau: float = 0.01,
) -> ImageMap:
    """Single-frequency subspace migration map."""
    if cfg is None:
        cfg = SteeringConfig()
    if not 0.0 < tau < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {tau}")
    values = np.abs(_subspace_correlation(k, factors, grid, cfg, tau))
    return ImageMap(grid=grid, values=values, tag="SF", omegas=(float(k.omega),))


_POWER_RE = re.compile(r"^power\((\d+)\)$")


def _parse_weight(weight: str, omegas):
    if weight == "one":
        return "MF", np.ones(len(omegas))
    if weight == "log":
        if min(omegas) <= 1.0:
            raise ValueError(
                f"log weighting needs omega > 1 everywhere, got min={min(omegas)}"
            )
        return "LOG", np.log(omegas)
    match = _POWER_RE.match(weight)
    if match:
        n = int(match.group(1))
        return f"WMF({n})", np.asarray(omegas, dtype=float) ** n
    raise ValueError(f"unknown weight {weight!r}; expected one, power(n), or log")


def map_multi(
    ks: list[tuple[MsrMatrix, SvdFactors]],
    grid: ImageGrid,
    cfg: SteeringConfig | None = None,
    tau: float = 0.01,
    weight: str = "one",
) -> ImageMap:
    """Multi-frequency subspace migration with weight one, power(n), or log.

    The unweighted map (tag MF) carries the 1/F normalization; the weighted
    maps are raw magnitudes of the weighted double sum.
    """
    if cfg is None:
        cfg = SteeringConfig()
    if not ks:
        raise ValueError("need at least one frequency")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {tau}")
    n = ks[0][0].dirs.count
    for k, _ in ks:
        if k.dirs.count != n or not np.array_equal(k.dirs.thetas, ks[0][0].dirs.thetas):
            raise ConfigurationError("all matrices must share one direction set")
    omegas = [float(k.omega) for k, _ in ks]
    tag, xi = _parse_weight(weight, omegas)
    total = np.zeros((grid.ny, grid.nx), dtype=complex)
    for (k, factors), weight_f in zip(ks, xi):
        total += weight_f * _subspace_correlation(k, factors, grid, cfg, tau)
    values = np.abs(total)
    if tag == "MF":
        values = values / len(ks)
    return ImageMap(grid=grid, values=values, tag=tag, omegas=tuple(omegas))


# ---------------------------------------------------------------------------
# exports

def save_map_csv(image: ImageMap, path, normalized: bool = False) -> None:
    """Write (x, y, value) rows, y ascending in blocks, x fastest."""
    values = image.normalized() if normalized else image.values
    lines = [
        "# submig map v1",
        f"# tag {image.tag}",
        f"# normalized {'yes' if normalized else 'no'}",
        "# omegas " + ",".join(repr(w) for w in image.omegas),
        "x,y,value",
    ]
    x_reprs = [repr(x) for x in image.grid.xs.tolist()]
    for y, row in zip(image.grid.ys.tolist(), values.tolist()):
        y_repr = repr(y)
        lines.extend(
            f"{x_repr},{y_repr},{value!r}" for x_repr, value in zip(x_reprs, row)
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def save_map_pgm(image: ImageMap, path, bits: int = 16) -> None:
    """Max-normalized grayscale PGM (P5); top row is the largest y."""
    if bits not in (8, 16):
        raise ValueError("bits must be 8 or 16")
    maxval = (1 << bits) - 1
    scaled = np.rint(image.normalized() * maxval).astype(np.uint16)
    flipped = scaled[::-1]  # y increases upward in the image
    header = (
        f"P5\n# submig map v1 tag={image.tag}\n{image.grid.nx} {image.grid.ny}\n{maxval}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if bits == 8:
            fh.write(flipped.astype(np.uint8).tobytes())
        else:
            fh.write(flipped.astype(">u2").tobytes())
