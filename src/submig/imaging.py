"""Steering vectors and the subspace-migration imaging functionals.

Every functional is |sum_f xi_f c_f| of the same per-frequency subspace
correlation c_f(z) = w(z)^H U_m V_m^H conj(w(z)) of a unit-norm steering
vector with the thresholded signal subspace of the response matrix; the
functionals differ only in their weights xi_f, named by one tag vocabulary:
SF puts weight 1 on the finest wavelength and 0 elsewhere, and MF, WMF(n)
and LOG weigh every frequency by 1/F, omega_f^n and ln omega_f.
Steering vectors are built from separable x and y phase tables, and since
the bilinear form sees only the symmetric part of U_m V_m^H, each c_f is
one matrix product over direction pairs j <= l: a (rows, pairs) table of
weighted y products times a (pairs, columns) table of x products.  The
pairs go in fixed-size blocks, so memory stays bounded whatever the
direction count.

``subspace_correlations`` computes each c_f once, not on the grid but on a
core: K_y x K_x Chebyshev points of the second kind spanning the grid.  c_f
is a sum of plane waves exp(-i omega_f (theta_j + theta_l) . z), so on an
axis of half-width h, mapped to t in [-1, 1], each factor is exp(-i k t)
with |k| <= kappa = 2 omega_max h, whose Chebyshev coefficients are
2 i^n J_n(k) (Jacobi-Anger).  K = 2 ``specfun._node_count(0, kappa)``, the
tail rule of the Bessel quadrature, puts J_K(kappa) below 1e-17, so
interpolation from the core is exact to rounding (K = 84 at the presets'
kappa = 41.9).  The nodes depend on the grid and the band alone, so each
tag's sum_f xi_f c_f is summed on the core, and each tag's sum is expanded
to the grid once, as L_y core L_x^T with L the barycentric interpolation
matrix (Berrut & Trefethen, "Barycentric Lagrange interpolation", SIAM
Review 46(3), 2004).  An axis of at most K grid points is its own node set,
with L = I, so there c_f is computed at the grid points themselves.  Memory
holds one core per tag and one core buffer, whatever the frequency count;
a frequency that no tag weighs is not computed.  ``map_multi`` turns a
tag's sum into its map, |sum|, and ``map_single`` is SF of one matrix.
Values agree with the pointwise formula to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import ConfigurationError, DirectionSet, MsrMatrix
from .specfun import _node_count
from .spectral import DEFAULT_RANK_THRESHOLD, SvdFactors, effective_rank

__all__ = [
    "DegenerateSteeringError",
    "EmptySubspaceError",
    "SteeringConfig",
    "ImageGrid",
    "ImageMap",
    "test_vector",
    "map_single",
    "subspace_correlations",
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
    """Steering coefficients c acting on [1, theta]; steering vectors are unit-norm."""

    c: tuple[float, float, float] = (1.0, 0.0, 1.0)

    def __post_init__(self):
        c = tuple(float(v) for v in self.c)
        if len(c) != 3 or not any(v != 0.0 for v in c) or not np.all(np.isfinite(c)):
            raise ValueError(f"steering vector c must be a nonzero finite 3-vector, got {self.c}")
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
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        finite = np.all(np.isfinite(bounds))
        if not (finite and self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"grid bounds must be finite nonempty intervals, got {bounds}")
        for name in ("nx", "ny"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ValueError(f"grid {name} must be an integer, got {size!r}")
            object.__setattr__(self, name, int(size))
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
    """Steering vector W(z; omega), of unit Euclidean norm."""
    if cfg is None:
        cfg = SteeringConfig()
    z = np.asarray(z, dtype=float).reshape(2)
    amps = _direction_amplitudes(dirs, cfg)
    w = amps * np.exp(1j * omega * (dirs.thetas @ z))
    return w / np.linalg.norm(amps)


# direction pairs per matrix product: a block's temporaries are (columns + rows)
# pair columns, whatever the direction count
_CHUNK_PAIRS = 256


def _subspace_correlation(
    k: MsrMatrix,
    factors: SvdFactors,
    xs: np.ndarray,
    ys: np.ndarray,
    cfg: SteeringConfig,
    tau: float,
    out: np.ndarray,
) -> None:
    # c(x, y) = w^H P conj(w) with P = U_m V_m^H at every (xs, ys) pair, written
    # into out[y, x].  conj(w_j(x, y)) = X_j(x) Y_j(y) splits into an x table
    # and a y table, and the bilinear form sees only the symmetric part of P, so
    #   c[y, x] = sum_{j <= l} s_jl (Y_j Y_l)(y) (X_j X_l)(x),
    # s_jj = P_jj, s_jl = P_jl + P_lj: one matrix product per block of pairs
    m_eff = effective_rank(factors, tau)
    if m_eff == 0:
        raise EmptySubspaceError(
            f"no singular value above tau={tau} at omega={k.omega}"
        )
    amps = _direction_amplitudes(k.dirs, cfg)
    amps = amps / np.linalg.norm(amps)
    thetas = k.dirs.thetas
    x_table = amps[:, None] * np.exp(-1j * k.omega * np.outer(thetas[:, 0], xs))
    y_table = np.exp(-1j * k.omega * np.outer(thetas[:, 1], ys))
    projector = factors.u[:, :m_eff] @ factors.v[:, :m_eff].conj().T
    symmetric = projector + projector.T
    np.fill_diagonal(symmetric, np.diagonal(projector))
    first, second = np.triu_indices(thetas.shape[0])
    weights = symmetric[first, second]
    for start in range(0, weights.size, _CHUNK_PAIRS):
        block = slice(start, start + _CHUNK_PAIRS)
        yy = y_table[first[block]]
        yy *= y_table[second[block]]
        yy *= weights[block, None]
        xx = x_table[first[block]]
        xx *= x_table[second[block]]
        if start == 0:
            np.matmul(yy.T, xx, out=out)
        else:
            out += yy.T @ xx


def _interpolation_matrix(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    # the (points, nodes) matrix of the barycentric formula of the second kind
    # at Chebyshev points of the second kind, whose weights are (-1)^k, halved
    # at both ends; a point that is a node takes that node's value alone
    weights = np.where(np.arange(nodes.size) % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5
    diff = points[:, None] - nodes
    on_node = diff == 0.0
    diff[on_node] = 1.0
    matrix = weights / diff
    matrix /= matrix.sum(axis=1, keepdims=True)
    hits = on_node.any(axis=1)
    matrix[hits] = on_node[hits]
    return matrix


def _axis_nodes(points: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray | None]:
    # an axis's correlation nodes and the matrix that interpolates from them to
    # the axis's points: K Chebyshev points of the second kind when the axis
    # has more than K points, else the points themselves (None: no expansion)
    count = 2 * _node_count(0, kappa)
    if points.size <= count:
        return points, None
    lo, hi = points[0], points[-1]
    # ascending, and symmetric about the midpoint to rounding: -1 and 1 exactly
    t = np.sin(0.5 * np.pi * np.arange(1 - count, count, 2) / (count - 1))
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
    return nodes, _interpolation_matrix(points, nodes)


def map_single(
    k: MsrMatrix,
    factors: SvdFactors,
    grid: ImageGrid,
    cfg: SteeringConfig | None = None,
    tau: float = DEFAULT_RANK_THRESHOLD,
) -> ImageMap:
    """Single-frequency subspace migration map: SF of the one matrix."""
    sums = subspace_correlations([(k, factors)], grid, cfg, tau, ("SF",))
    return map_multi(sums["SF"], (k.omega,), grid, "SF")


def _weights(tag: str, omegas: list[float]) -> np.ndarray:
    # the one tag parser: a tag's weights xi_f over omegas, the functional itself
    if tag == "SF":
        return (np.arange(len(omegas)) == len(omegas) - 1).astype(float)
    if tag == "MF":
        return np.ones(len(omegas)) / len(omegas)
    if tag == "LOG":
        if any(w <= 1.0 for w in omegas):
            raise ValueError(
                f"log weighting needs omega > 1 everywhere, got min={min(omegas)}"
            )
        return np.log(omegas)
    power = tag[4:-1]
    # canonical powers only, so that each WMF tag names one functional
    if tag.startswith("WMF(") and tag.endswith(")") and power.isdecimal() and (
        power == str(int(power))
    ):
        return np.asarray(omegas, dtype=float) ** int(power)
    raise ValueError(f"unknown weight {tag!r}; expected SF, MF, WMF(n), or LOG")


def subspace_correlations(
    ks: list[tuple[MsrMatrix, SvdFactors]],
    grid: ImageGrid,
    cfg: SteeringConfig | None = None,
    tau: float = DEFAULT_RANK_THRESHOLD,
    tags: tuple[str, ...] | list[str] = ("MF",),
) -> dict[str, np.ndarray]:
    """Each tag's weighted correlation sum over the frequencies of ``ks``.

    The sum is ``sum_f xi_f c_f`` with the tag's weights ``_weights(tag,
    omegas)``, as a complex ``(ny, nx)`` array.  A frequency that no tag
    weighs is skipped, so SF alone computes only c_F.  Each c_f is computed
    once, on a core of Chebyshev nodes sized by the largest frequency (the
    grid points on an axis that has no more points than nodes), into one
    buffer reused across frequencies; each tag's sum is summed on the core
    and expanded to the grid once.  The pass holds one core per tag plus
    that buffer, whatever the frequency count.  ``map_multi`` turns a sum
    into its map.
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
    weights = {tag: _weights(tag, omegas) for tag in tags}
    # along an axis of half-width h, a pair's phase omega (theta_j + theta_l) z
    # changes by at most 2 omega_max h between the centre and either end
    omega_max = max(omegas)
    xs, x_expand = _axis_nodes(grid.xs, omega_max * (grid.x_max - grid.x_min))
    ys, y_expand = _axis_nodes(grid.ys, omega_max * (grid.y_max - grid.y_min))
    sums = {tag: np.zeros((ys.size, xs.size), dtype=complex) for tag in tags}
    core = np.empty((ys.size, xs.size), dtype=complex)
    for f, (k, factors) in enumerate(ks):
        terms = {tag: xi[f] for tag, xi in weights.items() if xi[f] != 0.0}
        if not terms:
            continue
        _subspace_correlation(k, factors, xs, ys, cfg, tau, out=core)
        # frequency by frequency, each tag's sum takes its terms in order f = 0..F-1
        for tag, xi_f in terms.items():
            sums[tag] += xi_f * core
    # each tag's sum is expanded to the grid as L_y total L_x^T, skipping an identity
    for tag, total in sums.items():
        if y_expand is not None:
            total = y_expand @ total
        if x_expand is not None:
            total = total @ x_expand.T
        sums[tag] = total
    return sums


def map_multi(
    total: np.ndarray,
    omegas: tuple[float, ...] | list[float],
    grid: ImageGrid,
    weight: str = "MF",
) -> ImageMap:
    """Subspace migration map SF, MF, WMF(n) or LOG from its correlation sum.

    ``total`` is ``subspace_correlations(ks, grid, cfg, tau, tags)[weight]``
    and ``omegas`` the frequencies of ``ks``, in the same order.  The map is
    ``|total|``, tagged with the frequencies the weight does not zero (the
    last alone for SF); ``omegas`` labels the map and changes no value.
    """
    omegas = [float(w) for w in omegas]
    xi = _weights(weight, omegas)  # rejects an unknown tag, and LOG below omega = 1
    if not omegas or np.shape(total) != (grid.ny, grid.nx):
        raise ValueError(
            f"correlations summed to shape {np.shape(total)} do not match "
            f"{len(omegas)} frequencies on a {grid.ny}x{grid.nx} grid"
        )
    band = tuple(w for w, xi_f in zip(omegas, xi) if xi_f != 0.0)
    return ImageMap(grid=grid, values=np.abs(total), tag=weight, omegas=band)


# ---------------------------------------------------------------------------
# exports

def save_map_csv(image: ImageMap, path, normalized: bool = False) -> None:
    """Write (x, y, value) rows, y ascending, x fastest.

    Each grid row is formatted and written on its own, so the strings held at
    once are one row's, whatever the grid size.
    """
    values = image.normalized() if normalized else image.values
    header = [
        "# submig map v1",
        f"# tag {image.tag}",
        f"# normalized {'yes' if normalized else 'no'}",
        "# omegas " + ",".join(repr(w) for w in image.omegas),
        "x,y,value",
    ]
    x_reprs = [repr(x) for x in image.grid.xs.tolist()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header) + "\n")
        for y, row in zip(image.grid.ys.tolist(), values):
            y_repr = repr(y)
            fh.write("".join(
                f"{x_repr},{y_repr},{value!r}\n" for x_repr, value in zip(x_reprs, row.tolist())
            ))


def save_map_pgm(image: ImageMap, path) -> None:
    """Max-normalized 16-bit grayscale PGM (P5); top row is the largest y."""
    maxval = 65535
    scaled = np.rint(image.normalized() * maxval).astype(">u2")
    flipped = scaled[::-1]  # y increases upward in the image
    header = (
        f"P5\n# submig map v1 tag={image.tag}\n{image.grid.nx} {image.grid.ny}\n{maxval}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(flipped.tobytes())
