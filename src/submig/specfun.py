"""Self-contained special functions and quadrature.

Bessel functions J0 and J1 (first kind), a deterministic adaptive
Gauss-Legendre integrator (16-point panels, halved where the rule on an
interval and on its halves disagree) with fixed tolerances, and weighted
integrals of J0^2 by parts.  J0 and J1 are the midpoint rule on their
periodic integral representation at every argument, which converges
exponentially (Trefethen & Weideman, SIAM Review 56, 2014).  The rule is
folded onto (0, pi/2) by the symmetry t -> pi - t and gets just enough
nodes for its aliasing error to stay below 1e-16 on [0, 200].  Since
(J0^2 + J1^2)'(x) = -2 J1(x)^2 / x (DLMF 10.6), the integral of g(x)
J0(x r)^2 is [G(x) (J0^2 + J1^2)(x r)] plus the integral of (2G/x - g)
J1(x r)^2, G an antiderivative of g.  One private core evaluates that over a
set of radii for both integrals here and for the map structures of
``analysis``; on [1, 5], [0.5, 50] and [10, 100] the integrals agree with
mpmath to within 9e-15 relative.  No external special-function library is
used; tests cross-check everything against high-precision oracles.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "bessel_j",
    "quad_adaptive",
    "integral_j0sq",
    "integral_log_j0sq",
]


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; ``estimate`` carries the best value so far."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


# ---------------------------------------------------------------------------
# Bessel J0 and J1

_NODE_FLOOR_X = 8.0  # the rule is never sized for an argument below this
_CHUNK_POINTS = 256  # arguments per block: bounds the (points, nodes) temporaries


def _node_count(n: int, x_max: float) -> int:
    # the m-node rule's error is about |J_{2m-n}(x)| + |J_{2m+n}(x)|; with
    # 2m - n >= x + 12 x^(1/3) that stays below 1e-16 for x in [8, 200]
    # (against mpmath).  Below 8 the rule keeps the nodes it takes at 8 (16
    # for J0, 18 for J1), where the error on [0, 8) measures <= 2.2e-16; 16
    # nodes also make a scalar J0(0) exactly 8 * (2/16) = 1.0.  m is even so
    # that the rule folds.
    x = max(x_max, _NODE_FLOOR_X)
    m = math.ceil(0.5 * x + 6.0 * x ** (1.0 / 3.0)) + n
    return m + m % 2


def _integral_midpoint(n: int, x: np.ndarray) -> np.ndarray:
    # the nodes t and pi - t of the m-node rule on [0, pi] pair up: their sum is
    # 2 cos(x sin t) for n = 0 and 2 sin(t) sin(x sin t) for n = 1
    m = _node_count(n, float(x.max(initial=0.0)))
    tau = (np.arange(m // 2) + 0.5) * (math.pi / m)
    sin_tau = np.sin(tau)
    wave = np.sin if n else np.cos
    weight = (sin_tau if n else 1.0) * (2.0 / m)
    out = np.empty_like(x)
    for start in range(0, x.size, _CHUNK_POINTS):
        block = wave(x[start : start + _CHUNK_POINTS, None] * sin_tau)
        block *= weight
        # ndarray.sum, not a matrix product: BLAS may round by thread count
        out[start : start + block.shape[0]] = block.sum(axis=1)
    return out


def bessel_j(n: int, x):
    """Bessel function J_n(x) of the first kind, order n = 0 or 1.

    The m-node midpoint rule on J_n(x) = (1/pi) int_0^pi cos(n t - x sin t)
    dt at every argument; its periodic integrand makes the rule converge
    exponentially (Trefethen & Weideman, "The exponentially convergent
    trapezoidal rule", SIAM Review 56, 2014).  Its nodes t and pi - t pair
    up, so m/2 cosines (J0) or sines (J1) of x sin t give each value.  The
    error is about |J_{2m-n}(x)| + |J_{2m+n}(x)|, and m = ceil(x/2 + 6
    x^(1/3)) + n, rounded up to even with x the largest argument of the call
    but never below 8, keeps it below 1e-16 on [0, 200].  Higher orders are
    not offered: at small x the rule loses their relative accuracy to
    cancellation.  Accepts scalars or ndarrays; x must be finite and
    nonnegative.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {n!r}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j requires finite x")
    if np.any(arr < 0.0):
        raise ValueError("bessel_j requires x >= 0")
    if arr.ndim == 0:
        return float(_integral_midpoint(int(n), arr.reshape(1))[0])
    return _integral_midpoint(int(n), arr.ravel()).reshape(arr.shape)


def bessel_envelope(x):
    """J0(x)^2 + J1(x)^2, the monotone envelope of the squared oscillations."""
    return bessel_j(0, x) ** 2 + bessel_j(1, x) ** 2


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre

_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_DEPTH = 40
_MAX_POINTS = 4_000_000  # abscissae per integrand call

# The 16-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights, each correctly rounded from 50-digit values (Newton's method on the
# Legendre recurrence, in mpmath).  Of 8, 12, 16, 24 and 32 nodes, 16 gives
# the fastest closed_form pass (median 0.025 s against 0.031-0.048 s, 40
# passes each, seed 0), with every integral accepted at the first level and
# the fewest Bessel values.  Literal constants: building the rule at import
# (Newton in float64) raised a fig1 run's peak RSS by ~1 MB.
_GL_POSITIVE = np.array(
    [
        (0.09501250983763744, 0.1894506104550685),
        (0.2816035507792589, 0.18260341504492358),
        (0.45801677765722737, 0.16915651939500254),
        (0.6178762444026438, 0.14959598881657674),
        (0.755404408355003, 0.12462897125553388),
        (0.8656312023878318, 0.09515851168249279),
        (0.9445750230732326, 0.062253523938647894),
        (0.9894009349916499, 0.027152459411754096),
    ]
)
_GL_NODES = np.concatenate([-_GL_POSITIVE[::-1, 0], _GL_POSITIVE[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_POSITIVE[::-1, 1], _GL_POSITIVE[:, 1]])
_GAUSS_NODES = _GL_NODES.size


def _eval_integrand(f, x: np.ndarray) -> np.ndarray:
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        if y.ndim == 0:
            y = np.full_like(x, float(y))
        else:
            raise ValueError("integrand returned a shape not matching its input")
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand is not finite on the integration interval")
    return y


def _gauss_panels(f, left: np.ndarray, width: np.ndarray) -> np.ndarray:
    # the rule on every panel [left, left + width], all in one integrand call
    half = 0.5 * width
    fx = _eval_integrand(f, ((left + half)[:, None] + half[:, None] * _GL_NODES).ravel())
    # ndarray.sum, not a matrix product: BLAS may round by thread count
    return half * (fx.reshape(-1, _GAUSS_NODES) * _GL_WEIGHTS).sum(axis=1)


def quad_adaptive(f, a: float, b: float) -> float:
    """Adaptive Gauss-Legendre integral of f over [a, b].

    Every active interval compares the 16-point Gauss-Legendre rule on the
    whole interval, G, with the same rule on its two halves, G2.  It is
    accepted with the value G2 once |G2 - G| is within its tolerance;
    otherwise it splits, and each half's value becomes that half's G.  The
    rule is exact for polynomials of degree 31 and converges geometrically
    on analytic integrands (Trefethen, "Is Gauss quadrature better than
    Clenshaw-Curtis?", SIAM Review 50, 2008).  The tolerance on [a, b] is
    max(1e-10, 1e-10 |G|), G the rule on [a, b], and it halves with each
    split.  f is evaluated on ndarrays of abscissae once per level: 48 at
    the first (the whole interval and its halves), then 32 per active
    interval (scalar-constant returns are broadcast).  Accepted values are
    added with math.fsum.  40 levels without convergence raise
    ConvergenceError carrying the best estimate.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError(f"requires a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0

    # active intervals [left, left + 2 half], each with its rule value
    # `whole` and its tolerance; the first call also takes both halves
    left = np.array([a])
    half = np.array([0.5 * (b - a)])
    g = _gauss_panels(f, np.array([a, a, a + half[0]]), np.array([b - a, half[0], half[0]]))
    whole, halves = g[:1], g[1:]
    tol = np.array([max(_ABS_TOL, _REL_TOL * abs(float(whole[0])))])

    done: list[float] = []
    for level in range(_MAX_DEPTH):
        if level:
            # both halves of every active interval in one integrand call
            halves = _gauss_panels(f, np.concatenate([left, left + half]), np.tile(half, 2))
        g_left, g_right = np.split(halves, 2)
        g2 = g_left + g_right
        ok = np.abs(g2 - whole) <= tol
        done.extend(g2[ok].tolist())
        if ok.all():
            return math.fsum(done)
        keep = ~ok
        # the next call takes two halves of both halves of each kept interval
        if 4 * int(keep.sum()) * _GAUSS_NODES > _MAX_POINTS:
            raise ConvergenceError(
                "abscissa budget exhausted", math.fsum(done) + float(np.sum(g2[keep]))
            )
        # the kept intervals split; fsum makes the order of the halves moot
        whole = np.concatenate([g_left[keep], g_right[keep]])
        left = np.concatenate([left[keep], left[keep] + half[keep]])
        half = np.tile(0.5 * half[keep], 2)
        tol = np.tile(0.5 * tol[keep], 2)

    raise ConvergenceError(
        f"max_depth={_MAX_DEPTH} reached without convergence",
        math.fsum(done) + float(np.sum(whole)),
    )


# ---------------------------------------------------------------------------
# closed-form weighted Bessel integrals

def _j0sq_by_parts(anti, rest, a: float, b: float, radii) -> float:
    # int_a^b g(x) sum_m J0(x r_m)^2 dx by parts (module docstring), G = anti:
    # the boundary terms [G(x) sum_m (J0^2 + J1^2)(x r_m)]_a^b by one fsum, plus
    # one quadrature of rest(x) sum_m J1(x r_m)^2 on (abscissae x radii)
    # arrays, where rest = 2G/x - g, or None where that vanishes
    env = bessel_envelope(np.outer([a, b], radii))
    total = math.fsum(np.concatenate([anti(b) * env[1], -anti(a) * env[0]]))
    if rest is not None:
        total += quad_adaptive(
            lambda x: rest(x) * (bessel_j(1, x[:, None] * radii) ** 2).sum(axis=1), a, b
        )
    return total


def integral_j0sq(a: float, b: float) -> float:
    """Integral of J0(x)^2 over [a, b], 0 <= a <= b.

    By parts: the boundary terms x (J0^2 + J1^2) plus the quadrature of
    J1(x)^2.
    """
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= b) or not math.isfinite(b):
        raise ValueError(f"requires 0 <= a <= b, got a={a}, b={b}")
    return _j0sq_by_parts(lambda x: x, lambda x: 1.0, a, b, (1.0,))


def integral_log_j0sq(a: float, b: float) -> float:
    """Integral of ln(x) * J0(x)^2 over [a, b], 0 < a <= b.

    By parts: the boundary terms (x ln x - x) (J0^2 + J1^2) plus the
    quadrature of (ln x - 2) J1(x)^2.
    """
    a = float(a)
    b = float(b)
    if not (0.0 < a <= b) or not math.isfinite(b):
        raise ValueError(f"requires 0 < a <= b, got a={a}, b={b}")
    return _j0sq_by_parts(lambda x: x * math.log(x) - x, lambda x: np.log(x) - 2.0, a, b, (1.0,))
