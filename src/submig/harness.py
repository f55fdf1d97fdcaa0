"""Configuration-driven experiment runner with metrics and persistence.

A run assembles one response matrix per frequency (summed over inclusions),
optionally adds calibrated noise, factors each matrix, evaluates the
requested imaging functionals, and scores each map against the true curves
by sidelobe energy and localization error.  Every functional is read off
one pass of per-frequency subspace correlations (an SF-only run computes the
finest wavelength's alone).  Every map is scored against one field of the
grid that is exact wherever the metrics read it: bounds decide most points'
side of the tube, and one ``distance_to_curves`` call gives the exact
distance at the rest and at each map's top points.  A configuration that
cannot run is rejected when it is built.  All outputs are deterministic for
a fixed configuration and seed.

When a run persists, a forked child writes most of the map files (most of
its bytes) while this process scores the maps and writes the rest.  This
process then writes the last third of the tags' map files, and the child's
share again unless a child wrote it cleanly, so a failure is raised by the
write that meets it.  The fork is safe with BLAS threads alive: the child
runs only Python formatting, numpy elementwise operations and file writes,
so it calls no BLAS and takes no lock that another thread could hold.
Python 3.12 and later warn (``DeprecationWarning``) on such a fork; the
tests have been run only on 3.11, so that case is untested.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .forward import (
    ConfigurationError,
    FrequencySet,
    MsrMatrix,
    _noise_factor,
    _prefactor,
    add_awgn,
    assemble_msr,
    derive_stream_seed,
    make_directions,
    save_msr,
)
from .geometry import (
    ParametricCurve,
    ThinInclusion,
    effective_segment_count,
    get_curve,
)
from .imaging import (
    ImageGrid,
    ImageMap,
    SteeringConfig,
    _weights,
    map_multi,
    map_single,
    save_map_csv,
    save_map_pgm,
    subspace_correlations,
)
from .spectral import DEFAULT_RANK_THRESHOLD, effective_rank, svd, save_spectrum_csv

__all__ = [
    "ExperimentError",
    "InclusionSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "PRESETS",
    "preset_config",
    "apply_settings",
    "load_config",
    "save_config",
    "run_experiment",
    "sidelobe_energy",
    "localization_error",
    "distance_to_curves",
]

class ExperimentError(RuntimeError):
    """A module error raised during a run, annotated with config context."""


def _curve_name(spec: InclusionSpec) -> str:
    return spec.curve if isinstance(spec.curve, str) else "custom"


@dataclass(frozen=True)
class InclusionSpec:
    """One thin inclusion: catalog curve name (or curve object) and materials."""

    curve: str | ParametricCurve
    h: float = 0.015
    eps: float = 5.0
    mu: float = 5.0

    def __post_init__(self):
        # ThinInclusion's rules against its unit background, named by the config keys
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if not (1.0 <= self.eps < math.inf and 1.0 <= self.mu < math.inf):
            raise ValueError(f"eps and mu must lie in [1, inf), got eps={self.eps}, mu={self.mu}")
        if self.eps == self.mu == 1.0:
            raise ValueError("eps = mu = 1 matches the background, so nothing scatters")
        self.resolve()  # an unknown curve name raises here

    def resolve(self) -> ThinInclusion:
        curve = get_curve(self.curve) if isinstance(self.curve, str) else self.curve
        return ThinInclusion(
            curve=curve,
            half_thickness=self.h,
            permittivity=self.eps,
            permeability=self.mu,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    inclusions: tuple[InclusionSpec, ...] = (InclusionSpec(curve="sigma1"),)
    directions: int = 48
    frequencies: int = 10
    lambda_max: float = 0.5
    lambda_min: float = 0.3
    snr_db: float = 10.0
    seed: int = 0
    functionals: tuple[str, ...] = ("MF", "WMF(1)", "LOG")
    grid: ImageGrid = field(default_factory=ImageGrid)
    tau: float = DEFAULT_RANK_THRESHOLD
    c: tuple[float, float, float] = (1.0, 0.0, 1.0)
    out_dir: str | None = None

    def __post_init__(self):
        if not self.inclusions:
            raise ValueError("need at least one inclusion")
        for name in ("directions", "frequencies", "seed"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        for tag in self.functionals:
            try:
                _weights(tag, [])  # map_multi's parser; the LOG band is checked below
            except ValueError:
                raise ValueError(f"unknown functional tag {tag!r}") from None
        if not self.functionals:
            raise ValueError("need at least one functional")
        if len(set(self.functionals)) != len(self.functionals):
            raise ValueError(f"functional tags repeat: {', '.join(self.functionals)}")
        # the same rules make_directions, FrequencySet.from_band and the map
        # functions apply, checked before any work starts
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        make_directions(self.directions)  # raises below 2 directions
        _noise_factor(self.snr_db)  # add_awgn's rule
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # strictly descending wavelengths when there is more than one
        if not 0.0 < self.lambda_min <= self.lambda_max < math.inf or (
            self.frequencies > 1 and self.lambda_min == self.lambda_max
        ):
            raise ValueError(
                f"need 0 < lambda_min <= lambda_max < inf (< for F > 1), got lambda_min="
                f"{self.lambda_min}, lambda_max={self.lambda_max}, F={self.frequencies}"
            )
        SteeringConfig(c=self.c)  # raises unless c is a nonzero 3-vector
        # the lowest frequency is 2 pi / lambda_max, as FrequencySet computes it
        if "LOG" in self.functionals and not 2.0 * math.pi / self.lambda_max > 1.0:
            raise ValueError(
                f"LOG needs omega > 1 at every frequency, i.e. lambda_max < 2 pi, "
                f"got lambda_max={self.lambda_max}"
            )
        # raises below 1 frequency; assemble_msr's rule M < N at the run's finest wavelength
        freqs = FrequencySet.from_band(self.lambda_max, self.lambda_min, self.frequencies)
        wavelength = float(freqs.wavelengths[-1])
        k_peaks = 0
        for spec in self.inclusions:
            m = effective_segment_count(spec.resolve().curve, wavelength)
            if m >= self.directions:
                raise ConfigurationError(
                    f"effective segment count M={m} must stay below N={self.directions} "
                    f"directions ({_curve_name(spec)} at wavelength {wavelength})"
                )
            k_peaks += m
        # localization_error reads the sum of M top points of every map
        if self.grid.nx * self.grid.ny < k_peaks:
            raise ValueError(
                f"grid {self.grid.nx}x{self.grid.ny} has fewer points than the "
                f"{k_peaks} map peaks the localization error reads (the sum of M "
                f"over the inclusions at wavelength {wavelength})"
            )
        # assemble_msr's prefactor rule; the prefactor grows with omega, so the
        # band's ends bound it
        for omega in (freqs.omegas[0], freqs.omegas[-1]):
            for spec in self.inclusions:
                _prefactor(float(omega), spec.h)

    def summary(self) -> str:
        curves = ",".join(_curve_name(spec) for spec in self.inclusions)
        return (
            f"curves={curves} N={self.directions} F={self.frequencies} "
            f"lambda={self.lambda_max}..{self.lambda_min} snr_db={self.snr_db} "
            f"seed={self.seed}"
        )


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    config_hash: str
    timestamp_utc: str
    omegas: tuple[float, ...]
    m_eff: tuple[int, ...]
    spectra: tuple[np.ndarray, ...]
    maps: dict[str, ImageMap]
    metrics: dict[str, dict[str, float]]
    out_dir: str | None


# raw settings over the defaults, spelled as in a config file
PRESETS: dict[str, dict[str, str]] = {
    "fig1": {},
    "fig2": {"curves": "sigma2"},
    "fig3": {"curves": "sigma1,sigma2"},
    "fig4": {"curves": "sigma1,sigma2", "eps": "5,10", "mu": "5,10"},
}


def preset_config(name: str, out_dir: str | None = None, seed: int | None = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    settings = PRESETS[name] if seed is None else {**PRESETS[name], "seed": str(seed)}
    return apply_settings(ExperimentConfig(out_dir=out_dir), settings, f"preset {name}")


# ---------------------------------------------------------------------------
# flat key=value configuration files

def _format_float(v: float) -> str:
    return "inf" if v == math.inf else repr(float(v))


def save_config(cfg: ExperimentConfig, path) -> None:
    for spec in cfg.inclusions:
        if not isinstance(spec.curve, str):
            raise ValueError("only catalog curves are serializable to config files")
    lines = [
        "# submig config v1",
        "curves = " + ",".join(spec.curve for spec in cfg.inclusions),
        "eps = " + ",".join(_format_float(spec.eps) for spec in cfg.inclusions),
        "mu = " + ",".join(_format_float(spec.mu) for spec in cfg.inclusions),
        "h = " + ",".join(_format_float(spec.h) for spec in cfg.inclusions),
        f"directions = {cfg.directions}",
        f"frequencies = {cfg.frequencies}",
        f"lambda_max = {_format_float(cfg.lambda_max)}",
        f"lambda_min = {_format_float(cfg.lambda_min)}",
        f"snr_db = {_format_float(cfg.snr_db)}",
        f"seed = {cfg.seed}",
        "functionals = " + ",".join(cfg.functionals),
        f"grid = {cfg.grid.nx},{cfg.grid.ny}",
        f"bounds = {_format_float(cfg.grid.x_min)},{_format_float(cfg.grid.x_max)},"
        f"{_format_float(cfg.grid.y_min)},{_format_float(cfg.grid.y_max)}",
        f"tau = {_format_float(cfg.tau)}",
        "c = " + ",".join(_format_float(v) for v in cfg.c),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# the keys save_config writes, in its order
_CONFIG_KEYS = (
    "curves eps mu h directions frequencies lambda_max lambda_min snr_db seed functionals "
    "grid bounds tau c"
).split()
_SCALAR_KEYS = {
    "directions": int, "frequencies": int, "lambda_max": float, "lambda_min": float,
    "snr_db": float, "seed": int, "tau": float,
}
_PER_CURVE_KEYS = ("h", "eps", "mu")


def apply_settings(cfg: ExperimentConfig, settings: dict[str, str], source) -> ExperimentConfig:
    """``cfg`` with raw ``key = value`` settings, as ``save_config`` writes them.

    The one parser of setting values, for config files and CLI flags alike;
    every error names ``source``, where the strings came from.  List values
    are comma-separated.  ``eps``, ``mu`` and ``h`` take one value or one per
    curve, and a new ``curves`` list starts from the default materials.  The
    result is built, and so validated, once.
    """
    try:
        return _apply_settings(cfg, settings)
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from None


def _apply_settings(cfg: ExperimentConfig, settings: dict[str, str]) -> ExperimentConfig:
    unknown = [key for key in settings if key not in _CONFIG_KEYS]
    if unknown:
        expected = ", ".join(_CONFIG_KEYS)
        raise ValueError(f"unknown key {unknown[0]!r}; expected one of {expected}")

    def values(key, parse, *counts):
        # the comma-separated tokens of one value; counts, if given, the allowed lengths
        raw = settings[key]
        tokens = [tok.strip() for tok in raw.split(",")]
        if counts and len(tokens) not in counts:
            expected = " or ".join(str(n) for n in dict.fromkeys(counts))
            plural = "" if expected == "1" else "s"
            raise ValueError(f"{key} takes {expected} value{plural}, got {raw!r}")
        try:
            return [parse(tok) for tok in tokens]
        except ValueError:
            raise ValueError(f"{key} has a malformed value {raw!r}") from None

    changes: dict = {}
    for key, parse in _SCALAR_KEYS.items():
        if key in settings:
            changes[key] = values(key, parse, 1)[0]
    if "functionals" in settings:
        changes["functionals"] = tuple(values("functionals", str))
    if "c" in settings:
        changes["c"] = tuple(values("c", float, 3))

    if "curves" in settings:
        specs = [{"curve": name} for name in values("curves", str)]
    else:
        specs = [dict(vars(spec)) for spec in cfg.inclusions]
    for key in _PER_CURVE_KEYS:
        if key in settings:
            vals = values(key, float, 1, len(specs))
            for spec, value in zip(specs, vals * len(specs) if len(vals) == 1 else vals):
                spec[key] = value
    if settings.keys() & {"curves", *_PER_CURVE_KEYS}:
        changes["inclusions"] = tuple(InclusionSpec(**spec) for spec in specs)

    grid: dict = {}
    if "grid" in settings:
        nx, *ny = values("grid", int, 1, 2)
        grid.update(nx=nx, ny=ny[0] if ny else nx)
    if "bounds" in settings:
        grid.update(zip(("x_min", "x_max", "y_min", "y_max"), values("bounds", float, 4)))
    if grid:
        changes["grid"] = replace(cfg.grid, **grid)
    return replace(cfg, **changes)


def load_config(path, out_dir: str | None = None) -> ExperimentConfig:
    """Read a ``save_config`` file; keys it leaves out keep their defaults."""
    settings: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: malformed line {line!r}")
            settings[key.strip()] = value.strip()
    return apply_settings(ExperimentConfig(out_dir=out_dir), settings, path)


def _config_hash(cfg: ExperimentConfig) -> str:
    # hash over the experiment definition, not the output directory; floats
    # spelled as in save_config, so equal configs hash equally
    f, grid = _format_float, cfg.grid
    parts = [
        ",".join(f"{_curve_name(s)}:{f(s.h)}:{f(s.eps)}:{f(s.mu)}" for s in cfg.inclusions),
        str(cfg.directions),
        str(cfg.frequencies),
        f(cfg.lambda_max),
        f(cfg.lambda_min),
        f(cfg.snr_db),
        str(cfg.seed),
        ",".join(cfg.functionals),
        f"{f(grid.x_min)},{f(grid.x_max)},{f(grid.y_min)},{f(grid.y_max)},{grid.nx},{grid.ny}",
        f(cfg.tau),
        ",".join(f(v) for v in cfg.c),
    ]
    return hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# map quality metrics

# samples per curve, taken in blocks of consecutive samples
_CURVE_SAMPLES = 2001
_ANCHOR_BLOCK = 64
# absorbs the rounding of a block bound and of the distance it is compared with
_BOUND_SLACK = 1e-9


def _squared_distances(pts: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    return (pts[:, None, 0] - anchors[..., 0]) ** 2 + (pts[:, None, 1] - anchors[..., 1]) ** 2


def _anchor_blocks(curves) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # every curve's samples in blocks of consecutive ones, with each block's
    # centre c_j and radius r_j, the largest distance of its samples from c_j
    blocks = []
    for curve in curves:
        s = np.linspace(curve.s_min, curve.s_max, _CURVE_SAMPLES)
        anchor = np.asarray(curve.position(s), dtype=float)
        # pad with copies of the last sample: duplicates leave every minimum unchanged
        pad = -len(anchor) % _ANCHOR_BLOCK
        anchor = np.concatenate([anchor, np.repeat(anchor[-1:], pad, axis=0)])
        blocks.append(anchor.reshape(-1, _ANCHOR_BLOCK, 2))
    blocks = np.concatenate(blocks, axis=0)
    centres = blocks.mean(axis=1)
    radii = np.sqrt(((blocks - centres[:, None, :]) ** 2).sum(axis=-1)).max(axis=1)
    return blocks, centres, radii


def distance_to_curves(points: np.ndarray, curves) -> np.ndarray:
    """Distance from each point to the nearest of the densely sampled curves.

    Each curve is sampled at ``_CURVE_SAMPLES`` equispaced parameters.  Exact:
    equal, bit for bit, to the minimum over every sample, so a point's
    distance does not depend on the other points passed with it.  Samples are
    grouped in blocks of consecutive points along each curve, and only the
    blocks that can hold the nearest sample are evaluated.
    """
    blocks, centres, radii = _anchor_blocks(curves)
    pts = np.asarray(points, dtype=float)
    out = np.empty(pts.shape[0])
    # near a curve a point keeps several blocks, and a pass holds
    # (points x kept blocks x _ANCHOR_BLOCK) values
    chunk = 256
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        to_centre = np.sqrt(_squared_distances(block, centres))
        nearest = np.argmin(to_centre, axis=1)
        upper = np.sqrt(_squared_distances(block, blocks[nearest]).min(axis=1))
        # triangle inequality: every sample a of block j has
        # |p - a| >= |p - c_j| - |a - c_j| >= |p - c_j| - r_j, so a block whose
        # bound exceeds a distance already attained cannot hold the nearest
        # sample.  The nearest block is always kept, so every point has one to
        # reduce.
        keep = to_centre - radii <= upper[:, None] + _BOUND_SLACK
        keep[np.arange(block.shape[0]), nearest] = True
        row, col = np.nonzero(keep)
        d2 = _squared_distances(block[row], blocks[col]).min(axis=1)
        first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        out[start : start + block.shape[0]] = np.sqrt(np.minimum.reduceat(d2, first))
    return out


def _tube_field(points: np.ndarray, curves, tube_radius: float, exact) -> np.ndarray:
    """A distance field that scores like ``distance_to_curves(points, curves)``.

    Every entry lies on the same side of ``tube_radius`` as the exact
    distance, and the entries at the indices ``exact`` are the exact
    distances, bit for bit.  The anchor blocks bound each distance,
    ``min_j(|p - c_j| - r_j) <= d(p) <= min_j(|p - c_j| + r_j)``; a point
    whose bounds lie on one side of the tube takes the bound on that side.
    One ``distance_to_curves`` call gives the rest, and the ``exact`` points.
    """
    _, centres, radii = _anchor_blocks(curves)
    pts = np.asarray(points, dtype=float)
    lower = np.full(pts.shape[0], np.inf)
    upper = np.full(pts.shape[0], np.inf)
    # block by block, so the pass holds a few arrays of one value per point
    for (cx, cy), radius in zip(centres, radii):
        to_centre = np.sqrt((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2)
        np.minimum(lower, to_centre - radius, out=lower)
        np.minimum(upper, to_centre + radius, out=upper)
    outside = lower > tube_radius + _BOUND_SLACK
    field = np.where(outside, lower, upper)
    refine = ~outside & (upper > tube_radius - _BOUND_SLACK)
    refine[exact] = True
    field[refine] = distance_to_curves(pts[refine], curves)
    return field


def _check_distance_field(image: ImageMap, dist) -> np.ndarray:
    if np.shape(dist) != (image.values.size,):
        raise ValueError(
            f"distance field of shape {np.shape(dist)} does not match "
            f"{image.values.size} grid points"
        )
    return np.asarray(dist)


def sidelobe_energy(image: ImageMap, dist, tube_radius: float) -> float:
    """Fraction of total map mass farther than tube_radius from every curve.

    ``dist`` is the grid's distance field,
    ``distance_to_curves(image.grid.points(), curves)``.  Only whether each
    entry exceeds ``tube_radius`` is read, so any field on the same side of
    the tube as that one at every point gives the same value.
    """
    if not tube_radius > 0.0:
        raise ValueError(f"tube_radius must be positive, got {tube_radius}")
    dist = _check_distance_field(image, dist)
    vals = image.values.ravel()
    total = vals.sum()
    if total == 0.0:
        return 0.0
    return float(vals[dist > tube_radius].sum() / total)


def _top_points(image: ImageMap, k: int) -> np.ndarray:
    # np.argsort(-values, kind="stable")[:k], the k largest values with ties in
    # grid order, sorting only the points at or above the k-th largest value
    flat = image.values.ravel()
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    candidates = np.flatnonzero(flat >= kth)
    return candidates[np.argsort(-flat[candidates], kind="stable")[:k]]


def localization_error(image: ImageMap, dist, k: int) -> float:
    """Mean distance from the k largest-value grid points to the nearest curve.

    ``dist`` is the grid's distance field, as for ``sidelobe_energy``.  Only
    its entries at those k points are read (ties between equal values go to
    the point first in grid order), so a field exact there gives the same value.
    """
    if not 1 <= k <= image.values.size:
        raise ValueError(f"k must lie in [1, {image.values.size}], got {k}")
    dist = _check_distance_field(image, dist)
    return float(dist[_top_points(image, k)].mean())


# ---------------------------------------------------------------------------
# experiment runner

def _tag_slug(tag: str) -> str:
    return tag.lower().replace("(", "").replace(")", "")


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute a configured run; module errors gain the config context."""
    try:
        return _run(cfg)
    except (ValueError, ArithmeticError, RuntimeError) as err:
        raise ExperimentError(f"experiment failed [{cfg.summary()}]: {err}") from err


def _run(cfg: ExperimentConfig) -> ExperimentReport:
    inclusions = [spec.resolve() for spec in cfg.inclusions]
    dirs = make_directions(cfg.directions)
    freqs = FrequencySet.from_band(cfg.lambda_max, cfg.lambda_min, cfg.frequencies)
    steering = SteeringConfig(c=cfg.c)

    ks = []
    for index, omega in enumerate(freqs.omegas):
        entries = None
        for inclusion in inclusions:
            k_one = assemble_msr(dirs, float(omega), inclusion)
            entries = k_one.entries if entries is None else entries + k_one.entries
        k = MsrMatrix(omega=float(omega), entries=entries, dirs=dirs)
        # an unchanged copy at snr_db = inf
        k = add_awgn(k, cfg.snr_db, derive_stream_seed(cfg.seed, index))
        ks.append((k, svd(k)))

    if cfg.functionals == ("SF",):
        # the finest wavelength's correlation alone
        maps = {"SF": map_single(*ks[-1], cfg.grid, steering, cfg.tau)}
    else:
        # each frequency's correlation once, summed into every tag's weighted sum
        sums = subspace_correlations(ks, cfg.grid, steering, cfg.tau, cfg.functionals)
        omegas = tuple(float(w) for w in freqs.omegas)
        # each sum is released once its map is made
        maps = {tag: map_multi(sums.pop(tag), omegas, cfg.grid, tag) for tag in cfg.functionals}

    if cfg.out_dir is None:
        return _score(cfg, inclusions, freqs, ks, maps)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _map_writer(maps, out):
        report = _score(cfg, inclusions, freqs, ks, maps)
        save_config(cfg, out / "config.txt")
        for index, (k, factors) in enumerate(ks):
            save_msr(k, out / f"msr_f{index:02d}.txt")
            save_spectrum_csv(factors, k.omega, out / f"spectrum_f{index:02d}.csv")
    # last, once every map is written: a run directory without it is incomplete
    payload = {
        "format": "submig-report/1",
        "config_hash": report.config_hash,
        "seed": cfg.seed,
        "timestamp_utc": report.timestamp_utc,
        "omegas": list(report.omegas),
        "m_eff": list(report.m_eff),
        "metrics": report.metrics,
    }
    (out / "metrics.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    return report


def _score(cfg: ExperimentConfig, inclusions, freqs, ks, maps) -> ExperimentReport:
    wavelength = float(freqs.wavelengths[-1])  # lambda_max alone for F = 1
    tube = wavelength / 2.0
    k_peaks = sum(effective_segment_count(inc.curve, wavelength) for inc in inclusions)
    # exact where either metric reads it: the side of the tube everywhere,
    # the distance itself at each map's top points
    tops = [_top_points(image, k_peaks) for image in maps.values()]
    dist = _tube_field(
        cfg.grid.points(), [inc.curve for inc in inclusions], tube, np.concatenate(tops)
    )
    metrics: dict[str, dict[str, float]] = {}
    for tag, image in maps.items():
        peak_flat = int(np.argmax(image.values))
        iy, ix = np.unravel_index(peak_flat, image.values.shape)
        metrics[tag] = {
            "sidelobe_energy": sidelobe_energy(image, dist, tube),
            "localization_error": localization_error(image, dist, k_peaks),
            "peak_value": float(image.values.max()),
            "peak_x": float(image.grid.xs[ix]),
            "peak_y": float(image.grid.ys[iy]),
        }
    return ExperimentReport(
        config=cfg,
        config_hash=_config_hash(cfg),
        timestamp_utc=datetime.now(timezone.utc).isoformat(),
        omegas=tuple(float(w) for w in freqs.omegas),
        m_eff=tuple(effective_rank(factors, cfg.tau) for _, factors in ks),
        spectra=tuple(factors.s.copy() for _, factors in ks),
        maps=maps,
        metrics=metrics,
        out_dir=cfg.out_dir,
    )


def _save_maps(maps: dict[str, ImageMap], out: Path) -> None:
    for tag, image in maps.items():
        slug = _tag_slug(tag)
        save_map_csv(image, out / f"map_{slug}.csv", normalized=False)
        save_map_csv(image, out / f"map_{slug}_norm.csv", normalized=True)
        save_map_pgm(image, out / f"map_{slug}.pgm")


@contextlib.contextmanager
def _map_writer(maps: dict[str, ImageMap], out: Path):
    """Write every map's files into ``out`` around the ``with`` block.

    A forked child writes the files of all but the last ``T // 3`` of the
    ``T`` tags while the block runs.  After a clean block this process
    writes the last tags' files, reaps the child, and writes the child's
    share again unless it exited with status 0 (also when ``os.fork`` is
    missing and no child ran).  A reproducible failure is thus raised by this
    process's own write, with its type, message and traceback, and a child
    killed for any other reason leaves no gap.  The child is reaped also
    when the block raises.  It runs only formatting, numpy elementwise
    operations and file writes, so it calls no BLAS and takes no lock
    another thread could hold, and leaves by ``os._exit``, flushing no
    inherited buffer.  Python 3.12+ warns (``DeprecationWarning``) on
    ``fork()`` while threads are alive; untested, as the tests run on 3.11.
    """
    tags = list(maps)
    split = len(tags) - len(tags) // 3
    child_maps = {tag: maps[tag] for tag in tags[:split]}
    pid = os.fork() if hasattr(os, "fork") else None
    if pid == 0:
        status = 1
        try:
            _save_maps(child_maps, out)
            status = 0
        finally:
            os._exit(status)
    try:
        yield
        _save_maps({tag: maps[tag] for tag in tags[split:]}, out)
    finally:
        status = 1 if pid is None else os.waitpid(pid, 0)[1]
    if status != 0:
        _save_maps(child_maps, out)
