"""Configuration-driven experiment runner with metrics and persistence.

A run assembles one response matrix per frequency (summed over inclusions),
optionally adds calibrated noise, factors each matrix, evaluates the
requested imaging functionals, and scores each map against the true curves
by sidelobe energy and localization error.  Every functional is read off
one pass of per-frequency subspace correlations (an SF-only run computes the
finest wavelength's alone), and every map is scored against one distance
field of the grid.  A configuration that cannot run is rejected when it is
built.  All outputs are deterministic for a fixed configuration and seed.

When a run persists, the map files (most of its bytes) are written by a
forked child process while this one computes the distance field and the
metrics and writes the other files.  The fork is safe with BLAS threads
alive in this process: the child runs only Python formatting, numpy
elementwise operations and file writes, so it calls no BLAS and takes no
lock that another thread could hold.  Python 3.12 and later emit a
``DeprecationWarning`` on ``fork()`` in a process with several threads, as
when OpenBLAS has started its pool; the tests have been run only on 3.11,
so that case is untested.  Without ``os.fork`` the same writer runs in this
process.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
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
        for spec in self.inclusions:
            m = effective_segment_count(spec.resolve().curve, wavelength)
            if m >= self.directions:
                raise ConfigurationError(
                    f"effective segment count M={m} must stay below N={self.directions} "
                    f"directions ({_curve_name(spec)} at wavelength {wavelength})"
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
    # hash over the experiment definition; the output directory is excluded
    parts = [
        ",".join(f"{_curve_name(s)}:{s.h!r}:{s.eps!r}:{s.mu!r}" for s in cfg.inclusions),
        str(cfg.directions),
        str(cfg.frequencies),
        repr(cfg.lambda_max),
        repr(cfg.lambda_min),
        repr(cfg.snr_db),
        str(cfg.seed),
        ",".join(cfg.functionals),
        f"{cfg.grid.x_min!r},{cfg.grid.x_max!r},{cfg.grid.y_min!r},{cfg.grid.y_max!r},"
        f"{cfg.grid.nx},{cfg.grid.ny}",
        repr(cfg.tau),
        ",".join(repr(v) for v in cfg.c),
    ]
    return hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# map quality metrics

# samples per curve, taken in blocks of consecutive samples
_CURVE_SAMPLES = 2001
_ANCHOR_BLOCK = 64


def _squared_distances(pts: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    return (pts[:, None, 0] - anchors[..., 0]) ** 2 + (pts[:, None, 1] - anchors[..., 1]) ** 2


def distance_to_curves(points: np.ndarray, curves) -> np.ndarray:
    """Distance from each point to the nearest of the densely sampled curves.

    Each curve is sampled at ``_CURVE_SAMPLES`` equispaced parameters.  Exact:
    equal, bit for bit, to the minimum over every sample.  Samples are
    grouped in blocks of consecutive points along each curve, and only the
    blocks that can hold the nearest sample are evaluated.
    """
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
    pts = np.asarray(points, dtype=float)
    out = np.empty(pts.shape[0])
    chunk = 2048
    for start in range(0, pts.shape[0], chunk):
        block = pts[start : start + chunk]
        to_centre = np.sqrt(_squared_distances(block, centres))
        nearest = np.argmin(to_centre, axis=1)
        upper = np.sqrt(_squared_distances(block, blocks[nearest]).min(axis=1))
        # triangle inequality: every sample a of block j has
        # |p - a| >= |p - c_j| - |a - c_j| >= |p - c_j| - r_j, so a block whose
        # bound exceeds a distance already attained cannot hold the nearest
        # sample; the slack absorbs the rounding of the bound and of upper.
        # The nearest block is always kept, so every point has one to reduce.
        keep = to_centre - radii <= upper[:, None] + 1e-9
        keep[np.arange(block.shape[0]), nearest] = True
        row, col = np.nonzero(keep)
        d2 = _squared_distances(block[row], blocks[col]).min(axis=1)
        first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        out[start : start + block.shape[0]] = np.sqrt(np.minimum.reduceat(d2, first))
    return out


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
    ``distance_to_curves(image.grid.points(), curves)``.
    """
    if not tube_radius > 0.0:
        raise ValueError(f"tube_radius must be positive, got {tube_radius}")
    dist = _check_distance_field(image, dist)
    vals = image.values.ravel()
    total = vals.sum()
    if total == 0.0:
        return 0.0
    return float(vals[dist > tube_radius].sum() / total)


def localization_error(image: ImageMap, dist, k: int) -> float:
    """Mean distance from the k largest-value grid points to the nearest curve.

    ``dist`` is the grid's distance field, as for ``sidelobe_energy``.
    """
    vals = image.values.ravel()
    if not 1 <= k <= vals.size:
        raise ValueError(f"k must lie in [1, {vals.size}], got {k}")
    dist = _check_distance_field(image, dist)
    top = np.argsort(-vals, kind="stable")[:k]
    return float(dist[top].mean())


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
        # each frequency's correlation once, shared by every tag
        correlations = subspace_correlations(ks, cfg.grid, steering, cfg.tau)
        omegas = tuple(float(w) for w in freqs.omegas)
        maps = {tag: map_multi(correlations, omegas, cfg.grid, tag) for tag in cfg.functionals}
        # released before the distance field, which sets the run's peak memory
        del correlations

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
    dist = distance_to_curves(cfg.grid.points(), [inc.curve for inc in inclusions])
    wavelength = float(freqs.wavelengths[-1])  # lambda_max alone for F = 1
    tube = wavelength / 2.0
    k_peaks = sum(effective_segment_count(inc.curve, wavelength) for inc in inclusions)
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
    """Write every map's files into ``out`` alongside the ``with`` block.

    A forked child writes them while the block runs.  Leaving the block reaps
    the child, also when the block raises; after a clean block the child's
    error is raised here with the type and message writing in this process
    would have raised.  The child is fork-safe with BLAS threads alive: it
    runs only Python formatting, numpy elementwise operations and file
    writes, so it calls no BLAS and takes no lock another thread could hold.
    It leaves by ``os._exit``, so it neither flushes the buffers it inherited
    nor runs exit handlers.  Python 3.12+ warns (``DeprecationWarning``) on
    ``fork()`` while other threads are alive; untested, as the tests run on
    3.11.  Without ``os.fork`` the maps are written in this process when the
    block ends without an error.
    """
    if not hasattr(os, "fork"):
        yield
        _save_maps(maps, out)
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            _save_maps(maps, out)
            status = 0
        except BaseException as err:
            _send_error(write_fd, err)
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        yield
    finally:
        # read to the end first: the child may block on a full pipe until then
        try:
            with open(read_fd, "rb") as pipe:
                message = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
    if message:
        raise pickle.loads(message)
    if status != 0:
        raise RuntimeError(f"map writer exited with status {os.waitstatus_to_exitcode(status)}")


def _send_error(fd: int, err: BaseException) -> None:
    # the error pickled as raised, or as a RuntimeError naming it if it does
    # not survive the round trip; the parent decodes it only on failure
    try:
        message = pickle.dumps(err)
        pickle.loads(message)
    except Exception:
        message = pickle.dumps(RuntimeError(f"map writer failed: {type(err).__name__}: {err}"))
    with open(fd, "wb") as pipe:
        pipe.write(message)
