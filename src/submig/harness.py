"""Configuration-driven experiment runner with metrics and persistence.

A run assembles one response matrix per frequency (summed over inclusions),
optionally adds calibrated noise, factors each matrix, evaluates the
requested imaging functionals, and scores each map against the true curves
by sidelobe energy and localization error.  All outputs are deterministic
for a fixed configuration and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .forward import (
    ConfigurationError,
    FrequencySet,
    MsrMatrix,
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
    map_multi,
    map_single,
    save_map_csv,
    save_map_pgm,
)
from .spectral import effective_rank, svd, save_spectrum_csv

__all__ = [
    "ExperimentError",
    "InclusionSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "PRESETS",
    "preset_config",
    "load_config",
    "save_config",
    "run_experiment",
    "sidelobe_energy",
    "localization_error",
    "distance_to_curves",
]

_FUNCTIONAL_RE = re.compile(r"^(SF|MF|LOG|WMF\(\d+\))$")


class ExperimentError(RuntimeError):
    """A module error raised during a run, annotated with config context."""


@dataclass(frozen=True)
class InclusionSpec:
    """One thin inclusion: catalog curve name (or curve object) and materials."""

    curve: str | ParametricCurve
    h: float = 0.015
    eps: float = 5.0
    mu: float = 5.0

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
    tau: float = 0.01
    c: tuple[float, float, float] = (1.0, 0.0, 1.0)
    out_dir: str | None = None

    def __post_init__(self):
        if not self.inclusions:
            raise ValueError("need at least one inclusion")
        for tag in self.functionals:
            if not _FUNCTIONAL_RE.match(tag):
                raise ValueError(f"unknown functional tag {tag!r}")
        if not self.functionals:
            raise ValueError("need at least one functional")
        # the same rules make_directions, FrequencySet.from_band and the map
        # functions apply, checked before any work starts
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.directions < 2:
            raise ValueError(f"need at least 2 directions, got {self.directions}")
        if self.frequencies < 1:
            raise ValueError(f"need at least 1 frequency, got {self.frequencies}")
        # strictly descending wavelengths when there is more than one
        if not 0.0 < self.lambda_min <= self.lambda_max or (
            self.frequencies > 1 and self.lambda_min == self.lambda_max
        ):
            raise ValueError(
                f"need 0 < lambda_min <= lambda_max (< for F > 1), got lambda_min="
                f"{self.lambda_min}, lambda_max={self.lambda_max}, F={self.frequencies}"
            )

    def summary(self) -> str:
        curves = ",".join(
            spec.curve if isinstance(spec.curve, str) else "custom"
            for spec in self.inclusions
        )
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


PRESETS: dict[str, ExperimentConfig] = {
    "fig1": ExperimentConfig(inclusions=(InclusionSpec(curve="sigma1"),)),
    "fig2": ExperimentConfig(inclusions=(InclusionSpec(curve="sigma2"),)),
    "fig3": ExperimentConfig(
        inclusions=(InclusionSpec(curve="sigma1"), InclusionSpec(curve="sigma2"))
    ),
    "fig4": ExperimentConfig(
        inclusions=(
            InclusionSpec(curve="sigma1"),
            InclusionSpec(curve="sigma2", eps=10.0, mu=10.0),
        )
    ),
}


def preset_config(name: str, out_dir: str | None = None, seed: int | None = None) -> ExperimentConfig:
    try:
        cfg = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


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


def _split_functionals(raw: str) -> tuple[str, ...]:
    # WMF(1) contains no commas, so a plain comma split is safe
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def load_config(path, out_dir: str | None = None) -> ExperimentConfig:
    kv: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: malformed line {line!r}")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(
                    f"{path}: unknown key {key!r}; expected one of {', '.join(_CONFIG_KEYS)}"
                )
            kv[key] = value.strip()

    def floats(key, default):
        return [float(tok) for tok in kv[key].split(",")] if key in kv else default

    curves = [tok.strip() for tok in kv.get("curves", "sigma1").split(",")]
    n_curves = len(curves)

    def per_curve(key, default):
        vals = floats(key, [default])
        if len(vals) == 1:
            vals = vals * n_curves
        if len(vals) != n_curves:
            raise ValueError(f"{key} needs 1 or {n_curves} values")
        return vals

    eps = per_curve("eps", 5.0)
    mu = per_curve("mu", 5.0)
    h = per_curve("h", 0.015)
    inclusions = tuple(
        InclusionSpec(curve=c, h=hh, eps=e, mu=m)
        for c, hh, e, m in zip(curves, h, eps, mu)
    )
    nx, ny = (int(v) for v in kv.get("grid", "201,201").split(",")) if "," in kv.get(
        "grid", "201,201"
    ) else (int(kv.get("grid", "201")),) * 2
    bounds = floats("bounds", [-1.0, 1.0, -1.0, 1.0])
    grid = ImageGrid(
        x_min=bounds[0], x_max=bounds[1], y_min=bounds[2], y_max=bounds[3], nx=nx, ny=ny
    )
    c = floats("c", [1.0, 0.0, 1.0])
    return ExperimentConfig(
        inclusions=inclusions,
        directions=int(kv.get("directions", "48")),
        frequencies=int(kv.get("frequencies", "10")),
        lambda_max=float(kv.get("lambda_max", "0.5")),
        lambda_min=float(kv.get("lambda_min", "0.3")),
        snr_db=float(kv.get("snr_db", "10")),
        seed=int(kv.get("seed", "0")),
        functionals=_split_functionals(kv.get("functionals", "MF,WMF(1),LOG")),
        grid=grid,
        tau=float(kv.get("tau", "0.01")),
        c=(c[0], c[1], c[2]),
        out_dir=out_dir,
    )


def _config_hash(cfg: ExperimentConfig) -> str:
    # hash over the experiment definition; the output directory is excluded
    parts = [
        ",".join(
            f"{spec.curve if isinstance(spec.curve, str) else 'custom'}"
            f":{spec.h!r}:{spec.eps!r}:{spec.mu!r}"
            for spec in cfg.inclusions
        ),
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

_ANCHOR_BLOCK = 64


def _squared_distances(pts: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    return (pts[:, None, 0] - anchors[..., 0]) ** 2 + (pts[:, None, 1] - anchors[..., 1]) ** 2


def distance_to_curves(points: np.ndarray, curves, samples_per_curve: int = 2001) -> np.ndarray:
    """Distance from each point to the nearest of the densely sampled curves.

    Exact: equal, bit for bit, to the minimum over every sample.  Samples are
    grouped in blocks of consecutive points along each curve, and only the
    blocks that can hold the nearest sample are evaluated.
    """
    blocks = []
    for curve in curves:
        s = np.linspace(curve.s_min, curve.s_max, samples_per_curve)
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


def sidelobe_energy(image: ImageMap, curves, tube_radius: float) -> float:
    """Fraction of total map mass farther than tube_radius from every curve."""
    if not tube_radius > 0.0:
        raise ValueError(f"tube_radius must be positive, got {tube_radius}")
    dist = distance_to_curves(image.grid.points(), curves)
    vals = image.values.ravel()
    total = vals.sum()
    if total == 0.0:
        return 0.0
    return float(vals[dist > tube_radius].sum() / total)


def localization_error(image: ImageMap, curves, k: int) -> float:
    """Mean distance from the k largest-value grid points to the nearest curve."""
    vals = image.values.ravel()
    if not 1 <= k <= vals.size:
        raise ValueError(f"k must lie in [1, {vals.size}], got {k}")
    top = np.argsort(-vals, kind="stable")[:k]
    dist = distance_to_curves(image.grid.points()[top], curves)
    return float(dist.mean())


# ---------------------------------------------------------------------------
# experiment runner

def _functional_weight(tag: str) -> str:
    if tag == "MF":
        return "one"
    if tag == "LOG":
        return "log"
    match = re.match(r"^WMF\((\d+)\)$", tag)
    if match:
        return f"power({match.group(1)})"
    raise ValueError(f"unknown functional tag {tag!r}")


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
        if cfg.snr_db != math.inf:
            k = add_awgn(k, cfg.snr_db, derive_stream_seed(cfg.seed, index))
        ks.append((k, svd(k)))

    maps: dict[str, ImageMap] = {}
    for tag in cfg.functionals:
        if tag == "SF":
            # single-frequency map at the finest wavelength
            maps[tag] = map_single(ks[-1][0], ks[-1][1], cfg.grid, steering, cfg.tau)
        else:
            maps[tag] = map_multi(ks, cfg.grid, steering, cfg.tau, _functional_weight(tag))
    missing = [tag for tag in cfg.functionals if tag not in maps]
    if missing:
        raise ConfigurationError(f"functionals not computed: {missing}")

    curves = [inc.curve for inc in inclusions]
    tube = cfg.lambda_min / 2.0
    k_peaks = sum(
        effective_segment_count(inc.curve, cfg.lambda_min) for inc in inclusions
    )
    metrics: dict[str, dict[str, float]] = {}
    for tag, image in maps.items():
        peak_flat = int(np.argmax(image.values))
        iy, ix = np.unravel_index(peak_flat, image.values.shape)
        metrics[tag] = {
            "sidelobe_energy": sidelobe_energy(image, curves, tube),
            "localization_error": localization_error(image, curves, k_peaks),
            "peak_value": float(image.values.max()),
            "peak_x": float(image.grid.xs[ix]),
            "peak_y": float(image.grid.ys[iy]),
        }

    report = ExperimentReport(
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
    if cfg.out_dir is not None:
        _persist(report, ks)
    return report


def _persist(report: ExperimentReport, ks) -> None:
    out = Path(report.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(report.config, out / "config.txt")
    for index, (k, factors) in enumerate(ks):
        save_msr(k, out / f"msr_f{index:02d}.txt")
        save_spectrum_csv(factors, k.omega, out / f"spectrum_f{index:02d}.csv")
    for tag, image in report.maps.items():
        slug = _tag_slug(tag)
        save_map_csv(image, out / f"map_{slug}.csv", normalized=False)
        save_map_csv(image, out / f"map_{slug}_norm.csv", normalized=True)
        save_map_pgm(image, out / f"map_{slug}.pgm")
    payload = {
        "format": "submig-report/1",
        "config_hash": report.config_hash,
        "seed": report.config.seed,
        "timestamp_utc": report.timestamp_utc,
        "omegas": list(report.omegas),
        "m_eff": list(report.m_eff),
        "metrics": report.metrics,
    }
    (out / "metrics.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
