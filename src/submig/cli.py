"""Command-line experiment runner.

Start from a preset or a config file, override individual knobs with flags,
and write all artifacts (matrices, spectra, maps, metrics) to the output
directory.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .harness import (
    PRESETS,
    ExperimentConfig,
    InclusionSpec,
    load_config,
    preset_config,
    run_experiment,
)


def _parse_snr(raw: str) -> float:
    if raw.lower() in ("inf", "none", "no-noise"):
        return math.inf
    return float(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submig",
        description="Subspace-migration imaging of thin curve-like inclusions",
    )
    parser.add_argument("--preset", choices=sorted(PRESETS), help="figure preset to start from")
    parser.add_argument("--config", help="flat key=value config file to start from")
    parser.add_argument("--list-presets", action="store_true", help="list presets and exit")
    parser.add_argument("--curve", help="single catalog curve name")
    parser.add_argument("--curves", help="comma-separated catalog curve names")
    parser.add_argument("--eps", help="permittivity (single value or one per curve)")
    parser.add_argument("--mu", help="permeability (single value or one per curve)")
    parser.add_argument("--h", help="half-thickness (single value or one per curve)")
    parser.add_argument("--N", type=int, dest="directions", help="number of directions")
    parser.add_argument("--F", type=int, dest="frequencies", help="number of frequencies")
    parser.add_argument("--lambda-max", type=float, help="longest wavelength")
    parser.add_argument("--lambda-min", type=float, help="shortest wavelength")
    parser.add_argument("--snr-db", type=_parse_snr, help="SNR in dB, or inf for no noise")
    parser.add_argument("--seed", type=int, help="master noise seed")
    parser.add_argument(
        "--functional",
        action="append",
        help="functional tag (SF, MF, WMF(n), LOG); repeatable",
    )
    parser.add_argument("--grid", help="resolution per axis: n or nx,ny")
    parser.add_argument("--tau", type=float, help="singular-value threshold in (0,1)")
    parser.add_argument("--c", help="steering coefficients c0,c1,c2")
    parser.add_argument("--out-dir", help="directory for run artifacts")
    return parser


def _per_curve(raw: str, count: int, name: str) -> list[float]:
    vals = [float(tok) for tok in raw.split(",")]
    if len(vals) == 1:
        vals = vals * count
    if len(vals) != count:
        raise ValueError(f"--{name} needs 1 or {count} values")
    return vals


def config_from_args(args) -> ExperimentConfig:
    if args.preset and args.config:
        raise ValueError("choose either --preset or --config")
    if args.preset:
        cfg = preset_config(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig()

    if args.curve and args.curves:
        raise ValueError("choose either --curve or --curves")
    curve_names = None
    if args.curve:
        curve_names = [args.curve]
    elif args.curves:
        curve_names = [tok.strip() for tok in args.curves.split(",")]
    if curve_names is not None:
        cfg = replace(cfg, inclusions=tuple(InclusionSpec(curve=c) for c in curve_names))

    specs = list(cfg.inclusions)
    for field_name, raw in (("eps", args.eps), ("mu", args.mu), ("h", args.h)):
        if raw is None:
            continue
        vals = _per_curve(raw, len(specs), field_name)
        specs = [replace(s, **{field_name: v}) for s, v in zip(specs, vals)]
    cfg = replace(cfg, inclusions=tuple(specs))

    # one replace: the two wavelengths are validated as a pair
    names = ("directions", "frequencies", "lambda_max", "lambda_min", "seed", "tau", "snr_db")
    overrides = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    cfg = replace(cfg, **overrides)
    if args.functional:
        cfg = replace(cfg, functionals=tuple(args.functional))
    if args.grid:
        parts = [int(tok) for tok in args.grid.split(",")]
        nx, ny = (parts[0], parts[0]) if len(parts) == 1 else (parts[0], parts[1])
        cfg = replace(cfg, grid=replace(cfg.grid, nx=nx, ny=ny))
    if args.c:
        c = tuple(float(tok) for tok in args.c.split(","))
        if len(c) != 3:
            raise ValueError("--c needs exactly three values")
        cfg = replace(cfg, c=c)
    if args.out_dir:
        cfg = replace(cfg, out_dir=args.out_dir)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_presets:
        for name in sorted(PRESETS):
            print(f"{name}: {PRESETS[name].summary()}")
        return 0
    try:
        cfg = config_from_args(args)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))  # exits with status 2
    report = run_experiment(cfg)
    print(f"config {report.config_hash[:12]} seed {cfg.seed}")
    print(f"effective ranks per frequency: {list(report.m_eff)}")
    for tag in cfg.functionals:
        m = report.metrics[tag]
        print(
            f"{tag}: sidelobe_energy={m['sidelobe_energy']:.4f} "
            f"localization_error={m['localization_error']:.4f} "
            f"peak={m['peak_value']:.4g} at ({m['peak_x']:.3f}, {m['peak_y']:.3f})"
        )
    if cfg.out_dir:
        print(f"artifacts written to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
