"""Command-line experiment runner.

Start from a preset or a config file, override individual knobs with flags,
and write all artifacts (matrices, spectra, maps, metrics) to the output
directory.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    PRESETS,
    ExperimentConfig,
    ExperimentError,
    apply_settings,
    load_config,
    preset_config,
    run_experiment,
)

# flags that spell config-file keys: (flags, key, help); the value is passed
# on as the raw string a config file would hold
_SETTING_FLAGS = (
    (("--curves", "--curve"), "curves", "comma-separated catalog curve names"),
    (("--eps",), "eps", "permittivity (single value or one per curve)"),
    (("--mu",), "mu", "permeability (single value or one per curve)"),
    (("--h",), "h", "half-thickness (single value or one per curve)"),
    (("--N",), "directions", "number of directions"),
    (("--F",), "frequencies", "number of frequencies"),
    (("--lambda-max",), "lambda_max", "longest wavelength"),
    (("--lambda-min",), "lambda_min", "shortest wavelength"),
    (("--snr-db",), "snr_db", "SNR in dB, or inf for no noise"),
    (("--seed",), "seed", "master noise seed"),
    (("--grid",), "grid", "resolution per axis: n or nx,ny"),
    (("--tau",), "tau", "singular-value threshold in (0,1)"),
    (("--c",), "c", "steering coefficients c0,c1,c2"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submig",
        description="Subspace-migration imaging of thin curve-like inclusions",
    )
    parser.add_argument("--preset", choices=sorted(PRESETS), help="figure preset to start from")
    parser.add_argument("--config", help="flat key=value config file to start from")
    parser.add_argument("--list-presets", action="store_true", help="list presets and exit")
    for flags, key, text in _SETTING_FLAGS:
        parser.add_argument(*flags, dest=key, help=text)
    parser.add_argument(
        "--functional",
        action="append",
        dest="functionals",
        help="functional tag (SF, MF, WMF(n), LOG); repeatable",
    )
    parser.add_argument("--out-dir", help="directory for run artifacts")
    return parser


def config_from_args(args) -> ExperimentConfig:
    """The base (preset, config file or defaults) with the flags applied once."""
    out_dir = args.out_dir or None
    if args.preset and args.config:
        raise ValueError("choose either --preset or --config")
    if args.preset:
        cfg = preset_config(args.preset, out_dir=out_dir)
    elif args.config:
        cfg = load_config(args.config, out_dir=out_dir)
    else:
        cfg = ExperimentConfig(out_dir=out_dir)
    settings = {key: getattr(args, key) for _, key, _ in _SETTING_FLAGS}
    if args.functionals:
        settings["functionals"] = ",".join(args.functionals)
    settings = {key: raw for key, raw in settings.items() if raw is not None}
    return apply_settings(cfg, settings, "command-line flags")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_presets:
        for name in sorted(PRESETS):
            print(f"{name}: {preset_config(name).summary()}")
        return 0
    try:
        cfg = config_from_args(args)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))  # exits with status 2
    try:
        report = run_experiment(cfg)
    except (ExperimentError, OSError) as exc:
        # a valid config's run or output files failed: one line, no traceback
        print(f"submig: error: {exc}", file=sys.stderr)
        return 1
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
