"""Command-line interface.

Subcommands:
    run      execute an experiment config (INI file or previous manifest)
    certify  evaluate the theoretical step-size bounds at every grid point
    preset   run one of the built-in experiment presets (fig1, fig2)

Exit codes: 0 success, 2 configuration error, 3 every replicate of some grid
point diverged.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .runner import (
    ConfigError,
    load_config,
    preset_fig1,
    preset_fig2,
    resolve,
    run_experiment,
)
from .stepsize import certified_run_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--workers", type=int, default=1, help="parallel grid workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltadmm",
        description="Multi-agent local-training solvers: experiments and step-size certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="INI config file or manifest JSON")
    _add_common(run_p)

    cert_p = sub.add_parser("certify", help="print the step-size bound report of every grid point as JSON")
    cert_p.add_argument("config", help="INI config file or manifest JSON")

    preset_p = sub.add_parser("preset", help="run a built-in experiment preset")
    preset_p.add_argument("name", choices=("fig1", "fig2"))
    _add_common(preset_p)
    return parser


def _apply_overrides(cfg, args) -> None:
    # a malformed algorithm section is left for resolve to reject
    if getattr(args, "seed", None) is not None and isinstance(cfg.algorithm, dict):
        cfg.algorithm["master_seed"] = args.seed
    if getattr(args, "out", None) is not None:
        cfg.output_dir = args.out


def _execute(cfg, args) -> int:
    result = run_experiment(cfg, workers=args.workers)
    for point in result.manifest["points"]:
        status = f"{point['num_diverged']}/{point['monte_carlo_runs']} diverged"
        if cfg.stop_threshold is None:
            reached = ""
        elif point["stopping"]:
            reached = f"; threshold at t={point['stopping']['model_time']}"
        else:
            reached = "; threshold not reached"
        print(f"{point['label']}: {status}{reached} -> {point['csv']}")
    print(f"manifest: {result.output_dir / (cfg.name + '_manifest.json')}")
    if result.any_point_diverged:
        print("error: at least one grid point diverged in every replicate", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            _apply_overrides(cfg, args)
            return _execute(cfg, args)
        if args.command == "certify":
            resolved = resolve(load_config(args.config))
            reports = {
                label: asdict(certified_run_check(resolved.instance, resolved.topology, run_cfg))
                for label, _, run_cfg in resolved.points
            }
            print(json.dumps(reports, indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "preset":
            cfg = preset_fig1() if args.name == "fig1" else preset_fig2()
            _apply_overrides(cfg, args)
            return _execute(cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
