"""Command line interface: sweep runner, single trial, config validation."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .harness import (
    TRIAL_COLUMNS,
    SimConfig,
    format_row,
    preset_config,
    run_sweep,
    run_trial,
    trial_rows,
)

USAGE_EXIT = 2


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError("<file>", f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError("<file>", f"{path} is not valid JSON: {e}") from e
    return SimConfig.from_dict(data)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ristx",
        description="Reflecting-surface single-RF downlink Monte-Carlo harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep")
    sweep.add_argument("config", nargs="?", help="JSON config file")
    sweep.add_argument("--preset", choices=("fig2", "fig3", "fig4"),
                       help="built-in figure-reproduction sweep")
    sweep.add_argument("-o", "--output", required=True, help="output directory")
    sweep.add_argument("--seed", type=int, help="override the master seed")
    sweep.add_argument("--trials", type=int, help="override trials per point")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1)")
    sweep.add_argument("--resume", action="store_true",
                       help="continue an interrupted sweep in the same directory")

    trial = sub.add_parser("trial", help="run one trial and print its CSV row(s)")
    trial.add_argument("-K", type=int, required=True, help="number of users")
    trial.add_argument("-M", type=int, required=True, help="number of elements")
    trial.add_argument("-B", required=True,
                       help="phase bits, or 'continuous' / 'inf'")
    trial.add_argument("--seed", type=int, default=12345, help="master seed")
    trial.add_argument("--trial-index", type=int, default=0)
    trial.add_argument("-N", "--intervals", type=int, default=None,
                       help="override block length N")
    trial.add_argument("--with-baseline", action="store_true",
                       help="also emit the matched-filter benchmark row")
    trial.add_argument("--json", action="store_true",
                       help="emit the full JSON trial record instead of CSV")

    check = sub.add_parser("validate-config", help="check a JSON config file")
    check.add_argument("config")
    return parser


def _cmd_sweep(args):
    if args.preset and args.config:
        print("error: give either a config file or --preset, not both",
              file=sys.stderr)
        return USAGE_EXIT
    if not args.preset and not args.config:
        print("error: a config file or --preset is required", file=sys.stderr)
        return USAGE_EXIT
    try:
        if args.preset:
            cfg = preset_config(args.preset, trials=args.trials,
                                master_seed=args.seed)
        else:
            cfg = _load_config(args.config)
            overrides = {}
            if args.trials is not None:
                overrides["trials"] = args.trials
            if args.seed is not None:
                overrides["master_seed"] = args.seed
            if overrides:
                cfg = SimConfig.from_dict(cfg.to_dict() | overrides)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    try:
        run_sweep(cfg, args.output, workers=max(1, args.workers),
                  resume=args.resume, preset=args.preset)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def _cmd_trial(args):
    data = {"master_seed": args.seed, "m_list": [args.M], "k_list": [args.K],
            "b_list": [args.B]}
    if args.intervals is not None:
        data["num_intervals"] = args.intervals
    if not args.with_baseline:
        data["schemes"] = ["single_rf"]
    try:
        cfg = SimConfig.from_dict(data)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    (b,) = cfg.b_list
    try:
        if args.json:
            _, record = run_trial(cfg, args.K, args.M, b, args.trial_index,
                                  with_record=True)
            json.dump(record, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            rows = trial_rows(cfg, args.K, args.M, b, args.trial_index)
            sys.stdout.write(",".join(TRIAL_COLUMNS) + "\n")
            for row in rows:
                sys.stdout.write(format_row(row, TRIAL_COLUMNS))
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args):
    try:
        cfg = _load_config(args.config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    points = len(cfg.m_list) * len(cfg.b_list) * len(cfg.k_list)
    print(f"ok: {points} sweep points x {cfg.trials} trials, "
          f"schemes={','.join(cfg.schemes)}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trial":
        return _cmd_trial(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
