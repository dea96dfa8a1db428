"""Command line interface: sweep runner, single trial, config validation."""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import replace

from .harness import (
    PRESETS,
    SCHEME_SINGLE_RF,
    TRIAL_COLUMNS,
    ConfigError,
    SimConfig,
    format_row,
    preset_config,
    run_sweep,
    run_trial,
    sweep_points,
)

USAGE_EXIT = 2
INTERRUPTED_EXIT = 130  # the shell's 128 + SIGINT


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError("<file>", f"cannot read {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError("<file>", f"{path} is not valid JSON: {e}") from e
    return SimConfig.from_dict(data)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ristx",
        description="Reflecting-surface single-RF downlink Monte-Carlo harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep")
    source = sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("config", nargs="?", help="JSON config file")
    source.add_argument("--preset", help="built-in figure-reproduction sweep: "
                                         + ", ".join(PRESETS))
    sweep.add_argument("-o", "--output", required=True, help="output directory")
    sweep.add_argument("--seed", type=int, help="override the master seed")
    sweep.add_argument("--trials", type=int, help="override trials per point")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1), capped at the number "
                            "of sweep points with trials left")
    sweep.add_argument("--resume", action="store_true",
                       help="continue an interrupted sweep in the same directory")

    trial = sub.add_parser("trial", help="run one trial and print its CSV row(s)")
    trial.add_argument("-K", type=int, required=True, help="number of users")
    trial.add_argument("-M", type=int, required=True, help="number of elements")
    trial.add_argument("-B", required=True,
                       help="phase bits, or 'continuous' / 'inf'")
    trial.add_argument("--seed", type=int, help="master seed (default: the SimConfig default)")
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


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"interrupted by {signal.Signals(signum).name}")


def _cmd_sweep(args):
    cfg = (_load_config(args.config) if args.preset is None
           else preset_config(args.preset))
    overrides = {"trials": args.trials, "master_seed": args.seed}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    # SIGTERM (a scheduler, `timeout`) stops the sweep as Ctrl-C does
    stops = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.signal(sig, _interrupt) for sig in stops]
    try:
        run_sweep(cfg, args.output, workers=args.workers, resume=args.resume)
    finally:
        for sig, handler in zip(stops, previous):
            signal.signal(sig, handler)
    return 0


def _cmd_trial(args):
    data = {"master_seed": args.seed, "num_intervals": args.intervals,
            "m_list": [args.M], "k_list": [args.K], "b_list": [args.B]}
    data = {k: v for k, v in data.items() if v is not None}
    if not args.with_baseline:
        data["schemes"] = [SCHEME_SINGLE_RF]
    cfg = SimConfig.from_dict(data)
    rows, record = run_trial(cfg, args.K, args.M, args.B, args.trial_index,
                             with_record=args.json)
    if args.json:
        sys.stdout.write(json.dumps(record, indent=2, allow_nan=False) + "\n")
    else:
        sys.stdout.write(",".join(TRIAL_COLUMNS) + "\n")
        for row in rows:
            sys.stdout.write(format_row(row, TRIAL_COLUMNS))
    return 0


def _cmd_validate(args):
    cfg = _load_config(args.config)
    print(f"ok: {len(sweep_points(cfg))} sweep points x {cfg.trials} trials, "
          f"schemes={','.join(cfg.schemes)}")
    return 0


_COMMANDS = {"sweep": _cmd_sweep, "trial": _cmd_trial, "validate-config": _cmd_validate}


def main(argv=None):
    """Run one command; a config error exits 2, an interrupt 130, others 1."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except KeyboardInterrupt as e:
        print(f"error: {str(e) or 'interrupted'}", file=sys.stderr)
        return INTERRUPTED_EXIT
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
