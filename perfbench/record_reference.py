#!/usr/bin/env python3
"""Store the reference values of one seed in perfbench/reference.json.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/record_reference.py --seed 12345

For each preset the benchmark sweeps, this runs one serial sweep at the
workloads' trial count under one BLAS thread and stores the summary's
``D_dB_mean``/``PAPR_dB_mean`` per point plus the sha256 of ``trials.csv``
and ``summary.csv``.  An existing entry is never overwritten.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    reference = json.loads(run.REFERENCE.read_text())
    entries = reference["seeds"].setdefault(str(args.seed), {})
    run.WORK.mkdir(exist_ok=True)
    for preset, trials in sorted({(p, t) for p, _, t in run.WORKLOADS.values()}):
        if preset in entries:
            print(f"error: seed {args.seed} already has a {preset} entry", file=sys.stderr)
            return 1
        result = run.sweep(preset, args.seed, trials, 1)
        if result.failures:
            print(f"error: {preset} sweep recorded failures", file=sys.stderr)
            return 1
        entries[preset] = {
            "trials": trials,
            "trials_sha256": run.sha256(result.trials),
            "summary_sha256": run.sha256(result.summary),
            "points": run.summary_means(result.summary),
        }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
