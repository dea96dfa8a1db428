#!/usr/bin/env python3
"""Benchmark of ``ristx sweep`` on the fig2/fig4 figure presets.

Run from the repository root:

    python3 perfbench/run.py --workload fig2-serial --seed 12345 --seconds 20 --trace 0

``--trace 0`` times whole sweeps, each in a fresh child process, and prints
the end-to-end metrics.  ``--trace 1`` replays the workload's trials in this
process under tracing (see ``tracing.py``) and prints the per-layer metrics.
Both modes check the program's outputs, print every metric by name and unit,
and end with one JSON line holding ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when a correctness check fails.  See
``perfbench/README.md`` for the metrics and workloads.
"""

import os

# Pin BLAS to one thread before numpy can load, in this process and (through
# the inherited environment) in every child: the reference values and hashes
# hold only under one BLAS thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

# workload -> (preset, workers, trials per point).  Closed loop: one sweep
# at a time.  Trial counts keep one sweep near 2 s, so that a run's median
# spans many sweeps: on a shared 2-core host the speed of a core drifts by up
# to 2x over seconds.
WORKLOADS = {
    "fig2-serial": ("fig2", 1, 6),
    "fig4-serial": ("fig4", 1, 8),
    "fig2-pool2": ("fig2", 2, 6),
}
CHILD_TIMEOUT_S = 150
REFERENCE_COLUMNS = ("D_dB_mean", "PAPR_dB_mean")

# Corner points of the per-point solver metrics: K in {2, 32} for every
# (M, B) that a workload sweeps.
CORNER_MB = ((64, 1), (64, 2), (64, 4), (64, None), (121, 4), (225, 4))
CORNER_K = (2, 32)
QUANTIZE_REPEATS = 20

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "sweep_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


@dataclass
class Sweep:
    wall: float
    peak_rss_mib: float
    failures: list
    trials: bytes
    summary: bytes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, log_path):
    """Run ``python3 <args>`` to completion; return (wall seconds, rusage).

    ``os.wait4`` reports this child's own resource use, so every run reads a
    fresh peak RSS.  On Linux its ``ru_maxrss`` is the largest peak of the
    child and the descendants it reaped (the sweep's pool workers).
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL,
                                stderr=log, env=child_env(), start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"python3 {' '.join(args)} exited with {proc.returncode}:\n"
                         + Path(log_path).read_text(errors="replace")[-2000:])
    return wall, usage


def sweep(preset, seed, trials, workers):
    out = WORK / f"sweep-{preset}-w{workers}"
    shutil.rmtree(out, ignore_errors=True)
    wall, usage = run_child(
        ["-m", "ristx.cli", "sweep", "--preset", preset, "--seed", str(seed),
         "--trials", str(trials), "--workers", str(workers), "-o", str(out)],
        WORK / "sweep.log",
    )
    manifest = json.loads((out / "manifest.json").read_text())
    result = Sweep(wall, usage.ru_maxrss / 1024.0, manifest["failures"],
                   (out / "trials.csv").read_bytes(), (out / "summary.csv").read_bytes())
    shutil.rmtree(out)
    return result


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def csv_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def csv_body(data):
    """CSV text after the header line."""
    return data.decode("utf-8").split("\n", 1)[1]


def summary_means(summary):
    """Reference columns per point, selected by header name."""
    return {
        "/".join((r["scheme"], r["K"], r["M"], r["B"])): {c: float(r[c]) for c in REFERENCE_COLUMNS}
        for r in csv_rows(summary)
    }


def check_reference(reference, preset, seed, trials, result, errors):
    """Compare a sweep with the stored reference for this seed, if there is one.

    Returns a one-line note for the log.
    """
    entry = reference["seeds"].get(str(seed), {}).get(preset)
    if entry is None or entry["trials"] != trials:
        return f"reference: none stored for {preset} seed {seed} trials {trials}"
    tolerance = reference["tolerance_db"]
    errors_before = len(errors)
    got = summary_means(result.summary)
    if set(got) != set(entry["points"]):
        errors.append(f"summary points differ from the reference for seed {seed}")
        return "reference: MISMATCH"
    for point, want in entry["points"].items():
        for column, value in want.items():
            if abs(got[point][column] - value) > tolerance:
                errors.append(f"{point} {column} = {got[point][column]!r}, "
                              f"reference {value!r} (seed {seed})")
    hashes = (sha256(result.trials) == entry["trials_sha256"],
              sha256(result.summary) == entry["summary_sha256"])
    matched = len(errors) == errors_before
    return (f"reference: means {'match' if matched else 'MISMATCH'}; trials.csv sha256 "
            f"{'matches' if hashes[0] else 'differs'}, summary.csv sha256 "
            f"{'matches' if hashes[1] else 'differs'}")


def check_sweep(harness, cfg, result, errors, label):
    """No failed trial, and one trials.csv row per point, trial and scheme."""
    if result.failures:
        errors.append(f"{label}: {len(result.failures)} failed trials, "
                      f"first: {result.failures[0]}")
    rows = len(csv_rows(result.trials))
    expected = len(harness.sweep_points(cfg)) * cfg.trials * len(cfg.schemes)
    if rows != expected:
        errors.append(f"{label}: trials.csv has {rows} rows, expected {expected}")


def serial_sweep(preset, seed, trials, workers, result, errors):
    """The serial sweep at the same seed; a pooled one must match its bytes."""
    if workers == 1:
        return result
    serial = sweep(preset, seed, trials, 1)
    if serial.trials != result.trials:
        errors.append(f"trials.csv with {workers} workers differs from the serial "
                      "sweep at the same seed")
    return serial


def environment():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def import_ristx():
    sys.path.insert(0, str(SRC))
    from ristx import cli, harness, solver
    if SRC not in Path(harness.__file__).resolve().parents:
        raise BenchError(f"imported ristx from {harness.__file__}, not from {SRC}")
    return cli, harness, solver


def workload_config(harness, preset, seed, trials):
    cfg = harness.preset_config(preset, trials=trials, master_seed=seed)
    path = WORK / f"config-{preset}.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2) + "\n")
    return cfg, path


def timed_run(workload, seed, seconds, trials, errors, notes):
    """End-to-end metrics of back-to-back sweeps, tracing off."""
    _, harness, _ = import_ristx()
    preset, workers, _ = WORKLOADS[workload]
    cfg, cfg_path = workload_config(harness, preset, seed, trials)
    trials_per_sweep = len(harness.sweep_points(cfg)) * trials

    def set_up():
        return run_child(["-m", "ristx.cli", "validate-config", str(cfg_path)],
                         WORK / "setup.log")[0]

    # One untimed launch compiles the bytecode; after that each sweep is
    # followed by one timed set-up, so both samples see the same host load.
    set_up()
    sweeps, setup = [], []
    start = time.perf_counter()
    while True:
        sweeps.append(sweep(preset, seed, trials, workers))
        setup.append(set_up())
        if time.perf_counter() - start + sweeps[-1].wall + setup[-1] > seconds:
            break

    for i, result in enumerate(sweeps):
        check_sweep(harness, cfg, result, errors, f"sweep {i}")
        if (result.trials, result.summary) != (sweeps[0].trials, sweeps[0].summary):
            errors.append(f"sweep {i} wrote other bytes than sweep 0 at the same seed")
    serial = serial_sweep(preset, seed, trials, workers, sweeps[0], errors)
    notes.append(check_reference(json.loads(REFERENCE.read_text()), preset, seed, trials,
                                 serial, errors))
    notes.append(f"trials.csv sha256 {sha256(sweeps[0].trials)}")
    notes.append(f"summary.csv sha256 {sha256(sweeps[0].summary)}")

    attempted = trials_per_sweep * len(sweeps)
    failed = sum(len(s.failures) for s in sweeps)
    notes.append("sweep walls (s): " + " ".join(f"{s.wall:.3f}" for s in sweeps))
    notes.append("setup walls (s): " + " ".join(f"{t:.3f}" for t in setup))
    notes.append(f"failed_trial_fraction = {failed / attempted!r} ratio")
    metrics = {
        "trials_per_s": statistics.median(trials_per_sweep / s.wall for s in sweeps),
        "sweep_wall_s": statistics.median(s.wall for s in sweeps),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(s.peak_rss_mib for s in sweeps),
    }
    return attempted, failed, {name: (value, END_TO_END_UNITS[name])
                               for name, value in metrics.items()}


def check_replayed_rows(rows, csv_by_key, errors, label):
    """A replayed trial's D_dB and PAPR_dB must equal its trials.csv row exactly."""
    for row in rows:
        key = tuple(str(row[c]) for c in ("scheme", "K", "M", "B", "trial_index"))
        want = csv_by_key.get(key)
        if want is None:
            continue
        for column in ("D_dB", "PAPR_dB"):
            if float(want[column]) != row[column]:
                errors.append(f"{label}: {key} {column} replayed {row[column]!r}, "
                              f"trials.csv {want[column]}")
        if len(errors) > 20:
            return


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def traced_run(workload, seed, seconds, trials, errors, notes):
    """Per-layer metrics from a traced in-process replay of the workload."""
    cli, harness, solver = import_ristx()
    preset, workers, _ = WORKLOADS[workload]
    cfg, cfg_path = workload_config(harness, preset, seed, trials)

    untraced = sweep(preset, seed, trials, workers)
    check_sweep(harness, cfg, untraced, errors, "untraced sweep")
    serial = serial_sweep(preset, seed, trials, workers, untraced, errors)
    notes.append(check_reference(json.loads(REFERENCE.read_text()), preset, seed, trials,
                                 serial, errors))
    rows_as_read = csv_rows(untraced.trials)
    csv_by_key = {(r["scheme"], r["K"], r["M"], r["B"], r["trial_index"]): r
                  for r in rows_as_read}
    body = csv_body(untraced.trials)

    points = harness.sweep_points(cfg)
    single_rf, mf = harness.SCHEME_SINGLE_RF, harness.SCHEME_MF
    probe_cfg = harness.SimConfig.from_dict(cfg.to_dict() | {"schemes": [single_rf, mf]})
    corners = [(m, b, k) for m, b in CORNER_MB for k in CORNER_K]
    tracer = tracing.Tracer(solver)
    quantize = {}

    def on_probe_trial(key, last):
        k, m, b, idx = key
        if k == CORNER_K[-1] and idx == 0:
            eff, symbols, codebook, _ = last
            quantize.setdefault(f"M{m}-B{harness.b_label(b)}", []).append(
                tracing.time_quantize(solver, eff, symbols, codebook, QUANTIZE_REPEATS))

    untraced_walls, traced_totals = [], []
    start = time.perf_counter()
    while not traced_totals or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        plain_rows = tracing.plain_replay(harness, cfg, points)
        untraced_walls.append(time.perf_counter() - t0)
        check_replayed_rows(plain_rows, csv_by_key, errors, "untraced replay")
        with tracing.instrumented(tracer, harness):
            first = len(tracer.spans)
            replayed_rows = tracing.replay(tracer, harness, cfg, points, "workload")
            traced_totals.append(sum(
                end - begin for _, name, begin, end, _, _ in tracer.spans[first:]
                if name in ("harness.trial_rows", "geometry.build_surface")))
            probe_rows = tracing.replay(tracer, harness, probe_cfg, corners, "probe",
                                        on_probe_trial)
        check_replayed_rows(replayed_rows, csv_by_key, errors, "traced replay")
        check_replayed_rows(probe_rows, csv_by_key, errors, "corner probe")
    passes = len(traced_totals)

    def format_all():
        return "".join(harness.format_row(r, harness.TRIAL_COLUMNS) for r in replayed_rows)

    if format_all() != body:
        errors.append("replayed rows do not format to the bytes of trials.csv")
    summary = harness.summarize(rows_as_read, cfg)
    if "".join(harness.format_row(r, harness.SUMMARY_COLUMNS) for r in summary) != \
            csv_body(untraced.summary):
        errors.append("summarize() over trials.csv does not reproduce summary.csv")

    def validate_config():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["validate-config", str(cfg_path)]) != 0:
                errors.append("validate-config rejected the workload config")

    breakdown = tracing.trial_breakdown(tracer)
    work = [t for t in breakdown if t["key"][0] == "workload"]
    probe = [t for t in breakdown if t["key"][0] == "probe"]
    n = len(work)

    def ms_per_trial(trials_, stage):
        return 1e3 * sum(t["stages"].get(stage, 0.0) for t in trials_) / len(trials_)

    def total(field):
        return sum(t["counters"][field] for t in work)

    if mf in cfg.schemes:
        baseline_ms = ms_per_trial(work, "baseline")
    else:
        # No MF scheme in this sweep: cost it on the workload's own corner points.
        pairs = {(m, harness.b_label(b)) for m in cfg.m_list for b in cfg.b_list}
        baseline_ms = ms_per_trial([t for t in probe if (t["key"][2], t["key"][3]) in pairs],
                                   "baseline")
    trial_s = [t["total"] for t in work]
    tail_pct = tracing.tail_percentile(n)
    traced_trial_s = sum(trial_s) / passes
    surfaces = tracing.surface_seconds(tracer, "workload")

    metrics = {
        "harness.streams_ms_per_trial": (ms_per_trial(work, "streams"), "ms"),
        "harness.trial_overhead_ms_per_trial":
            (1e3 * sum(t["self"] for t in work) / n, "ms"),
        "harness.trial_ms_p50": (1e3 * statistics.median(trial_s), "ms"),
        "harness.trial_ms_tail": (1e3 * tracing.percentile(trial_s, tail_pct), "ms"),
        "harness.summarize_ms": (median_ms(lambda: harness.summarize(rows_as_read, cfg), 5), "ms"),
        "harness.csv_format_ms": (median_ms(format_all, 5), "ms"),
        "harness.unattributed_share": (1.0 - traced_trial_s / (workers * untraced.wall), "ratio"),
        "harness.parallel_efficiency": (traced_trial_s / (workers * untraced.wall), "ratio"),
        "harness.tracing_overhead_ratio":
            (statistics.median(traced_totals) / statistics.median(untraced_walls), "ratio"),
        "geometry.surface_ms": (1e3 * statistics.mean(surfaces), "ms"),
        "channel.draw_ms_per_trial": (ms_per_trial(work, "channel"), "ms"),
        "solver.effective_matrix_ms_per_trial": (ms_per_trial(work, "effective_matrix"), "ms"),
        "solver.solve_block_ms_per_trial": (ms_per_trial(work, "solve_block"), "ms"),
    }
    for m, b in CORNER_MB:
        for k in CORNER_K:
            at = [t for t in probe if t["key"][1:4] == (k, m, harness.b_label(b))]
            label = f"K{k}-M{m}-B{harness.b_label(b)}"
            metrics[f"solver.solve_block_ms.{label}"] = (ms_per_trial(at, "solve_block"), "ms")
            metrics[f"solver.effective_matrix_ms.{label}"] = \
                (ms_per_trial(at, "effective_matrix"), "ms")
    for label, values in quantize.items():
        metrics[f"solver.quantize_ms_per_call.{label}"] = (statistics.median(values), "ms")
    columns = total("columns")
    metrics.update({
        "solver.column_iterations_per_trial": (total("column_iterations") / n, "count"),
        "solver.gflop_computed_per_trial": (total("flop") / n / 1e9, "GFLOP"),
        "solver.moved_fraction": (total("moved") / columns, "ratio"),
        "solver.converged_fraction": (total("converged") / columns, "ratio"),
        "solver.negative_gain_events_per_trial": (total("negative_gain_events") / n, "count"),
        "metrics.eval_ms_per_trial": (ms_per_trial(work, "metrics"), "ms"),
        "baseline.mf_ms_per_trial": (baseline_ms, "ms"),
        "cli.validate_config_ms": (median_ms(validate_config, 7), "ms"),
    })

    spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    tracing.write_spans(tracer, spans_path)
    notes.append(f"replay passes: {passes}; trials replayed per pass: {n // passes}; "
                 f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    notes.append(f"harness.trial_ms_tail is the p{tail_pct:g} of {n} trial times")
    notes.append(f"untraced sweep wall {untraced.wall!r} s with {workers} worker(s)")
    return n, len(untraced.failures), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="override the workload's trials per sweep point")
    args = parser.parse_args(argv)

    if not (SRC / "ristx" / "__init__.py").is_file():
        print(f"error: no ristx sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment()
    errors, notes = [], []
    trials = args.trials or WORKLOADS[args.workload][2]
    run = traced_run if args.trace else timed_run
    try:
        attempted, failed, metrics = run(args.workload, args.seed, args.seconds,
                                         trials, errors, notes)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()

    print(f"workload {args.workload} seed {args.seed} trials/point {trials} "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
