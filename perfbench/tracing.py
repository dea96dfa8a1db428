"""Outside-in tracing of a ristx sweep replay.

The replay runs the sweep's own per-trial code path (``harness.trial_rows``)
point by point, in sweep order, in one process.  Spans come from wrappers
that this module installs, for the duration of the replay only, on the names
through which ``ristx.harness`` calls into the other modules; no ristx source
is changed.  Spans are kept in memory as tuples
``(span_id, name, start, end, parent_id, trial_id)`` and written out at the
end of the run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import statistics
import time
import types

import numpy as np

# harness-level name -> span name.  Each layer's spans are named after the
# package module that owns the called function.
WRAPPED = {
    "trial_rows": "harness.trial_rows",
    "derive_trial_streams": "harness.derive_trial_streams",
    "build_surface": "geometry.build_surface",
    "draw_users": "channel.draw_users",
    "draw_fading": "channel.draw_fading",
    "assemble_channel": "channel.assemble_channel",
    "compensating_gains": "channel.compensating_gains",
    "transmit_block": "metrics.transmit_block",
    "average_power": "metrics.average_power",
    "papr": "metrics.papr",
    "trial_result": "metrics.trial_result",
    "mf_precode_block": "baseline.mf_precode_block",
    "mf_post_gains": "baseline.mf_post_gains",
}
EFFECTIVE_MATRIX_SPAN = "solver.EffectiveMatrix.build"
RADIATED_SPAN = "baseline.radiated_power"   # the einsum in front of the MF precoder
DISTORTION_SPANS = ("metrics.distortion", "baseline.distortion")

STAGE_OF_SPAN = {
    "harness.derive_trial_streams": "streams",
    "channel.draw_users": "channel",
    "channel.draw_fading": "channel",
    "channel.assemble_channel": "channel",
    "channel.compensating_gains": "channel",
    EFFECTIVE_MATRIX_SPAN: "effective_matrix",
    "solver.solve_block": "solve_block",
    "metrics.transmit_block": "metrics",
    "metrics.distortion": "metrics",
    "metrics.average_power": "metrics",
    "metrics.papr": "metrics",
    "metrics.trial_result": "metrics",
    RADIATED_SPAN: "baseline",
    "baseline.mf_precode_block": "baseline",
    "baseline.mf_post_gains": "baseline",
    "baseline.distortion": "baseline",
}
# Spans every single-RF trial must produce; a missing one means harness no
# longer calls through the wrapped name and the trace would under-count.
REQUIRED_SPANS = (
    "harness.derive_trial_streams", "channel.draw_users", "channel.draw_fading",
    "channel.assemble_channel", "channel.compensating_gains",
    EFFECTIVE_MATRIX_SPAN, "solver.solve_block", "metrics.transmit_block",
    "metrics.distortion", "metrics.average_power", "metrics.papr",
    "metrics.trial_result",
)


class Tracer:
    """In-memory span recorder plus per-trial solver counters."""

    def __init__(self, solver):
        self.spans = []       # (span_id, name, start, end, parent_id, trial_id)
        self.trials = []      # trial_id -> (kind, K, M, B label, trial_index)
        self.counters = []    # trial_id -> dict of solver counts
        self._solver = solver
        self._ids = itertools.count()
        self._stack = []
        self._solves = []
        self._distortions = 0
        self.trial = None

    def wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.trial))

        return traced

    def begin_point(self, kind, num_elements, b_label):
        """Attribute the next spans to a sweep point (its surface build)."""
        self.trial = len(self.trials)
        self.trials.append((kind, None, num_elements, b_label, None))
        self.counters.append(None)

    def begin_trial(self, kind, num_users, num_elements, b_label, trial_index):
        self.trial = len(self.trials)
        self.trials.append((kind, num_users, num_elements, b_label, trial_index))
        self._solves.clear()
        self._distortions = 0

    def end_trial(self):
        """Count what the trial's solver did; runs outside every span."""
        counts = {"columns": 0, "column_iterations": 0, "converged": 0,
                  "moved": 0, "negative_gain_events": 0, "flop": 0}
        for eff, symbols, codebook, sol in self._solves:
            num_users, num_elements = eff.matrix.shape
            start = self._solver.quantize_phases(pinv_image_unit(eff, symbols), codebook)
            moved = np.any(sol.w != start, axis=0)
            iterations = int(np.sum(sol.iterations))
            counts["columns"] += moved.size
            counts["column_iterations"] += iterations
            counts["converged"] += int(np.sum(sol.converged))
            counts["moved"] += int(np.sum(moved))
            counts["negative_gain_events"] += int(np.sum(sol.negative_gain_events))
            # Computed, not measured: Heff @ w and Heff^H @ r per column
            # iteration (8 flops per complex multiply-add each), plus the
            # final Heff @ w evaluation of every column.
            counts["flop"] += 16 * num_users * num_elements * iterations
            counts["flop"] += 8 * num_users * num_elements * moved.size
        self.counters.append(counts)
        self.trial = None
        last = self._solves[-1] if self._solves else None
        self._solves.clear()
        return last

    def _traced_solve_block(self, solve_block):
        traced = self.wrap("solver.solve_block", solve_block)

        def solve(eff, symbols, codebook, options=None):
            sol = traced(eff, symbols, codebook, options)
            self._solves.append((eff, symbols, codebook, sol))
            return sol

        return solve

    def _traced_distortion(self, distortion):
        # The first distortion of a trial scores the single-RF block; a later
        # one scores the matched-filter baseline.
        single_rf = self.wrap(DISTORTION_SPANS[0], distortion)
        baseline = self.wrap(DISTORTION_SPANS[1], distortion)

        def dispatch(*args, **kwargs):
            self._distortions += 1
            return (single_rf if self._distortions == 1 else baseline)(*args, **kwargs)

        return dispatch


class _NumpyView:
    """``numpy`` as seen by harness, with ``einsum`` traced."""

    def __init__(self, einsum):
        self.einsum = einsum

    def __getattr__(self, name):
        return getattr(np, name)


@contextlib.contextmanager
def instrumented(tracer, harness):
    """Install the span wrappers on ``harness`` and remove them afterwards."""
    originals = {}

    def patch(name, make):
        if not hasattr(harness, name):
            raise RuntimeError(
                f"ristx.harness no longer has {name!r}; the tracer in "
                "perfbench/tracing.py must follow the new call path"
            )
        originals[name] = getattr(harness, name)
        setattr(harness, name, make(originals[name]))

    try:
        for name, span in WRAPPED.items():
            patch(name, lambda fn, span=span: tracer.wrap(span, fn))
        patch("solve_block", tracer._traced_solve_block)
        patch("distortion", tracer._traced_distortion)
        patch("EffectiveMatrix", lambda cls: types.SimpleNamespace(
            build=tracer.wrap(EFFECTIVE_MATRIX_SPAN, cls.build)))
        patch("np", lambda mod: _NumpyView(tracer.wrap(RADIATED_SPAN, mod.einsum)))
        yield
    finally:
        for name, value in originals.items():
            setattr(harness, name, value)


def pinv_image_unit(eff, symbols):
    """The unit-modulus pseudo-inverse image that seeds ``solve_block``."""
    raw = eff.pseudo_inverse @ np.asarray(symbols, dtype=complex)
    mags = np.abs(raw)
    return np.where(mags > 0, raw / np.where(mags > 0, mags, 1.0), 1.0 + 0.0j)


def replay(tracer, harness, cfg, points, kind, on_trial=None):
    """Run ``trial_rows`` for every trial of ``points`` in sweep order.

    Must run inside ``instrumented``.  ``on_trial(trial_key, last_solve)``
    is called after each trial, outside every span.  Returns the rows.
    """
    rows = []
    for m, b, k in points:
        tracer.begin_point(kind, m, harness.b_label(b))
        surface = harness.build_surface(cfg, m)
        for idx in range(cfg.trials):
            tracer.begin_trial(kind, k, m, harness.b_label(b), idx)
            rows.extend(harness.trial_rows(cfg, k, m, b, idx, surface))
            last = tracer.end_trial()
            if on_trial is not None:
                on_trial((k, m, b, idx), last)
    return rows


def plain_replay(harness, cfg, points):
    """The same loop as ``replay`` with tracing off."""
    rows = []
    for m, b, k in points:
        surface = harness.build_surface(cfg, m)
        for idx in range(cfg.trials):
            rows.extend(harness.trial_rows(cfg, k, m, b, idx, surface))
    return rows


def time_quantize(solver, eff, symbols, codebook, repeats):
    """Median ms of one ``quantize_phases`` call on a pinv-image block."""
    unit = pinv_image_unit(eff, symbols)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        solver.quantize_phases(unit, codebook)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def tail_percentile(num_samples):
    """Highest percentile of a ladder with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if num_samples * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def percentile(values, pct):
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def surface_seconds(tracer, kind):
    """Durations of the surface builds of ``kind`` points."""
    return [end - start for _, name, start, end, _, trial in tracer.spans
            if name == WRAPPED["build_surface"] and tracer.trials[trial][0] == kind]


def trial_breakdown(tracer):
    """Per trial: key, trial_rows seconds, self seconds, stage seconds, counters."""
    by_trial = {}
    children = {}
    for span_id, name, start, end, parent, trial in tracer.spans:
        if tracer.trials[trial][1] is None:
            continue
        entry = by_trial.setdefault(trial, {"stages": {}, "names": set()})
        entry["names"].add(name)
        if name == "harness.trial_rows":
            entry["span"] = span_id
            entry["total"] = end - start
            continue
        stage = STAGE_OF_SPAN.get(name)
        if stage is not None:
            entry["stages"][stage] = entry["stages"].get(stage, 0.0) + (end - start)
        children[parent] = children.get(parent, 0.0) + (end - start)
    out = []
    for trial, entry in sorted(by_trial.items()):
        missing = [n for n in REQUIRED_SPANS if n not in entry["names"]]
        if missing or "span" not in entry:
            raise RuntimeError(f"trial {tracer.trials[trial]} lacks spans {missing}")
        out.append({
            "key": tracer.trials[trial],
            "total": entry["total"],
            "self": entry["total"] - children.get(entry["span"], 0.0),
            "stages": entry["stages"],
            "counters": tracer.counters[trial],
        })
    return out


def write_spans(tracer, path):
    """One JSON object per span, in completion order."""
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, trial in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent, "trial": trial,
                                 "trial_key": tracer.trials[trial]}) + "\n")
