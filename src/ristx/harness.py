"""Seeded Monte-Carlo driver: sweeps over users, surface sizes and phase
resolution, orchestrating geometry -> channel -> solver -> metrics ->
benchmark, and writing per-trial CSV rows plus aggregates and a manifest.

Reproducibility contract: every trial's random streams derive purely from
(master_seed, K, M, B, trial_index), so results do not depend on execution
order or worker count, and a sweep can resume by trial index.
"""

from __future__ import annotations

import ctypes
import datetime as _dt
import json
import math
import sys
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import mf_post_gains, mf_precode_block
from .channel import (
    Cell,
    assemble_channel,
    compensating_gains,
    draw_fading,
    draw_users,
)
from .errors import ConfigError
from .geometry import FeedPattern, layout_elements, propagation_coeffs
from .metrics import (
    SymbolBlock,
    TransmitBlock,
    average_power,
    distortion,
    papr,
    received_mse,
    transmit_block,
    trial_result,
)
from .solver import EffectiveMatrix, PhaseCodebook, SolverOptions, solve_block

SCHEME_SINGLE_RF = "single_rf"
SCHEME_MF = "mf_digital"

TRIALS_CSV = "trials.csv"
SUMMARY_CSV = "summary.csv"
MANIFEST_JSON = "manifest.json"

# Largest bit depth a config may ask for: 2**16 phases, a 1.5 MiB codebook
# (phase and unit tables).  Each further bit doubles the table per trial.
MAX_CODEBOOK_BITS = 16

TRIAL_COLUMNS = (
    "scheme", "K", "M", "B", "trial_index", "trial_seed",
    "D_dB", "D_linear", "D_floored", "P_out", "PAPR_dB",
    "iterations_mean", "converged_fraction",
)
SUMMARY_COLUMNS = (
    "scheme", "K", "M", "B", "n_trials",
    "D_dB_mean", "D_dB_std", "D_linear_mean", "D_linear_std",
    "P_out_mean", "PAPR_dB_mean", "PAPR_dB_std", "PAPR_linear_mean",
    "iterations_mean", "converged_fraction",
)


@dataclass(frozen=True)
class SimConfig:
    """Full experiment configuration; defaults match the reference setup."""

    feed_power: float = 1.0
    wavelength: float = 0.008            # meters
    m_list: tuple = (64, 121, 225)
    feed_distance: float | None = None   # None -> wavelength * sqrt(M / pi)
    zeta_db: float = 0.0                 # element power efficiency, dB
    feed_beamwidth_deg: float = 120.0
    b_list: tuple = (1, 2, 4, None)      # None = continuous phases
    k_list: tuple = tuple(range(2, 33, 2))
    num_intervals: int = 100
    path_loss_exponent: float = 3.2
    shadow_std_db: float = 5.0
    r_min: float = 100.0                 # meters
    r_max: float = 1000.0                # meters
    trials: int = 200
    master_seed: int = 12345
    noise_var: float = 0.0               # only enters optional received-MSE reporting
    step_scale: float = 0.5
    change_threshold: float | None = None  # None -> solver default (1.25e-3 per element)
    max_iterations: int = 1000
    track_best: bool = True
    schemes: tuple = (SCHEME_SINGLE_RF, SCHEME_MF)

    def validate(self):
        if not self.feed_power > 0:
            raise ConfigError("feed_power", "must be positive")
        if not self.wavelength > 0:
            raise ConfigError("wavelength", "must be positive")
        if not self.m_list:
            raise ConfigError("m_list", "must not be empty")
        for m in self.m_list:
            if int(m) != m or m < 1 or math.isqrt(int(m)) ** 2 != int(m):
                raise ConfigError("m_list", f"{m} is not a positive perfect square")
        if self.feed_distance is not None and not self.feed_distance > 0:
            raise ConfigError("feed_distance", "must be positive or null")
        if not 0 < 10.0 ** (self.zeta_db / 10.0) <= 1.0:
            raise ConfigError("zeta_db", "efficiency must lie in (0, 1], i.e. <= 0 dB")
        if not 0 < self.feed_beamwidth_deg <= 180.0:
            raise ConfigError("feed_beamwidth_deg", "must be in (0, 180]")
        if not self.b_list:
            raise ConfigError("b_list", "must not be empty")
        for b in self.b_list:
            if b is not None and (int(b) != b or not 1 <= b <= MAX_CODEBOOK_BITS):
                raise ConfigError("b_list", f"{b!r} is not a bit depth in "
                                  f"1..{MAX_CODEBOOK_BITS} or 'continuous'")
        if not self.k_list:
            raise ConfigError("k_list", "must not be empty")
        for k in self.k_list:
            if int(k) != k or k < 1:
                raise ConfigError("k_list", f"{k!r} is not a positive integer")
        if self.num_intervals < 1:
            raise ConfigError("num_intervals", "must be >= 1")
        if not self.path_loss_exponent > 0:
            raise ConfigError("path_loss_exponent", "must be positive")
        if self.shadow_std_db < 0:
            raise ConfigError("shadow_std_db", "must be nonnegative")
        if not self.r_min > 0:
            raise ConfigError("r_min", "must be positive")
        if not self.r_max > self.r_min:
            raise ConfigError("r_max", "must exceed r_min")
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed", "must be nonnegative")
        if self.noise_var < 0:
            raise ConfigError("noise_var", "must be nonnegative")
        if not 0 < self.step_scale < 1:
            raise ConfigError("step_scale", "must be in (0, 1)")
        if self.change_threshold is not None and not self.change_threshold > 0:
            raise ConfigError("change_threshold", "must be positive or null")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations", "must be >= 1")
        if not self.schemes:
            raise ConfigError("schemes", "must not be empty")
        for s in self.schemes:
            if s not in (SCHEME_SINGLE_RF, SCHEME_MF):
                raise ConfigError("schemes", f"unknown scheme {s!r}")
        if SCHEME_SINGLE_RF not in self.schemes:
            raise ConfigError("schemes", "the single-RF scheme is required "
                              "(the benchmark power-matches against it)")
        return self

    def to_dict(self):
        d = asdict(self)
        d["m_list"] = [int(m) for m in self.m_list]
        d["b_list"] = ["continuous" if b is None else int(b) for b in self.b_list]
        d["k_list"] = [int(k) for k in self.k_list]
        d["schemes"] = list(self.schemes)
        return d

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        known = {f: None for f in cls.__dataclass_fields__}
        unknown = [k for k in data if k not in known]
        if unknown:
            raise ConfigError(unknown[0], "unknown config field")
        kwargs = dict(data)
        if "b_list" in kwargs:
            kwargs["b_list"] = tuple(parse_codebook_spec(b) for b in kwargs["b_list"])
        for name in ("m_list", "k_list", "schemes"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        try:
            cfg = cls(**kwargs)
        except TypeError as e:
            raise ConfigError("<root>", str(e)) from e
        return cfg.validate()

    def solver_options(self):
        return SolverOptions(
            step_scale=self.step_scale,
            change_threshold=self.change_threshold,
            max_iterations=self.max_iterations,
            track_best=self.track_best,
        )

    def cell(self):
        return Cell(self.r_min, self.r_max, self.path_loss_exponent, self.shadow_std_db)

    def feed_distance_for(self, num_elements):
        if self.feed_distance is not None:
            return self.feed_distance
        return self.wavelength * math.sqrt(num_elements / math.pi)


def parse_codebook_spec(value):
    """Codebook spec from config/CLI: bit count, or 'continuous'/'inf'."""
    if value is None or value in ("continuous", "inf"):
        return None
    try:
        bits = int(value)
    except (TypeError, ValueError):
        raise ConfigError("b_list", f"cannot parse codebook spec {value!r}") from None
    if not 1 <= bits <= MAX_CODEBOOK_BITS:
        raise ConfigError("b_list", f"bit depth must be in 1..{MAX_CODEBOOK_BITS}, "
                          f"got {bits}")
    return bits


def b_label(b):
    return "inf" if b is None else str(int(b))


def codebook_for(b):
    return PhaseCodebook.continuous() if b is None else PhaseCodebook.quantized(b)


def build_surface(cfg, num_elements):
    """Surface model for one size under the configured feed geometry."""
    grid = layout_elements(num_elements, cfg.wavelength, cfg.feed_distance_for(num_elements))
    pattern = FeedPattern.ideal_sector(math.radians(cfg.feed_beamwidth_deg))
    return propagation_coeffs(grid, pattern, 10.0 ** (cfg.zeta_db / 10.0))


def derive_trial_streams(master_seed, num_users, num_elements, b, trial_index):
    """Per-trial random streams, a pure function of the sweep indices.

    Returns (trial_seed, users_rng, fading_rng, symbols_rng).  The continuous
    codebook is keyed as 0 (bit depths start at 1).
    """
    b_key = 0 if b is None else int(b)
    ss = np.random.SeedSequence(
        [int(master_seed), int(num_users), int(num_elements), b_key, int(trial_index)]
    )
    trial_seed = int(ss.generate_state(1, np.uint64)[0])
    users_ss, fading_ss, symbols_ss = ss.spawn(3)
    return (
        trial_seed,
        np.random.default_rng(users_ss),
        np.random.default_rng(fading_ss),
        np.random.default_rng(symbols_ss),
    )


class TrialError(RuntimeError):
    """A module error annotated with the sweep point that raised it."""


def run_trial(cfg, num_users, num_elements, b, trial_index, surface=None,
              with_record=False):
    """Run one channel realization end to end.

    Returns (results, record): one TrialResult per configured scheme, and a
    JSON-serializable trial record when ``with_record`` is set (else None).
    """
    return _checked_trial(cfg, num_users, num_elements, b, trial_index, surface,
                          with_record)[1:]


def _checked_trial(cfg, num_users, num_elements, b, trial_index, surface,
                   with_record):
    """``(trial_seed, results, record)``, errors raised as ``TrialError``."""
    try:
        return _run_trial(cfg, num_users, num_elements, b, trial_index, surface,
                          with_record)
    except Exception as e:
        raise TrialError(
            f"trial failed at K={num_users} M={num_elements} B={b_label(b)} "
            f"trial_index={trial_index}: {e}"
        ) from e


def _run_trial(cfg, num_users, num_elements, b, trial_index, surface, with_record):
    if surface is None:
        surface = build_surface(cfg, num_elements)
    trial_seed, users_rng, fading_rng, symbols_rng = derive_trial_streams(
        cfg.master_seed, num_users, num_elements, b, trial_index
    )
    users = draw_users(num_users, cfg.cell(), users_rng)
    fading = draw_fading(num_users, num_elements, fading_rng)
    chan = assemble_channel(users, fading)
    gains = compensating_gains(users)
    # Information symbols share the i.i.d. unit-variance complex normal recipe.
    symbols = draw_fading(num_users, cfg.num_intervals, symbols_rng)

    eff = EffectiveMatrix.build(cfg.feed_power, gains, chan.matrix, surface)
    codebook = codebook_for(b)
    sol = solve_block(eff, symbols, codebook, cfg.solver_options())

    x_rf = transmit_block(surface, cfg.feed_power, sol.w, sol.gains)
    block = SymbolBlock(symbols)
    d_rf = distortion(block, gains, chan.matrix, x_rf)
    p_out = average_power(sol.gains, cfg.feed_power)
    papr_rf = papr(sol.gains, cfg.feed_power)
    results = [
        trial_result(
            SCHEME_SINGLE_RF, d_rf, p_out, papr_rf,
            iterations_mean=float(np.mean(sol.iterations)),
            converged_fraction=float(np.mean(sol.converged)),
            negative_gain_events=int(np.sum(sol.negative_gain_events)),
        )
    ]

    if SCHEME_MF in cfg.schemes:
        radiated = np.einsum("ij,ij->j", x_rf.x.conj(), x_rf.x).real
        x_mf, scales = mf_precode_block(chan.matrix, symbols, radiated)
        gains_mf = mf_post_gains(users, num_elements, float(np.mean(scales)))
        d_mf = distortion(block, gains_mf, chan.matrix, TransmitBlock(x_mf, scales))
        results.append(
            trial_result(
                SCHEME_MF, d_mf,
                p_out=float(np.mean(radiated)),
                papr_linear=float(np.max(radiated) / np.mean(radiated)),
            )
        )

    record = None
    if with_record:
        mse = [
            received_mse(symbols[:, n], gains, chan.matrix, x_rf.x[:, n], cfg.noise_var)
            for n in range(cfg.num_intervals)
        ]
        record = {
            "master_seed": cfg.master_seed,
            "seed": trial_seed,
            "K": num_users,
            "M": num_elements,
            "B": b_label(b),
            "trial_index": trial_index,
            "channel": {
                "nu": cfg.path_loss_exponent,
                "sigma_shadow_dB": cfg.shadow_std_db,
                "r_h": cfg.r_min,
                "r_max": cfg.r_max,
                "users": [
                    {"r_k": u.distance, "alpha_k_dB": 10.0 * math.log10(u.shadowing)}
                    for u in users
                ],
            },
            "surface": surface.to_record(),
            "solver": {
                "iterations": sol.iterations.tolist(),
                "converged": sol.converged.tolist(),
                "trace_lengths": sol.trace_lengths.tolist(),
                "negative_gain_events": sol.negative_gain_events.tolist(),
            },
            "received_mse_mean": float(np.mean(mse)),
            "noise_var": cfg.noise_var,
            "results": [vars(r) | {"trial_seed": trial_seed} for r in results],
        }
    return trial_seed, results, record


def trial_rows(cfg, num_users, num_elements, b, trial_index, surface=None):
    """CSV row dicts (one per scheme) for a single trial."""
    trial_seed, results, _ = _checked_trial(
        cfg, num_users, num_elements, b, trial_index, surface, False
    )
    rows = []
    for r in results:
        rows.append({
            "scheme": r.scheme,
            "K": num_users,
            "M": num_elements,
            "B": b_label(b),
            "trial_index": trial_index,
            "trial_seed": trial_seed,
            "D_dB": r.d_db,
            "D_linear": r.d_linear,
            "D_floored": int(r.d_db_floored),
            "P_out": r.p_out,
            "PAPR_dB": r.papr_db,
            "iterations_mean": r.iterations_mean,
            "converged_fraction": r.converged_fraction,
        })
    return rows


def sweep_points(cfg):
    """Deterministic point order of a sweep: surface size, codebook, users."""
    return [(m, b, k) for m in cfg.m_list for b in cfg.b_list for k in cfg.k_list]


def _format_value(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def format_row(row, columns):
    return ",".join(_format_value(row[c]) for c in columns) + "\n"


def _point_rows(cfg_dict, num_elements, b_json, num_users, trial_indices):
    """Worker entry: all rows of one sweep point (picklable arguments only)."""
    cfg = SimConfig.from_dict(cfg_dict)
    b = parse_codebook_spec(b_json)
    surface = build_surface(cfg, num_elements)
    rows = []
    failures = []
    for idx in trial_indices:
        try:
            rows.extend(trial_rows(cfg, num_users, num_elements, b, idx, surface))
        except TrialError as e:
            failures.append(str(e))
    return rows, failures


def _read_existing_rows(path):
    """Rows already flushed to an interrupted trials CSV (complete lines only)."""
    text = path.read_text(encoding="utf-8")
    if not text:
        return []
    lines = text.split("\n")
    if lines[-1] != "":
        lines = lines[:-1]  # drop a partially written final line
    if not lines or lines[0] != ",".join(TRIAL_COLUMNS):
        raise ValueError(f"{path} does not start with the expected header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(TRIAL_COLUMNS):
            break
        rows.append(dict(zip(TRIAL_COLUMNS, parts)))
    return rows


def _row_key(row):
    return (row["scheme"], str(row["K"]), str(row["M"]), str(row["B"]),
            str(row["trial_index"]))


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    """Make glibc keep freed memory in the heap for the next trial.

    Every trial allocates and frees the same few MB of (M, N) arrays; by
    default glibc trims that memory from the top of the heap back to the
    kernel, and the next trial page-faults it in again (about 340 minor
    faults per fig2 trial).  A 64 MiB trim threshold keeps it.  Setting any
    threshold turns off glibc's dynamic mmap threshold, which would freeze
    it at its 128 KiB start value and serve every array of a few hundred KiB
    from a fresh ``mmap``, so the mmap threshold is raised to its 64-bit
    maximum, 32 MiB, first.  Process-wide and not undone; does nothing
    where glibc's ``mallopt`` is not available.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a refused mmap threshold (0) leaves the dynamic one, and so both, alone
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def run_sweep(cfg, output_dir, workers=1, resume=False, preset=None):
    """Run the configured Cartesian sweep and write the dataset.

    Output: ``trials.csv`` (one row per trial per scheme, flushed
    incrementally in deterministic order), ``summary.csv`` (per-point
    aggregates) and ``manifest.json``.  Returns the summary rows.

    Side effect: on glibc the calling process (and the pool workers it
    forks) keeps freed memory in its heap from then on instead of returning
    it to the kernel (see ``_keep_freed_heap``).  This saves the page faults
    of re-allocating every trial's arrays; the setting is not undone.
    """
    cfg.validate()
    _keep_freed_heap()
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_path = out / TRIALS_CSV
    started = time.time()

    points = sweep_points(cfg)
    existing_rows = []
    if resume and trials_path.exists():
        existing_rows = _read_existing_rows(trials_path)
        existing_rows = _trim_to_whole_trials(existing_rows, cfg, points)
        with open(trials_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(TRIAL_COLUMNS) + "\n")
            for row in existing_rows:
                fh.write(format_row(row, TRIAL_COLUMNS))
    done_keys = {_row_key(r) for r in existing_rows}

    tasks = []
    for pt_idx, (m, b, k) in enumerate(points):
        pending = [
            i for i in range(cfg.trials)
            if (SCHEME_SINGLE_RF, str(k), str(m), b_label(b), str(i)) not in done_keys
        ]
        tasks.append((pt_idx, m, b, k, pending))

    collected = {}
    failures_by_point = {}
    next_point = [0]

    def _flush_ready(fh):
        while next_point[0] < len(points) and next_point[0] in collected:
            for row in collected.pop(next_point[0]):
                fh.write(format_row(row, TRIAL_COLUMNS))
            fh.flush()
            next_point[0] += 1

    mode = "a" if existing_rows else "w"
    with open(trials_path, mode, encoding="utf-8", newline="") as fh:
        if not existing_rows:
            fh.write(",".join(TRIAL_COLUMNS) + "\n")
        if workers <= 1:
            for pt_idx, m, b, k, pending in tasks:
                rows, failures = _point_rows(cfg.to_dict(), m, b_label(b), k, pending)
                collected[pt_idx] = rows
                failures_by_point[pt_idx] = failures
                _flush_ready(fh)
        else:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(
                        _point_rows, cfg.to_dict(), m, b_label(b), k, pending
                    ): pt_idx
                    for pt_idx, m, b, k, pending in tasks
                }
                for future in as_completed(futures):
                    pt_idx = futures[future]
                    rows, failures = future.result()
                    collected[pt_idx] = rows
                    failures_by_point[pt_idx] = failures
                    _flush_ready(fh)
    all_failures = [
        msg for pt_idx in range(len(points))
        for msg in failures_by_point.get(pt_idx, [])
    ]

    final_rows = _read_existing_rows(trials_path)
    summary = summarize(final_rows, cfg)
    with open(out / SUMMARY_CSV, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in summary:
            fh.write(format_row(row, SUMMARY_COLUMNS))

    manifest = {
        "config": cfg.to_dict(),
        "preset": preset,
        "package_version": __version__,
        "workers": workers,
        "resumed": bool(existing_rows),
        "started_utc": _dt.datetime.fromtimestamp(
            started, _dt.timezone.utc
        ).isoformat(),
        "duration_seconds": time.time() - started,
        "points": [
            {"M": m, "B": b_label(b), "K": k, "trials": cfg.trials}
            for m, b, k in points
        ],
        "failures": all_failures,
        "files": {"trials": TRIALS_CSV, "summary": SUMMARY_CSV},
    }
    with open(out / MANIFEST_JSON, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    for failure in all_failures:
        print(f"warning: {failure}", file=sys.stderr)
    return summary


def _trim_to_whole_trials(existing_rows, cfg, points):
    """Validate a resumed file as a plan prefix and drop a half-written trial."""
    planned = []
    for m, b, k in points:
        for idx in range(cfg.trials):
            seed = derive_trial_streams(cfg.master_seed, k, m, b, idx)[0]
            for scheme in cfg.schemes:
                planned.append(((scheme, str(k), str(m), b_label(b), str(idx)),
                                str(seed)))
    got = [(_row_key(r), r["trial_seed"]) for r in existing_rows]
    if got != planned[: len(got)]:
        raise ValueError(
            "existing trials.csv is not a prefix of this sweep's plan; "
            "use a fresh output directory"
        )
    whole = (len(got) // len(cfg.schemes)) * len(cfg.schemes)
    return existing_rows[:whole]


def summarize(rows, cfg):
    """Per-point aggregates (dB and linear domain) from trial rows."""
    groups = {}
    for row in rows:
        key = (row["scheme"], row["K"], row["M"], row["B"])
        groups.setdefault(key, []).append(row)
    order = []
    for m, b, k in sweep_points(cfg):
        for scheme in cfg.schemes:
            order.append((scheme, str(k), str(m), b_label(b)))
    summary = []
    for key in order:
        if key not in groups:
            continue
        bucket = groups[key]
        d_db = np.array([float(r["D_dB"]) for r in bucket])
        d_lin = np.array([float(r["D_linear"]) for r in bucket])
        papr_db = np.array([float(r["PAPR_dB"]) for r in bucket])
        summary.append({
            "scheme": key[0],
            "K": key[1],
            "M": key[2],
            "B": key[3],
            "n_trials": len(bucket),
            "D_dB_mean": float(np.mean(d_db)),
            "D_dB_std": float(np.std(d_db, ddof=1)) if len(bucket) > 1 else 0.0,
            "D_linear_mean": float(np.mean(d_lin)),
            "D_linear_std": float(np.std(d_lin, ddof=1)) if len(bucket) > 1 else 0.0,
            "P_out_mean": float(np.mean([float(r["P_out"]) for r in bucket])),
            "PAPR_dB_mean": float(np.mean(papr_db)),
            "PAPR_dB_std": float(np.std(papr_db, ddof=1)) if len(bucket) > 1 else 0.0,
            "PAPR_linear_mean": float(
                np.mean([10.0 ** (v / 10.0) for v in papr_db])
            ),
            "iterations_mean": _finite_mean(
                [float(r["iterations_mean"]) for r in bucket]
            ),
            "converged_fraction": _finite_mean(
                [float(r["converged_fraction"]) for r in bucket]
            ),
        })
    return summary


def _finite_mean(values):
    finite = [v for v in values if not math.isnan(v)]
    return float(np.mean(finite)) if finite else float("nan")


def preset_config(name, trials=None, master_seed=None):
    """The three figure-reproduction sweeps."""
    overrides = {}
    if trials is not None:
        overrides["trials"] = trials
    if master_seed is not None:
        overrides["master_seed"] = master_seed
    if name == "fig2":
        return SimConfig(
            m_list=(64, 121, 225), b_list=(4,),
            schemes=(SCHEME_SINGLE_RF, SCHEME_MF), **overrides
        ).validate()
    if name == "fig3":
        return SimConfig(
            m_list=(64, 121, 225), b_list=(4,),
            schemes=(SCHEME_SINGLE_RF,), **overrides
        ).validate()
    if name == "fig4":
        return SimConfig(
            m_list=(64,), b_list=(1, 2, 4, None),
            schemes=(SCHEME_SINGLE_RF,), **overrides
        ).validate()
    raise ConfigError("preset", f"unknown preset {name!r}")
