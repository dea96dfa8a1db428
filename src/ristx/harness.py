"""Seeded Monte-Carlo driver: sweeps over users, surface sizes and phase
resolution, orchestrating geometry -> channel -> solver -> metrics ->
benchmark, and writing per-trial CSV rows plus aggregates and a manifest.

Reproducibility contract: every trial's random streams derive purely from
(master_seed, K, M, B, trial_index), so results do not depend on execution
order or worker count, and a stopped sweep resumes at its first unrun point.
"""

from __future__ import annotations

import contextlib
import ctypes
import datetime as _dt
import functools
import itertools
import json
import math
import os
import signal
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import mf_post_gains, mf_precode_block
from .channel import assemble_channel, compensating_gains, draw_fading, draw_users
from .geometry import propagation_coeffs
from .metrics import average_power, db10, distortion, papr, transmit_block
from .solver import (
    MAX_CODEBOOK_BITS,
    EffectiveMatrix,
    PhaseCodebook,
    solve_block,
)

SCHEME_SINGLE_RF = "single_rf"
SCHEME_MF = "mf_digital"
SCHEMES = (SCHEME_SINGLE_RF, SCHEME_MF)  # the order in which a trial emits them

TRIALS_CSV = "trials.csv"
SUMMARY_CSV = "summary.csv"
MANIFEST_JSON = "manifest.json"

# Largest shadowing spread a config may ask for.  Typical log-normal spreads
# are 4-12 dB; far wider ones push path gains past the float range, and the
# distortion of the matched-filter benchmark turns non-finite.
MAX_SHADOW_STD_DB = 100

# Largest surface a config may ask for, a 256 x 256 grid, and most entries a
# (K, M), (K, N) or (M, N) array of a trial may hold: 128 MiB of complex128,
# the (M, N) block at M = MAX_ELEMENTS and N = 128.
MAX_ELEMENTS = 2**16
MAX_BLOCK_ENTRIES = 2**23

TRIAL_COLUMNS = (
    "scheme", "K", "M", "B", "trial_index", "trial_seed",
    "D_dB", "D_linear", "D_floored", "P_out", "PAPR_dB",
    "iterations_mean", "converged_fraction",
)


def _sample_std(values):
    return np.std(values, ddof=1) if len(values) > 1 else 0.0


# summary column -> (trials column, statistic over a point's trials)
_SUMMARY_STATS = {
    "D_dB_mean": ("D_dB", np.mean),
    "D_dB_std": ("D_dB", _sample_std),
    "D_linear_mean": ("D_linear", np.mean),
    "D_linear_std": ("D_linear", _sample_std),
    "P_out_mean": ("P_out", np.mean),
    "PAPR_dB_mean": ("PAPR_dB", np.mean),
    "PAPR_dB_std": ("PAPR_dB", _sample_std),
    # per-trial scalar powers: a vectorized power may round the last bit apart
    "PAPR_linear_mean": ("PAPR_dB", lambda x: np.mean([10.0 ** (v / 10.0) for v in x])),
    "iterations_mean": ("iterations_mean", np.mean),
    "converged_fraction": ("converged_fraction", np.mean),
}
SUMMARY_COLUMNS = ("scheme", "K", "M", "B", "n_trials", *_SUMMARY_STATS)


class ConfigError(ValueError):
    """Invalid simulation configuration; `field` names the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class SimConfig:
    """Full experiment configuration; defaults match the reference setup."""

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
    schemes: tuple = SCHEMES

    def __post_init__(self):
        """Store each field in canonical form (ints, floats, tuples, schemes
        in ``SCHEMES`` order) if it fits its row of ``_FIELDS``, no array
        lists an entry twice and ``_check_rules`` passes; else raise a
        ``ConfigError`` naming the first field that does not.  This runs on
        every construction, ``dataclasses.replace`` included."""
        for name, spec in self.__dataclass_fields__.items():
            kind, ok, description = _FIELDS[name]
            value = getattr(self, name)
            if value is None and spec.default is None:
                continue
            if isinstance(kind, list):
                if not isinstance(value, (list, tuple)):
                    raise ConfigError(name, "must be a JSON array")
                if not value:
                    raise ConfigError(name, "must not be empty")
                value = tuple(_fit(name, kind[0], ok, description, v) for v in value)
                if len(set(value)) < len(value):
                    raise ConfigError(name, "lists an entry twice")
            else:
                value = _fit(name, kind, ok, description, value)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "schemes",
                           tuple(sorted(self.schemes, key=SCHEMES.index)))
        _check_rules(self)

    def to_dict(self):
        """JSON-ready fields: arrays as lists, the continuous codebook as
        ``"continuous"``."""
        return {
            name: ["continuous" if v is None else v for v in value]
            if isinstance(value, tuple) else value
            for name, value in asdict(self).items()
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        unknown = [k for k in data if k not in _FIELDS]
        if unknown:
            raise ConfigError(unknown[0], "unknown config field")
        return cls(**data)

    def feed_distance_for(self, num_elements):
        if self.feed_distance is not None:
            return self.feed_distance
        return self.wavelength * math.sqrt(num_elements / math.pi)


# Field kinds: each returns the value in canonical form or raises TypeError.
def _real(value):
    """A finite real, not a bool, as ``float``."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise TypeError
    return float(value)


def _whole(value):
    """A whole number, not a bool, as ``int``: JSON ``4.0`` is ``4``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if not _real(value).is_integer():
        raise TypeError
    return int(value)


def _bits(value):
    """A bit depth, also as a digit string (``ristx trial -B 4``), or the
    continuous codebook ``None``, also spelled "continuous" or "inf"."""
    if isinstance(value, str):
        if value in ("continuous", "inf"):
            return None
        if value.isascii() and value.isdigit():
            return int(value)
    return None if value is None else _whole(value)


def _text(value):
    """A string, kept as it is."""
    if not isinstance(value, str):
        raise TypeError
    return value


def _fit(name, kind, ok, description, value):
    """``value`` in the canonical form of ``kind``, if that meets ``ok``."""
    try:
        canonical = kind(value)
        if ok(canonical):
            return canonical
    except (TypeError, OverflowError):
        pass
    raise ConfigError(name, f"{value!r} is not {description}")


# field -> (kind, constraint, description).  The kind of an array field is
# written [item kind]; its constraint and description apply to every entry.
# A null value is allowed exactly where the default is None.
_FIELDS = {
    "wavelength": (_real, lambda v: v > 0, "a positive real"),
    "m_list": ([_whole], lambda m: 1 <= m <= MAX_ELEMENTS and math.isqrt(m) ** 2 == m,
               f"a positive perfect square up to {MAX_ELEMENTS}"),
    "feed_distance": (_real, lambda v: v > 0, "a positive real or null"),
    "zeta_db": (_real, lambda z: z <= 0 and 10.0 ** (z / 10.0) > 0,
                "a real <= 0 dB (an efficiency in (0, 1])"),
    "feed_beamwidth_deg": (_real, lambda v: 0 < v <= 180, "a real in (0, 180]"),
    "b_list": ([_bits], lambda b: b is None or 1 <= b <= MAX_CODEBOOK_BITS,
               f"a bit depth in 1..{MAX_CODEBOOK_BITS} or 'continuous'"),
    "k_list": ([_whole], lambda v: v > 0, "a positive whole number"),
    "num_intervals": (_whole, lambda v: v > 0, "a positive whole number"),
    "path_loss_exponent": (_real, lambda v: v > 0, "a positive real"),
    "shadow_std_db": (_real, lambda v: v >= 0, "a nonnegative real"),
    "r_min": (_real, lambda v: v > 0, "a positive real"),
    "r_max": (_real, lambda v: v > 0, "a positive real"),
    "trials": (_whole, lambda v: v > 0, "a positive whole number"),
    "master_seed": (_whole, lambda v: v >= 0, "a nonnegative whole number"),
    "schemes": ([_text], lambda s: s in SCHEMES,
                f"a scheme ('{SCHEME_SINGLE_RF}' or '{SCHEME_MF}')"),
}


# The normal float range less a headroom of 2**64 at each end: see _check_rules.
_SCALE_RANGE = (np.finfo(float).tiny * 2.0**64, np.finfo(float).max / 2.0**64)

# Shadowing draws more than this many standard deviations below 0 dB are
# taken never to occur: the odds are below 1e-23 per user.
_SHADOW_SIGMAS = 10


def _check_rules(cfg):
    """Raise a ``ConfigError`` naming the field of the first rule across
    fields that ``cfg`` breaks; each field already fits its ``_FIELDS`` row.

    User distances are drawn through ``r_max**2``, and the receive gains
    divide by the root of the path gain, whose weakest value, ``(r_max /
    r_min)**-path_loss_exponent`` at ``-_SHADOW_SIGMAS`` standard deviations
    of shadowing, must stay above the floor of ``_SCALE_RANGE``.

    Every trial at a surface size fails if the feed beam misses an element
    or ``attenuation**2``, the scale of the effective matrix, leaves
    ``_SCALE_RANGE``.  A trial sums K * M such squares into ||Heff @ w||^2
    and its spectral norm, and the squared feed gain reaches
    1 / (eps * scale) before the solver's zero-norm guard stops it; the
    headroom of 2**64 covers both (1 / eps is 2**52) with room for the
    fading and symbol draws.  The blame goes to the geometry's
    ``attenuation**2`` at unit efficiency first, then to ``zeta_db``.  The
    geometry is ``feed_distance`` when its square leaves the float range,
    else ``wavelength``: the element pitch, and the feed distance too when
    that is null.  Last, no trial array may exceed ``MAX_BLOCK_ENTRIES``."""
    if cfg.r_max <= cfg.r_min:
        raise ConfigError("r_max", "must exceed r_min")
    if cfg.shadow_std_db > MAX_SHADOW_STD_DB:
        raise ConfigError("shadow_std_db", f"must be at most {MAX_SHADOW_STD_DB} dB")
    try:
        weakest = (10.0 ** (-_SHADOW_SIGMAS * cfg.shadow_std_db / 10.0)
                   / (cfg.r_max / cfg.r_min) ** cfg.path_loss_exponent)
        fits = math.isfinite(cfg.r_max**2) and weakest >= _SCALE_RANGE[0]
    except OverflowError:
        fits = False
    if not fits:
        raise ConfigError("r_max", (
            "is too large: r_max**2 overflows, or (r_max / r_min)**path_loss_exponent "
            f"at {_SHADOW_SIGMAS} sigma of shadowing leaves the float range"))
    if cfg.r_min**2 < sys.float_info.min:
        raise ConfigError("r_min", "is too small: r_min**2 underflows")
    if SCHEME_SINGLE_RF not in cfg.schemes:
        raise ConfigError("schemes", "the single-RF scheme is required "
                                     "(the benchmark power-matches against it)")
    fd = cfg.feed_distance
    geometry = "wavelength" if fd is None or 0 < fd * fd < math.inf else "feed_distance"
    efficiency = 10.0 ** (cfg.zeta_db / 10.0)
    for m in cfg.m_list:
        try:
            with np.errstate(all="ignore"):
                attenuation = propagation_coeffs(
                    m, cfg.wavelength, cfg.feed_distance_for(m),
                    math.radians(cfg.feed_beamwidth_deg), 1.0).attenuation
        except ValueError as e:  # an element outside the feed beam
            raise ConfigError("feed_beamwidth_deg",
                              f"leaves the M={m} surface partly unlit: {e}") from None
        except OverflowError:
            attenuation = np.inf
        with np.errstate(all="ignore"):
            scale = attenuation**2
            for name, value in ((geometry, scale), ("zeta_db", scale * efficiency)):
                if not np.all((value >= _SCALE_RANGE[0]) & (value <= _SCALE_RANGE[1])):
                    raise ConfigError(name, f"puts the M={m} surface outside the float range")
    m_max = max(cfg.m_list)
    if m_max * cfg.num_intervals > MAX_BLOCK_ENTRIES:
        raise ConfigError("num_intervals", "is too large: max(m_list) * num_intervals "
                                           f"exceeds {MAX_BLOCK_ENTRIES} entries")
    if max(cfg.k_list) * max(m_max, cfg.num_intervals) > MAX_BLOCK_ENTRIES:
        raise ConfigError("k_list", "is too large: max(k_list) * max(max(m_list), "
                                    f"num_intervals) exceeds {MAX_BLOCK_ENTRIES} entries")


def b_label(b):
    return "inf" if b is None else str(int(b))


def build_surface(cfg, num_elements):
    """Surface model for one size under the configured feed geometry."""
    return propagation_coeffs(
        num_elements, cfg.wavelength, cfg.feed_distance_for(num_elements),
        math.radians(cfg.feed_beamwidth_deg), 10.0 ** (cfg.zeta_db / 10.0),
    )


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


def trial_result(scheme, key, d_linear, p_out, papr_linear,
                 iterations_mean=math.nan, converged_fraction=math.nan):
    """The ``TRIAL_COLUMNS`` row of one scheme's result in one trial, whose
    (K, M, B, trial_index, trial_seed) columns are ``key``.  The dB forms
    come from ``db10``: a zero distortion reads -200 dB, with ``D_floored``
    1."""
    d_db, floored = db10(d_linear)
    return dict(zip(TRIAL_COLUMNS, (
        scheme, *key, d_db, float(d_linear), int(floored), float(p_out),
        db10(papr_linear)[0], float(iterations_mean), float(converged_fraction),
    ), strict=True))


def run_trial(cfg, num_users, num_elements, b, trial_index, surface=None,
              with_record=False):
    """Run one channel realization end to end.

    Returns (rows, record): the ``TRIAL_COLUMNS`` row of each configured
    scheme, and a JSON-serializable trial record, whose ``results`` are those
    rows, when ``with_record`` is set (else None).  The point is read first,
    as the config reads ``k_list``, ``m_list`` and ``b_list`` entries and a
    whole ``trial_index`` >= 0: ``2.0`` is 2, ``"continuous"`` is None, and
    anything else raises a ``ConfigError`` naming the argument.  The stages
    trust the point, and ``surface`` to match it.  Any other error
    propagates as the failing module raised it; a sweep labels it with the
    sweep point (see ``run_sweep``).  Side effect: the first trial in a
    process keeps freed heap and one BLAS thread (``_trial_process``).
    """
    num_users = _fit("num_users", _whole, *_FIELDS["k_list"][1:], num_users)
    num_elements = _fit("num_elements", _whole, *_FIELDS["m_list"][1:], num_elements)
    b = _fit("b", _bits, *_FIELDS["b_list"][1:], b)
    trial_index = _fit("trial_index", _whole, lambda v: v >= 0, "a whole number >= 0",
                       trial_index)
    _trial_process()
    if surface is None:
        surface = build_surface(cfg, num_elements)
    trial_seed, users_rng, fading_rng, symbols_rng = derive_trial_streams(
        cfg.master_seed, num_users, num_elements, b, trial_index
    )
    users = draw_users(num_users, cfg, users_rng)
    channel = assemble_channel(users, draw_fading(num_users, num_elements, fading_rng))
    gains = compensating_gains(users)
    # Information symbols share the i.i.d. unit-variance complex normal recipe.
    symbols = draw_fading(num_users, cfg.num_intervals, symbols_rng)

    # Each (M, N) block is dropped after its last use: the solution's w once
    # x_rf is built, and x_rf once the radiated power is taken.
    sol = solve_block(EffectiveMatrix.build(gains, channel, surface), symbols,
                      PhaseCodebook(b))
    x_rf = transmit_block(surface, sol.w, sol.gains)
    feed_gains, iterations, converged, negative_events = (
        sol.gains, sol.iterations, sol.converged, sol.negative_gain_events)
    del sol
    d_rf = distortion(symbols, gains, channel, x_rf)
    p_out = average_power(feed_gains)
    papr_rf = papr(feed_gains)
    key = (num_users, num_elements, b_label(b), trial_index, trial_seed)
    rows = [
        trial_result(SCHEME_SINGLE_RF, key, d_rf, p_out, papr_rf,
                     iterations_mean=np.mean(iterations),
                     converged_fraction=np.mean(converged))
    ]

    if SCHEME_MF in cfg.schemes:
        radiated = np.einsum("ij,ij->j", x_rf.conj(), x_rf).real
        del x_rf
        x_mf, scales = mf_precode_block(channel, symbols, radiated)
        gains_mf = mf_post_gains(users, num_elements, float(np.mean(scales)))
        d_mf = distortion(symbols, gains_mf, channel, x_mf)
        p_mf = np.mean(radiated)
        rows.append(trial_result(SCHEME_MF, key, d_mf, p_out=p_mf,
                                 papr_linear=np.max(radiated) / p_mf))

    record = None
    if with_record:
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
                    {"r_k": d, "alpha_k_dB": 10.0 * math.log10(s)}
                    for d, s in zip(users.distance.tolist(), users.shadowing.tolist())
                ],
            },
            "surface": {
                "M": num_elements,
                "lambda_m": cfg.wavelength,
                "R_d_m": cfg.feed_distance_for(num_elements),
                "zeta": 10.0 ** (cfg.zeta_db / 10.0),
                "T": surface.attenuation.tolist(),
                "omega": surface.phase.tolist(),
            },
            "solver": {
                "iterations": iterations.tolist(),
                "converged": converged.tolist(),
                "negative_gain_events": negative_events.tolist(),
            },
            "results": rows,
        }
    return rows, record


def trial_rows(cfg, num_users, num_elements, b, trial_index, surface=None):
    """CSV row dicts (one per scheme) for a single trial."""
    return run_trial(cfg, num_users, num_elements, b, trial_index, surface)[0]


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


def _point_rows(cfg, num_elements, b, num_users):
    """Worker entry: the rows of one whole sweep point (picklable arguments
    only).  A trial that raises ends the point with a ``RuntimeError``
    "trial failed at K=.. M=.. B=.. trial_index=..: <error>"."""
    surface = build_surface(cfg, num_elements)
    rows = []
    for idx in range(cfg.trials):
        try:
            rows.extend(trial_rows(cfg, num_users, num_elements, b, idx, surface))
        except Exception as e:
            raise RuntimeError(f"trial failed at K={num_users} M={num_elements} "
                               f"B={b_label(b)} trial_index={idx}: {e}") from e
    return rows


def _read_existing_rows(path):
    """Rows already flushed to an interrupted trials CSV (complete lines only)."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError("resume", f"{path} is not UTF-8 text: {e}") from e
    header = ",".join(TRIAL_COLUMNS) + "\n"
    if not (text.startswith(header) or header.startswith(text)):  # torn header too
        raise ConfigError("resume", f"{path} does not start with the expected header")
    rows = []
    for line in text.split("\n")[1:-1]:  # the last line is empty or torn
        parts = line.split(",")
        if len(parts) != len(TRIAL_COLUMNS):
            break
        rows.append(dict(zip(TRIAL_COLUMNS, parts)))
    return rows


def _planned_keys(cfg, points):
    """(scheme, K, M, B, trial_index, trial_seed) of each planned row, in
    order; lazy, so a caller derives seeds only for the rows it takes."""
    for m, b, k in points:
        for idx in range(cfg.trials):
            seed = str(derive_trial_streams(cfg.master_seed, k, m, b, idx)[0])
            for scheme in cfg.schemes:
                yield (scheme, str(k), str(m), b_label(b), str(idx), seed)


@functools.cache
def _code():
    """sha256 of this package's module sources: each file's name, a NUL
    byte, then its bytes, in name order."""
    import hashlib  # a slow import, which only a sweep needs

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _resumed_rows(out, cfg, points):
    """The whole points of ``out``'s ``trials.csv`` that a resume keeps, once
    its rows prove a prefix of ``cfg``'s plan.  If one would be kept, or a
    ``manifest.json`` exists, that must echo ``cfg`` (the plan keys hold no
    physics field) and this package's ``_code()``; a missing or unreadable
    one does not.  Else, or if ``trials.csv`` cannot be read, ConfigError."""
    path = out / TRIALS_CSV
    try:
        rows = _read_existing_rows(path) if path.exists() else []
    except OSError as e:
        raise ConfigError("resume", f"{path} cannot be read: {e}") from e
    got = [tuple(row[c] for c in TRIAL_COLUMNS[:6]) for row in rows]
    if got != list(itertools.islice(_planned_keys(cfg, points), len(got))):
        raise ConfigError("resume", f"{path} is not a prefix of this sweep's plan; "
                          "use a fresh output directory")
    kept = rows[: len(rows) - len(rows) % (cfg.trials * len(cfg.schemes))]
    manifest = out / MANIFEST_JSON
    if kept or manifest.exists():
        try:
            echo = json.loads(manifest.read_text(encoding="utf-8"))
            same = SimConfig.from_dict(echo["config"]) == cfg and echo["code"] == _code()
        except (OSError, ValueError, KeyError, TypeError):
            same = False
        if not same:
            raise ConfigError("resume", f"{manifest} is missing, unreadable or written "
                              "under another config or by other ristx code; "
                              "use a fresh output directory")
    return kept


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


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


# thread-count setters of numpy's bundled OpenBLAS and of a system OpenBLAS
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_blas_threads():
    """Run every OpenBLAS loaded in this process on one thread.

    A sweep's throughput comes from its worker processes; BLAS threads on
    top of them oversubscribe the cores, and a product's last bits depend
    on how many threads split it.  Once its count is one, an OpenBLAS that
    exports ``blas_thread_shutdown_`` also ends the threads of its thread
    server, so that a pool forks a single-threaded process.  That is safe
    while other threads run numpy: with a count of one no BLAS call uses
    the server, and a caller that raises the count again starts it anew.
    Process-wide and not undone; does nothing where ``/proc/self/maps``
    shows no OpenBLAS with such a setter.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "openblas" in line.rpartition("/")[2].lower()}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # loaded already: this only finds it
        except OSError:
            continue
        setters = [getattr(lib, name) for name in _BLAS_THREAD_SETTERS if hasattr(lib, name)]
        for setter in setters:
            setter(1)
        if setters and hasattr(lib, "blas_thread_shutdown_"):
            lib.blas_thread_shutdown_()


@functools.cache
def _trial_process():
    """Keep freed heap and pin BLAS to one thread, once per process."""
    _keep_freed_heap()
    _pin_blas_threads()


def _ignore_stop_signals(sweep_pid):
    """Pool worker initializer: the main process acts on a stop signal, and
    as a SIGKILLed sweep runs no cleanup, a worker watches the sweep
    ``sweep_pid`` through a pidfd and exits once it is gone (at once if it
    is already gone), whatever the start method.  Does no more where
    ``os.pidfd_open`` is not available (not Linux, or Linux before 5.3).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    import select  # loaded in a pool worker
    import threading

    try:
        fd = os.pidfd_open(sweep_pid)
    except ProcessLookupError:
        os._exit(1)
    except (AttributeError, OSError):
        return
    threading.Thread(target=lambda: (select.select([fd], [], []), os._exit(1)),
                     daemon=True).start()


def run_sweep(cfg, output_dir, workers=1, resume=False, preset=None):
    """Run the configured Cartesian sweep and write the dataset.

    Output: ``trials.csv`` (one row per trial per scheme, in plan order,
    flushed point by point, whatever the worker count), ``summary.csv``
    (per-point aggregates) and ``manifest.json``.  Returns the summary rows.
    With ``resume``, the whole points of an existing ``trials.csv`` are kept
    (see ``_resumed_rows``; a refusal names ``resume`` and writes nothing).
    The manifest is written once ``trials.csv`` holds only those rows, before
    the first trial, with ``duration_seconds`` null, and again at the end.
    Any exception that ends the sweep once the manifest is written, such as
    a failed trial (see ``_point_rows``), a pool worker that dies, an
    ``OSError`` or a ``KeyboardInterrupt`` (also while the pool starts),
    propagates once the manifest lists its message (or "interrupted") as
    the one entry of ``failures``, with ``duration_seconds`` still null and
    no ``summary.csv``.  Like any early stop, this leaves whole points of
    the plan, which ``resume`` completes.

    ``workers`` is read first, as the config reads a count: ``2.0`` is 2,
    and ``2.5``, ``True``, ``"2"`` or ``0`` raises a ``ConfigError`` naming
    ``workers`` before anything is written.  It is then capped at the
    number of points left to run, and a cap of 1 runs them in this
    process; the manifest records the count used.

    Side effects: the calling process is set up for trials before the pool,
    and forked workers inherit that (see ``_trial_process``): freed memory
    stays in the heap, and OpenBLAS runs on one thread.  Neither is undone.
    """
    workers = _fit("workers", _whole, lambda v: v > 0, "a positive whole number", workers)
    _trial_process()
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_path = out / TRIALS_CSV
    started = time.time()

    points = sweep_points(cfg)
    kept = _resumed_rows(out, cfg, points) if resume else []
    todo = points[len(kept) // (cfg.trials * len(cfg.schemes)):]
    # a forked pool starts all its workers at once: no more than can be busy
    workers = max(1, min(workers, len(todo)))

    manifest = {
        "config": cfg.to_dict(),
        "preset": preset,
        "package_version": __version__,
        "code": _code(),
        "workers": workers,
        "resumed": bool(kept),
        "started_utc": _dt.datetime.fromtimestamp(
            started, _dt.timezone.utc
        ).isoformat(),
        "duration_seconds": None,
        "failures": [],
    }
    manifest_path = out / MANIFEST_JSON
    (out / SUMMARY_CSV).unlink(missing_ok=True)  # an early stop leaves none
    with open(trials_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRIAL_COLUMNS) + "\n")
        fh.writelines(format_row(row, TRIAL_COLUMNS) for row in kept)
        fh.flush()  # before the manifest names this config
        try:
            _write_json(manifest_path, manifest)
            pool = contextlib.nullcontext()
            if workers > 1:
                from concurrent.futures import ProcessPoolExecutor  # a slow import

                pool = ProcessPoolExecutor(workers, initializer=_ignore_stop_signals,
                                           initargs=(os.getpid(),))
            with pool:
                point_map = pool.map if workers > 1 else map
                # a raising result cancels the points that have not started
                for rows in point_map(_point_rows, [cfg] * len(todo), *zip(*todo)):
                    fh.writelines(format_row(row, TRIAL_COLUMNS) for row in rows)
                    fh.flush()
        except BaseException as e:
            manifest["failures"].append(str(e) or "interrupted")
            _write_json(manifest_path, manifest)
            raise

    summary = summarize(_read_existing_rows(trials_path), cfg)
    with open(out / SUMMARY_CSV, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SUMMARY_COLUMNS) + "\n")
        for row in summary:
            fh.write(format_row(row, SUMMARY_COLUMNS))

    manifest["duration_seconds"] = time.time() - started
    _write_json(manifest_path, manifest)
    return summary


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
        bucket = groups[key]
        columns = {source: np.array([float(r[source]) for r in bucket])
                   for source, _ in _SUMMARY_STATS.values()}
        summary.append(dict(zip(SUMMARY_COLUMNS, (*key, len(bucket)))) | {
            name: float(stat(columns[source]))
            for name, (source, stat) in _SUMMARY_STATS.items()
        })
    return summary


# The figure-reproduction sweeps: the fields each sets, the rest default.
PRESETS = {
    "fig2": {"m_list": [64, 121, 225], "b_list": [4],
             "schemes": [SCHEME_SINGLE_RF, SCHEME_MF]},
    "fig3": {"m_list": [64, 121, 225], "b_list": [4], "schemes": [SCHEME_SINGLE_RF]},
    "fig4": {"m_list": [64], "b_list": [1, 2, 4, "continuous"],
             "schemes": [SCHEME_SINGLE_RF]},
}


def preset_config(name, trials=None, master_seed=None):
    """The three figure-reproduction sweeps."""
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}")
    overrides = {"trials": trials, "master_seed": master_seed}
    return SimConfig.from_dict(
        PRESETS[name] | {k: v for k, v in overrides.items() if v is not None}
    )
