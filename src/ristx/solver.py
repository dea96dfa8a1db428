"""Quantized-phase auto-scaled least-squares tuner.

Per transmission interval the transmitter needs a unit-modulus phase vector
``w`` (entries restricted to a discrete or continuous phase codebook) and a
real amplification gain ``A`` minimizing ``||s - A * Heff @ w||^2``, where
``Heff`` collects feed power, receive gains, channel and surface propagation.
The tuner is a projected gradient descent: closed-form gain update, gradient
step on the unconstrained transmit vector, projection onto the codebook by
nearest wrapped phase.

For a quantized codebook the projection finds the nearest phase in one
rounding pass over ``(angle + pi) / spacing``; only entries within 1e-9 of a
midpoint are decided again by the exact two-candidate distance comparison,
which fixes the tie and seam rule.  The iterate is carried as integer phase
indices into the codebook's precomputed ``exp(1j*phases)`` table, and the
returned ``w`` is taken from that table, not re-quantized.  The continuous
codebook carries the complex iterate itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDirectionError, DegenerateSymbolError
from .geometry import wrap_phase

GAIN_FLOOR = 1e-12  # step-size guard when the gain update stalls at <= 0


@dataclass(frozen=True)
class PhaseCodebook:
    """Set of phases available to each reflecting element.

    ``bits=B`` gives the 2**B uniformly spaced phases -pi + i*pi/2**(B-1),
    i = 0..2**B-1 (spacing pi/2**(B-1), all in [-pi, pi)), and ``unit``
    their points exp(1j*phases) on the unit circle.  ``bits=None`` is the
    continuous limit, i.e. any phase in [-pi, pi].
    """

    bits: int | None
    phases: np.ndarray | None = field(default=None, init=False, compare=False)
    unit: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.bits is None:
            return
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        table = -np.pi + np.arange(2**self.bits) * (np.pi / 2 ** (self.bits - 1))
        object.__setattr__(self, "phases", table)
        object.__setattr__(self, "unit", np.exp(1j * table))

    @classmethod
    def quantized(cls, bits):
        return cls(int(bits))

    @classmethod
    def continuous(cls):
        return cls(None)

    @property
    def is_continuous(self):
        return self.bits is None


def quantize_phases(values, codebook):
    """Project complex values entrywise onto the codebook's unit circle.

    For a quantized codebook each entry maps to ``codebook.unit[i]``, with
    phase ``i`` the codebook phase of smallest wrapped angular distance to
    the entry's phase, found by one rounding pass (see ``_nearest_index``);
    exact midpoints resolve to the smaller phase value.  The continuous
    codebook divides by the modulus.  Zero entries take the first (lowest)
    codebook phase, -pi.
    """
    values = np.asarray(values, dtype=complex)
    return _project(values.reshape(-1), codebook)[0].reshape(values.shape)


def _project(values, codebook):
    """``(w, state)``: the projection of ``values`` and the iterate to carry.

    ``state`` is the int index array into ``codebook.unit`` for a quantized
    codebook, and ``w`` itself for the continuous one.
    """
    if codebook.is_continuous:
        w = np.where(values == 0, np.exp(-1j * np.pi), values)
        w = w / np.abs(w)
        return w, w
    idx = _nearest_index(np.angle(values), codebook)
    idx[values == 0] = 0
    return codebook.unit[idx], idx


def _unit(state, codebook):
    """Unit-modulus iterate ``w`` of a carried state (see ``_project``)."""
    return state if codebook.is_continuous else codebook.unit[state]


def _nearest_index(angles, codebook):
    """Index of the wrapped-nearest codebook phase, smaller phase on ties.

    Equivalent to an exhaustive argmin of |wrap_phase(phase - angle)| over
    the codebook (first minimum wins).  One rounding pass does the work:
    the nearest slot is ``x = (angle + pi) / spacing`` rounded to the
    nearest integer, with slot ``levels`` (angle near +pi) wrapping to 0.
    Entries whose ``x`` lies within the tie band of a half-integer (1e-9,
    widened for very fine codebooks to cover the rounding error of ``x``),
    and NaN entries, are decided again by comparing the wrapped distances
    to the two bracketing slots (``_bracket_index``), which fixes exact
    midpoints and the seam.  ``angles`` must be an array of dimension >= 1.
    """
    levels = codebook.phases.shape[0]
    band = max(1e-9, 64 * levels * np.finfo(float).eps)
    x = angles + np.pi
    x *= 2 ** (codebook.bits - 1) / np.pi
    nearest = np.rint(x)
    idx = nearest.astype(np.intp)
    idx &= levels - 1  # levels is a power of two: wraps slot levels to 0
    x -= nearest
    np.abs(x, out=x)
    near_tie = ~(x <= 0.5 - band)
    if np.any(near_tie):
        idx[near_tie] = _bracket_index(angles[near_tie], codebook)
    return idx


def _bracket_index(angles, codebook):
    """Nearer of the two slots bracketing each angle, by wrapped distance.

    Every other slot is at least half a spacing further away, so this is
    the exhaustive argmin.
    """
    table = codebook.phases
    levels = table.shape[0]
    spacing = np.pi / 2 ** (codebook.bits - 1)
    lo = np.clip(np.floor((angles + np.pi) / spacing).astype(np.int64), 0, levels - 1)
    hi = np.where(lo + 1 == levels, 0, lo + 1)
    d_lo = np.abs(wrap_phase(table[lo] - angles))
    d_hi = np.abs(wrap_phase(table[hi] - angles))
    # ties go to the smaller index; the seam pair (levels-1, 0) inverts that
    lo_wins = np.where(hi == 0, d_lo < d_hi, d_lo <= d_hi)
    return np.where(lo_wins, lo, hi)


@dataclass(frozen=True)
class EffectiveMatrix:
    """Effective regressor matrix with its reusable factorizations.

    The matrix is sqrt(P) * diag(receive gains) @ channel @ diag(surface
    coefficients); its pseudo-inverse seeds the per-interval iteration and
    its squared spectral norm scales every step size, so both are computed
    once per channel realization and cached here.
    """

    matrix: np.ndarray
    spectral_norm_sq: float
    pseudo_inverse: np.ndarray

    @classmethod
    def from_matrix(cls, matrix):
        """Cache the factorizations of a nonzero matrix."""
        matrix = np.asarray(matrix, dtype=complex)
        if not np.any(matrix):
            raise DegenerateDirectionError("spectral norm of a zero matrix")
        norm_sq = float(np.linalg.svd(matrix, compute_uv=False)[0] ** 2)
        return cls(matrix, norm_sq, np.linalg.pinv(matrix))

    @classmethod
    def build(cls, feed_power, post_gains, channel_matrix, surface):
        """Assemble from the physical factors of one realization."""
        if not feed_power > 0.0:
            raise ValueError("feed_power must be positive")
        coeffs = surface.complex_coeffs()
        gains = np.asarray(post_gains)
        scaled = gains[:, None] * np.asarray(channel_matrix)
        return cls.from_matrix(np.sqrt(feed_power) * scaled * coeffs[None, :])


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs of the gradient-projection loop.

    ``step_scale`` is the base step factor in (0, 1).  ``change_threshold``
    stops the loop once the squared iterate change falls below it; ``None``
    resolves to 1.25e-3 per element.  The default is calibrated so that the
    continuous codebook stops after the handful of passes that reproduces
    the reference distortion curves, while quantized codebooks are barely
    affected: a discrete codebook changes by at least 2 - 2*cos(pi/2**(B-1))
    per moved element and therefore keeps iterating until (almost) no
    element moves.  ``max_iterations`` caps the update count.  With
    ``track_best`` the solver returns the best (w, A) pair it visited
    instead of the raw last iterate.
    """

    step_scale: float = 0.5
    change_threshold: float | None = None
    max_iterations: int = 1000
    track_best: bool = True

    def resolved_threshold(self, num_elements):
        if self.change_threshold is not None:
            return self.change_threshold
        return 1.25e-3 * num_elements


def _seed(eff, symbols, codebook):
    """``(w, state)`` of the seed iterate (see ``_project``): the quantized
    entrywise phases of the pseudo-inverse image.

    Entries of ``pinv @ s`` are normalized by their own modulus before
    quantization; exact zeros take phase 0 there (and are then quantized).
    """
    raw = eff.pseudo_inverse @ symbols
    mags = np.abs(raw)
    unit = np.divide(raw, mags, out=np.ones_like(raw), where=mags > 0)
    return _project(unit, codebook)


def _guarded_step(step_scale, gains, spectral_sq):
    """Vectorized step sizes with the non-positive-gain guard applied.

    Gains <= 0 would flip or blow up the literal rule, so their magnitude
    (floored at GAIN_FLOOR) is used instead and the event is reported.
    """
    gains = np.asarray(gains, dtype=float)
    bad = gains <= 0.0
    safe = np.where(bad, np.maximum(np.abs(gains), GAIN_FLOOR), gains)
    return step_scale / (safe * spectral_sq), bad


@dataclass(frozen=True)
class TuningSolution:
    """Solver output for a single interval."""

    w: np.ndarray              # (M,) unit-modulus codebook entries
    gain: float                # amplification gain A
    iterations: int
    final_objective: float     # ||s - A * Heff @ w||^2 of the returned pair
    converged: bool            # stopped by threshold rather than iteration cap
    negative_gain_events: int


@dataclass(frozen=True)
class BlockSolution:
    """Per-interval solver outputs for a block of symbol columns."""

    w: np.ndarray                    # (M, N) unit-modulus codebook entries
    gains: np.ndarray                # (N,)
    iterations: np.ndarray           # (N,) int
    final_objectives: np.ndarray     # (N,)
    converged: np.ndarray            # (N,) bool
    negative_gain_events: np.ndarray  # (N,) int

    def interval(self, n):
        return TuningSolution(
            w=self.w[:, n].copy(),
            gain=float(self.gains[n]),
            iterations=int(self.iterations[n]),
            final_objective=float(self.final_objectives[n]),
            converged=bool(self.converged[n]),
            negative_gain_events=int(self.negative_gain_events[n]),
        )


def _column_norms_sq(block):
    return np.einsum("ij,ij->j", block.conj(), block).real


def _gain_and_objective(eff, w_block, s_block):
    """Optimal gains and resulting objectives for every column at once."""
    projected = eff.matrix @ w_block
    denom = _column_norms_sq(projected)
    if np.any(denom < np.finfo(float).eps):
        raise DegenerateDirectionError("Heff @ w has (numerically) zero norm")
    gains = np.einsum("ij,ij->j", projected.conj(), s_block).real / denom
    residual = s_block - projected * gains[None, :]
    return gains, residual, _column_norms_sq(residual)


def solve_block(eff, symbols, codebook, options=None):
    """Tune gain and phases for every column of a symbol block.

    Columns share the effective matrix but are otherwise independent
    problems; batching them turns the per-iteration work into a handful of
    matrix products.  Columns leave the active set as soon as they stop, so
    results equal those of solving each column on its own to about 1e-14,
    not bit for bit: a BLAS matrix product rounds a column differently
    depending on how many columns the product has.  For a fixed block width
    (``num_intervals``) and BLAS thread count the bytes are deterministic.
    """
    options = options or SolverOptions()
    # C order, like the column subsets taken later in the loop
    s_block = np.ascontiguousarray(symbols, dtype=complex)
    if s_block.ndim == 1:
        s_block = s_block[:, None]
    if s_block.shape[0] != eff.matrix.shape[0]:
        raise ValueError(
            f"symbol rows {s_block.shape[0]} != matrix rows {eff.matrix.shape[0]}"
        )
    if np.any(~np.any(s_block, axis=0)):
        raise DegenerateSymbolError("a symbol column is identically zero")

    num_elements, num_cols = eff.matrix.shape[1], s_block.shape[1]
    threshold = options.resolved_threshold(num_elements)
    rho2 = eff.spectral_norm_sq
    matrix_h = eff.matrix.conj().T

    w_act, state = _seed(eff, s_block, codebook)
    state_act, s_act = state, s_block

    last_gain = np.zeros(num_cols)
    iterations = np.zeros(num_cols, dtype=int)
    converged = np.zeros(num_cols, dtype=bool)
    negative_events = np.zeros(num_cols, dtype=int)
    best_obj = np.full(num_cols, np.inf)
    best_state = state.copy()
    best_gain = np.zeros(num_cols)

    # w_act, state_act and s_act hold the active columns only; while every
    # column is active they are the full arrays, not copies.
    active = np.arange(num_cols)
    t = 0
    while active.size and t < options.max_iterations:
        t += 1
        gains, residual, objective = _gain_and_objective(eff, w_act, s_act)

        improved = objective < best_obj[active]
        hit = active[improved]
        best_obj[hit] = objective[improved]
        best_state[:, hit] = state_act[:, improved]
        best_gain[hit] = gains[improved]

        steps, bad = _guarded_step(options.step_scale, gains, rho2)
        negative_events[active[bad]] += 1

        w_next, state_next = _project(
            w_act + (matrix_h @ residual) * steps[None, :], codebook
        )
        change = _column_norms_sq(w_next - w_act)

        if active.size == num_cols:
            state = state_next
        else:
            state[:, active] = state_next
        last_gain[active] = gains
        iterations[active] = t

        done = change < threshold
        converged[active[done]] = True
        keep = ~done & (t < options.max_iterations)
        w_act, state_act = w_next, state_next
        if not np.all(keep):
            active = active[keep]
            w_act, state_act, s_act = w_act[:, keep], state_act[:, keep], s_act[:, keep]

    # Evaluate the final iterate too: it is the last point visited and, for
    # threshold stops under coarse quantization, coincides with the last
    # evaluated pair anyway.  After a single pass that moved no column the
    # final iterate is the seed (best_state holds it then), and this would
    # repeat pass 1 bit for bit and improve nothing.
    if t != 1 or not np.array_equal(state, best_state):
        gains_fin, _, obj_fin = _gain_and_objective(eff, _unit(state, codebook), s_block)
        improved = obj_fin < best_obj
        best_obj[improved] = obj_fin[improved]
        best_state[:, improved] = state[:, improved]
        best_gain[improved] = gains_fin[improved]

    if options.track_best:
        out_state, out_gain, out_obj = best_state, best_gain, best_obj
    else:
        projected = eff.matrix @ _unit(state, codebook)
        residual = s_block - projected * last_gain[None, :]
        out_state, out_gain, out_obj = state, last_gain, _column_norms_sq(residual)

    return BlockSolution(
        w=_unit(out_state, codebook),
        gains=out_gain,
        iterations=iterations,
        final_objectives=out_obj,
        converged=converged,
        negative_gain_events=negative_events,
    )


def solve(eff, symbols, codebook, options=None):
    """Tune gain and phase vector for a single interval's symbols."""
    block = solve_block(eff, np.asarray(symbols, dtype=complex)[:, None], codebook, options)
    return block.interval(0)
