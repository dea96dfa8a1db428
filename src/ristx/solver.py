"""Quantized-phase auto-scaled least-squares tuner.

Per transmission interval the transmitter needs a unit-modulus phase vector
``w`` (entries restricted to a discrete or continuous phase codebook) and a
real amplification gain ``A`` minimizing ``||s - A * Heff @ w||^2``, where
``Heff`` collects receive gains, channel and surface propagation.
The tuner is a projected gradient descent: closed-form gain update, gradient
step on the unconstrained transmit vector, projection onto the codebook by
nearest wrapped phase.

The iterate is the unit-modulus ``w`` itself, and ``quantize_phases`` is
its only projection.  For a quantized codebook it finds the nearest phase in
one rounding pass over ``(angle + pi) / spacing``; only entries within 1e-9
of a midpoint are decided again by the exact two-candidate distance
comparison, which fixes the tie and seam rule.  The projected entries are
read from the codebook's precomputed ``exp(1j*phases)`` table, so every
iterate is a codebook point bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import wrap_phase

GAIN_FLOOR = 1e-12  # step-size guard when the gain update stalls at <= 0

# Largest bit depth of a quantized codebook: 2**16 phases, a 1.5 MiB phase
# and unit table.  Each further bit doubles the table, and the 1e-9 tie band
# of ``_nearest_index`` covers the rounding error of the slot only up to here.
MAX_CODEBOOK_BITS = 16


@dataclass(frozen=True)
class PhaseCodebook:
    """Set of phases available to each reflecting element.

    ``bits=B`` gives the 2**B uniformly spaced phases -pi + i*pi/2**(B-1),
    i = 0..2**B-1 (spacing pi/2**(B-1), all in [-pi, pi)), and ``unit``
    their points exp(1j*phases) on the unit circle; B is a whole number
    (not a bool) from 1 to ``MAX_CODEBOOK_BITS``, and anything else raises
    ``ValueError``.  ``bits=None`` is the continuous limit, i.e. any phase in
    [-pi, pi].
    """

    bits: int | None
    phases: np.ndarray | None = field(default=None, init=False, compare=False)
    unit: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.bits is None:
            return
        if (isinstance(self.bits, bool) or not isinstance(self.bits, numbers.Integral)
                or not 1 <= self.bits <= MAX_CODEBOOK_BITS):
            raise ValueError(
                f"bits must be None or a whole number in 1..{MAX_CODEBOOK_BITS}")
        table = -np.pi + np.arange(2**self.bits) * (np.pi / 2 ** (self.bits - 1))
        object.__setattr__(self, "phases", table)
        object.__setattr__(self, "unit", np.exp(1j * table))


def quantize_phases(values, codebook):
    """Project complex values entrywise onto the codebook's unit circle.

    ``values`` may have any shape; the result has the same.  For a quantized
    codebook each entry maps to ``codebook.unit[i]``, with phase ``i`` the
    codebook phase of smallest wrapped angular distance to the entry's
    phase, found by one rounding pass (see ``_nearest_index``); exact
    midpoints resolve to the smaller phase value.  The continuous codebook
    divides by the modulus.  Zero entries take the first (lowest) codebook
    phase, -pi.
    """
    values = np.asarray(values, dtype=complex)
    if codebook.bits is None:
        w = np.where(values == 0, np.exp(-1j * np.pi), values)
        return w / np.abs(w)
    entries = np.atleast_1d(values)
    idx = _nearest_index(np.angle(entries), codebook)
    idx[entries == 0] = 0
    return codebook.unit[idx].reshape(values.shape)


def _nearest_index(angles, codebook):
    """Index of the wrapped-nearest codebook phase, smaller phase on ties.

    Equivalent to an exhaustive argmin of |wrap_phase(phase - angle)| over
    the codebook (first minimum wins).  One rounding pass does the work:
    the nearest slot is ``x = (angle + pi) / spacing`` rounded to the
    nearest integer, with slot ``levels`` (angle near +pi) wrapping to 0.
    Entries whose ``x`` lies within 1e-9 of a half-integer, and NaN
    entries, are decided again by comparing the wrapped distances to the two
    bracketing slots (``_bracket_index``), which fixes exact midpoints and
    the seam.  The rounding error of ``x`` is below 64 * levels * eps, which
    stays under that band up to ``MAX_CODEBOOK_BITS`` (9.3e-10 at 16 bits).
    ``angles`` must be an array of dimension >= 1.
    """
    levels = codebook.phases.shape[0]
    x = angles + np.pi
    x *= 2 ** (codebook.bits - 1) / np.pi
    nearest = np.rint(x)
    idx = nearest.astype(np.intp)
    idx &= levels - 1  # levels is a power of two: wraps slot levels to 0
    x -= nearest
    np.abs(x, out=x)
    near_tie = ~(x <= 0.5 - 1e-9)
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

    The matrix is diag(receive gains) @ channel @ diag(surface coefficients);
    its pseudo-inverse seeds the per-interval iteration and its squared
    spectral norm scales every step size, so both are computed once per
    channel realization and cached here.
    """

    matrix: np.ndarray
    spectral_norm_sq: float
    pseudo_inverse: np.ndarray

    @classmethod
    def from_matrix(cls, matrix):
        """Cache the factorizations of a nonzero matrix."""
        matrix = np.asarray(matrix, dtype=complex)
        if not np.any(matrix):
            raise ValueError("spectral norm of a zero matrix")
        norm_sq = float(np.linalg.svd(matrix, compute_uv=False)[0] ** 2)
        return cls(matrix, norm_sq, np.linalg.pinv(matrix))

    @classmethod
    def build(cls, post_gains, channel_matrix, surface):
        """Assemble from the physical factors of one realization."""
        coeffs = surface.complex_coeffs()
        gains = np.asarray(post_gains)
        scaled = gains[:, None] * np.asarray(channel_matrix)
        return cls.from_matrix(scaled * coeffs[None, :])


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
    element moves.  ``max_iterations`` (>= 1) caps the update count, and
    construction raises ``ValueError`` on a knob outside its range.  Sweeps and
    ``ristx trial`` always run these defaults; a library caller of
    ``solve_block`` may pass others.
    """

    step_scale: float = 0.5
    change_threshold: float | None = None
    max_iterations: int = 1000

    def __post_init__(self):
        t, n = self.change_threshold, self.max_iterations
        if not (isinstance(self.step_scale, numbers.Real) and 0 < self.step_scale < 1):
            raise ValueError("step_scale must be a real in (0, 1)")
        if t is not None and (isinstance(t, bool) or not isinstance(t, numbers.Real)
                              or not 0 < t < math.inf):
            raise ValueError("change_threshold must be None or a finite real > 0")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError("max_iterations must be an int >= 1, not a bool")

    def resolved_threshold(self, num_elements):
        if self.change_threshold is not None:
            return self.change_threshold
        return 1.25e-3 * num_elements


def _seed(eff, symbols, codebook):
    """The seed iterate ``w``: the quantized entrywise phases of the
    pseudo-inverse image.

    Entries of ``pinv @ s`` are normalized by their own modulus before
    quantization; exact zeros take phase 0 there (and are then quantized).
    """
    raw = eff.pseudo_inverse @ symbols
    mags = np.abs(raw)
    unit = np.divide(raw, mags, out=np.ones_like(raw), where=mags > 0)
    return quantize_phases(unit, codebook)


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
    """Optimal gains and resulting objectives for every column at once.

    ``||Heff @ w||^2`` counts as zero up to eps times its largest value
    over unit-modulus ``w``, ``spectral_norm_sq * M``, so that scaling
    ``Heff`` (by the surface attenuation) leaves the guard where it was.
    """
    projected = eff.matrix @ w_block
    denom = _column_norms_sq(projected)
    if np.any(denom <= np.finfo(float).eps * eff.spectral_norm_sq * eff.matrix.shape[1]):
        raise ValueError("Heff @ w has (numerically) zero norm")
    gains = np.einsum("ij,ij->j", projected.conj(), s_block).real / denom
    residual = s_block - projected * gains[None, :]
    return gains, residual, _column_norms_sq(residual)


def solve_block(eff, symbols, codebook, options=None):
    """Tune gain and phases for every column of a symbol block.

    Each column gets the best (w, A) pair it visited, its final iterate
    included.  Columns share the effective matrix but are otherwise
    independent problems; batching them turns the per-iteration work into a
    handful of matrix products.  Columns leave the active set as soon as they stop, so
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
        raise ValueError("a symbol column is identically zero")

    num_elements, num_cols = eff.matrix.shape[1], s_block.shape[1]
    threshold = options.resolved_threshold(num_elements)
    rho2 = eff.spectral_norm_sq
    matrix_h = eff.matrix.conj().T

    w = w_act = _seed(eff, s_block, codebook)
    s_act = s_block

    iterations = np.zeros(num_cols, dtype=int)
    converged = np.zeros(num_cols, dtype=bool)
    negative_events = np.zeros(num_cols, dtype=int)
    best_obj = np.full(num_cols, np.inf)
    best_w = w.copy()
    best_gain = np.zeros(num_cols)

    # w_act and s_act hold the active columns only; while every column is
    # active they are the full arrays, not copies.
    active = np.arange(num_cols)
    t = 0
    while active.size and t < options.max_iterations:
        t += 1
        gains, residual, objective = _gain_and_objective(eff, w_act, s_act)

        improved = objective < best_obj[active]
        hit = active[improved]
        best_obj[hit] = objective[improved]
        best_w[:, hit] = w_act[:, improved]
        best_gain[hit] = gains[improved]

        steps, bad = _guarded_step(options.step_scale, gains, rho2)
        negative_events[active[bad]] += 1

        w_next = quantize_phases(w_act + (matrix_h @ residual) * steps[None, :], codebook)
        change = _column_norms_sq(w_next - w_act)

        if active.size == num_cols:
            w = w_next
        else:
            w[:, active] = w_next
        iterations[active] = t

        done = change < threshold
        converged[active[done]] = True
        keep = ~done & (t < options.max_iterations)
        w_act = w_next
        if not np.all(keep):
            active = active[keep]
            w_act, s_act = w_act[:, keep], s_act[:, keep]

    # Evaluate the final iterate too: it is the last point visited and, for
    # threshold stops under coarse quantization, coincides with the last
    # evaluated pair anyway.  After a single pass that moved no column the
    # final iterate is the seed (best_w holds it then), and this would
    # repeat pass 1 bit for bit and improve nothing.
    if t != 1 or not np.array_equal(w, best_w):
        gains_fin, _, obj_fin = _gain_and_objective(eff, w, s_block)
        improved = obj_fin < best_obj
        best_obj[improved] = obj_fin[improved]
        best_w[:, improved] = w[:, improved]
        best_gain[improved] = gains_fin[improved]

    return BlockSolution(
        w=best_w,
        gains=best_gain,
        iterations=iterations,
        final_objectives=best_obj,
        converged=converged,
        negative_gain_events=negative_events,
    )


def solve(eff, symbols, codebook, options=None):
    """Tune gain and phase vector for a single interval's symbols."""
    block = solve_block(eff, np.asarray(symbols, dtype=complex)[:, None], codebook, options)
    return block.interval(0)
