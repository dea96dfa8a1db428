"""Quantized-phase auto-scaled least-squares tuner.

Per transmission interval the transmitter needs a unit-modulus phase vector
``w`` (entries restricted to a discrete or continuous phase codebook) and a
real amplification gain ``A`` minimizing ``||s - A * Heff @ w||^2``, where
``Heff`` collects receive gains, channel and surface propagation.
The tuner is a projected gradient descent: closed-form gain update, gradient
step on the unconstrained transmit vector, projection onto the codebook by
nearest wrapped phase.  Its tuning is three fixed constants; a caller may
only cap the passes, through ``solve_block``'s ``max_iterations``.

The iterate is the unit-modulus ``w`` itself, and ``quantize_phases`` is
its only projection; the seed is ``quantize_phases(pinv @ s)``.  A zero
entry takes phase 0, exactly ``1+0j``.  For a quantized codebook the
projection finds the nearest phase in one rounding pass over ``(angle + pi)
/ spacing``; only entries within 1e-9 of a midpoint are decided again by the
exact two-candidate distance comparison, which fixes the tie and seam rule.
The projected entries are read from the codebook's precomputed
``exp(1j*phases)`` table, so every iterate is a codebook point bit for bit.

The pseudo-inverse and spectral norm come from a thin QR of ``Heff^H``
(``EffectiveMatrix.from_matrix``), with an SVD fallback when ``Heff`` has
more rows than columns or is rank-deficient.  Under a quantized codebook
most columns never leave their seed: a column whose gradient step is too
short to carry any entry out of its quantization cell is certified unmoved
(``_still_columns``) and skips the projection.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import wrap_phase

GAIN_FLOOR = 1e-12  # step-size guard when the gain update stalls at <= 0

# The fixed tuning: step ``STEP_SCALE / (A * spectral_norm_sq)``, and a stop
# once the squared iterate change falls below ``CHANGE_THRESHOLD_PER_ELEMENT
# * M`` or after ``MAX_ITERATIONS`` passes.  The threshold is calibrated so
# that the continuous codebook stops after the handful of passes that
# reproduces the reference distortion curves, while a B-bit codebook changes
# by at least 2 - 2*cos(pi/2**(B-1)) per moved element and so keeps
# iterating until (almost) no element moves.
STEP_SCALE = 0.5
CHANGE_THRESHOLD_PER_ELEMENT = 1.25e-3
MAX_ITERATIONS = 1000

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
    [-pi, pi].  Both tables are read-only, so one codebook can serve any
    number of solves.
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
        unit = np.exp(1j * table)
        table.flags.writeable = unit.flags.writeable = False
        object.__setattr__(self, "phases", table)
        object.__setattr__(self, "unit", unit)


def quantize_phases(values, codebook):
    """Project complex values entrywise onto the codebook's unit circle.

    ``values`` may have any shape; the result has the same.  For a quantized
    codebook each entry maps to ``codebook.unit[i]``, with phase ``i`` the
    codebook phase of smallest wrapped angular distance to the entry's
    phase, found by one rounding pass (see ``_nearest_index``); exact
    midpoints resolve to the smaller phase value.  The continuous codebook
    divides by the modulus.  A zero entry, whatever the signs of its parts,
    takes phase 0: it comes out as exactly ``1+0j`` under every codebook.
    """
    values = np.asarray(values, dtype=complex)
    if not values.all():
        values = np.where(values == 0, 1.0, values)
    if codebook.bits is None:
        return values / np.abs(values)
    idx = _nearest_index(np.angle(np.atleast_1d(values)), codebook)
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
    # one reduction screens the block; NaN fails the test as it fails the
    # mask, and an empty block passes
    if not x.max(initial=0.0) <= 0.5 - 1e-9:
        near_tie = ~(x <= 0.5 - 1e-9)
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

    For a (K, M) matrix ``H`` with K <= M both come from a thin QR
    ``H^H = Q R``: ``pinv(H) = Q R^-H`` and the singular values of ``H`` are
    those of the K x K factor ``R``.  QR does not square the condition
    number, as the normal equations ``H H^H`` would.  A matrix with K > M,
    and one whose smallest singular value is at most 1e-15 times the
    largest (the rank cut of ``np.linalg.pinv``), take ``np.linalg.svd`` and
    ``np.linalg.pinv`` instead.  The two routes agree to rounding, not bit
    for bit.
    """

    matrix: np.ndarray
    spectral_norm_sq: float
    pseudo_inverse: np.ndarray

    @classmethod
    def from_matrix(cls, matrix):
        """Cache the factorizations of a finite, nonzero matrix."""
        matrix = np.asarray(matrix, dtype=complex)
        if not np.all(np.isfinite(matrix)):
            raise ValueError("matrix has a non-finite entry")
        if not np.any(matrix):
            raise ValueError("spectral norm of a zero matrix")
        num_rows, num_cols = matrix.shape
        if num_rows <= num_cols:
            q, r = np.linalg.qr(matrix.conj().T)
            singular = np.linalg.svd(r, compute_uv=False)
            if singular[-1] > 1e-15 * singular[0]:
                pinv = np.linalg.solve(r, q.conj().T).conj().T
                return cls(matrix, float(singular[0] ** 2), pinv)
        norm_sq = float(np.linalg.svd(matrix, compute_uv=False)[0] ** 2)
        return cls(matrix, norm_sq, np.linalg.pinv(matrix))

    @classmethod
    def build(cls, post_gains, channel_matrix, surface):
        """Assemble from the physical factors of one realization."""
        scaled = post_gains[:, None] * channel_matrix
        return cls.from_matrix(scaled * surface.complex_coeffs[None, :])


def _no_move_bound(bits):
    """Step length that no entry of a ``bits``-bit iterate can leave its
    quantization cell by: ``sin(pi / 2**bits)``, less a 1e-6 share.

    A codebook point ``u`` and ``u + d`` with ``|d| < sin(h)``, ``h`` half a
    phase spacing, are at most ``arcsin|d| < h`` apart in angle, so both
    round to the phase of ``u``.  The margin is some 5e-11 rad at 16 bits
    and more below, far above the rounding of ``d`` and of the angle.
    """
    return math.sin(math.pi / 2**bits) * (1 - 1e-6)


def _still_columns(delta, codebook):
    """Mask of the columns of a step ``delta`` that provably leave the
    iterate unchanged: under a quantized codebook, those whose largest entry
    modulus is below ``_no_move_bound``.  Under the continuous codebook
    every step moves the iterate, and no column is still.  ``delta`` is a
    2-D complex block.
    """
    if codebook.bits is None:
        return np.zeros(delta.shape[1], dtype=bool)
    # |delta|**2 as real*real + imag*imag, summed in a half-size buffer
    sq = np.square(delta.real)
    sq += np.square(delta.imag)
    return np.max(sq, axis=0) < _no_move_bound(codebook.bits) ** 2


def _guarded_step(gains, spectral_sq):
    """Vectorized step sizes with the non-positive-gain guard applied.

    Gains <= 0 would flip or blow up the literal rule, so their magnitude
    (floored at GAIN_FLOOR) is used instead and the event is reported.
    """
    bad = gains <= 0.0
    safe = np.where(bad, np.maximum(np.abs(gains), GAIN_FLOOR), gains)
    return STEP_SCALE / (safe * spectral_sq), bad


@dataclass(frozen=True)
class BlockSolution:
    """Per-interval solver outputs for a block of symbol columns."""

    w: np.ndarray                    # (M, N) unit-modulus codebook entries
    gains: np.ndarray                # (N,) amplification gains A
    iterations: np.ndarray           # (N,) int
    final_objectives: np.ndarray     # (N,) ||s - A * Heff @ w||^2 of the returned pairs
    converged: np.ndarray            # (N,) bool: stopped by threshold, not iteration cap
    negative_gain_events: np.ndarray  # (N,) int


def _column_norms_sq(block):
    return np.einsum("ij,ij->j", block.conj(), block).real


def _gain_and_objective(eff, w_block, s_block):
    """Optimal gains and resulting objectives for every column at once.

    ``||Heff @ w||^2`` counts as zero up to eps times its largest value
    over unit-modulus ``w``, ``spectral_norm_sq * M``, so that scaling
    ``Heff`` (by the surface attenuation) leaves the guard where it was.
    """
    projected = eff.matrix @ w_block
    projected_h = projected.conj()
    denom = np.einsum("ij,ij->j", projected_h, projected).real
    if np.any(denom <= np.finfo(float).eps * eff.spectral_norm_sq * eff.matrix.shape[1]):
        raise ValueError("Heff @ w has (numerically) zero norm")
    gains = np.einsum("ij,ij->j", projected_h, s_block).real / denom
    residual = s_block - projected * gains[None, :]
    return gains, residual, _column_norms_sq(residual)


def solve_block(eff, symbols, codebook, max_iterations=None):
    """Tune gain and phases for every column of a symbol block.

    Each column gets the best (w, A) pair it visited, its final iterate
    included.  Columns share the effective matrix but are otherwise
    independent problems; batching them turns the per-iteration work into a
    handful of matrix products.  Columns leave the active set as soon as they stop, so
    results equal those of solving each column on its own to about 1e-14,
    not bit for bit: a BLAS matrix product rounds a column differently
    depending on how many columns the product has.  For a fixed block width
    (``num_intervals``) the bytes are deterministic on the one BLAS thread
    that every trial runs on.
    A ``(K,)`` symbol vector is solved as one column, and every field of the
    result is a per-column array, of length 1 then.
    ``max_iterations`` caps the passes of every column; ``None`` means
    ``MAX_ITERATIONS``, and anything but a whole number >= 1 (a bool
    included) raises ``ValueError``.
    """
    cap = MAX_ITERATIONS if max_iterations is None else max_iterations
    if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
        raise ValueError("max_iterations must be None or a whole number >= 1, not a bool")
    # C order, like the column subsets taken later in the loop
    s_block = np.ascontiguousarray(symbols, dtype=complex)
    if s_block.ndim == 1:
        s_block = s_block[:, None]
    if s_block.ndim != 2:
        raise ValueError(
            f"symbols must be a (K,) vector or a (K, N) block, not {s_block.ndim}-D")
    if not np.all(np.isfinite(s_block)):
        raise ValueError("symbols have a non-finite entry")
    if s_block.shape[0] != eff.matrix.shape[0]:
        raise ValueError(
            f"symbol rows {s_block.shape[0]} != matrix rows {eff.matrix.shape[0]}"
        )
    if np.any(~np.any(s_block, axis=0)):
        raise ValueError("a symbol column is identically zero")

    num_elements, num_cols = eff.matrix.shape[1], s_block.shape[1]
    threshold = CHANGE_THRESHOLD_PER_ELEMENT * num_elements
    rho2 = eff.spectral_norm_sq
    matrix_h = eff.matrix.conj().T

    w = w_act = quantize_phases(eff.pseudo_inverse @ s_block, codebook)
    s_act = s_block

    iterations = np.zeros(num_cols, dtype=int)
    converged = np.zeros(num_cols, dtype=bool)
    negative_events = np.zeros(num_cols, dtype=int)
    best_obj = np.full(num_cols, np.inf)
    # best_w stays the iterate itself, the seed, until a projection first
    # changes a column; only then does it become a copy of its own
    best_w = w
    best_gain = np.zeros(num_cols)

    # w_act and s_act hold the active columns only; while every column is
    # active they are the full arrays, not copies.
    active = np.arange(num_cols)
    t = 0
    while active.size and t < cap:
        t += 1
        gains, residual, objective = _gain_and_objective(eff, w_act, s_act)

        improved = objective < best_obj[active]
        hit = active[improved]
        best_obj[hit] = objective[improved]
        if best_w is not w:
            best_w[:, hit] = w_act[:, improved]
        best_gain[hit] = gains[improved]

        steps, bad = _guarded_step(gains, rho2)
        negative_events[active[bad]] += 1

        # a certified column keeps its w bit for bit, with change 0.  w_act
        # is this loop's own array (w itself while every column is active),
        # so the moving columns are written in place.
        delta = matrix_h @ residual
        delta *= steps
        moving = ~_still_columns(delta, codebook)
        change = np.zeros(active.size)
        if moving.any():
            # one path projects the moving columns in delta's own buffer:
            # views of delta and w_act when every column moves, else compact
            # copies, and rebinding delta frees the full step.  w_old must not
            # outlive the pass: a view keeps w_act alive past the compaction.
            cols = slice(None) if moving.all() else moving
            delta, w_old = delta[:, cols], w_act[:, cols]
            delta += w_old
            w_new = quantize_phases(delta, codebook)
            change[cols] = _column_norms_sq(np.subtract(w_new, w_old, out=delta))
            if best_w is w and not np.array_equal(w_new, w_old):
                best_w = w.copy()
            w_act[:, cols] = w_new
            del w_old
        if active.size != num_cols:
            w[:, active] = w_act
        iterations[active] = t

        done = change < threshold
        converged[active[done]] = True
        if np.any(done):
            keep = ~done
            active = active[keep]
            w_act, s_act = w_act[:, keep], s_act[:, keep]

    # Evaluate the final iterate too: it is the last point visited and, for
    # threshold stops under coarse quantization, coincides with the last
    # evaluated pair anyway.  If no projection changed a column (best_w is
    # still w), the final iterate is the seed and pass 1 was the only pass,
    # as a column that does not change stops under the positive threshold:
    # this would repeat pass 1 bit for bit and improve nothing.
    if best_w is not w:
        gains_fin, _, obj_fin = _gain_and_objective(eff, w, s_block)
        improved = obj_fin < best_obj
        best_obj[improved] = obj_fin[improved]
        np.copyto(best_w, w, where=improved)
        best_gain[improved] = gains_fin[improved]

    return BlockSolution(best_w, best_gain, iterations, best_obj, converged,
                         negative_events)
