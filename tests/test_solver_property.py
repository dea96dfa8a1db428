"""Property tests of the solver: the block solver's invariants on small
random problems (codebook outputs, no objective above the seed's, and
consistent counters), the quantizer's tie rule at near-tie angles, and the
soundness of the no-move certificate at steps near its bound."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ristx.geometry import wrap_phase
from ristx.solver import (
    MAX_CODEBOOK_BITS,
    EffectiveMatrix,
    PhaseCodebook,
    _gain_and_objective,
    _no_move_bound,
    _still_columns,
    quantize_phases,
    solve_block,
)

MAX_ITERATIONS = 1000  # the solver's default cap

# |w| of a continuous iterate: w = v / |v| divides by a rounded modulus, and
# np.abs rounds once more (2 eps was the worst of 2e7 random draws)
UNIT_MODULUS_TOL = 4 * np.finfo(float).eps


@st.composite
def problems(draw):
    """(effective matrix, C-contiguous (K, N) symbol block, codebook)."""
    k, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 16)), draw(st.integers(1, 6))
    bits = draw(st.none() | st.integers(1, MAX_CODEBOOK_BITS))
    # a power-of-two scale of Heff is exact; the step and the zero-norm
    # guard must follow it across a wide range
    scale = 2.0 ** draw(st.integers(-60, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    s = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return EffectiveMatrix.from_matrix(scale * h), s, PhaseCodebook(bits)


@settings(max_examples=300)
@given(problems())
def test_block_solution_invariants(problem):
    eff, s, cb = problem
    sol = solve_block(eff, s, cb)
    if cb.bits is None:
        assert np.max(np.abs(np.abs(sol.w) - 1.0)) <= UNIT_MODULUS_TOL
    else:
        assert np.all(np.isin(sol.w, cb.unit))
    # the first pass evaluates the seed on this very block, bit for bit
    seed = quantize_phases(eff.pseudo_inverse @ s, cb)
    _, _, seed_objectives = _gain_and_objective(eff, seed, s)
    assert np.all(sol.final_objectives <= seed_objectives)
    assert np.all((1 <= sol.iterations) & (sol.iterations <= MAX_ITERATIONS))
    assert np.all(sol.converged | (sol.iterations == MAX_ITERATIONS))
    assert np.all(sol.negative_gain_events <= sol.iterations)


def _ulps_from(x, count):
    """``x`` moved by ``count`` units in the last place (down if negative)."""
    for _ in range(abs(count)):
        x = np.nextafter(x, np.copysign(np.inf, count))
    return x


@st.composite
def near_ties(draw):
    """(codebook, complex values): angles within a few ULPs of one slot's
    phase, of its midpoints with both neighbours, or of +-pi, at random
    moduli."""
    bits = draw(st.integers(1, MAX_CODEBOOK_BITS))
    cb = PhaseCodebook(bits)
    phase = cb.phases[draw(st.integers(0, 2**bits - 1))]
    half = np.pi / 2**bits
    anchors = st.sampled_from([phase, phase - half, phase + half, np.pi, -np.pi])
    entries = draw(st.lists(
        st.tuples(anchors, st.integers(-4, 4), st.floats(-100.0, 100.0)),
        min_size=1, max_size=8))
    return cb, np.array([10.0**exponent * np.exp(1j * _ulps_from(anchor, ulps))
                         for anchor, ulps, exponent in entries])


@settings(max_examples=300)
@given(near_ties())
def test_quantizer_matches_exhaustive_argmin_at_near_ties(case):
    cb, values = case
    # first minimum of the wrapped distances over the whole codebook
    distances = np.abs(wrap_phase(cb.phases[:, None] - np.angle(values)[None, :]))
    expected = cb.unit[np.argmin(distances, axis=0)]
    assert np.array_equal(quantize_phases(values, cb), expected)


@st.composite
def steps_near_cells(draw):
    """(codebook, (M, N) block of codebook points, (M, N) steps): each step
    either lands ``w + d`` at an angle ``theta`` off ``w``'s phase, within
    2 % of the cell edge, with the shortest such ``d`` (``|d| = sin theta``),
    or has a random direction and a length within 2 % of the no-move bound,
    or is short.  Points include both sides of the -pi/+pi seam."""
    bits = draw(st.integers(1, MAX_CODEBOOK_BITS))
    cb = PhaseCodebook(bits)
    half = np.pi / 2**bits
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    index = st.sampled_from([0, 2**bits - 1]) | st.integers(0, 2**bits - 1)
    near = st.floats(-0.02, 0.02)
    points, steps = [], []
    for _ in range(m * n):
        i = draw(index)
        phase, u = cb.phases[i], cb.unit[i]
        kind = draw(st.sampled_from(["edge", "bound", "short"]))
        if kind == "edge":
            theta = draw(st.sampled_from([-1.0, 1.0])) * half * (1.0 + draw(near))
            # past a right angle (1 bit) the foot point lies behind the
            # origin; a point just off the origin in that direction stands in
            modulus = max(np.cos(theta), 1e-3)
            d = modulus * np.exp(1j * (phase + theta)) - u
        else:
            scale = 1.0 + draw(near) if kind == "bound" else draw(st.floats(0.0, 1.0))
            d = scale * _no_move_bound(bits) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
        points.append(u)
        steps.append(d)
    return cb, np.reshape(points, (m, n)), np.reshape(steps, (m, n))


@settings(max_examples=500)
@given(steps_near_cells())
def test_certified_columns_do_not_move(case):
    cb, w, delta = case
    still = _still_columns(delta, cb)
    moved = ~np.all(quantize_phases(w + delta, cb) == w, axis=0)
    assert not np.any(still & moved)
