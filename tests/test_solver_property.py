"""Property tests of the solver: the block solver's invariants on small
random problems (codebook outputs, no objective above the seed's, and
consistent counters), and the quantizer's tie rule at near-tie angles."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ristx.geometry import wrap_phase
from ristx.solver import (
    MAX_CODEBOOK_BITS,
    EffectiveMatrix,
    PhaseCodebook,
    _gain_and_objective,
    _seed,
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
    _, _, seed_objectives = _gain_and_objective(eff, _seed(eff, s, cb), s)
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
