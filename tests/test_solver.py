import tracemalloc

import numpy as np
import pytest

import ristx.solver
from helpers import brute_force_optimum, crandn
from ristx.geometry import wrap_phase
from ristx.harness import b_label
from ristx.solver import (
    CHANGE_THRESHOLD_PER_ELEMENT,
    MAX_CODEBOOK_BITS,
    MAX_ITERATIONS,
    STEP_SCALE,
    EffectiveMatrix,
    PhaseCodebook,
    _bracket_index,
    _gain_and_objective,
    _guarded_step,
    _nearest_index,
    _no_move_bound,
    _still_columns,
    quantize_phases,
    solve_block,
)

CONT = PhaseCodebook(None)
SIGNED_ZEROS = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])


def assert_phase_zero(w):
    """Every entry of ``w`` is exactly ``1+0j``, the sign of its zero included."""
    assert np.array_equal(w, np.ones_like(w))
    assert not np.any(np.signbit(np.imag(w)))


def random_problem(rng, num_users, num_elements):
    eff = EffectiveMatrix.from_matrix(crandn(rng, num_users, num_elements))
    s = crandn(rng, num_users)
    return eff, s


def column_gain(eff, w, s):
    """Closed-form gain of one interval, from the solve loop's own update."""
    return float(_gain_and_objective(eff, w[:, None], s[:, None])[0][0])


def objective(eff, w, s, gain):
    r = s - gain * (eff.matrix @ w)
    return float(np.real(np.vdot(r, r)))


class TestCodebook:
    @pytest.mark.parametrize("bits", [1, 2, 4, 6])
    def test_table_layout(self, bits):
        cb = PhaseCodebook(bits)
        assert cb.phases.shape == (2**bits,)
        assert cb.phases[0] == -np.pi
        spacing = np.diff(cb.phases)
        assert np.allclose(spacing, np.pi / 2 ** (bits - 1))
        assert np.all(cb.phases >= -np.pi) and np.all(cb.phases < np.pi)

    def test_b1_and_b2_tables(self):
        assert np.allclose(PhaseCodebook(1).phases, [-np.pi, 0.0])
        assert np.allclose(
            PhaseCodebook(2).phases, [-np.pi, -np.pi / 2, 0.0, np.pi / 2]
        )

    def test_invalid_bits(self):
        # checked before the 2**bits table is allocated; a bit depth is a
        # whole number, not a float of whole value nor a bool
        for bits in (0, 17, 2.5, True, 4.0, np.float64(3.0), "4"):
            with pytest.raises(ValueError, match="bits must be None or a whole number"):
                PhaseCodebook(bits)
        assert np.array_equal(PhaseCodebook(np.int64(4)).phases, PhaseCodebook(4).phases)

    def test_tables_are_read_only(self):
        # one codebook serves every solve of a sweep
        cb = PhaseCodebook(3)
        for table in (cb.phases, cb.unit):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_labels(self):
        assert b_label(PhaseCodebook(4).bits) == "4"
        assert b_label(CONT.bits) == "inf"
        assert CONT.bits is None and CONT.phases is None


class TestQuantize:
    def test_b2_nearest(self):
        # phase 0.8: distance to pi/2 is 0.771, to 0 is 0.8
        w = quantize_phases(np.array([np.exp(0.8j)]), PhaseCodebook(2))
        assert np.angle(w[0]) == pytest.approx(np.pi / 2)

    def test_continuous_normalizes(self):
        w = quantize_phases(np.array([3.0 + 4.0j]), CONT)
        assert w[0] == pytest.approx((3 + 4j) / 5, rel=1e-15)

    def test_b1_wrapped_distance(self):
        # phase 3.0: wrapped distance to -pi is ~0.14, unwrapped naive picks 0
        w = quantize_phases(np.array([np.exp(3.0j)]), PhaseCodebook(1))
        assert np.angle(w[0]) == pytest.approx(-np.pi)

    def test_midpoint_ties_round_to_smaller_phase(self):
        b1 = PhaseCodebook(1)
        b2 = PhaseCodebook(2)
        assert np.angle(quantize_phases(np.array([-1j]), b1)[0]) == pytest.approx(-np.pi)
        # interior midpoint -3pi/4 between -pi and -pi/2
        w = quantize_phases(np.array([np.exp(-3j * np.pi / 4)]), b2)
        assert np.angle(w[0]) == pytest.approx(-np.pi)
        # wrap-seam midpoint 3pi/4 between pi/2 and -pi: smaller phase value wins
        w = quantize_phases(np.array([np.exp(3j * np.pi / 4)]), b2)
        assert np.angle(w[0]) == pytest.approx(-np.pi)

    @pytest.mark.parametrize("cb", [PhaseCodebook(1), PhaseCodebook(3), CONT])
    def test_idempotent(self, cb):
        u = crandn(np.random.default_rng(11), 200)
        once = quantize_phases(u, cb)
        twice = quantize_phases(once, cb)
        assert np.allclose(once, twice, atol=1e-15)

    def test_exhaustive_optimality(self):
        # no codebook phase is strictly closer (wrapped) than the chosen one
        cb = PhaseCodebook(3)
        u = crandn(np.random.default_rng(12), 500)
        w = quantize_phases(u, cb)
        chosen = np.abs(wrap_phase(np.angle(w) - np.angle(u)))
        for phase in cb.phases:
            alt = np.abs(wrap_phase(phase - np.angle(u)))
            assert np.all(chosen <= alt + 1e-12)

    @pytest.mark.parametrize("bits", [*range(1, MAX_CODEBOOK_BITS + 1), None])
    def test_zero_takes_phase_zero(self, bits):
        # every signed zero, in a block and alone; the entries beside the
        # zeros keep their own answers
        cb = PhaseCodebook(bits)
        others = np.array([np.exp(2.5j), -1j])
        w = quantize_phases(np.concatenate([SIGNED_ZEROS, others]), cb)
        assert_phase_zero(w[:4])
        assert np.array_equal(w[4:], quantize_phases(others, cb))
        for zero in SIGNED_ZEROS:
            assert_phase_zero(quantize_phases(zero, cb))

    @pytest.mark.parametrize("bits", [1, 4, 16, None])
    @pytest.mark.parametrize("shape", [(3, 0), (0,)])
    def test_empty_block_keeps_its_shape(self, bits, shape):
        w = quantize_phases(np.zeros(shape, dtype=complex), PhaseCodebook(bits))
        assert w.shape == shape

    @pytest.mark.parametrize("bits", [1, 4, 16])
    def test_nan_entry_takes_bracket_answer(self, bits):
        # a NaN angle fails every comparison with the tie band, so the
        # block's one-reduction screen must still send it to _bracket_index;
        # the finite entry beside it keeps its own answer
        cb = PhaseCodebook(bits)
        values = np.array([complex(np.nan, 0.0), np.exp(0.3j), complex(0.0, np.nan)])
        with np.errstate(invalid="ignore"):
            w = quantize_phases(values, cb)
            nan_idx = _bracket_index(np.angle(values[[0, 2]]), cb)
        assert np.array_equal(w[[0, 2]], cb.unit[nan_idx])
        assert np.array_equal(w[1], quantize_phases(values[1:2], cb)[0])

    def test_unit_moduli(self):
        u = 10.0 * crandn(np.random.default_rng(13), 300)
        for cb in (PhaseCodebook(2), CONT):
            w = quantize_phases(u, cb)
            assert np.max(np.abs(np.abs(w) - 1.0)) < 5e-16

    def test_matrix_input(self):
        # the solver projects whole (M, N) blocks; each column must come out
        # as its own call would give it, bitwise, zeros and midpoints included
        rng = np.random.default_rng(14)
        for bits in (1, 2, 4, 16, None):
            cb = PhaseCodebook(bits)
            block = crandn(rng, 9, 12)
            block[2, :4] = 0.0
            block[5, 3] = complex(-0.0, 0.0)
            # exact 1- and 2-bit midpoints, and the seam at -1
            block[6, :] = [1j, -1j, 1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j,
                           -1, complex(-1, -0.0), 1, 2j, -2, 0.5 - 0.5j]
            if bits is not None:
                levels, spacing = 2**bits, np.pi / 2 ** (bits - 1)
                slots = np.arange(12) % levels
                block[7, :] = 3.0 * np.exp(1j * (cb.phases[slots] + spacing / 2))
                block[8, :] = np.exp(1j * (cb.phases[-1 - slots] + spacing / 2))
            w = quantize_phases(block, cb)
            assert w.shape == block.shape
            for n in range(block.shape[1]):
                assert np.array_equal(w[:, n], quantize_phases(block[:, n], cb))
                assert np.array_equal(w[:, n], quantize_phases(block[:, n].copy(), cb))

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_matches_exhaustive_argmin(self, bits):
        # oracle: full first-minimum argmin of the wrapped distances over
        # the whole codebook (the contract's literal form), taken over
        # chunks of angles so that the distance table stays at 2**20 entries
        cb = PhaseCodebook(bits)
        levels = cb.phases.size

        def exhaustive_index(ang):
            step = max(1, 2**20 // levels)
            return np.concatenate([
                np.argmin(np.abs(wrap_phase(cb.phases[:, None] - ang[None, i:i + step])),
                          axis=0)
                for i in range(0, ang.size, step)
            ])

        def exhaustive(u):
            return np.exp(1j * cb.phases)[exhaustive_index(np.angle(u))]

        rng = np.random.default_rng(100 + bits)
        u = crandn(rng, 20_000 if levels <= 64 else 256)
        assert np.array_equal(quantize_phases(u, cb), exhaustive(u))
        # adversarial grid: codebook phases, midpoints, and the seam; above
        # 64 phases, at 16 of them, the first and last included
        slots = cb.phases
        if levels > 64:
            inner = rng.choice(levels - 2, 14, replace=False) + 1
            slots = cb.phases[np.sort(np.concatenate([[0, levels - 1], inner]))]
        spacing = np.pi / 2 ** (bits - 1)
        grid = np.concatenate([
            slots, slots + spacing / 2, slots - spacing / 2,
            [np.pi, -np.pi, np.pi - spacing / 2],
        ])
        u = np.exp(1j * grid)
        assert np.array_equal(quantize_phases(u, cb), exhaustive(u))
        # scaled (non-unit) moduli, and the signed zeros, which take phase 0
        u = np.concatenate([scale * np.exp(1j * grid) for scale in (1e-300, 0.37, 5.0, 1e300)]
                           + [SIGNED_ZEROS])
        w = quantize_phases(u, cb)
        assert np.array_equal(w[:-4], exhaustive(u[:-4]))
        assert_phase_zero(w[-4:])
        # one and two ULPs either side of every midpoint and of +-pi, on the
        # angle itself (an exp/angle round trip would blur a single ULP)
        edges = np.concatenate([slots + spacing / 2, slots - spacing / 2,
                                [np.pi, -np.pi]])
        near = [edges]
        for direction in (np.inf, -np.inf):
            ang = edges
            for _ in range(2):
                ang = np.nextafter(ang, direction)
                near.append(ang)
        ang = np.clip(np.concatenate(near), -np.pi, np.pi)  # np.angle's range
        assert np.array_equal(_nearest_index(ang, cb), exhaustive_index(ang))


class TestInit:
    def test_scalar_preserves_phase(self):
        eff = EffectiveMatrix.from_matrix(np.array([[2.0 + 0j]]))
        w = quantize_phases(eff.pseudo_inverse @ np.array([4.0j]), CONT)
        assert w[0] == pytest.approx(1j, rel=1e-12)

    def test_row_vector_closed_form(self):
        # pseudo-inverse of a row vector: H^H / ||H||^2
        mat = np.array([[1.0, 1.0j]])
        eff = EffectiveMatrix.from_matrix(mat)
        assert np.allclose(eff.pseudo_inverse, mat.conj().T / 2.0, atol=1e-14)
        w = quantize_phases(eff.pseudo_inverse @ np.array([1.0 + 0j]), CONT)
        assert np.allclose(w, [1.0, -1.0j], atol=1e-12)

    def test_row_vector_quantized_tie(self):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0, 1.0j]]))
        w = quantize_phases(eff.pseudo_inverse @ np.array([1.0 + 0j]), PhaseCodebook(1))
        assert np.allclose(w, [1.0, -1.0], atol=1e-15)

    @pytest.mark.parametrize("bits", [*range(1, MAX_CODEBOOK_BITS + 1), None])
    def test_exact_zero_takes_phase_zero(self, bits):
        # pinv @ s is [1, 0]: the seed gives its exact zero phase 0, whatever
        # the zero's signs, and the solve that starts there stays there
        cb = PhaseCodebook(bits)
        eff = EffectiveMatrix.from_matrix(np.array([[1.0, 0.0]]))
        s = np.array([1.0 + 0j])
        raw = eff.pseudo_inverse @ s
        assert np.array_equal(raw, [1.0, 0.0])
        for zero in SIGNED_ZEROS:
            raw[1] = zero
            assert_phase_zero(quantize_phases(raw, cb))
        assert_phase_zero(solve_block(eff, s, cb).w)


class TestGain:
    def test_exact_fit(self):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0 + 0j]]))
        assert column_gain(eff, np.array([1.0 + 0j]), np.array([2.0 + 0j])) == 2.0

    def test_orthogonal_symbols(self):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0 + 0j]]))
        assert column_gain(eff, np.array([1.0 + 0j]), np.array([5.0j])) == 0.0

    def test_two_user_hand_value(self):
        eff = EffectiveMatrix.from_matrix(np.eye(2, dtype=complex))
        gain = column_gain(eff, np.array([1.0 + 0j, 1.0 + 0j]), np.array([1.0, 1.0j]))
        assert gain == pytest.approx(0.5)

    def test_is_global_minimizer(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            eff, s = random_problem(rng, 3, 6)
            w = quantize_phases(crandn(rng, 6), CONT)
            gain = column_gain(eff, w, s)
            base = objective(eff, w, s, gain)
            assert objective(eff, w, s, gain + 1e-3) > base
            assert objective(eff, w, s, gain - 1e-3) > base

    def test_degenerate_direction(self):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0, -1.0]]))
        with pytest.raises(ValueError, match=r"^Heff @ w has \(numerically\) zero norm$"):
            column_gain(eff, np.array([1.0 + 0j, 1.0 + 0j]), np.array([1.0 + 0j]))


class TestStepSize:
    def test_direct_substitution(self):
        assert _guarded_step(np.array([1.0]), 4.0)[0][0] == pytest.approx(STEP_SCALE / 4.0)

    def test_simplified_identity(self):
        assert _guarded_step(np.array([2.0]), 4.0)[0][0] == pytest.approx(STEP_SCALE / 8.0)

    def test_guard_uses_magnitude_with_floor(self):
        steps, bad = _guarded_step(np.array([-1.0, 2.0, 0.0]), 1.0)
        assert steps[0] == pytest.approx(STEP_SCALE)
        assert steps[1] == pytest.approx(STEP_SCALE / 2.0)
        assert steps[2] == pytest.approx(STEP_SCALE / 1e-12)
        assert list(bad) == [True, False, True]


class TestSpectralNorm:
    def test_identity(self):
        eff = EffectiveMatrix.from_matrix(np.eye(2))
        assert eff.spectral_norm_sq == pytest.approx(1.0)

    def test_diagonal(self):
        eff = EffectiveMatrix.from_matrix(np.diag([3.0, 4.0j]))
        assert eff.spectral_norm_sq == pytest.approx(16.0)

    def test_against_eigendecomposition(self):
        # oracle: largest eigenvalue of H H^H
        rng = np.random.default_rng(16)
        mat = crandn(rng, 4, 6)
        eig = np.linalg.eigvalsh(mat @ mat.conj().T).max()
        assert abs(EffectiveMatrix.from_matrix(mat).spectral_norm_sq - eig) <= 1e-10 * eig

    def test_against_power_iteration(self):
        # oracle: plain power iteration on H^H H
        rng = np.random.default_rng(17)
        mat = crandn(rng, 5, 9)
        gram = mat.conj().T @ mat
        x = crandn(rng, 9)
        for _ in range(2000):
            x = gram @ x
            x = x / np.linalg.norm(x)
        estimate = float(np.real(np.vdot(x, gram @ x)))
        cached = EffectiveMatrix.from_matrix(mat).spectral_norm_sq
        assert abs(cached - estimate) <= 1e-8 * estimate

    @pytest.mark.parametrize("shape", [(1, 3), (4, 9), (2, 225), (5, 5), (32, 32), (32, 225)])
    def test_qr_route_matches_svd_and_pinv(self, shape):
        # K <= M and full row rank: the thin-QR route, equal to the SVD
        # route up to rounding
        rng = np.random.default_rng(18)
        mat = crandn(rng, *shape)
        eff = EffectiveMatrix.from_matrix(mat)
        norm_sq = np.linalg.svd(mat, compute_uv=False)[0] ** 2
        assert abs(eff.spectral_norm_sq - norm_sq) <= 1e-10 * norm_sq
        pinv = np.linalg.pinv(mat)
        assert np.max(np.abs(eff.pseudo_inverse - pinv)) <= 1e-10 * np.max(np.abs(pinv))

    @pytest.mark.parametrize("case", ["K>M", "K>M-column", "repeated-row", "zero-row"])
    def test_svd_route_when_k_exceeds_m_or_rank_deficient(self, case):
        # K > M, or a rank cut by np.linalg.pinv's 1e-15: the SVD route,
        # bit for bit
        rng = np.random.default_rng(19)
        mat = {"K>M": crandn(rng, 3, 2), "K>M-column": crandn(rng, 4, 1),
               "repeated-row": crandn(rng, 4, 6), "zero-row": crandn(rng, 3, 5)}[case]
        if case == "repeated-row":
            mat[3] = mat[0]
        if case == "zero-row":
            mat[1] = 0.0
        eff = EffectiveMatrix.from_matrix(mat)
        assert np.array_equal(eff.pseudo_inverse, np.linalg.pinv(mat))
        assert eff.spectral_norm_sq == np.linalg.svd(mat, compute_uv=False)[0] ** 2

    def test_zero_matrix(self):
        with pytest.raises(ValueError, match="^spectral norm of a zero matrix$"):
            EffectiveMatrix.from_matrix(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)],
                             ids=["nan", "inf", "complex-inf"])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
            EffectiveMatrix.from_matrix(np.array([[1.0, bad], [0.5, 2.0]]))


class TestSolve:
    def test_scalar_exact_fit(self):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0 + 0j]]))
        s = np.array([np.exp(1j * np.pi / 4)])
        sol = solve_block(eff, s, CONT)
        assert sol.final_objectives[0] < 1e-28
        assert sol.gains[0] == pytest.approx(1.0)
        assert sol.w[0, 0] == pytest.approx(s[0], rel=1e-12)
        assert sol.iterations[0] <= 2
        assert sol.converged[0]

    def test_never_beats_exhaustive_search(self):
        rng = np.random.default_rng(18)
        cb = PhaseCodebook(1)
        for _ in range(40):
            eff, s = random_problem(rng, 1, 2)
            opt = brute_force_optimum(eff.matrix, s)
            sol = solve_block(eff, s, cb)
            assert sol.final_objectives[0] >= opt - 1e-9

    def test_improves_on_initial_pair(self):
        rng = np.random.default_rng(19)
        for cb in (PhaseCodebook(2), CONT):
            for _ in range(20):
                eff, s = random_problem(rng, 2, 8)
                w0 = quantize_phases(eff.pseudo_inverse @ s, cb)
                first = objective(eff, w0, s, column_gain(eff, w0, s))
                sol = solve_block(eff, s, cb)
                assert sol.final_objectives[0] <= first + 1e-12

    def test_positive_homogeneity_power_of_two(self):
        # scaling s by 2 is exact in floating point: w path identical, gain doubles
        rng = np.random.default_rng(20)
        for cb in (PhaseCodebook(2), CONT):
            eff, s = random_problem(rng, 2, 6)
            a = solve_block(eff, s, cb)
            b = solve_block(eff, 2.0 * s, cb)
            assert np.array_equal(a.w[:, 0], b.w[:, 0])
            assert b.gains[0] == 2.0 * a.gains[0]
            assert a.iterations[0] == b.iterations[0]

    def test_positive_homogeneity_generic_scale(self):
        rng = np.random.default_rng(21)
        eff, s = random_problem(rng, 2, 6)
        a = solve_block(eff, s, PhaseCodebook(2))
        b = solve_block(eff, 1.7 * s, PhaseCodebook(2))
        assert np.allclose(a.w[:, 0], b.w[:, 0], atol=1e-12)
        assert b.gains[0] == pytest.approx(1.7 * a.gains[0], rel=1e-12)

    def test_gain_self_consistency(self):
        rng = np.random.default_rng(22)
        for cb in (PhaseCodebook(3), CONT):
            for _ in range(20):
                eff, s = random_problem(rng, 3, 10)
                sol = solve_block(eff, s, cb)
                gain = column_gain(eff, sol.w[:, 0], s)
                assert sol.gains[0] == pytest.approx(gain, rel=1e-12)

    def test_solution_invariants(self):
        rng = np.random.default_rng(23)
        cb = PhaseCodebook(3)
        eff, s = random_problem(rng, 2, 12)
        sol = solve_block(eff, s, cb)
        # the bound of tests/test_solver_property.py: 2 eps is the worst seen
        tol = 4 * np.finfo(float).eps
        assert np.max(np.abs(np.abs(sol.w[:, 0]) - 1.0)) <= tol
        assert np.all(np.isin(sol.w[:, 0], cb.unit))
        sol_c = solve_block(eff, s, CONT)
        assert np.max(np.abs(np.abs(sol_c.w[:, 0]) - 1.0)) <= tol

    def test_continuous_near_fixed_point_when_converged(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            eff, s = random_problem(rng, 2, 8)
            sol = solve_block(eff, s, CONT)
            assert sol.converged[0]
            gain = column_gain(eff, sol.w[:, 0], s)
            psi, _ = _guarded_step(np.array([gain]), eff.spectral_norm_sq)
            grad_dir = eff.matrix.conj().T @ (s - gain * (eff.matrix @ sol.w[:, 0]))
            w_next = quantize_phases(sol.w[:, 0] + psi[0] * grad_dir, CONT)
            threshold = CHANGE_THRESHOLD_PER_ELEMENT * 8
            assert np.linalg.norm(w_next - sol.w[:, 0]) < np.sqrt(threshold)

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        eff, s = random_problem(rng, 3, 9)
        a = solve_block(eff, s, PhaseCodebook(2))
        b = solve_block(eff, s, PhaseCodebook(2))
        assert np.array_equal(a.w[:, 0], b.w[:, 0])
        assert a.gains[0] == b.gains[0]
        assert a.final_objectives[0] == b.final_objectives[0]

    def test_zero_column_rejected(self):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="^a symbol column is identically zero$"):
            solve_block(eff, np.zeros(1, dtype=complex), CONT)
        with pytest.raises(ValueError, match="^a symbol column is identically zero$"):
            solve_block(eff, np.array([[1.0, 0.0]], dtype=complex), CONT)

    def test_stalled_gain_counted_and_guarded(self):
        # symmetric symbols make the first gain update exactly zero
        eff = EffectiveMatrix.from_matrix(np.array([[1.0 + 0j], [1.0 + 0j]]))
        s = np.array([1.0 + 0j, -1.0 + 0j])
        sol = solve_block(eff, s, PhaseCodebook(1))
        assert sol.negative_gain_events[0] >= 1
        assert sol.gains[0] == 0.0
        assert sol.final_objectives[0] == pytest.approx(2.0)


class TestGradientDirection:
    def test_matches_central_differences(self):
        # v is -1/2 the gradient of ||s - Heff u||^2 in the unconstrained
        # transmit vector u, evaluated at u = gain * w
        rng = np.random.default_rng(27)
        for _ in range(20):
            eff, s = random_problem(rng, 3, 5)
            w = quantize_phases(crandn(rng, 5), CONT)
            gain = float(rng.uniform(0.3, 2.0)) * float(rng.choice([-1.0, 1.0]))
            v = eff.matrix.conj().T @ (s - gain * (eff.matrix @ w))

            def g(u):
                r = s - eff.matrix @ u
                return float(np.real(np.vdot(r, r)))

            u0 = gain * w
            h = 1e-6
            grad = np.zeros(2 * 5)
            for m in range(5):
                for part, delta in ((0, h), (1, 1j * h)):
                    up = u0.copy()
                    up[m] += delta
                    um = u0.copy()
                    um[m] -= delta
                    grad[m + part * 5] = (g(up) - g(um)) / (2 * h)
            stacked = np.concatenate([-2 * v.real, -2 * v.imag])
            err = np.linalg.norm(grad - stacked) / np.linalg.norm(stacked)
            assert err <= 1e-5

    def test_gradient_in_w_carries_gain_factor(self):
        # d/dw of ||s - gain * Heff w||^2 equals -2 * gain * v
        rng = np.random.default_rng(28)
        eff, s = random_problem(rng, 2, 4)
        w = quantize_phases(crandn(rng, 4), CONT)
        gain = 1.7
        v = eff.matrix.conj().T @ (s - gain * (eff.matrix @ w))

        def f(x):
            r = s - gain * (eff.matrix @ x)
            return float(np.real(np.vdot(r, r)))

        h = 1e-6
        grad = np.zeros(8)
        for m in range(4):
            for part, delta in ((0, h), (1, 1j * h)):
                xp = w.copy()
                xp[m] += delta
                xm = w.copy()
                xm[m] -= delta
                grad[m + part * 4] = (f(xp) - f(xm)) / (2 * h)
        stacked = np.concatenate([-2 * gain * v.real, -2 * gain * v.imag])
        assert np.linalg.norm(grad - stacked) / np.linalg.norm(stacked) <= 1e-5


def counting_evaluations(monkeypatch, eff, block, cb):
    """The ``_gain_and_objective`` results of one ``solve_block`` call."""
    evaluate = ristx.solver._gain_and_objective
    results = []

    def recording(*args):
        results.append(evaluate(*args))
        return results[-1]

    monkeypatch.setattr(ristx.solver, "_gain_and_objective", recording)
    solve_block(eff, block, cb)
    monkeypatch.undo()
    return results


class TestCertificate:
    @staticmethod
    def componentwise_mask(delta, codebook):
        peak = np.max(delta.real * delta.real + delta.imag * delta.imag, axis=0)
        return peak < _no_move_bound(codebook.bits) ** 2

    @pytest.mark.parametrize("bits", [1, 2, 4, 16])
    def test_peak_matches_componentwise_formula(self, bits):
        cb = PhaseCodebook(bits)
        bound = _no_move_bound(bits)
        rng = np.random.default_rng(70 + bits)
        # column scales around the bound, then columns whose entries all
        # sit within a few ulps of it
        spread = bound * np.geomspace(0.1, 1.0, 64) * crandn(rng, 9, 64)
        near = bound * np.exp(1j * rng.uniform(-np.pi, np.pi, (9, 64)))
        near *= 1 + rng.integers(-4, 5, 64) * np.finfo(float).eps
        subnormal = crandn(rng, 9, 64) * 1e-310
        subnormal[:, ::2] += spread[:, ::2]
        blocks = [spread, near, subnormal,
                  1e150 * crandn(rng, 9, 64), 1e-150 * crandn(rng, 9, 64)]
        for delta in blocks:
            assert np.array_equal(_still_columns(delta, cb),
                                  self.componentwise_mask(delta, cb))
        masks = [_still_columns(delta, cb) for delta in blocks[:3]]
        assert all(np.any(mask) and not np.all(mask) for mask in masks)


class TestBlockSolver:
    @pytest.mark.parametrize("cb", [PhaseCodebook(2), CONT])
    def test_block_matches_per_column_solve(self, cb):
        rng = np.random.default_rng(29)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 3, 8))
        block = crandn(rng, 3, 7)
        batched = solve_block(eff, block, cb)
        for n in range(7):
            single = solve_block(eff, block[:, n], cb)
            assert np.allclose(batched.w[:, n], single.w[:, 0], atol=1e-10)
            assert batched.gains[n] == pytest.approx(single.gains[0], rel=1e-10)
            assert batched.iterations[n] == single.iterations[0]
            assert bool(batched.converged[n]) == single.converged[0]
            assert batched.final_objectives[n] == pytest.approx(
                single.final_objectives[0], rel=1e-9, abs=1e-12
            )

    @pytest.mark.parametrize("cb", [PhaseCodebook(2), CONT])
    def test_vector_solves_as_one_column(self, cb):
        rng = np.random.default_rng(30)
        eff, s = random_problem(rng, 3, 8)
        vector = solve_block(eff, s, cb)
        column = solve_block(eff, s[:, None], cb)
        for name in ("w", "gains", "iterations", "final_objectives", "converged",
                     "negative_gain_events"):
            got, want = getattr(vector, name), getattr(column, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_iteration_cap_stops_every_column(self):
        rng = np.random.default_rng(36)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 3, 8))
        block = crandn(rng, 3, 5)
        sol = solve_block(eff, block, CONT, max_iterations=1)
        assert np.array_equal(sol.iterations, np.ones(5, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, -np.inf)],
                             ids=["nan", "inf", "complex-inf"])
    def test_non_finite_symbols_rejected(self, bad):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0, 2.0], [0.5, -1.0]]))
        for symbols in (np.array([1 + 1j, bad]), np.array([[1.0, 1.0], [bad, 2.0]])):
            with pytest.raises(ValueError, match="^symbols have a non-finite entry$"):
                solve_block(eff, symbols, CONT)

    def test_three_dimensional_symbols_rejected(self):
        eff = EffectiveMatrix.from_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"^symbols must be a \(K,\) vector .* not 3-D$"):
            solve_block(eff, np.ones((2, 3, 4), dtype=complex), CONT)

    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_quantized_beta_is_codebook_phase_of_w(self, bits):
        # w is read from the unit table: every entry is a codebook point,
        # bitwise
        rng = np.random.default_rng(31 + bits)
        cb = PhaseCodebook(bits)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 3, 24))
        sol = solve_block(eff, crandn(rng, 3, 40), cb)
        assert np.all(np.isin(sol.w, cb.unit))

    def test_no_move_block_reports_its_own_gain_and_objective(self, monkeypatch):
        # a 1-bit block that stops at pass 1 on its seed skips the final
        # evaluation; what it reports must still be that evaluation, bitwise
        rng = np.random.default_rng(41)
        cb = PhaseCodebook(1)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 2, 64))
        block = crandn(rng, 2, 12)
        sol = solve_block(eff, block, cb)
        assert np.all(sol.iterations == 1)
        assert np.array_equal(sol.w, quantize_phases(eff.pseudo_inverse @ block, cb))
        gains, _, objectives = _gain_and_objective(eff, sol.w, block)
        assert np.array_equal(sol.gains, gains)
        assert np.array_equal(sol.final_objectives, objectives)
        assert len(counting_evaluations(monkeypatch, eff, block, cb)) == 1

    def test_pass_one_move_gets_final_evaluation(self, monkeypatch):
        # at 4 bits and M=144 one moved element changes a column by
        # 2 - 2*cos(pi/8) = 0.152, below the threshold 1.25e-3 * 144 = 0.18:
        # a column moves in pass 1 and still stops there, so the final
        # iterate is not the seed and must be evaluated once more
        rng = np.random.default_rng(4)
        cb = PhaseCodebook(4)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 16, 144))
        block = crandn(rng, 16, 8)
        sol = solve_block(eff, block, cb)
        assert np.all(sol.iterations == 1)
        assert not np.array_equal(sol.w, quantize_phases(eff.pseudo_inverse @ block, cb))
        evaluations = counting_evaluations(monkeypatch, eff, block, cb)
        assert len(evaluations) == 2
        gains, _, objectives = evaluations[-1]
        assert np.array_equal(sol.gains, gains)
        assert np.array_equal(sol.final_objectives, objectives)

    def test_projection_that_changes_nothing_needs_no_final_evaluation(self, monkeypatch):
        # columns the certificate cannot clear are projected in pass 1 and
        # come back unchanged: the block stops on its seed after one
        # evaluation, as a certified one does
        rng = np.random.default_rng(0)
        cb = PhaseCodebook(4)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 16, 64))
        block = crandn(rng, 16, 12)
        still_columns = ristx.solver._still_columns
        masks = []

        def recording(delta, codebook):
            masks.append(still_columns(delta, codebook))
            return masks[-1]

        monkeypatch.setattr(ristx.solver, "_still_columns", recording)
        sol = solve_block(eff, block, cb)
        assert not np.all(masks[0])
        assert np.all(sol.iterations == 1)
        assert np.array_equal(sol.w, quantize_phases(eff.pseudo_inverse @ block, cb))
        evaluations = counting_evaluations(monkeypatch, eff, block, cb)
        assert len(evaluations) == 1
        gains, _, objectives = evaluations[0]
        assert np.array_equal(sol.gains, gains)
        assert np.array_equal(sol.final_objectives, objectives)

    def test_column_that_moves_back_reports_its_seed(self):
        # a column leaves its seed in pass 1 and the seed stays its best
        # pair: the moves written into the iterate must not reach best_w
        rng = np.random.default_rng(14)
        cb = PhaseCodebook(2)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 8, 8))
        block = crandn(rng, 8, 20)
        sol = solve_block(eff, block, cb)
        seed = quantize_phases(eff.pseudo_inverse @ block, cb)
        back = (sol.iterations > 1) & np.all(sol.w == seed, axis=0)
        assert np.any(back)
        residual = block - (eff.matrix @ sol.w) * sol.gains
        assert np.allclose(np.sum(np.abs(residual) ** 2, axis=0), sol.final_objectives,
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("cb", [PhaseCodebook(4), CONT])
    def test_heff_scale_leaves_iterates_alone(self, cb):
        # a power-of-two scale of Heff is exact in every product, so the
        # iterates must not change, nor may the zero-norm guard fire
        rng = np.random.default_rng(42)
        mat = crandn(rng, 12, 16)
        block = crandn(rng, 12, 10)
        ref = solve_block(EffectiveMatrix.from_matrix(mat), block, cb)
        assert np.any(ref.iterations > 1)
        for scale in (2.0**-60, 2.0**60):
            sol = solve_block(EffectiveMatrix.from_matrix(scale * mat), block, cb)
            assert np.array_equal(sol.w, ref.w)
            assert np.array_equal(sol.iterations, ref.iterations)

    @pytest.mark.parametrize("bits", [1, 2, 4, 16])
    def test_no_move_certificate_changes_no_output(self, bits, monkeypatch):
        # the certificate only skips projections: with its bound at 0 every
        # column goes through quantize_phases, and every field is the same
        cb = PhaseCodebook(bits)
        rng = np.random.default_rng(50 + bits)
        problems = [(EffectiveMatrix.from_matrix(crandn(rng, k, m)), crandn(rng, k, 20))
                    for k, m in [(8, 8)] * 4 + [(12, 16), (1, 4)]]
        still_columns = ristx.solver._still_columns
        masks = []

        def recording(delta, codebook):
            masks.append(still_columns(delta, codebook))
            return masks[-1]

        monkeypatch.setattr(ristx.solver, "_still_columns", recording)
        certified = [solve_block(eff, block, cb) for eff, block in problems]
        assert any(np.any(sol.iterations > 1) for sol in certified)
        assert any(np.any(mask) for mask in masks)
        del masks[:]
        monkeypatch.setattr(ristx.solver, "_no_move_bound", lambda bits: 0.0)
        projected = [solve_block(eff, block, cb) for eff, block in problems]
        assert not any(np.any(mask) for mask in masks)
        for got, want in zip(certified, projected):
            for name in ("w", "gains", "iterations", "final_objectives", "converged",
                         "negative_gain_events"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("cb", [PhaseCodebook(1), PhaseCodebook(4), CONT])
    def test_inputs_left_alone(self, cb, monkeypatch):
        # a pass projects in its own step buffer, never in the caller's
        # arrays: a C-contiguous complex block reaches the loop as it is
        rng = np.random.default_rng(60)
        problems = [(EffectiveMatrix.from_matrix(crandn(rng, 8, 8)), crandn(rng, 8, 2))
                    for _ in range(6)]
        still_columns = ristx.solver._still_columns
        masks = []

        def recording(delta, codebook):
            masks.append(still_columns(delta, codebook))
            return masks[-1]

        monkeypatch.setattr(ristx.solver, "_still_columns", recording)
        for eff, block in problems:
            assert np.ascontiguousarray(block, dtype=complex) is block
            before = [a.copy() for a in (eff.matrix, eff.pseudo_inverse, block)]
            solve_block(eff, block, cb)
            for got, want in zip((eff.matrix, eff.pseudo_inverse, block), before):
                assert np.array_equal(got, want)
        # passes in which every column moves, and masked ones for a quantized
        # codebook
        assert any(not np.any(mask) for mask in masks)
        if cb.bits is not None:
            assert any(np.any(mask) and not np.all(mask) for mask in masks)

    def test_masked_pass_frees_the_full_step_block(self, monkeypatch):
        # a pass in which some columns are still projects compact copies of
        # the moving ones, and drops the full (M, N) step block first
        rng = np.random.default_rng(7)
        num_users, num_elements, num_intervals = 128, 256, 128
        mat = (rng.standard_normal((num_users, num_elements))
               + 1j * rng.standard_normal((num_users, num_elements)))
        block = (rng.standard_normal((num_users, num_intervals))
                 + 1j * rng.standard_normal((num_users, num_intervals)))
        eff = EffectiveMatrix.from_matrix(mat)
        still_columns = ristx.solver._still_columns
        masks = []

        def recording(delta, codebook):
            masks.append(still_columns(delta, codebook))
            return masks[-1]

        monkeypatch.setattr(ristx.solver, "_still_columns", recording)
        tracemalloc.start()
        try:
            solve_block(eff, block, PhaseCodebook(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(masks) == 1 and np.count_nonzero(masks[0]) == 37
        assert peak <= 7.5 * num_elements * num_intervals * 16

    def test_row_count_validation(self):
        eff = EffectiveMatrix.from_matrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            solve_block(eff, np.ones((3, 2), dtype=complex), CONT)


class TestEffectiveMatrix:
    def test_build_combines_factors(self):
        from ristx.geometry import SurfaceModel

        surface = SurfaceModel(
            attenuation=np.array([0.5, 0.25]),
            phase=np.array([0.0, np.pi / 2]),
        )
        chan = np.array([[1.0 + 0j, 2.0 + 0j]])
        eff = EffectiveMatrix.build(np.array([3.0]), chan, surface)
        expected = 3.0 * chan * (surface.attenuation * np.exp(1j * surface.phase))
        assert np.allclose(eff.matrix, expected, rtol=1e-15)
        assert eff.spectral_norm_sq == pytest.approx(
            np.linalg.norm(eff.matrix, 2) ** 2, rel=1e-12
        )


class TestIterationCap:
    @staticmethod
    def problem():
        rng = np.random.default_rng(37)
        return EffectiveMatrix.from_matrix(crandn(rng, 3, 8)), crandn(rng, 3, 4)

    @pytest.mark.parametrize("value", [0, -3, True, 2.5, 10.0])
    def test_validation(self, value):
        eff, block = self.problem()
        with pytest.raises(ValueError, match="max_iterations"):
            solve_block(eff, block, CONT, max_iterations=value)

    def test_accepted_edges(self):
        eff, block = self.problem()
        sol = solve_block(eff, block, CONT, max_iterations=np.int64(1))
        assert np.array_equal(sol.iterations, np.ones(4, dtype=int))

    @pytest.mark.parametrize("cb", [PhaseCodebook(1), PhaseCodebook(4), CONT],
                             ids=["B1", "B4", "continuous"])
    def test_none_is_the_default_cap(self, cb):
        eff, block = self.problem()
        default = solve_block(eff, block, cb)
        capped = solve_block(eff, block, cb, max_iterations=MAX_ITERATIONS)
        for name in ("w", "gains", "iterations", "final_objectives", "converged",
                     "negative_gain_events"):
            assert getattr(default, name).tobytes() == getattr(capped, name).tobytes(), name

    @pytest.mark.parametrize("num_users,num_elements", [(2, 8), (32, 64)])
    def test_threshold_scales_with_elements(self, num_users, num_elements):
        # replay the loop on one column: it stops at the first pass whose
        # squared change falls below CHANGE_THRESHOLD_PER_ELEMENT * M
        rng = np.random.default_rng(38 + num_elements)
        threshold = CHANGE_THRESHOLD_PER_ELEMENT * num_elements
        passes = []
        for _ in range(5):
            eff, s = random_problem(rng, num_users, num_elements)
            sol = solve_block(eff, s, CONT)
            w = quantize_phases(eff.pseudo_inverse @ s[:, None], CONT)
            changes = []
            while not changes or changes[-1] >= threshold:
                gains, residual, _ = _gain_and_objective(eff, w, s[:, None])
                delta = eff.matrix.conj().T @ residual
                delta *= _guarded_step(gains, eff.spectral_norm_sq)[0]
                w_next = quantize_phases(w + delta, CONT)
                changes.append(float(np.sum(np.abs(w_next - w) ** 2)))
                w = w_next
            assert sol.converged[0] and sol.iterations[0] == len(changes)
            passes.append(len(changes))
        assert max(passes) > 1
