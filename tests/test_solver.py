import itertools

import numpy as np
import pytest

from ristx.geometry import wrap_phase
from ristx.harness import b_label
from ristx.solver import (
    EffectiveMatrix,
    PhaseCodebook,
    SolverOptions,
    _gain_and_objective,
    _guarded_step,
    _nearest_index,
    _seed,
    quantize_phases,
    solve,
    solve_block,
)

CONT = PhaseCodebook(None)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


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


def brute_force_optimum(matrix, s):
    """Exhaustive search over all +-1 patterns with the per-pattern optimal gain."""
    best = np.inf
    for bits in itertools.product((1.0, -1.0), repeat=matrix.shape[1]):
        w = np.array(bits, dtype=complex)
        hw = matrix @ w
        den = float(np.real(np.vdot(hw, hw)))
        if den < 1e-300:
            obj = float(np.real(np.vdot(s, s)))
        else:
            gain = float(np.real(np.vdot(hw, s))) / den
            r = s - gain * hw
            obj = float(np.real(np.vdot(r, r)))
        best = min(best, obj)
    return best


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

    def test_zero_maps_to_first_entry(self):
        w = quantize_phases(np.array([0.0 + 0.0j, 1.0]), PhaseCodebook(2))
        assert np.angle(w[0]) == pytest.approx(-np.pi)
        assert w[1] == pytest.approx(1.0)
        wc = quantize_phases(np.array([0.0 + 0.0j]), CONT)
        assert np.angle(wc[0]) == pytest.approx(-np.pi)

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
        # scaled (non-unit) moduli, and zeros, which take the first phase
        zeros = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
        u = np.concatenate([scale * np.exp(1j * grid) for scale in (1e-300, 0.37, 5.0, 1e300)]
                           + [zeros])
        expected = np.where(u == 0, np.exp(1j * cb.phases[0]), exhaustive(u))
        assert np.array_equal(quantize_phases(u, cb), expected)
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
        w = _seed(eff, np.array([4.0j]), CONT)
        assert w[0] == pytest.approx(1j, rel=1e-12)

    def test_row_vector_closed_form(self):
        # pseudo-inverse of a row vector: H^H / ||H||^2
        mat = np.array([[1.0, 1.0j]])
        eff = EffectiveMatrix.from_matrix(mat)
        assert np.allclose(eff.pseudo_inverse, mat.conj().T / 2.0, atol=1e-14)
        w = _seed(eff, np.array([1.0 + 0j]), CONT)
        assert np.allclose(w, [1.0, -1.0j], atol=1e-12)

    def test_row_vector_quantized_tie(self):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0, 1.0j]]))
        w = _seed(eff, np.array([1.0 + 0j]), PhaseCodebook(1))
        assert np.allclose(w, [1.0, -1.0], atol=1e-15)

    @pytest.mark.parametrize("bits", [1, 2, 4, None])
    def test_exact_zero_takes_phase_zero(self, bits):
        # pinv @ s is [1, 0]: the seed gives its exact zero phase 0, where
        # quantize_phases alone would send it to the first phase, -pi
        cb = PhaseCodebook(bits)
        eff = EffectiveMatrix.from_matrix(np.array([[1.0, 0.0]]))
        s = np.array([1.0 + 0j])
        assert np.array_equal(eff.pseudo_inverse @ s, [1.0, 0.0])
        assert np.array_equal(_seed(eff, s, cb), [1.0, 1.0])
        assert np.allclose(quantize_phases(eff.pseudo_inverse @ s, cb), [1.0, -1.0],
                           atol=1e-15)


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
        assert _guarded_step(0.5, np.array([1.0]), 4.0)[0][0] == pytest.approx(0.125)

    def test_simplified_identity(self):
        assert _guarded_step(0.5, np.array([2.0]), 4.0)[0][0] == pytest.approx(0.0625)

    def test_guard_uses_magnitude_with_floor(self):
        steps, bad = _guarded_step(0.5, np.array([-1.0, 2.0, 0.0]), 1.0)
        assert steps[0] == pytest.approx(0.5)
        assert steps[1] == pytest.approx(0.25)
        assert steps[2] == pytest.approx(0.5 / 1e-12)
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

    def test_zero_matrix(self):
        with pytest.raises(ValueError, match="^spectral norm of a zero matrix$"):
            EffectiveMatrix.from_matrix(np.zeros((2, 2)))


class TestSolve:
    def test_scalar_exact_fit(self):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0 + 0j]]))
        s = np.array([np.exp(1j * np.pi / 4)])
        sol = solve(eff, s, CONT)
        assert sol.final_objective < 1e-28
        assert sol.gain == pytest.approx(1.0)
        assert sol.w[0] == pytest.approx(s[0], rel=1e-12)
        assert sol.iterations <= 2
        assert sol.converged

    def test_never_beats_exhaustive_search(self):
        rng = np.random.default_rng(18)
        cb = PhaseCodebook(1)
        for _ in range(40):
            eff, s = random_problem(rng, 1, 2)
            opt = brute_force_optimum(eff.matrix, s)
            sol = solve(eff, s, cb)
            assert sol.final_objective >= opt - 1e-9

    def test_improves_on_initial_pair(self):
        rng = np.random.default_rng(19)
        for cb in (PhaseCodebook(2), CONT):
            for _ in range(20):
                eff, s = random_problem(rng, 2, 8)
                w0 = _seed(eff, s, cb)
                first = objective(eff, w0, s, column_gain(eff, w0, s))
                sol = solve(eff, s, cb)
                assert sol.final_objective <= first + 1e-12

    def test_positive_homogeneity_power_of_two(self):
        # scaling s by 2 is exact in floating point: w path identical, gain doubles
        rng = np.random.default_rng(20)
        for cb in (PhaseCodebook(2), CONT):
            eff, s = random_problem(rng, 2, 6)
            a = solve(eff, s, cb)
            b = solve(eff, 2.0 * s, cb)
            assert np.array_equal(a.w, b.w)
            assert b.gain == 2.0 * a.gain
            assert a.iterations == b.iterations

    def test_positive_homogeneity_generic_scale(self):
        rng = np.random.default_rng(21)
        eff, s = random_problem(rng, 2, 6)
        a = solve(eff, s, PhaseCodebook(2))
        b = solve(eff, 1.7 * s, PhaseCodebook(2))
        assert np.allclose(a.w, b.w, atol=1e-12)
        assert b.gain == pytest.approx(1.7 * a.gain, rel=1e-12)

    def test_gain_self_consistency(self):
        rng = np.random.default_rng(22)
        for cb in (PhaseCodebook(3), CONT):
            for _ in range(20):
                eff, s = random_problem(rng, 3, 10)
                sol = solve(eff, s, cb)
                assert sol.gain == pytest.approx(column_gain(eff, sol.w, s), rel=1e-12)

    def test_solution_invariants(self):
        rng = np.random.default_rng(23)
        cb = PhaseCodebook(3)
        eff, s = random_problem(rng, 2, 12)
        sol = solve(eff, s, cb)
        # the bound of tests/test_solver_property.py: 2 eps is the worst seen
        tol = 4 * np.finfo(float).eps
        assert np.max(np.abs(np.abs(sol.w) - 1.0)) <= tol
        assert np.all(np.isin(sol.w, cb.unit))
        sol_c = solve(eff, s, CONT)
        assert np.max(np.abs(np.abs(sol_c.w) - 1.0)) <= tol

    def test_continuous_near_fixed_point_when_converged(self):
        rng = np.random.default_rng(24)
        opts = SolverOptions()
        for _ in range(10):
            eff, s = random_problem(rng, 2, 8)
            sol = solve(eff, s, CONT, opts)
            assert sol.converged
            gain = column_gain(eff, sol.w, s)
            psi, _ = _guarded_step(opts.step_scale, np.array([gain]),
                                   eff.spectral_norm_sq)
            grad_dir = eff.matrix.conj().T @ (s - gain * (eff.matrix @ sol.w))
            w_next = quantize_phases(sol.w + psi[0] * grad_dir, CONT)
            threshold = opts.resolved_threshold(8)
            assert np.linalg.norm(w_next - sol.w) < np.sqrt(threshold)

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        eff, s = random_problem(rng, 3, 9)
        a = solve(eff, s, PhaseCodebook(2))
        b = solve(eff, s, PhaseCodebook(2))
        assert np.array_equal(a.w, b.w)
        assert a.gain == b.gain
        assert a.final_objective == b.final_objective

    def test_zero_column_rejected(self):
        eff = EffectiveMatrix.from_matrix(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="^a symbol column is identically zero$"):
            solve(eff, np.zeros(1, dtype=complex), CONT)
        with pytest.raises(ValueError, match="^a symbol column is identically zero$"):
            solve_block(eff, np.array([[1.0, 0.0]], dtype=complex), CONT)

    def test_stalled_gain_counted_and_guarded(self):
        # symmetric symbols make the first gain update exactly zero
        eff = EffectiveMatrix.from_matrix(np.array([[1.0 + 0j], [1.0 + 0j]]))
        s = np.array([1.0 + 0j, -1.0 + 0j])
        sol = solve(eff, s, PhaseCodebook(1))
        assert sol.negative_gain_events >= 1
        assert sol.gain == 0.0
        assert sol.final_objective == pytest.approx(2.0)


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


class TestBlockSolver:
    @pytest.mark.parametrize("cb", [PhaseCodebook(2), CONT])
    def test_block_matches_per_column_solve(self, cb):
        rng = np.random.default_rng(29)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 3, 8))
        block = crandn(rng, 3, 7)
        batched = solve_block(eff, block, cb)
        for n in range(7):
            single = solve(eff, block[:, n], cb)
            assert np.allclose(batched.w[:, n], single.w, atol=1e-10)
            assert batched.gains[n] == pytest.approx(single.gain, rel=1e-10)
            assert batched.iterations[n] == single.iterations
            assert bool(batched.converged[n]) == single.converged
            assert batched.final_objectives[n] == pytest.approx(
                single.final_objective, rel=1e-9, abs=1e-12
            )

    def test_interval_accessor(self):
        rng = np.random.default_rng(30)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 2, 5))
        block = crandn(rng, 2, 3)
        batched = solve_block(eff, block, CONT)
        one = batched.interval(1)
        assert np.array_equal(one.w, batched.w[:, 1])

    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_quantized_beta_is_codebook_phase_of_w(self, bits):
        # w is read from the unit table: every entry is a codebook point,
        # bitwise
        rng = np.random.default_rng(31 + bits)
        cb = PhaseCodebook(bits)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 3, 24))
        sol = solve_block(eff, crandn(rng, 3, 40), cb)
        assert np.all(np.isin(sol.w, cb.unit))

    def test_no_move_block_reports_its_own_gain_and_objective(self):
        # a 1-bit block that stops at pass 1 on its seed skips the final
        # evaluation; what it reports must still be that evaluation, bitwise
        rng = np.random.default_rng(41)
        cb = PhaseCodebook(1)
        eff = EffectiveMatrix.from_matrix(crandn(rng, 2, 64))
        block = crandn(rng, 2, 12)
        sol = solve_block(eff, block, cb)
        assert np.all(sol.iterations == 1)
        assert np.array_equal(sol.w, _seed(eff, block, cb))
        gains, _, objectives = _gain_and_objective(eff, sol.w, block)
        assert np.array_equal(sol.gains, gains)
        assert np.array_equal(sol.final_objectives, objectives)

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


class TestSolverOptions:
    def test_default_threshold_scales_with_elements(self):
        opts = SolverOptions()
        assert opts.resolved_threshold(64) == pytest.approx(0.08)
        assert SolverOptions(change_threshold=0.5).resolved_threshold(64) == 0.5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("step_scale", -5.0), ("step_scale", 0.0), ("step_scale", 1.0),
            ("step_scale", float("nan")), ("step_scale", float("inf")),
            ("step_scale", True), ("step_scale", "0.5"),
            ("change_threshold", -1.0), ("change_threshold", 0.0),
            ("change_threshold", float("nan")), ("change_threshold", float("inf")),
            ("change_threshold", True), ("change_threshold", "0.1"),
            ("max_iterations", 0), ("max_iterations", -3), ("max_iterations", True),
            ("max_iterations", 2.5), ("max_iterations", 10.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{field: value})

    def test_accepted_edges(self):
        opts = SolverOptions(step_scale=np.float64(0.999), change_threshold=1e-300,
                             max_iterations=np.int64(1))
        assert opts.max_iterations == 1
