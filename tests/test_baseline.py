import numpy as np
import pytest

from helpers import crandn, users
from ristx.baseline import mf_post_gains, mf_precode_block
from ristx.metrics import distortion


def precode_column(h, s, target):
    """The block precoder on a single interval: one symbol column."""
    x, _ = mf_precode_block(h, s[:, None], np.array([target]))
    return x[:, 0]


class TestPrecode:
    def test_zero_target_gives_zero_vector(self):
        h = np.array([[1.0 + 0j, 2.0 + 0j]])
        x = precode_column(h, np.array([2.0 + 0j]), 0.0)
        assert np.array_equal(x, np.zeros(2, dtype=complex))

    def test_hand_value(self):
        h = np.array([[1.0 + 0j, 0.0 + 0j]])
        x = precode_column(h, np.array([2.0 + 0j]), 4.0)
        assert np.allclose(x, [2.0, 0.0], atol=1e-15)

    def test_power_match_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            h = crandn(rng, 3, 6)
            s = crandn(rng, 3)
            target = float(rng.uniform(0.1, 10.0))
            x = precode_column(h, s, target)
            assert np.real(np.vdot(x, x)) == pytest.approx(target, rel=1e-12)

    def test_direction_is_nonnegative_multiple(self):
        rng = np.random.default_rng(1)
        h = crandn(rng, 2, 5)
        s = crandn(rng, 2)
        x = precode_column(h, s, 3.0)
        d = h.conj().T @ s
        scale = np.real(np.vdot(d, x)) / np.real(np.vdot(d, d))
        assert scale > 0
        assert np.allclose(x, scale * d, rtol=1e-12)

    def test_degenerate_direction_raises(self):
        h = np.array([[1.0 + 0j], [-1.0 + 0j]])
        s = np.array([1.0 + 0j, 1.0 + 0j])
        with pytest.raises(ValueError, match=r"^H\^H s vanishes; cannot meet target power$"):
            precode_column(h, s, 1.0)
        assert np.array_equal(precode_column(h, s, 0.0), np.zeros(1, dtype=complex))

    def test_block_matches_per_interval(self):
        rng = np.random.default_rng(2)
        h = crandn(rng, 3, 7)
        s = crandn(rng, 3, 9)
        targets = rng.uniform(0.1, 4.0, 9)
        x_block, scales = mf_precode_block(h, s, targets)
        for n in range(9):
            assert np.allclose(x_block[:, n], precode_column(h, s[:, n], targets[n]),
                               rtol=1e-12)
        assert np.all(scales > 0)

    def test_inputs_left_alone(self):
        # the directions are scaled in place, in a block of their own
        rng = np.random.default_rng(4)
        h = crandn(rng, 3, 7)
        s = crandn(rng, 3, 9)
        targets = rng.uniform(0.1, 4.0, 9)
        before = [a.copy() for a in (h, s, targets)]
        mf_precode_block(h, s, targets)
        for got, want in zip((h, s, targets), before):
            assert np.array_equal(got, want)


class TestPostGains:
    def test_unit_case(self):
        g = mf_post_gains(users(), 1, 1.0)
        assert g[0] == 1.0

    def test_doubling_mean_scale_halves_gains(self):
        pair = users(shadowing=[2.0, 1.0], r_norm=[3.0, 1.0], count=2)
        g1 = mf_post_gains(pair, 16, 1.0)
        g2 = mf_post_gains(pair, 16, 2.0)
        assert np.array_equal(g2, g1 / 2.0)

    def test_single_user_expectation_recovers_symbol(self):
        # noise-free K=1: mean of G*y over fading draws and intervals tends
        # to the symbol itself (2% tolerance at 1e4 samples)
        rng = np.random.default_rng(3)
        m = 4
        ls = users(shadowing=2.0, r_norm=1.5)
        rho = ls.path_gain[0]
        s = np.array([1.5 - 0.5j])
        draws = 2500
        intervals = 4
        collected = []
        for _ in range(draws):
            h = crandn(rng, 1, m)
            channel = np.sqrt(rho) * h
            targets = rng.uniform(0.5, 2.0, intervals)
            s_block = np.tile(s[:, None], (1, intervals))
            x, scales = mf_precode_block(channel, s_block, targets)
            g = mf_post_gains(ls, m, float(np.mean(scales)))
            y = channel @ x
            collected.append((g[0] * y[0]).mean())
        mean = np.mean(collected)
        assert abs(mean - s[0]) < 0.02 * abs(s[0])

    def test_shared_distortion_code_path(self):
        # benchmark metrics run through the same distortion operation
        rng = np.random.default_rng(4)
        h = crandn(rng, 2, 6)
        s = crandn(rng, 2, 5)
        x, scales = mf_precode_block(h, s, np.full(5, 2.0))
        g = mf_post_gains(users(count=2), 6, float(np.mean(scales)))
        d = distortion(s, g, h, x)
        assert np.isfinite(d) and d >= 0.0
