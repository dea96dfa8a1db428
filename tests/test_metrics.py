import numpy as np
import pytest

from helpers import crandn
from ristx.geometry import SurfaceModel
from ristx.harness import trial_result
from ristx.metrics import (
    average_power,
    db10,
    distortion,
    papr,
    transmit_block,
)


def identity_gains(k):
    return np.ones(k)


class TestDb10:
    def test_floor_flags_exact_zero(self):
        db, floored = db10(0.0)
        assert db == -200.0 and floored

    def test_regular_value(self):
        db, floored = db10(0.1)
        assert db == pytest.approx(-10.0) and not floored

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            db10(-1e-3)


class TestDistortion:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(0)
        h = crandn(rng, 2, 4)
        x = crandn(rng, 4, 5)
        s = h @ x
        d = distortion(s, identity_gains(2), h, x)
        assert d == pytest.approx(0.0, abs=1e-28)
        row = trial_result("single_rf", (2, 4, "1", 0, 7), d, 1.0, 1.0)
        assert row["D_dB"] == -200.0 and row["D_floored"] == 1

    def test_zero_transmit_expected_unit(self):
        # x = 0: D = mean ||s||^2 / K, expectation 1 for unit-variance symbols
        rng = np.random.default_rng(1)
        k, n = 4, 50_000
        s = crandn(rng, k, n)
        h = crandn(rng, k, 3)
        d = distortion(s, identity_gains(k), h, np.zeros((3, n), complex))
        assert d == pytest.approx(1.0, abs=0.02)

    def test_single_interval_single_user(self):
        h = np.array([[0.5 + 0j]])
        s = np.array([[1.0 + 1.0j]])
        x = np.array([[1.0 + 0j]])
        d = distortion(s, identity_gains(1), h, x)
        assert d == pytest.approx(abs(1 + 1j - 0.5) ** 2)

    def test_matches_received_mse_without_noise(self):
        rng = np.random.default_rng(2)
        k, n = 3, 7
        h = crandn(rng, k, 5)
        s = crandn(rng, k, n)
        x = crandn(rng, 5, n)
        g = rng.uniform(0.5, 2.0, k)
        d = distortion(s, g, h, x)
        per_interval = [
            np.linalg.norm(s[:, i] - (g[:, None] * h) @ x[:, i]) ** 2 for i in range(n)
        ]
        assert d == pytest.approx(np.mean(per_interval) / k, rel=1e-12)

    def test_channel_shape_mismatch(self):
        s = np.ones((2, 3), dtype=complex)
        x = np.ones((3, 3), dtype=complex)
        for h in (np.eye(3), np.ones((2, 4))):
            with pytest.raises(ValueError, match="channel dimensions"):
                distortion(s, identity_gains(2), h, x)

    def test_block_length_mismatch(self):
        s = np.ones((1, 3), dtype=complex)
        x = np.ones((2, 4), dtype=complex)
        with pytest.raises(ValueError):
            distortion(s, identity_gains(1), np.ones((1, 2)), x)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            distortion(np.ones((2, 0), dtype=complex), identity_gains(2),
                       np.ones((2, 3)), np.ones((3, 0), dtype=complex))

    def test_path_loss_invariance_corollary(self):
        # with compensating gains the compensated channel is the fading
        # matrix, so the distortion matches the unit-large-scale evaluation
        from ristx.channel import assemble_channel, compensating_gains, draw_users
        from ristx.harness import SimConfig

        rng = np.random.default_rng(3)
        cfg = SimConfig(r_min=100.0, r_max=1000.0, path_loss_exponent=3.2, shadow_std_db=5.0)
        users = draw_users(3, cfg, rng)
        fading = crandn(rng, 3, 6)
        chan = assemble_channel(users, fading)
        g = compensating_gains(users)
        s = crandn(rng, 3, 4)
        x = crandn(rng, 6, 4)
        with_ls = distortion(s, g, chan, x)
        without = distortion(s, identity_gains(3), fading, x)
        assert with_ls == pytest.approx(without, rel=1e-12)


class TestPower:
    def test_unit_gains(self):
        assert average_power(np.ones(5)) == 1.0

    def test_hand_value(self):
        assert average_power(np.array([1.0, 2.0])) == pytest.approx(2.5)

    def test_constant_gain_scales_squared(self):
        assert average_power(np.full(9, 3.0)) == pytest.approx(9.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_power(np.array([]))


class TestPapr:
    def test_constant_gains(self):
        p = papr(np.full(11, 2.5))
        assert p == pytest.approx(1.0)
        assert db10(p)[0] == pytest.approx(0.0)

    def test_single_active_interval(self):
        p = papr(np.array([1.0, 0.0, 0.0, 0.0]))
        assert p == pytest.approx(4.0)
        assert 10 * np.log10(p) == pytest.approx(6.02, abs=0.01)

    def test_gain_rescale_invariance(self):
        rng = np.random.default_rng(4)
        gains = rng.uniform(0.1, 3.0, 40)
        assert papr(3.7 * gains) == pytest.approx(papr(gains), rel=1e-12)

    def test_at_least_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gains = rng.normal(0.0, 1.0, 16)
            assert papr(gains) >= 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="^all feed gains are zero$"):
            papr(np.zeros(4))


class TestTransmitBlock:
    def test_columns_reconstruct_from_parts(self):
        rng = np.random.default_rng(6)
        surface = SurfaceModel(
            attenuation=rng.uniform(0.5, 1.5, 4),
            phase=rng.uniform(-np.pi, np.pi, 4),
        )
        w = crandn(rng, 4, 3)
        w = w / np.abs(w)
        gains = rng.uniform(0.5, 2.0, 3)
        block = transmit_block(surface, w, gains)
        coeffs = surface.attenuation * np.exp(1j * surface.phase)
        for n in range(3):
            expected = gains[n] * coeffs * w[:, n]
            assert np.allclose(block[:, n], expected, rtol=1e-15)
        assert block.shape == (4, 3)
