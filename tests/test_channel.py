import numpy as np
import pytest

from helpers import users
from ristx.channel import (
    assemble_channel,
    compensating_gains,
    draw_fading,
    draw_users,
)
from ristx.harness import ConfigError, SimConfig, run_trial


def make_cell(**kw):
    # a config that sets the four fields draw_users reads
    base = dict(r_min=100.0, r_max=1000.0, path_loss_exponent=3.2, shadow_std_db=5.0)
    base.update(kw)
    return SimConfig(**base)


class TestDrawUsers:
    def test_zero_shadow_std_gives_unit_shadowing(self):
        drawn = draw_users(50, make_cell(shadow_std_db=0.0), np.random.default_rng(0))
        assert np.all(drawn.shadowing == 1.0)

    def test_degenerate_annulus(self):
        cell = make_cell(r_max=100.0 + 1e-9)
        drawn = draw_users(100, cell, np.random.default_rng(1))
        assert np.all(np.abs(drawn.distance / cell.r_min - 1.0) < 1e-10)
        assert np.allclose(drawn.path_gain, drawn.shadowing, rtol=1e-9)

    def test_distance_cdf_kolmogorov_smirnov(self):
        # oracle: analytic CDF of the uniform-area density on the annulus,
        # F(r) = (r^2 - r_min^2) / (r_max^2 - r_min^2); 1% significance
        n = 10_000
        cell = make_cell()
        r = np.sort(draw_users(n, cell, np.random.default_rng(2)).distance)
        cdf = (r**2 - cell.r_min**2) / (cell.r_max**2 - cell.r_min**2)
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(np.max(empirical_hi - cdf), np.max(cdf - empirical_lo))
        assert ks < 1.628 / np.sqrt(n)
        assert r.min() >= cell.r_min and r.max() <= cell.r_max

    def test_shadowing_std_at_corpus_level(self):
        drawn = draw_users(10_000, make_cell(), np.random.default_rng(3))
        db = 10.0 * np.log10(drawn.shadowing)
        assert abs(np.mean(db)) < 0.2
        assert abs(np.std(db) - 5.0) < 0.15

    def test_zero_users_rejected(self):
        # draw_users trusts its count: run_trial refuses zero users first
        with pytest.raises(ConfigError,
                           match=r"^config field 'num_users': 0 is not a positive whole number$"):
            run_trial(make_cell(), 0, 4, 1, 0)

    def test_deterministic_given_seed(self):
        a = draw_users(5, make_cell(), np.random.default_rng(42))
        b = draw_users(5, make_cell(), np.random.default_rng(42))
        assert np.array_equal(a.distance, b.distance)
        assert np.array_equal(a.shadowing, b.shadowing)
        assert np.array_equal(a.path_gain, b.path_gain)


class TestDrawFading:
    def test_moments_at_large_sample(self):
        h = draw_fading(250, 400, np.random.default_rng(4))
        var = np.mean(np.abs(h) ** 2)
        assert 0.99 <= var <= 1.01
        assert np.mean(np.abs(h)) == pytest.approx(np.sqrt(np.pi / 4), abs=5e-3)
        assert abs(np.mean(h.real)) < 5e-3 and abs(np.mean(h.imag)) < 5e-3

    def test_real_imag_half_variance(self):
        h = draw_fading(200, 500, np.random.default_rng(5))
        assert np.var(h.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(h.imag) == pytest.approx(0.5, abs=0.01)

    def test_bit_identical_given_seed(self):
        a = draw_fading(7, 13, np.random.default_rng(99))
        b = draw_fading(7, 13, np.random.default_rng(99))
        assert np.array_equal(a, b)
        # the one (2, K, M) draw equals a real block then an imaginary one,
        # each drawn on its own, and leaves the generator where they do
        for (k, m), seed in [((1, 1), 0), ((7, 13), 99), ((32, 225), 777), ((2, 64), 2**70)]:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            re = ref_rng.standard_normal((k, m))
            im = ref_rng.standard_normal((k, m))
            h = draw_fading(k, m, rng)
            assert h.tobytes() == ((re + 1j * im) / np.sqrt(2.0)).tobytes()
            assert rng.random() == ref_rng.random()


class TestAssemble:
    def test_unit_large_scale_keeps_fading(self):
        fading = draw_fading(3, 5, np.random.default_rng(6))
        chan = assemble_channel(users(count=3), fading)
        assert np.array_equal(chan, fading)

    def test_path_loss_row_scaling(self):
        fading = draw_fading(1, 6, np.random.default_rng(7))
        chan = assemble_channel(users(r_norm=2.0), fading)
        assert np.allclose(chan, 2.0 ** (-1.6) * fading, rtol=1e-14)
        assert 2.0 ** (-1.6) == pytest.approx(0.3299, abs=1e-4)

    def test_shadow_row_scaling(self):
        fading = draw_fading(1, 6, np.random.default_rng(8))
        chan = assemble_channel(users(shadowing=4.0), fading)
        assert np.array_equal(chan, 2.0 * fading)


class TestCompensatingGains:
    def test_unit_case(self):
        assert compensating_gains(users())[0] == 1.0

    def test_quarter_shadowing(self):
        assert compensating_gains(users(shadowing=0.25))[0] == 2.0

    def test_cancellation_identity(self):
        rng = np.random.default_rng(10)
        drawn = draw_users(6, make_cell(), rng)
        fading = draw_fading(6, 32, rng)
        chan = assemble_channel(drawn, fading)
        g = compensating_gains(drawn)
        recovered = g[:, None] * chan
        rel = np.abs(recovered - fading) / np.abs(fading)
        assert rel.max() < 1e-15

    def test_frobenius(self):
        g = compensating_gains(users(shadowing=[0.25, 1.0], count=2))
        assert np.sum(np.abs(g) ** 2) == pytest.approx(5.0)
