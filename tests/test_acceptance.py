"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The sweep-based criteria
share two module-scoped datasets (the fig2 and fig4 presets at their default
200 trials), so the whole suite takes a few minutes of CPU time.
"""

import itertools

import numpy as np
import pytest

from ristx.channel import (
    assemble_channel,
    compensating_gains,
    draw_fading,
    draw_users,
)
from ristx.harness import (
    SUMMARY_CSV,
    TRIALS_CSV,
    build_surface,
    preset_config,
    run_sweep,
)
from ristx.metrics import distortion, transmit_block
from ristx.solver import (
    EffectiveMatrix,
    PhaseCodebook,
    _gain_and_objective,
    quantize_phases,
    solve,
    solve_block,
)

K_RANGE = tuple(range(2, 33, 2))
M_LIST = (64, 121, 225)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def index_summary(summary):
    return {
        (row["scheme"], int(row["K"]), int(row["M"]), row["B"]): row
        for row in summary
    }


@pytest.fixture(scope="module")
def fig2(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_fig2")
    summary = run_sweep(preset_config("fig2"), out, workers=1)
    return out, index_summary(summary)


@pytest.fixture(scope="module")
def fig4(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_fig4")
    summary = run_sweep(preset_config("fig4"), out, workers=1)
    return out, index_summary(summary)


def test_criterion_01_fig2_point_reproduction(fig2):
    _, table = fig2
    checks = [((2, 64), -22.88), ((32, 225), -13.38)]
    details = []
    ok = True
    for (k, m), target in checks:
        row = table[("single_rf", k, m, "4")]
        assert row["n_trials"] >= 200
        got = row["D_dB_mean"]
        details.append(f"(K={k},M={m}): {got:+.2f} dB vs {target:+.2f}+-1.0")
        ok &= abs(got - target) <= 1.0
    assert report(1, "fig2 points", ok, "; ".join(details))


def test_criterion_02_fig2_ordering(fig2):
    _, table = fig2
    d = {(k, m): table[("single_rf", k, m, "4")]["D_dB_mean"]
         for k in K_RANGE for m in M_LIST}
    monotone_m = all(
        d[(k, 64)] > d[(k, 121)] > d[(k, 225)] for k in K_RANGE
    )
    monotone_k = all(
        d[(ka, m)] < d[(kb, m)]
        for m in M_LIST
        for ka, kb in itertools.pairwise(K_RANGE)
    )
    ok = monotone_m and monotone_k
    assert report(2, "fig2 ordering", ok,
                  f"decreasing in M: {monotone_m}, increasing in K: {monotone_k}")


def test_criterion_03_fig3_papr(fig2):
    _, table = fig2
    got = table[("single_rf", 2, 64, "4")]["PAPR_dB_mean"]
    point_ok = abs(got - 5.65) <= 0.7
    violations = {}
    for m in M_LIST:
        series = [table[("single_rf", k, m, "4")]["PAPR_dB_mean"] for k in K_RANGE]
        violations[m] = sum(b > a for a, b in itertools.pairwise(series))
    trend_ok = all(v <= 2 for v in violations.values())
    ok = point_ok and trend_ok
    assert report(3, "fig3 PAPR", ok,
                  f"(K=2,M=64): {got:.2f} dB vs 5.65+-0.7; "
                  f"adjacent increases per M: {violations}")


def test_criterion_04_fig4_quantization(fig4):
    _, table = fig4
    targets = {"1": -12.39, "2": -18.67, "4": -22.81, "inf": -25.63}
    details = []
    point_ok = True
    for label, target in targets.items():
        got = table[("single_rf", 2, 64, label)]["D_dB_mean"]
        details.append(f"B={label}: {got:+.2f} vs {target:+.2f}")
        point_ok &= abs(got - target) <= 1.0
    order_ok = all(
        table[("single_rf", k, 64, "1")]["D_dB_mean"]
        > table[("single_rf", k, 64, "2")]["D_dB_mean"]
        > table[("single_rf", k, 64, "4")]["D_dB_mean"]
        > table[("single_rf", k, 64, "inf")]["D_dB_mean"]
        for k in K_RANGE
    )
    ok = point_ok and order_ok
    assert report(4, "fig4 quantization", ok,
                  "; ".join(details) + f"; strict ordering at every K: {order_ok}")


def test_criterion_05_baseline_crossover(fig2):
    _, table = fig2
    gaps = {
        k: table[("mf_digital", k, 225, "4")]["D_dB_mean"]
        - table[("single_rf", k, 121, "4")]["D_dB_mean"]
        for k in K_RANGE if k >= 4
    }
    ok = all(gap > 0 for gap in gaps.values())
    worst = min(gaps.items(), key=lambda kv: kv[1])
    assert report(5, "baseline crossover", ok,
                  f"single-RF M=121 beats digital MF M=225 for all K>=4: {ok} "
                  f"(smallest margin {worst[1]:+.2f} dB at K={worst[0]})")


def brute_force_optimum(matrix, s):
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


def test_criterion_06_oracle_equivalence():
    # KNOWN RED: the specified update w <- Quant(w + psi*v) with
    # psi = psi0/(A*rho^2), psi0 in (0,1), takes steps far smaller than the
    # unit displacement a 1-bit phase flip requires, so the iteration freezes
    # at the quantized init on these instances and cannot approach the
    # exhaustive optimum.  See the decisions ledger for the full analysis.
    rng = np.random.default_rng(20260808)
    cb = PhaseCodebook(1)
    ratios = []
    lower_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        eff = EffectiveMatrix.from_matrix(crandn(rng, k, m))
        s = crandn(rng, k)
        opt = brute_force_optimum(eff.matrix, s)
        sol = solve(eff, s, cb)
        lower_ok &= sol.final_objective >= opt - 1e-9
        ratios.append(sol.final_objective / max(opt, 1e-300))
    ratios = np.array(ratios)
    within = float(np.mean(ratios <= 1.02))
    ok = lower_ok and within == 1.0
    report(6, "oracle equivalence", ok,
           f"lower bound holds: {lower_ok}; instances within 1.02x of the "
           f"exhaustive optimum: {within:.0%} (worst ratio {ratios.max():.3g})")
    assert lower_ok, "solver may never beat the exhaustive optimum"
    assert within == 1.0, (
        f"only {within:.0%} of instances within 1.02x of the exhaustive optimum; "
        "structurally unattainable for the specified iteration (see ledger)"
    )


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(2, 9))
        eff = EffectiveMatrix.from_matrix(crandn(rng, k, m))
        s = crandn(rng, k)
        w = quantize_phases(crandn(rng, m), PhaseCodebook(None))
        gain = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        v = eff.matrix.conj().T @ (s - gain * (eff.matrix @ w))

        def objective(u):
            r = s - eff.matrix @ u
            return float(np.real(np.vdot(r, r)))

        u0 = gain * w
        h = 1e-6
        grad = np.zeros(2 * m)
        for i in range(m):
            for part, delta in ((0, h), (1, 1j * h)):
                up = u0.copy()
                up[i] += delta
                um = u0.copy()
                um[i] -= delta
                grad[i + part * m] = (objective(up) - objective(um)) / (2 * h)
        stacked = np.concatenate([v.real, v.imag])
        err = np.linalg.norm(grad - (-2.0) * stacked) / np.linalg.norm(2.0 * stacked)
        worst = max(worst, err)
    ok = worst <= 1e-5
    assert report(7, "gradient check", ok,
                  f"50 instances, v = -grad/2 of the transmit-vector objective "
                  f"by central differences; worst relative error {worst:.2e}")


def test_criterion_08_gain_optimality():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(50):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(2, 9))
        eff = EffectiveMatrix.from_matrix(crandn(rng, k, m))
        s = crandn(rng, k)
        w = quantize_phases(crandn(rng, m), PhaseCodebook(None))
        best = float(_gain_and_objective(eff, w[:, None], s[:, None])[0][0])

        def objective(gain):
            r = s - gain * (eff.matrix @ w)
            return float(np.real(np.vdot(r, r)))

        base = objective(best)
        ok &= objective(best + 1e-3) > base and objective(best - 1e-3) > base
    assert report(8, "gain-update optimality", ok,
                  "perturbing the closed-form gain by +-1e-3 strictly "
                  "increases the objective on all 50 instances")


def test_criterion_09_path_loss_invariance():
    k, m, n = 4, 64, 50
    cfg = preset_config("fig2")
    surface = build_surface(cfg, m)
    fading = draw_fading(k, m, np.random.default_rng(1234))
    symbols = draw_fading(k, n, np.random.default_rng(5678))
    codebook = PhaseCodebook(4)
    values = []
    for draw in range(10):
        users = draw_users(k, cfg, np.random.default_rng(9000 + draw))
        chan = assemble_channel(users, fading)
        gains = compensating_gains(users)
        eff = EffectiveMatrix.build(gains, chan, surface)
        sol = solve_block(eff, symbols, codebook)
        x = transmit_block(surface, sol.w, sol.gains)
        values.append(distortion(symbols, gains, chan, x))
    values = np.array(values)
    spread = float(np.max(np.abs(values - values[0])) / values[0])
    ok = spread <= 1e-12
    assert report(9, "path-loss invariance", ok,
                  f"10 large-scale draws, fixed fading: relative spread of D "
                  f"= {spread:.2e} (<= 1e-12)")


def test_criterion_10_determinism_across_workers(fig2, tmp_path_factory):
    out1, _ = fig2
    out2 = tmp_path_factory.mktemp("accept_fig2_w2")
    run_sweep(preset_config("fig2"), out2, workers=2)
    trials_same = (out1 / TRIALS_CSV).read_bytes() == (out2 / TRIALS_CSV).read_bytes()
    summary_same = (out1 / SUMMARY_CSV).read_bytes() == (out2 / SUMMARY_CSV).read_bytes()
    ok = trials_same and summary_same
    assert report(10, "worker-count determinism", ok,
                  f"trials.csv identical: {trials_same}, "
                  f"summary.csv identical: {summary_same}")
