"""Property tests of the config boundary: every config either raises a
``ConfigError`` naming one of its fields, or sweeps with no failed trial and
a finite value in every ``trials.csv`` cell; and every trial point either
raises a ``ConfigError`` naming one of ``run_trial``'s point arguments, or
runs to finite rows."""

import csv
import math
import tempfile

from hypothesis import given, settings, strategies as st

from ristx.harness import (
    TRIAL_COLUMNS,
    TRIALS_CSV,
    ConfigError,
    SimConfig,
    run_sweep,
    run_trial,
)


def log_uniform(low=1e-323, high=1e308):
    """Positive floats whose decimal exponent is uniform over [low, high],
    by default the float range from the subnormal 1e-323 to 1e308."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def positive(low, high):
    """Log-uniform over the physical range [low, high] three times in four,
    else over the whole float range: a config with every field in range
    sweeps, and one field at a time leaves it to probe the boundary."""
    return st.integers(0, 3).flatmap(
        lambda i: log_uniform() if i == 0 else log_uniform(low, high))


@st.composite
def configs(draw):
    # feed_distance / WAVELENGTH from 1e-2 to 1e4 and r_max / R_MIN from 1 to 1e4
    return {
        "feed_distance": draw(st.none() | positive(8e-5, 80.0)),
        "r_max": draw(positive(1e2, 1e6)),
        "path_loss_exponent": draw(positive(2.0, 6.0)),
        "shadow_std_db": draw(st.just(0.0) | positive(1.0, 12.0)),
        "zeta_db": draw(st.just(0.0) | positive(1e-2, 10.0).map(lambda v: -v)),
        "m_list": [draw(st.sampled_from([1, 4]))],
        "k_list": [draw(st.sampled_from([1, 2]))],
        "b_list": [draw(st.sampled_from([1, 4, "continuous"]))],
        "trials": 1,
        "num_intervals": 2,
    }


@settings(max_examples=500)
@given(configs())
def test_config_is_rejected_by_field_or_sweeps_finite(data):
    try:
        cfg = SimConfig.from_dict(data)
    except ConfigError as err:
        assert err.field in SimConfig.__dataclass_fields__
        return
    with tempfile.TemporaryDirectory() as out:
        run_sweep(cfg, out)  # raises RuntimeError if any trial failed
        with open(f"{out}/{TRIALS_CSV}", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    assert len(rows) == len(cfg.schemes)
    assert_finite(rows)


def assert_finite(rows):
    for row in rows:
        # the benchmark runs no solver: its solver columns are NaN by design
        values = TRIAL_COLUMNS if row["scheme"] == "single_rf" else TRIAL_COLUMNS[:-2]
        for name in values[6:]:
            assert math.isfinite(float(row[name])), (name, row)


def point_value(valid, low, high):
    """Three times in four one of ``valid``, else a value of any kind: a
    number in [low, high], whole or not, a non-finite float, a bool, a
    string or None."""
    wild = (st.integers(low, high) | st.floats(low, high)
            | st.sampled_from([math.nan, math.inf, True, False, None, "", "2", "x"]))
    return st.integers(0, 3).flatmap(lambda i: wild if i == 0 else st.sampled_from(valid))


POINT_CONFIG = SimConfig(m_list=(4,), k_list=(2,), b_list=(1,), num_intervals=4, trials=1)


@settings(max_examples=300)
@given(num_users=point_value([1, 2.0, 6], -1, 7),
       num_elements=point_value([1, 4.0, 9, 16], -1, 17),
       b=point_value([1, 2.0, "4", 16, None, "continuous", "inf"], -1, 17),
       trial_index=point_value([0, 1.0, 3], -2, 3))
def test_trial_point_is_rejected_by_argument_or_runs_finite(num_users, num_elements, b,
                                                            trial_index):
    # at sizes that fit, whatever the config's own lists hold
    try:
        rows, _ = run_trial(POINT_CONFIG, num_users, num_elements, b, trial_index)
    except ConfigError as err:
        assert err.field in ("num_users", "num_elements", "b", "trial_index")
        return
    assert [row["scheme"] for row in rows] == list(POINT_CONFIG.schemes)
    assert_finite(rows)
