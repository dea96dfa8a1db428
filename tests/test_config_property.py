"""Property test of the config boundary: every config either raises a
``ConfigError`` naming one of its fields, or sweeps with no failed trial and
a finite value in every ``trials.csv`` cell."""

import csv
import math
import tempfile

from hypothesis import given, settings, strategies as st

from ristx.errors import ConfigError
from ristx.harness import TRIAL_COLUMNS, TRIALS_CSV, SimConfig, run_sweep


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
    r_min, r_max = sorted((draw(positive(1.0, 1e3)), draw(positive(1e2, 1e4))))
    return {
        "wavelength": draw(positive(1e-3, 1.0)),
        "feed_distance": draw(st.none() | positive(1e-2, 10.0)),
        "r_min": r_min,
        "r_max": r_max,
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
        run_sweep(cfg, out)  # raises TrialError if any trial failed
        with open(f"{out}/{TRIALS_CSV}", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    assert len(rows) == len(cfg.schemes)
    for row in rows:
        # the benchmark runs no solver: its solver columns are NaN by design
        values = TRIAL_COLUMNS if row["scheme"] == "single_rf" else TRIAL_COLUMNS[:-2]
        for name in values[6:]:
            assert math.isfinite(float(row[name])), (name, row)
