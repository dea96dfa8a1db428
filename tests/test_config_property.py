"""Property test of the config boundary: every config either raises a
``ConfigError`` naming one of its fields, or sweeps with no failed trial and
a finite value in every ``trials.csv`` cell."""

import csv
import math
import tempfile

from hypothesis import given, settings, strategies as st

from ristx.errors import ConfigError
from ristx.harness import TRIAL_COLUMNS, TRIALS_CSV, SimConfig, run_sweep


def log_uniform():
    """Positive floats whose decimal exponent is uniform over the float
    range, from the subnormal 1e-323 to 1e308."""
    return st.floats(-323.0, 308.0).map(lambda e: 10.0**e)


@st.composite
def configs(draw):
    r_min, r_max = sorted((draw(log_uniform()), draw(log_uniform())))
    return {
        "feed_power": draw(log_uniform()),
        "wavelength": draw(log_uniform()),
        "feed_distance": draw(st.none() | log_uniform()),
        "r_min": r_min,
        "r_max": r_max,
        "path_loss_exponent": draw(log_uniform()),
        "shadow_std_db": draw(st.just(0.0) | log_uniform()),
        "zeta_db": draw(st.just(0.0) | log_uniform().map(lambda v: -v)),
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
