"""Property test of the reproducibility contract: a sweep's bytes do not
depend on its worker count, and a sweep cut anywhere in ``trials.csv``
resumes, at either worker count, to the bytes of the uninterrupted one."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ristx.harness import (MANIFEST_JSON, SUMMARY_CSV, TRIALS_CSV, ConfigError, SimConfig,
                           run_sweep)


def subsets(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=len(values),
                    unique=True)


@st.composite
def configs(draw):
    return SimConfig(
        m_list=draw(subsets([1, 4, 9, 16, 225])),
        k_list=draw(subsets([1, 2, 3, 4])),
        b_list=draw(subsets([1, 2, 4, None])),
        trials=draw(st.integers(1, 3)),
        num_intervals=draw(st.integers(1, 8)),
        master_seed=draw(st.integers(0, 2**63)),
        schemes=draw(st.sampled_from([("single_rf",), ("single_rf", "mf_digital"),
                                      ("mf_digital", "single_rf")])),
    )


def sweep(cfg, out, workers=1, resume=False):
    """The bytes of ``trials.csv`` and ``summary.csv`` that ``run_sweep``
    writes to ``out``."""
    run_sweep(cfg, out, workers=workers, resume=resume)
    return [(out / name).read_bytes() for name in (TRIALS_CSV, SUMMARY_CSV)]


def check_cut_resumes(cfg, data, workers, pooled_too=False):
    """Cut the uninterrupted ``trials.csv`` after a drawn number of bytes,
    which may fall inside the header or a row, beside its manifest: a resume
    under another ``r_max`` is refused, and one at ``workers`` completes it."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        full = sweep(cfg, tmp / "full")
        if pooled_too:
            assert sweep(cfg, tmp / "pooled", workers=2) == full
        (tmp / "cut").mkdir()
        cut = data.draw(st.integers(0, len(full[0])), label="cut")
        (tmp / "cut" / TRIALS_CSV).write_bytes(full[0][:cut])
        (tmp / "cut" / MANIFEST_JSON).write_bytes((tmp / "full" / MANIFEST_JSON).read_bytes())
        # the rows of another r_max pass the plan's keys: the manifest refuses them
        with pytest.raises(ConfigError) as refused:
            run_sweep(replace(cfg, r_max=2 * cfg.r_max), tmp / "cut", resume=True)
        assert refused.value.field == "resume"
        assert (tmp / "cut" / TRIALS_CSV).read_bytes() == full[0][:cut]
        assert sweep(cfg, tmp / "cut", workers=workers, resume=True) == full
        # a resume keeps rows, and reads as resumed, only if the cut holds a whole point
        whole_points = max(0, full[0][:cut].count(b"\n") - 1) // (
            cfg.trials * len(cfg.schemes))
        manifest = json.loads((tmp / "cut" / MANIFEST_JSON).read_text())
        assert manifest["resumed"] == (whole_points > 0)


@settings(max_examples=80)
@given(configs(), st.data())
def test_a_cut_serial_sweep_resumes_to_the_same_bytes(cfg, data):
    check_cut_resumes(cfg, data, workers=1)


# Each example may fork two pools of two workers: few examples.
@settings(max_examples=10)
@given(configs(), st.data())
def test_pooled_sweep_and_its_resume_match_the_serial_bytes(cfg, data):
    check_cut_resumes(cfg, data, workers=2, pooled_too=True)
