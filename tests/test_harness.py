import concurrent.futures
import dataclasses
import io
import json
import os
import platform
import re
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import ristx
import ristx.channel
import ristx.geometry
import ristx.harness
from ristx.harness import (
    SUMMARY_CSV,
    TRIAL_COLUMNS,
    TRIALS_CSV,
    MANIFEST_JSON,
    ConfigError,
    SimConfig,
    b_label,
    build_surface,
    derive_trial_streams,
    format_row,
    preset_config,
    run_sweep,
    run_trial,
    sweep_points,
    trial_rows,
)


# Fields of earlier revisions.  A config or an older manifest echo that
# names one is rejected by that name, whatever its value.
REMOVED_FIELDS = ("track_best", "noise_var", "step_scale", "change_threshold",
                  "max_iterations", "feed_power", "wavelength", "r_min")


def tiny_config(**kw):
    base = dict(
        m_list=(4,),
        b_list=(1, None),
        k_list=(2, 3),
        num_intervals=6,
        trials=3,
        master_seed=99,
    )
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = SimConfig()
        assert cfg.m_list == (64, 121, 225)
        assert cfg.k_list == tuple(range(2, 33, 2))
        assert cfg.num_intervals == 100
        assert ristx.geometry.WAVELENGTH == 0.008
        assert ristx.channel.R_MIN == 100.0

    # pytest would number array and dict values by position: their ids are
    # pinned, so that a case keeps its id when an earlier one goes
    @pytest.mark.parametrize(
        "field,value",
        [
            pytest.param("k_list", (), id="k_list-value0"),
            pytest.param("m_list", (), id="m_list-value1"),
            pytest.param("m_list", (5,), id="m_list-value2"),
            pytest.param("b_list", (0,), id="b_list-value3"),
            ("r_max", 50.0),
            ("trials", 0),
            pytest.param("schemes", ("mf_digital",), id="schemes-value7"),
            ("num_intervals", 0),
            ("master_seed", -1),
            pytest.param("b_list", (17,), id="b_list-value10"),
            pytest.param("b_list", (4.5,), id="b_list-value11"),
            pytest.param("b_list", (True,), id="b_list-value12"),
            ("r_max", 100.0),
            ("shadow_std_db", -1.0),
            ("path_loss_exponent", 0.0),
            ("trials", 2.5),
            pytest.param("schemes", ("single_rf", "single_rf"), id="schemes-value22"),
            ("feed_beamwidth_deg", 60.0),
            ("r_max", 1e100),
            ("r_max", 1e200),
            ("shadow_std_db", 1e5),
            ("shadow_std_db", 800.0),
            ("feed_distance", 1e160),
            pytest.param("k_list", (2, 2.0), id="k_list-value33"),
            pytest.param("m_list", (4, 64, 4), id="m_list-value34"),
            pytest.param("b_list", (4, "4"), id="b_list-value35"),
            pytest.param("b_list", ("continuous", "inf"), id="b_list-value36"),
            ("zeta_db", -3000.0),
            pytest.param("r_max", dict(r_max=1e100, path_loss_exponent=3.0,
                                       shadow_std_db=100.0), id="r_max-value38"),
            pytest.param("num_intervals", dict(m_list=(65536,), num_intervals=129),
                         id="num_intervals-block-cap"),
            pytest.param("num_intervals", 1e20, id="num_intervals-1e20"),
            pytest.param("k_list", (1e20,), id="k_list-1e20"),
        ],
    )
    def test_invalid_fields_name_the_field(self, field, value):
        # a dict value holds several fields to change; any other is ``field``'s
        changes = value if isinstance(value, dict) else {field: value}
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(SimConfig(), **changes)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "value", [None, True, "x", 2.5, float("nan"), float("inf"), [], {}],
        ids=["null", "true", "string", "fraction", "nan", "inf", "array", "object"],
    )
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SimConfig)] + list(REMOVED_FIELDS))
    def test_any_json_value_is_accepted_or_named(self, field, value):
        try:
            cfg = SimConfig.from_dict({field: value})
        except ConfigError as err:
            assert err.field == field
        else:
            assert dataclasses.replace(cfg) == cfg

    @pytest.mark.parametrize(
        "changes", [{"trials": 2.5}, {"shadow_std_db": 1e5}, {"schemes": ("mf_digital",)}],
        ids=["trials", "shadow_std_db", "schemes"],
    )
    def test_construction_names_the_field(self, changes):
        # no invalid config exists for run_trial to see
        (field,) = changes
        for build in (SimConfig, lambda **kw: dataclasses.replace(SimConfig(), **kw)):
            with pytest.raises(ConfigError) as err:
                build(**changes)
            assert err.value.field == field

    def test_schemes_stored_in_trial_order(self):
        cfg = SimConfig(schemes=("mf_digital", "single_rf"))
        assert cfg.schemes == ("single_rf", "mf_digital")

    def test_unlit_surface_names_its_size(self):
        # a 60 degree beam misses the corner elements of every default size
        with pytest.raises(ConfigError, match="M=64") as err:
            SimConfig(feed_beamwidth_deg=60.0)
        assert err.value.field == "feed_beamwidth_deg"

    def test_whole_floats_become_ints(self):
        cfg = SimConfig.from_dict({"m_list": [4.0], "k_list": [2.0], "b_list": [2.0],
                                   "trials": 3.0})
        values = (*cfg.m_list, *cfg.k_list, *cfg.b_list, cfg.trials)
        assert values == (4, 2, 2, 3) and all(type(v) is int for v in values)

    def test_round_trip(self):
        cfg = tiny_config()
        again = SimConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_b_list_json_spellings(self):
        cfg = SimConfig.from_dict(SimConfig(b_list=(4, None)).to_dict())
        assert cfg.b_list == (4, None)
        cfg = SimConfig.from_dict({"b_list": [2, "inf"]})
        assert cfg.b_list == (2, None)
        cfg = SimConfig.from_dict({"b_list": ["4", "continuous"]})
        assert cfg.b_list == (4, None) and type(cfg.b_list[0]) is int

    def test_unknown_field_rejected(self):
        # the length units of earlier revisions are refused by name too
        for data in ({"bogus": 1}, {"wavelength": 0.008}, {"r_min": 100.0}):
            (name,) = data
            with pytest.raises(ConfigError,
                               match=f"^config field '{name}': unknown config field$"):
                SimConfig.from_dict(data)

    def test_feed_distance_rule(self):
        cfg = SimConfig()
        assert cfg.feed_distance_for(64) == pytest.approx(0.008 * np.sqrt(64 / np.pi))
        explicit = SimConfig(feed_distance=0.25)
        assert explicit.feed_distance_for(64) == 0.25

    def test_preset_point_counts(self):
        fig2 = preset_config("fig2")
        assert len(sweep_points(fig2)) == 48
        assert fig2.schemes == ("single_rf", "mf_digital")
        fig3 = preset_config("fig3")
        assert len(sweep_points(fig3)) == 48
        assert fig3.schemes == ("single_rf",)
        fig4 = preset_config("fig4")
        assert len(sweep_points(fig4)) == 64
        for name in ("fig9", ["fig2"], {"fig2": 1}):
            message = (f"config field 'preset': unknown preset {name!r}; "
                       "the presets are fig2, fig3, fig4")
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                preset_config(name)

    def test_preset_overrides(self):
        cfg = preset_config("fig2", trials=7, master_seed=3)
        assert cfg.trials == 7 and cfg.master_seed == 3


class TestSeeding:
    def test_streams_are_reproducible(self):
        a = derive_trial_streams(1, 2, 4, 2, 0)
        b = derive_trial_streams(1, 2, 4, 2, 0)
        assert a[0] == b[0]
        assert np.array_equal(a[1].random(4), b[1].random(4))
        assert np.array_equal(a[2].random(4), b[2].random(4))

    def test_streams_differ_across_indices(self):
        base = derive_trial_streams(1, 2, 4, 2, 0)[0]
        assert derive_trial_streams(1, 2, 4, 2, 1)[0] != base
        assert derive_trial_streams(1, 2, 4, 1, 0)[0] != base
        assert derive_trial_streams(1, 2, 9, 2, 0)[0] != base
        assert derive_trial_streams(1, 3, 4, 2, 0)[0] != base
        assert derive_trial_streams(2, 2, 4, 2, 0)[0] != base

    def test_continuous_keyed_as_zero(self):
        cont = derive_trial_streams(1, 2, 4, None, 0)[0]
        assert cont == derive_trial_streams(1, 2, 4, 0, 0)[0]


def refused(arg, value, description):
    """A ``run_trial`` case whose ``arg`` is ``value``, and the full
    ``ConfigError`` message that names it."""
    message = f"config field '{arg}': {value!r} is not {description}"
    return pytest.param({arg: value}, f"^{re.escape(message)}$", id=f"{arg}={value!r}")


class TestRunTrial:
    def test_smoke_contract(self):
        cfg = tiny_config()
        rows, record = run_trial(cfg, 2, 4, 1, 0)
        assert [r["scheme"] for r in rows] == ["single_rf", "mf_digital"]
        assert record is None
        seed = derive_trial_streams(cfg.master_seed, 2, 4, 1, 0)[0]
        for r in rows:
            assert list(r) == list(TRIAL_COLUMNS)
            assert np.isfinite(r["D_dB"]) and r["P_out"] > 0 and r["PAPR_dB"] >= 0.0
            assert r["trial_seed"] == seed

    def test_rows_have_expected_columns(self):
        cfg = tiny_config()
        rows = trial_rows(cfg, 2, 4, None, 1)
        assert rows[0]["B"] == "inf" and rows[0]["scheme"] == "single_rf"
        assert rows[0]["trial_index"] == 1
        assert rows[0]["trial_seed"] == derive_trial_streams(99, 2, 4, None, 1)[0]
        whole = trial_rows(cfg, 2, 4, None, 1.0)  # a whole float is that index
        assert whole == rows and type(whole[0]["trial_index"]) is int
        # the point is read as the config reads k_list, m_list and b_list entries
        spelled = trial_rows(cfg, 2.0, 4.0, "continuous", 1)
        assert spelled == rows and spelled[0]["B"] == "inf"
        assert type(spelled[0]["K"]) is int and type(spelled[0]["M"]) is int

    def test_scalar_chain_is_exact(self):
        # one element, one user, continuous phases: the tuner matches the
        # symbol exactly, so the distortion collapses to numerical zero
        cfg = tiny_config(
            m_list=(1,), b_list=(None,), k_list=(1,), num_intervals=1,
            shadow_std_db=0.0, schemes=("single_rf",), trials=1,
        )
        rows, _ = run_trial(cfg, 1, 1, None, 0)
        assert rows[0]["D_linear"] <= 1e-12

    @pytest.mark.parametrize("args,match", [
        *(refused("num_users", v, "a positive whole number") for v in (0, True)),
        *(refused("num_elements", v, "a positive perfect square up to 65536")
          for v in (0, 3, 4.5, 66049, True)),
        *(refused("b", v, "a bit depth in 1..16 or 'continuous'") for v in (0, 2.5, 17)),
        *(refused("trial_index", v, "a whole number >= 0") for v in (-1, -2.0, 1.5, True, "1")),
        # a 4-element surface at a 9-element point: the stages trust their
        # shapes, and the effective matrix's broadcast refuses them
        pytest.param({"num_elements": 9, "surface": 4}, "broadcast",
                     id="num_elements=9,surface=4"),
    ])
    def test_error_is_the_module_error(self, args, match):
        # the sweep point is named where the sweep collects the failure
        cfg = tiny_config()
        if "surface" in args:
            args = args | {"surface": build_surface(cfg, args["surface"])}
        with pytest.raises(ValueError, match=match):
            run_trial(cfg, **({"num_users": 2, "num_elements": 4, "b": 1, "trial_index": 5}
                              | args))

    @pytest.mark.parametrize("num_users,num_elements,num_intervals,field", [
        (129, 65536, 100, "num_users"),
        (10**6, 64, 100, "num_users"),
        (2, 65536, 200, "num_elements"),
        (128, 65536, 100, None),  # 2**23 entries: at the bound
        (2, 65536, 128, None),
    ])
    def test_point_arrays_are_bounded(self, monkeypatch, num_users, num_elements,
                                      num_intervals, field):
        # as the config bounds its largest point, before any stage runs
        def first_stage():
            raise RuntimeError("reached the first stage")

        monkeypatch.setattr("ristx.harness._trial_process", first_stage)
        cfg = SimConfig(num_intervals=num_intervals)
        if field is None:
            with pytest.raises(RuntimeError, match="first stage"):
                run_trial(cfg, num_users, num_elements, 4, 0)
        else:
            with pytest.raises(ConfigError, match=f"^config field '{field}': is too large"):
                run_trial(cfg, num_users, num_elements, 4, 0)

    @pytest.mark.parametrize("b,schemes,blocks", [
        (4, ("single_rf", "mf_digital"), 3.5),
        (None, ("single_rf",), 4.5),
    ], ids=["B=4-with-mf", "continuous"])
    def test_peak_memory_in_blocks(self, b, schemes, blocks):
        # each stage allocates the (M, N) blocks it needs once, and the
        # trial drops each block after its last use
        num_elements, num_intervals = 4096, 128
        cfg = SimConfig(m_list=(num_elements,), b_list=(b,), k_list=(2,),
                        num_intervals=num_intervals, schemes=schemes)
        surface = build_surface(cfg, num_elements)
        tracemalloc.start()
        try:
            run_trial(cfg, 2, num_elements, b, 0, surface)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= blocks * num_elements * num_intervals * 16

    def test_record_schema(self):
        cfg = tiny_config()
        _, record = run_trial(cfg, 2, 4, 4, 0, with_record=True)
        assert list(record) == ["config", "users", "surface", "solver", "results"]
        assert record["config"] == cfg.to_dict()
        assert len(record["users"]) == 2
        assert set(record["users"][0]) == {"r_k", "alpha_k_dB"}
        surf = record["surface"]
        assert set(surf) == {"T", "omega"} and len(surf["T"]) == len(surf["omega"]) == 4
        assert len(record["solver"]["iterations"]) == cfg.num_intervals
        # strict JSON as it is: the MF row's NaN solver columns are null
        json.dumps(record, allow_nan=False)
        assert [r["scheme"] for r in record["results"]] == ["single_rf", "mf_digital"]
        assert [r["K"] for r in record["results"]] == [2, 2]
        assert record["results"][1]["iterations_mean"] is None
        # numpy integer arguments give the same rows and a record that is JSON too
        cfg = SimConfig(master_seed=7)
        rows, record = run_trial(cfg, np.int64(2), np.int64(64), np.int64(4), np.int64(0),
                                 with_record=True)
        json.dumps(record, allow_nan=False)
        assert rows == run_trial(cfg, 2, 64, 4, 0)[0]

    def test_record_surface_echoes_config(self):
        # the record's config, with a results row's point, runs the same
        # trial: the same rows and, after a JSON round trip, the same record
        for cfg, point in [
            (SimConfig(master_seed=7, zeta_db=-3.0, feed_beamwidth_deg=100.0,
                       b_list=(None,)), (4, 64, "continuous", 3)),
            (SimConfig(feed_distance=0.05, num_intervals=8), (32, 121, 4, 0)),
            (SimConfig(master_seed=2**70, zeta_db=-0.5, num_intervals=7, b_list=("inf",),
                       schemes=("single_rf",)), (2, 16, None, 1)),
        ]:
            rows, record = run_trial(cfg, *point, with_record=True)
            record = json.loads(json.dumps(record, allow_nan=False))
            rebuilt = SimConfig.from_dict(record["config"])
            assert rebuilt == cfg
            surface = build_surface(rebuilt, point[1])
            assert record["surface"] == {"T": surface.attenuation.tolist(),
                                         "omega": surface.phase.tolist()}
            for row in record["results"]:
                again, rerun = run_trial(rebuilt, row["K"], row["M"], row["B"],
                                         row["trial_index"], with_record=True)
                assert json.loads(json.dumps(rerun, allow_nan=False)) == record
                assert [format_row(r, TRIAL_COLUMNS) for r in again] == \
                    [format_row(r, TRIAL_COLUMNS) for r in rows]

    def test_surface_cache_equivalence(self):
        cfg = tiny_config()
        surface = build_surface(cfg, 4)
        fresh = build_surface(cfg, 4)
        assert np.array_equal(surface.attenuation, fresh.attenuation)
        assert np.array_equal(surface.phase, fresh.phase)
        with_cache, _ = run_trial(cfg, 2, 4, 1, 0, surface=surface)
        without, _ = run_trial(cfg, 2, 4, 1, 0)
        assert with_cache[0]["D_linear"] == without[0]["D_linear"]


class TestSweep:
    def test_writes_dataset(self, tmp_path):
        cfg = tiny_config()
        summary = run_sweep(cfg, tmp_path / "out")
        trials = (tmp_path / "out" / TRIALS_CSV).read_text().strip().split("\n")
        # header + points * trials * schemes rows
        assert len(trials) == 1 + 4 * 3 * 2
        assert trials[0].startswith("scheme,K,M,B,trial_index,trial_seed,D_dB")
        assert len(summary) == 4 * 2
        manifest = json.loads((tmp_path / "out" / MANIFEST_JSON).read_text())
        assert manifest["config"]["master_seed"] == 99
        assert SimConfig.from_dict(manifest["config"]) == cfg

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = tiny_config()
        run_sweep(cfg, tmp_path / "w1", workers=1)
        run_sweep(cfg, tmp_path / "w2", workers=2)
        assert (tmp_path / "w1" / TRIALS_CSV).read_bytes() == \
            (tmp_path / "w2" / TRIALS_CSV).read_bytes()
        assert (tmp_path / "w1" / SUMMARY_CSV).read_bytes() == \
            (tmp_path / "w2" / SUMMARY_CSV).read_bytes()

    @pytest.mark.parametrize(
        "changes,workers,resume,pool_sizes",
        [({"k_list": (2,)}, 3, False, [2]),
         ({"k_list": (2,)}, 2.0, False, [2]),
         ({"b_list": (1,), "k_list": (2,)}, 2, False, []),
         ({"k_list": (2,)}, 2, True, [])],
        ids=["2-points-3-workers", "2-points-2.0-workers", "1-point-2-workers",
             "finished-resume-2-workers"],
    )
    def test_pool_never_outnumbers_points_to_run(self, tmp_path, monkeypatch, changes,
                                                 workers, resume, pool_sizes):
        created = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                created.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        cfg = tiny_config(**changes)
        run_sweep(cfg, tmp_path / "serial")
        out = tmp_path / "pool"
        if resume:
            out.mkdir()
            for name in (TRIALS_CSV, MANIFEST_JSON):
                (out / name).write_bytes((tmp_path / "serial" / name).read_bytes())
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        run_sweep(cfg, out, workers=workers, resume=resume)
        assert created == pool_sizes
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["workers"] == (pool_sizes or [1])[0]
        assert type(manifest["workers"]) is int
        for name in (TRIALS_CSV, SUMMARY_CSV):
            assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    @pytest.mark.parametrize("workers", [2.5, True, "2", 0, -1])
    def test_workers_are_read_before_anything_is_written(self, tmp_path, workers):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=re.escape(f"'workers': {workers!r} is not")):
            run_sweep(tiny_config(), out, workers=workers)
        assert not out.exists()

    def test_manifest_round_trip_reproduces_dataset(self, tmp_path):
        cfg = tiny_config()
        run_sweep(cfg, tmp_path / "a")
        manifest = json.loads((tmp_path / "a" / MANIFEST_JSON).read_text())
        run_sweep(SimConfig.from_dict(manifest["config"]), tmp_path / "b")
        assert (tmp_path / "a" / TRIALS_CSV).read_bytes() == \
            (tmp_path / "b" / TRIALS_CSV).read_bytes()

    # tiny_config plans 4 points x 3 trials x 2 schemes: 24 rows after the
    # header.  A cut keeps this many lines, header included.  A torn cut
    # then writes the next line less its last character and its newline:
    # a row cut inside its last value, which still has every column.
    @pytest.mark.parametrize(
        "workers,cut,torn",
        [(w, cut, torn) for w in (1, 2) for cut, torn in
         ((1, False), (8, False), (12, True), (15, False), (25, False))],
        ids=[f"{w}-{name}" for w in (1, 2) for name in
             ("header", "mid-trial", "mid-row", "later-point", "complete")],
    )
    def test_resume_completes_identically(self, tmp_path, workers, cut, torn):
        cfg = tiny_config()
        run_sweep(cfg, tmp_path / "full")
        full = (tmp_path / "full" / TRIALS_CSV).read_text()
        lines = full.strip().split("\n")
        assert len(lines) == 25
        partial_dir = tmp_path / "partial"
        partial_dir.mkdir()
        (partial_dir / TRIALS_CSV).write_text(
            "\n".join(lines[:cut]) + "\n" + (lines[cut][:-1] if torn else ""))
        if cut > 1:  # a cut that keeps a whole point resumes only beside its manifest
            (partial_dir / MANIFEST_JSON).write_bytes(
                (tmp_path / "full" / MANIFEST_JSON).read_bytes())
        run_sweep(cfg, partial_dir, workers=workers, resume=True)
        assert (partial_dir / TRIALS_CSV).read_text() == full
        assert (partial_dir / SUMMARY_CSV).read_bytes() == \
            (tmp_path / "full" / SUMMARY_CSV).read_bytes()

    def test_resume_stops_reading_at_a_malformed_line(self, tmp_path):
        # a complete line short of a field, or one with a value that
        # summarize cannot read, ends the rows a resume reads: the whole
        # points before it are kept (two before line 15, none before line 1),
        # and the rest runs again
        cfg = tiny_config()
        run_sweep(cfg, tmp_path / "full")
        full = (tmp_path / "full" / TRIALS_CSV).read_text()
        d_db = TRIAL_COLUMNS.index("D_dB")
        for case, (line, malform) in enumerate([
            (15, lambda parts: parts[:-1]),
            (15, lambda parts: parts[:d_db] + ["x"] + parts[d_db + 1:]),
            (1, lambda parts: parts[:d_db] + ["x"] + parts[d_db + 1:]),
        ]):
            lines = full.strip().split("\n")
            lines[line] = ",".join(malform(lines[line].split(",")))
            partial_dir = tmp_path / f"partial{case}"
            partial_dir.mkdir()
            (partial_dir / TRIALS_CSV).write_text("\n".join(lines[:20]) + "\n")
            (partial_dir / MANIFEST_JSON).write_bytes(
                (tmp_path / "full" / MANIFEST_JSON).read_bytes())
            run_sweep(cfg, partial_dir, resume=True)
            manifest = json.loads((partial_dir / MANIFEST_JSON).read_text())
            assert manifest["resumed"] is (line > 1)
            assert (partial_dir / TRIALS_CSV).read_text() == full
            assert (partial_dir / SUMMARY_CSV).read_bytes() == \
                (tmp_path / "full" / SUMMARY_CSV).read_bytes()

    def test_resume_with_schemes_listed_out_of_order(self, tmp_path):
        cfg = tiny_config(schemes=("mf_digital", "single_rf"))
        run_sweep(cfg, tmp_path / "full")
        full = (tmp_path / "full" / TRIALS_CSV).read_text()
        partial_dir = tmp_path / "partial"
        partial_dir.mkdir()
        (partial_dir / TRIALS_CSV).write_text("\n".join(full.split("\n")[:4]) + "\n")
        run_sweep(cfg, partial_dir, resume=True)
        assert (partial_dir / TRIALS_CSV).read_text() == full
        trial_schemes = [line.split(",")[0] for line in full.strip().split("\n")[1:]]
        summary = (partial_dir / SUMMARY_CSV).read_text().strip().split("\n")[1:]
        summary_schemes = [line.split(",")[0] for line in summary]
        assert trial_schemes[:2] == summary_schemes[:2] == ["single_rf", "mf_digital"]
        assert summary_schemes == summary_schemes[:2] * 4

    def test_resume_rejects_foreign_prefix(self, tmp_path):
        cfg = tiny_config()
        run_sweep(cfg, tmp_path / "out")
        other = tiny_config(master_seed=100)
        with pytest.raises(ValueError, match="not a prefix"):
            run_sweep(other, tmp_path / "out", resume=True)

    def test_resume_rejects_longer_than_plan(self, tmp_path):
        # b_list (1,) plans exactly the first half of the (1, None) rows
        run_sweep(tiny_config(), tmp_path / "out")
        with pytest.raises(ValueError, match="not a prefix"):
            run_sweep(tiny_config(b_list=(1,)), tmp_path / "out", resume=True)

    @pytest.mark.parametrize(
        "manifest,changes",
        [("kept", {"r_max": 1500.0}), ("code", {}), ("{", {}), ("missing", {}),
         ("directory", {})],
        ids=["r_max", "code", "unparsable", "missing", "unreadable"],
    )
    def test_resume_rejects_another_config(self, tmp_path, manifest, changes):
        # the plan keys hold no physics field, so a cut dataset of another
        # r_max, or of other code, passes the prefix check: only its manifest
        # tells it apart; the cut keeps a whole point, so a missing or
        # unreadable one refuses
        run_sweep(tiny_config(), tmp_path / "out")
        trials = tmp_path / "out" / TRIALS_CSV
        trials.write_text("\n".join(trials.read_text().split("\n")[:7]) + "\n")
        manifest_path = tmp_path / "out" / MANIFEST_JSON
        if manifest == "code":
            echo = json.loads(manifest_path.read_text())
            manifest_path.write_text(json.dumps(echo | {"code": "0" * 64}))
        elif manifest != "kept":
            manifest_path.unlink()
        if manifest == "directory":
            manifest_path.mkdir()
        elif manifest == "{":
            manifest_path.write_text(manifest)
        kept = trials.read_bytes()
        with pytest.raises(ValueError,
                           match="written under another config or by other ristx code"):
            run_sweep(tiny_config(**changes), tmp_path / "out", resume=True)
        assert trials.read_bytes() == kept

    def test_stop_before_the_first_point_leaves_no_foreign_rows(self, tmp_path,
                                                                monkeypatch):
        # a sweep of another r_max stopped while its pool starts: the rows
        # of the first config must not pass for its own on resume
        out = tmp_path / "out"
        run_sweep(tiny_config(), out)
        other = tiny_config(r_max=500.0)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_sweep(other, out, workers=2)
        assert json.loads((out / MANIFEST_JSON).read_text())["failures"] == ["interrupted"]
        run_sweep(other, out, resume=True)
        run_sweep(other, tmp_path / "fresh")
        for name in (TRIALS_CSV, SUMMARY_CSV):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_manifest_is_written_before_the_first_trial(self, tmp_path, monkeypatch):
        manifest_path = tmp_path / "out" / MANIFEST_JSON
        durations = []
        point_rows = ristx.harness._point_rows

        def spy(*args):
            durations.append(json.loads(manifest_path.read_text())["duration_seconds"])
            return point_rows(*args)

        monkeypatch.setattr("ristx.harness._point_rows", spy)
        run_sweep(tiny_config(), tmp_path / "out")
        assert durations == [None] * 4
        manifest = json.loads(manifest_path.read_text())
        assert manifest["preset"] is None
        assert set(manifest) == {"config", "preset", "code", "workers", "resumed",
                                 "started_utc", "duration_seconds", "failures"}
        assert manifest["duration_seconds"] >= 0.0

    @pytest.mark.parametrize("name,changes", [
        ("fig2", {}), ("fig3", {"master_seed": 8}), ("fig4", {"trials": 5}),
        (None, {"r_max": 900.0}),
    ])
    def test_manifest_names_the_preset_its_config_equals(self, tmp_path, monkeypatch,
                                                          name, changes):
        # worked out from the config alone, at any trial count and seed
        def stop(*args):
            raise RuntimeError("stopped before the first trial")

        monkeypatch.setattr("ristx.harness._point_rows", stop)
        cfg = dataclasses.replace(preset_config(name or "fig2", trials=1), **changes)
        with pytest.raises(RuntimeError, match="stopped"):
            run_sweep(SimConfig.from_dict(cfg.to_dict()), tmp_path)
        assert json.loads((tmp_path / MANIFEST_JSON).read_text())["preset"] == name

    def test_failed_trial_fails_the_sweep_after_writing(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        run_sweep(cfg, tmp_path / "clean")
        run_sweep(cfg, tmp_path / "out")  # a stale summary.csv to remove

        def streams(master_seed, num_users, num_elements, b, trial_index):
            if (num_users, b, trial_index) == (3, None, 1):
                raise FloatingPointError("injected")
            return derive_trial_streams(master_seed, num_users, num_elements, b,
                                        trial_index)

        monkeypatch.setattr("ristx.harness.derive_trial_streams", streams)
        message = "trial failed at K=3 M=4 B=inf trial_index=1: injected"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            run_sweep(cfg, tmp_path / "out")
        # the points before (M=4, B=inf, K=3), the plan's last: 3 points x 3 trials
        clean = (tmp_path / "clean" / TRIALS_CSV).read_text().splitlines()
        assert (tmp_path / "out" / TRIALS_CSV).read_text().splitlines() == \
            clean[:1 + 3 * 3 * 2]
        manifest = json.loads((tmp_path / "out" / MANIFEST_JSON).read_text())
        assert manifest["failures"] == [message]
        assert manifest["duration_seconds"] is None
        assert not (tmp_path / "out" / SUMMARY_CSV).exists()

    # Each kind of early stop: a trial that raises, in this process or in a
    # pool worker, and a pool worker that dies (the fork inherits the patch)
    # once the first point is written, as the pool then ends the point
    # running beside it, which could be the first.
    @pytest.mark.parametrize("workers,stop", [(1, "raise"), (2, "raise"), (2, "die")],
                             ids=["raise-1-worker", "raise-2-workers", "die-2-workers"])
    def test_early_stop_leaves_whole_points_and_resumes(self, tmp_path, monkeypatch,
                                                        workers, stop):
        cfg = tiny_config()  # 4 points x 3 trials x 2 schemes
        run_sweep(cfg, tmp_path / "full")

        def streams(master_seed, num_users, num_elements, b, trial_index):
            if (num_users, b, trial_index) == (2, None, 1):  # the third point
                if stop == "die":
                    deadline = time.monotonic() + 30
                    while ((out / TRIALS_CSV).read_text().count("\n") < 1 + 3 * 2
                           and time.monotonic() < deadline):
                        time.sleep(0.005)
                    os._exit(1)
                raise MemoryError("injected")
            return derive_trial_streams(master_seed, num_users, num_elements, b,
                                        trial_index)

        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            patch.setattr("ristx.harness.derive_trial_streams", streams)
            with pytest.raises(RuntimeError) as stopped:
                run_sweep(cfg, out, workers=workers)
        if stop == "die":
            assert isinstance(stopped.value, BrokenProcessPool)
        else:
            assert str(stopped.value) == "trial failed at K=2 M=4 B=inf trial_index=1: injected"
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["failures"] == [str(stopped.value)]
        assert manifest["duration_seconds"] is None
        assert not (out / SUMMARY_CSV).exists()
        full = (tmp_path / "full" / TRIALS_CSV).read_text().splitlines()
        rows = (out / TRIALS_CSV).read_text().splitlines()
        # a dead worker may also take the point running beside it
        points = [2] if stop == "raise" else [1, 2]
        assert rows in [full[:1 + p * 3 * 2] for p in points]
        run_sweep(cfg, out, workers=workers, resume=True)
        for name in (TRIALS_CSV, SUMMARY_CSV):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_bare_keyboard_interrupt_recorded_as_interrupted(self, tmp_path, monkeypatch):
        def streams(master_seed, num_users, num_elements, b, trial_index):
            if (num_users, trial_index) == (3, 1):
                raise KeyboardInterrupt
            return derive_trial_streams(master_seed, num_users, num_elements, b,
                                        trial_index)

        monkeypatch.setattr("ristx.harness.derive_trial_streams", streams)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(tiny_config(), tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_JSON).read_text())
        assert manifest["failures"] == ["interrupted"]
        assert manifest["duration_seconds"] is None
        assert not (tmp_path / SUMMARY_CSV).exists()

    def test_any_exception_that_ends_the_sweep_is_recorded(self, tmp_path, monkeypatch):
        cfg = tiny_config()  # 4 points x 3 trials x 2 schemes
        run_sweep(cfg, tmp_path / "full")
        format_row = ristx.harness.format_row
        # the disk fills once the first point is written, or once all 24
        # trial rows are, while the summary is written after its header
        for full_at in (cfg.trials * len(cfg.schemes), 24):
            written = []

            def full_disk(row, columns):
                if len(written) == full_at:
                    raise OSError(28, "No space left on device")
                written.append(row)
                return format_row(row, columns)

            out = tmp_path / f"out{full_at}"
            with monkeypatch.context() as patch:
                patch.setattr("ristx.harness.format_row", full_disk)
                with pytest.raises(OSError, match="No space left on device"):
                    run_sweep(cfg, out)
            manifest = json.loads((out / MANIFEST_JSON).read_text())
            assert manifest["failures"] == ["[Errno 28] No space left on device"]
            assert manifest["duration_seconds"] is None
            assert not (out / SUMMARY_CSV).exists()  # not even its header
            run_sweep(cfg, out, resume=True)
            for name in (TRIALS_CSV, SUMMARY_CSV):
                assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_failed_point_cancels_the_points_not_started(self, tmp_path, monkeypatch):
        cfg = tiny_config(k_list=tuple(range(2, 10)))  # 16 points x 3 trials
        started = tmp_path / "started"

        def streams(master_seed, num_users, num_elements, b, trial_index):
            with open(started, "a") as fh:  # one byte per trial, from any process
                fh.write(".")
            if (num_users, b) == (2, 1):  # the first point
                raise MemoryError("injected")
            return derive_trial_streams(master_seed, num_users, num_elements, b,
                                        trial_index)

        monkeypatch.setattr("ristx.harness.derive_trial_streams", streams)
        with pytest.raises(RuntimeError, match="K=2 M=4 B=1 trial_index=0: injected"):
            run_sweep(cfg, tmp_path / "out", workers=2)
        assert len(started.read_text()) < len(sweep_points(cfg)) * cfg.trials

    def test_summary_values_match_trials(self, tmp_path):
        cfg = tiny_config(b_list=(2,), k_list=(2,), trials=4, schemes=("single_rf",))
        summary = run_sweep(cfg, tmp_path / "out")
        rows = (tmp_path / "out" / TRIALS_CSV).read_text().strip().split("\n")[1:]
        d_db = [float(r.split(",")[6]) for r in rows]
        assert summary[0]["n_trials"] == 4
        assert summary[0]["D_dB_mean"] == pytest.approx(np.mean(d_db))
        assert summary[0]["D_dB_std"] == pytest.approx(np.std(d_db, ddof=1))

    def test_b_labels(self):
        assert b_label(None) == "inf"
        assert b_label(4) == "4"

    def test_benchmark_scheme_does_not_perturb_single_rf_rows(self, tmp_path):
        # the benchmark reuses the trial's drawn data, so dropping it leaves
        # the single-RF rows bit-identical (fig3 preset == fig2 minus MF)
        both = tiny_config()
        solo = tiny_config(schemes=("single_rf",))
        run_sweep(both, tmp_path / "both")
        run_sweep(solo, tmp_path / "solo")
        rows_both = [
            line for line in (tmp_path / "both" / TRIALS_CSV).read_text().splitlines()
            if line.startswith("single_rf")
        ]
        rows_solo = [
            line for line in (tmp_path / "solo" / TRIALS_CSV).read_text().splitlines()
            if line.startswith("single_rf")
        ]
        assert rows_both == rows_solo


# Minor page faults per warmed-up M=225 trial: in this process with the heap
# setting stubbed out ("stub"), as the trials leave it ("with"), or in a
# spawned pool worker ("spawned-worker"); run in a fresh interpreter because
# the setting is process-wide and cannot be undone.
FAULTS_SCRIPT = """
import resource, sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
import ristx.harness
from ristx.harness import build_surface, preset_config, trial_rows


def faults_per_trial():
    cfg = preset_config("fig2", trials=1)
    surface = build_surface(cfg, 225)
    for idx in range(5):
        trial_rows(cfg, 16, 225, 4, idx, surface)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for idx in range(5, 15):
        trial_rows(cfg, 16, 225, 4, idx, surface)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10


if __name__ == "__main__":
    if sys.argv[1] == "stub":
        ristx.harness._keep_freed_heap = lambda: None
    if sys.argv[1] == "spawned-worker":
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            print(pool.submit(faults_per_trial).result())
    else:
        print(faults_per_trial())
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap setting acts through glibc's mallopt",
)
def test_heap_setting_removes_per_trial_page_faults(tmp_path):
    script = tmp_path / "faults.py"  # a file: a spawned worker imports it
    script.write_text(FAULTS_SCRIPT)
    src = str(Path(ristx.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))

    def faults_per_trial(arm):
        out = subprocess.run([sys.executable, str(script), arm], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        return float(out.stdout)

    # the trials themselves keep the heap, in this process and in a spawned one
    without = faults_per_trial("stub")
    for arm in ("with", "spawned-worker"):
        assert faults_per_trial(arm) <= 0.1 * without, (arm, without)


# A two-worker sweep under the start method argv[2] that prints the loaded
# OpenBLAS's thread count before the sweep, inside every solve, and after the
# sweep; "none" where no getter is exported.
BLAS_THREADS_SCRIPT = """
import ctypes, multiprocessing, os, sys
import ristx.harness
from ristx.harness import SimConfig, run_sweep

GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split(maxsplit=5)[5].strip() for line in fh
                 if "openblas" in line.rpartition("/")[2].lower()}
    libs = [ctypes.CDLL(path) for path in sorted(paths)]
    counts = [getattr(lib, name)() for lib in libs for name in GETTERS
              if hasattr(lib, name)]
    return ",".join(map(str, counts)) or "none"


solve_block = ristx.harness.solve_block


def reporting_solve_block(*args, **kwargs):
    os.write(1, f"solve {blas_threads()}\\n".encode())  # one write per line
    return solve_block(*args, **kwargs)


# at top level, so that a spawned worker, which imports this file, patches too
ristx.harness.solve_block = reporting_solve_block

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[2])
    print("before", blas_threads(), flush=True)
    cfg = SimConfig(m_list=(4,), b_list=(2,), k_list=(1, 2), num_intervals=4, trials=1)
    run_sweep(cfg, sys.argv[1], workers=2)
    print("sweep", blas_threads(), flush=True)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the script finds the BLAS through /proc/self/maps")
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_sweep_runs_blas_on_one_thread(tmp_path, start_method):
    # run in a fresh interpreter: the setting is process-wide and not undone
    script = tmp_path / "blas_threads.py"
    script.write_text(BLAS_THREADS_SCRIPT)
    src = str(Path(ristx.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, str(script), str(tmp_path / "out"), start_method],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    reports = [line.split() for line in out.stdout.splitlines()]
    before = reports[0][1]
    if before == "none":
        pytest.skip("the loaded BLAS exports no thread-count getter")
    if set(before.split(",")) == {"1"}:
        pytest.skip("BLAS already runs on one thread here (one core)")
    solves = [count for where, count in reports if where == "solve"]
    assert len(solves) == 2 and set(solves) == {"1"}, reports  # one per trial
    assert reports[-1] == ["sweep", "1"], reports


# The process's OS thread count after _trial_process() and after BLAS work
# that would start a thread server; "skip" where no loaded OpenBLAS exports
# blas_thread_shutdown_.
THREADS_SCRIPT = """
import ctypes
import numpy as np
import ristx.harness


def threads():
    with open("/proc/self/status", encoding="utf-8") as fh:
        return next(line.split()[1] for line in fh if line.startswith("Threads:"))


with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = {line.split(maxsplit=5)[5].strip() for line in fh
             if "openblas" in line.rpartition("/")[2].lower()}
if not any(hasattr(ctypes.CDLL(path), "blas_thread_shutdown_") for path in paths):
    print("skip")
else:
    ristx.harness._trial_process()
    print(threads())
    a = np.random.default_rng(0).standard_normal((600, 600))
    np.linalg.qr(a @ a)
    print(threads())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the script reads /proc/self/status")
def test_trial_process_ends_the_blas_thread_server(tmp_path):
    # a sweep forks its pool from a single-threaded process
    script = tmp_path / "threads.py"
    script.write_text(THREADS_SCRIPT)
    src = str(Path(ristx.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, str(script)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    if out.stdout.split() == ["skip"]:
        pytest.skip("the loaded OpenBLAS exports no blas_thread_shutdown_")
    assert out.stdout.split() == ["1", "1"]


LIBC_MAPS = ("7f00-7f01 r-xp 00000000 08:01 12 /usr/lib/libc.so.6\n"
             "7f01-7f02 rw-p 00000000 00:00 0 \n"
             "7f02-7f03 rw-p 00000000 00:00 0 [heap]\n")
OPENBLAS_LINE = "7f03-7f04 r-xp 00000000 08:01 13 /usr/lib/libopenblas.so.0{}\n"


@pytest.mark.parametrize("maps,opened", [
    (LIBC_MAPS, []),
    (LIBC_MAPS + OPENBLAS_LINE.format(""), ["/usr/lib/libopenblas.so.0"]),
    (OPENBLAS_LINE.format(" (deleted)"), ["/usr/lib/libopenblas.so.0 (deleted)"]),
    (None, []),
], ids=["no-openblas", "no-setter", "not-loadable", "unreadable"])
def test_blas_pin_without_a_setter_does_nothing(monkeypatch, maps, opened):
    loaded = []

    def fake_open(path, *args, **kwargs):
        if maps is None:
            raise FileNotFoundError(path)
        return io.StringIO(maps)

    def fake_cdll(path):
        loaded.append(path)
        if path.endswith("(deleted)"):
            raise OSError(f"{path}: cannot open shared object file")
        return object()  # a library that exports no setter

    monkeypatch.setattr(ristx.harness, "open", fake_open, raising=False)
    monkeypatch.setattr(ristx.harness.ctypes, "CDLL", fake_cdll)
    assert ristx.harness._pin_blas_threads() is None
    assert loaded == opened


# The pool initializer called as a pool worker would, in a fresh interpreter
# (it may end the process); prints whether SIGINT and SIGTERM are ignored if
# it returns.  argv[1] is "reaped" to watch a reaped child under the spawn
# start method, or "no-pidfd" to watch this process without os.pidfd_open.
INITIALIZER_SCRIPT = """
import multiprocessing, os, signal, sys
from ristx.harness import _ignore_stop_signals

if sys.argv[1] == "reaped":
    multiprocessing.set_start_method("spawn")
    sweep_pid = os.fork()
    if sweep_pid == 0:
        os._exit(0)
    os.waitpid(sweep_pid, 0)
else:
    vars(os).pop("pidfd_open", None)
    sweep_pid = os.getpid()
_ignore_stop_signals(sweep_pid)
print([signal.getsignal(sig) is signal.SIG_IGN for sig in (signal.SIGINT, signal.SIGTERM)])
"""


def run_initializer(case):
    src = str(Path(ristx.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", INITIALIZER_SCRIPT, case], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="no pidfd on this platform")
def test_pool_worker_of_a_gone_sweep_exits():
    # whatever the start method: a spawned worker's parent is not the sweep
    out = run_initializer("reaped")
    assert (out.returncode, out.stdout, out.stderr) == (1, "", "")


def test_pool_worker_without_pidfd_only_ignores_stop_signals():
    out = run_initializer("no-pidfd")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "[True, True]\n"
