import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ristx.harness
from ristx.cli import main
from ristx.harness import (
    MANIFEST_JSON,
    SUMMARY_CSV,
    TRIAL_COLUMNS,
    TRIALS_CSV,
    SimConfig,
    format_row,
)


def tiny_config_dict():
    return SimConfig(
        m_list=(4,),
        b_list=(2,),
        k_list=(2,),
        num_intervals=4,
        trials=2,
        master_seed=5,
    ).to_dict()


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestValidateConfig:
    def test_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config_dict())
        assert main(["validate-config", path]) == 0
        assert "1 sweep points" in capsys.readouterr().out

    def test_largest_surface_ok(self, tmp_path, capsys):
        # at the default 100 intervals, and at 128, the most its blocks can hold
        for extra in ({}, {"num_intervals": 128}):
            path = write_config(tmp_path, {"m_list": [65536], "k_list": [2], "b_list": [4]}
                                | extra)
            assert main(["validate-config", path]) == 0
            assert "1 sweep points" in capsys.readouterr().out

    def test_bad_field_named(self, tmp_path, capsys):
        cfg = tiny_config_dict()
        cfg["k_list"] = []
        path = write_config(tmp_path, cfg)
        assert main(["validate-config", path]) == 2
        assert "k_list" in capsys.readouterr().err

    def test_unknown_field_named(self, tmp_path, capsys):
        # the length units of earlier revisions are refused by name too
        for name, value in (("bogus", 3), ("wavelength", 0.008), ("r_min", 100.0)):
            path = write_config(tmp_path, tiny_config_dict() | {name: value})
            assert main(["validate-config", path]) == 2
            assert (capsys.readouterr().err
                    == f"error: config field '{name}': unknown config field\n")

    def test_oversized_bit_depth_named(self, tmp_path, capsys):
        path = write_config(tmp_path, {"b_list": [28]})
        assert main(["validate-config", path]) == 2
        err = capsys.readouterr().err
        assert "b_list" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "data,field,message",
        [
            ({"m_list": 64}, "m_list", "must be a JSON array"),
            ({"b_list": 4}, "b_list", "must be a JSON array"),
            ({"schemes": "single_rf"}, "schemes", "must be a JSON array"),
            ({"b_list": [4.5]}, "b_list", "is not a bit depth"),
            ({"b_list": [True]}, "b_list", "is not a bit depth"),
            ({"trials": 2.5}, "trials", "2.5 is not a positive whole number"),
            ({"master_seed": True}, "master_seed", "is not a nonnegative whole number"),
            ({"m_list": [True]}, "m_list", "True is not a positive perfect square"),
            ({"m_list": [1e20]}, "m_list", "1e+20 is not a positive perfect square up to"),
            ({"m_list": [66049]}, "m_list", "66049 is not a positive perfect square up to"),
            ({"track_best": "no"}, "track_best", "unknown config field"),
            ({"r_max": float("inf")}, "r_max", "inf is not a positive real"),
            ({"shadow_std_db": float("nan")}, "shadow_std_db", "nan is not a nonnegative real"),
            ({"noise_var": float("nan")}, "noise_var", "unknown config field"),
            ({"feed_distance": float("inf")}, "feed_distance", "is not a positive real or null"),
            ({"change_threshold": float("inf")}, "change_threshold", "unknown config field"),
            ({"trials": "3"}, "trials", "'3' is not a positive whole number"),
            ({"num_intervals": "10"}, "num_intervals", "'10' is not a positive whole number"),
            ({"feed_power": "1"}, "feed_power", "unknown config field"),
            ({"zeta_db": "0"}, "zeta_db", "'0' is not a real <= 0 dB"),
            ({"m_list": ["abc"]}, "m_list", "'abc' is not a positive perfect square"),
            ({"k_list": [None]}, "k_list", "None is not a positive whole number"),
            ({"max_iterations": 1.5}, "max_iterations", "unknown config field"),
            ({"step_scale": float("nan")}, "step_scale", "unknown config field"),
            ({"feed_beamwidth_deg": 60}, "feed_beamwidth_deg",
             "leaves the M=64 surface partly unlit"),
            ({"r_max": 1e100}, "r_max", "is too large"),
            ({"r_max": 1e200}, "r_max", "is too large"),
            ({"shadow_std_db": 1e5}, "shadow_std_db", "must be at most 100 dB"),
            ({"shadow_std_db": 800}, "shadow_std_db", "must be at most 100 dB"),
            ({"feed_distance": 1e160}, "feed_distance",
             "puts the M=64 surface outside the float range"),
            ({"wavelength": 1e200}, "wavelength", "unknown config field"),
            ({"wavelength": 1e-170, "m_list": [4]}, "wavelength", "unknown config field"),
            ({"wavelength": 1e200, "feed_distance": 1.0}, "wavelength",
             "unknown config field"),
            ({"wavelength": 1e-300, "feed_distance": 1.0, "m_list": [4], "b_list": [4],
              "k_list": [2], "trials": 2, "schemes": ["single_rf"]}, "wavelength",
             "unknown config field"),
            ({"feed_power": 1e-310, "m_list": [4], "b_list": [4], "k_list": [2],
              "trials": 2, "schemes": ["single_rf"]}, "feed_power",
             "unknown config field"),
            ({"r_max": 50}, "r_max", "must exceed r_min"),
            ({"r_min": 1e-300, "r_max": 1e-299}, "r_min", "unknown config field"),
            ({"schemes": ["mf_digital"]}, "schemes", "the single-RF scheme is required"),
            ({"zeta_db": -3000}, "zeta_db", "puts the M=64 surface outside the float range"),
            ({"k_list": [2, 2]}, "k_list", "lists an entry twice"),
            ({"k_list": []}, "k_list", "must not be empty"),
            ({"m_list": [65536], "k_list": [2], "num_intervals": 129}, "num_intervals",
             "is too large: max(m_list) * num_intervals exceeds 8388608 entries"),
            ({"num_intervals": 1e20}, "num_intervals", "is too large"),
            ({"num_intervals": 1000000000}, "num_intervals", "is too large"),
            ({"k_list": [1e20]}, "k_list", "is too large: max(k_list) * max(max(m_list), "
             "num_intervals) exceeds 8388608 entries"),
            ({"k_list": [1000000000]}, "k_list", "is too large"),
            ([1, 2], "<root>", "config must be a JSON object"),
            ("fig2", "<root>", "config must be a JSON object"),
            (None, "<root>", "config must be a JSON object"),
            ({"schemes": [1]}, "schemes", "1 is not a scheme"),
            ({"schemes": [None]}, "schemes", "None is not a scheme"),
            ({"schemes": ["single_rf", True]}, "schemes", "True is not a scheme"),
        ],
        ids=["m_list-scalar", "b_list-scalar", "schemes-string", "b_list-fraction",
             "b_list-bool", "trials-fraction", "master_seed-bool", "m_list-bool",
             "m_list-1e20", "m_list-257-squared",
             "track_best-string", "r_max-inf", "shadow_std_db-nan", "noise_var-nan",
             "feed_distance-inf", "change_threshold-inf", "trials-string",
             "num_intervals-string", "feed_power-string", "zeta_db-string",
             "m_list-string", "k_list-null", "max_iterations-fraction",
             "step_scale-nan", "feed_beamwidth_deg-unlit", "r_max-1e100",
             "r_max-1e200", "shadow_std_db-1e5", "shadow_std_db-800",
             "feed_distance-1e160", "wavelength-1e200", "wavelength-1e-170",
             "wavelength-1e200-feed_distance-set", "wavelength-1e-300-feed_distance-set",
             "feed_power-1e-310", "r_max-below-r_min", "r_min-underflow",
             "schemes-no-single-rf", "zeta_db-3000", "k_list-twice", "k_list-empty",
             "num_intervals-block-cap", "num_intervals-1e20", "num_intervals-1e9",
             "k_list-1e20", "k_list-1e9", "root-array", "root-string", "root-null",
             "schemes-number", "schemes-null", "schemes-bool"],
    )
    def test_mistyped_list_field_named(self, tmp_path, capsys, data, field, message):
        path = write_config(tmp_path, data)
        assert main(["validate-config", path]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and message in err
        assert "Traceback" not in err

    def test_duplicate_scheme_named(self, tmp_path, capsys):
        path = write_config(tmp_path, {"schemes": ["single_rf", "single_rf"]})
        assert main(["validate-config", path]) == 2
        assert "config field 'schemes'" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate-config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate-config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["validate-config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config field '<file>'" in err and "not valid JSON" in err


class TestTrial:
    def test_csv_row_to_stdout(self, capsys):
        assert main(["trial", "-K", "2", "-M", "4", "-B", "2",
                     "--seed", "1", "-N", "4"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("scheme,K,M,B,")
        assert len(out) == 2
        fields = out[1].split(",")
        assert fields[0] == "single_rf"
        assert fields[1:5] == ["2", "4", "2", "0"]

    def test_with_baseline_emits_two_rows(self, capsys):
        assert main(["trial", "-K", "2", "-M", "4", "-B", "2", "--seed", "1",
                     "-N", "4", "--with-baseline"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert [r.split(",")[0] for r in out[1:]] == ["single_rf", "mf_digital"]

    def test_continuous_codebook_accepted(self, capsys):
        assert main(["trial", "-K", "1", "-M", "4", "-B", "continuous",
                     "--seed", "1", "-N", "2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[1].split(",")[3] == "inf"

    def test_json_record(self, capsys):
        args = ["trial", "-K", "2", "-M", "4", "-B", "1", "--seed", "3",
                "-N", "4", "--with-baseline"]
        assert main([*args, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert list(record) == ["config", "users", "surface", "solver", "results"]
        assert record["config"] == SimConfig(
            m_list=(4,), k_list=(2,), b_list=(1,), num_intervals=4, master_seed=3).to_dict()
        # the record's results are the rows the CSV output prints, with the
        # CSV's nan written as null
        assert main(args) == 0
        header, *lines = capsys.readouterr().out.splitlines(keepends=True)
        assert header == ",".join(TRIAL_COLUMNS) + "\n"
        rows = [{k: math.nan if v is None else v for k, v in r.items()}
                for r in record["results"]]
        assert [format_row(r, TRIAL_COLUMNS) for r in rows] == lines
        assert [r["scheme"] for r in record["results"]] == ["single_rf", "mf_digital"]

    def test_json_config_reruns_as_a_sweep(self, tmp_path, capsys):
        # the record's config is a config file: it validates, and a one-trial
        # sweep of it writes the bytes that `ristx trial` prints
        args = ["trial", "-K", "4", "-M", "121", "-B", "continuous", "--seed", "9",
                "-N", "16", "--with-baseline"]
        assert main([*args, "--json"]) == 0
        path = write_config(tmp_path, json.loads(capsys.readouterr().out)["config"])
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(["validate-config", path]) == 0
        out = tmp_path / "out"
        assert main(["sweep", path, "--trials", "1", "-o", str(out)]) == 0
        assert (out / TRIALS_CSV).read_bytes() == printed.encode()

    def test_json_record_is_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert main(["trial", "-K", "2", "-M", "4", "-B", "1", "--seed", "3",
                     "--with-baseline", "--json"]) == 0
        record = json.loads(capsys.readouterr().out, parse_constant=reject)
        mf = record["results"][1]
        assert mf["scheme"] == "mf_digital"
        assert mf["iterations_mean"] is None and mf["converged_fraction"] is None

    def test_interrupted_trial_exits_130(self, capsys, monkeypatch):
        def streams(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(ristx.harness, "derive_trial_streams", streams)
        assert main(["trial", "-K", "2", "-M", "4", "-B", "2"]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"

    def test_failed_trial_exits_1_without_traceback(self, capsys, monkeypatch):
        def streams(*args):
            raise FloatingPointError("injected")

        monkeypatch.setattr(ristx.harness, "derive_trial_streams", streams)
        assert main(["trial", "-K", "2", "-M", "4", "-B", "2", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: injected\n"

    def test_bad_bit_depth(self, capsys):
        assert main(["trial", "-K", "2", "-M", "4", "-B", "0", "--seed", "1"]) == 2
        assert "b_list" in capsys.readouterr().err

    def test_oversized_bit_depth_rejected(self, capsys):
        assert main(["trial", "-K", "2", "-M", "4", "-B", "28", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "b_list" in err and "Traceback" not in err

    def test_bad_geometry_is_usage_error(self, capsys):
        assert main(["trial", "-K", "2", "-M", "5", "-B", "2", "--seed", "1"]) == 2
        assert "m_list" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field", [("-N", "num_intervals"), ("-K", "k_list")])
    def test_oversized_array_is_usage_error(self, capsys, flag, field):
        # argparse keeps the last value of a repeated option
        args = ["trial", "-K", "2", "-M", "4", "-B", "4", flag, "100000000000000000000"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}': is too large" in err and "Traceback" not in err

    def test_seed_defaults_to_the_config_default(self, capsys):
        args = ["trial", "-K", "2", "-M", "4", "-B", "2", "-N", "4"]
        assert main(args) == 0
        unset = capsys.readouterr().out
        assert main([*args, "--seed", str(SimConfig().master_seed)]) == 0
        assert capsys.readouterr().out == unset


class TestSweep:
    def test_config_file_run(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config_dict())
        out = tmp_path / "out"
        assert main(["sweep", path, "-o", str(out)]) == 0
        assert (out / TRIALS_CSV).exists()
        assert (out / SUMMARY_CSV).exists()
        assert (out / MANIFEST_JSON).exists()

    def test_overrides_applied(self, tmp_path):
        path = write_config(tmp_path, tiny_config_dict())
        out = tmp_path / "out"
        assert main(["sweep", path, "-o", str(out), "--trials", "1",
                     "--seed", "77"]) == 0
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["config"]["trials"] == 1
        assert manifest["config"]["master_seed"] == 77

    def test_requires_config_or_preset(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "-o", str(tmp_path)])
        assert err.value.code == 2
        assert "one of the arguments config --preset is required" in capsys.readouterr().err

    def test_rejects_both_config_and_preset(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config_dict())
        with pytest.raises(SystemExit) as err:
            main(["sweep", path, "--preset", "fig2", "-o", str(tmp_path)])
        assert err.value.code == 2
        assert "not allowed with argument config" in capsys.readouterr().err

    def test_manifest_names_the_preset(self, tmp_path, capsys, monkeypatch):
        # by --preset, or by a config file equal to the preset's config
        def stop(*args):
            raise RuntimeError("stopped before the first trial")

        monkeypatch.setattr(ristx.harness, "_point_rows", stop)
        path = write_config(tmp_path, ristx.harness.preset_config("fig3").to_dict())
        for source, name in ((["--preset", "fig4"], "fig4"), ([path], "fig3")):
            out = tmp_path / name
            assert main(["sweep", *source, "-o", str(out), "--trials", "2"]) == 1
            assert json.loads((out / MANIFEST_JSON).read_text())["preset"] == name
        assert capsys.readouterr().err.count("stopped before the first trial") == 2

    def test_whole_float_lists_sweep_like_ints(self, tmp_path):
        outputs = []
        for m, k in ((4, 2), (4.0, 2.0)):
            path = write_config(tmp_path, tiny_config_dict() | {"m_list": [m], "k_list": [k]})
            out = tmp_path / f"out-{m}"
            assert main(["sweep", path, "-o", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in (TRIALS_CSV, SUMMARY_CSV)])
        assert outputs[1] == outputs[0]
        assert outputs[0][0].count(b"\n") == 1 + 2 * 2  # header, 2 trials x 2 schemes

    def test_failed_trial_exits_1_with_dataset(self, tmp_path, capsys, monkeypatch):
        real = ristx.harness.derive_trial_streams

        def streams(master_seed, num_users, num_elements, b, trial_index):
            if (num_users, trial_index) == (3, 0):
                raise FloatingPointError("injected")
            return real(master_seed, num_users, num_elements, b, trial_index)

        monkeypatch.setattr(ristx.harness, "derive_trial_streams", streams)
        path = write_config(tmp_path, tiny_config_dict() | {"k_list": [2, 3]})
        out = tmp_path / "out"
        assert main(["sweep", path, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        message = "trial failed at K=3 M=4 B=2 trial_index=0: injected"
        assert err == f"error: {message}\n"
        # the whole K=2 point, and nothing of the K=3 point it stopped at
        rows = (out / TRIALS_CSV).read_text().splitlines()[1:]
        assert [row.split(",")[:5] for row in rows] == [
            [scheme, "2", "4", "2", idx] for idx in "01"
            for scheme in ("single_rf", "mf_digital")]
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["failures"] == [message]
        assert manifest["duration_seconds"] is None
        assert not (out / SUMMARY_CSV).exists()

    def test_sweep_with_a_failed_trial_resumes(self, tmp_path, capsys, monkeypatch):
        real = ristx.harness.derive_trial_streams

        def streams(master_seed, num_users, num_elements, b, trial_index):
            if trial_index == 0:
                raise MemoryError("injected")
            return real(master_seed, num_users, num_elements, b, trial_index)

        path = write_config(tmp_path, tiny_config_dict())
        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            patch.setattr(ristx.harness, "derive_trial_streams", streams)
            assert main(["sweep", path, "-o", str(out)]) == 1
        assert main(["sweep", path, "-o", str(out), "--resume"]) == 0
        assert main(["sweep", path, "-o", str(tmp_path / "full")]) == 0
        for name in (TRIALS_CSV, SUMMARY_CSV):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["failures"] == [] and manifest["duration_seconds"] >= 0.0

    def test_tiny_efficiency_sweeps_like_unit_efficiency(self, tmp_path):
        # ||Heff @ w||^2 scales with the element efficiency, the distortion
        # does not, and the feed gain makes up for it in P_out
        base = {"m_list": [64], "b_list": [4], "k_list": [2], "trials": 2,
                "schemes": ["single_rf"]}
        columns = {}
        for zeta_db in (-200.0, 0.0):
            path = write_config(tmp_path, base | {"zeta_db": zeta_db})
            out = tmp_path / f"out-{zeta_db}"
            assert main(["sweep", path, "-o", str(out)]) == 0
            header, *rows = (out / TRIALS_CSV).read_text().splitlines()
            for name in ("D_dB", "P_out"):
                i = header.split(",").index(name)
                columns[name, zeta_db] = [float(row.split(",")[i]) for row in rows]
        assert len(columns["D_dB", 0.0]) == 2
        assert columns["D_dB", -200.0] == pytest.approx(columns["D_dB", 0.0],
                                                        rel=0, abs=1e-9)
        assert columns["P_out", -200.0] == pytest.approx(
            [1e20 * p for p in columns["P_out", 0.0]], rel=1e-9)

    @pytest.mark.parametrize("damage,message", [
        ("manifest", "written under another config"),
        ("rows", "not a prefix of this sweep's plan"),
        ("header", "does not start with the expected header"),
        ("encoding", "is not UTF-8 text"),
        ("no-manifest", "is missing, unreadable"),
        ("manifest-unreadable", "is missing, unreadable"),
        ("trials-unreadable", "trials.csv cannot be read: [Errno 21] Is a directory"),
    ], ids=["manifest", "rows", "header", "encoding", "no-manifest", "manifest-unreadable",
            "trials-unreadable"])
    def test_rejected_resume_exits_2(self, tmp_path, capsys, damage, message):
        path = write_config(tmp_path, tiny_config_dict())
        out = tmp_path / "out"
        assert main(["sweep", path, "-o", str(out)]) == 0
        trials = out / TRIALS_CSV
        header, *rows = trials.read_text().splitlines()
        keep = 1
        if damage == "manifest":
            path = write_config(tmp_path, tiny_config_dict() | {"r_max": 1500.0})
        elif damage == "rows":
            rows = rows[1:]
        elif damage == "header":
            header = header.replace("D_dB", "distortion")
        elif damage in ("no-manifest", "manifest-unreadable"):
            keep = len(rows)  # the one whole point, kept only beside its manifest
            (out / MANIFEST_JSON).unlink()
            if damage == "manifest-unreadable":
                (out / MANIFEST_JSON).mkdir()
        if damage == "encoding":
            trials.write_bytes(b"\xff\xfe x\n")
        elif damage == "trials-unreadable":
            trials.unlink()
            trials.mkdir()
        else:
            trials.write_text("\n".join([header, *rows[:keep]]) + "\n")
        capsys.readouterr()
        assert main(["sweep", path, "-o", str(out), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "config field 'resume'" in err and message in err
        assert trials.is_dir() == (damage == "trials-unreadable")  # refused, not rewritten

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tiny_config_dict()
        cfg["trials"] = 0
        path = write_config(tmp_path, cfg)
        assert main(["sweep", path, "-o", str(tmp_path / "out")]) == 2
        assert "trials" in capsys.readouterr().err


# A sweep config and a trial at M=225, where OpenBLAS splits the solver's
# products over its threads when it has more than one.
BLAS_THREADS_CONFIG = {"m_list": [225], "k_list": [16, 32], "b_list": [4], "trials": 3,
                       "master_seed": 777}
BLAS_THREADS_TRIAL = ["trial", "-K", "32", "-M", "225", "-B", "4", "--with-baseline"]
# The README quick start's run_trial over every trial of the config at argv[1],
# in plan order, printed as trials.csv rows.
QUICK_START_ROWS = """
import json, sys
from ristx import SimConfig, run_trial
from ristx.harness import TRIAL_COLUMNS, format_row, sweep_points
with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = SimConfig.from_dict(json.load(fh))
for m, b, k in sweep_points(cfg):
    for idx in range(cfg.trials):
        rows, _ = run_trial(cfg, num_users=k, num_elements=m, b=b, trial_index=idx)
        sys.stdout.writelines(format_row(row, TRIAL_COLUMNS) for row in rows)
"""


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    path = write_config(tmp_path, BLAS_THREADS_CONFIG)
    src = str(Path(ristx.harness.__file__).parents[1])
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    unset["PYTHONPATH"] = os.pathsep.join(filter(None, [src, unset.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("unset", "1", "2"):
        env = unset | ({} if threads == "unset" else
                       {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})

        def python(*args, env=env):
            return subprocess.run([sys.executable, *args], env=env,
                                  capture_output=True, check=True, timeout=300).stdout

        def ristx_cli(*args, python=python):
            return python("-m", "ristx.cli", *args)

        for workers in ("1", "2"):
            out = tmp_path / f"threads-{threads}-workers-{workers}"
            ristx_cli("sweep", path, "-o", str(out), "--workers", workers)
            outputs[threads, "sweep", workers] = [
                (out / name).read_bytes() for name in (TRIALS_CSV, SUMMARY_CSV)]
        outputs[threads, "trial"] = [ristx_cli(*BLAS_THREADS_TRIAL),
                                     ristx_cli(*BLAS_THREADS_TRIAL, "--json")]
        # the quick start's rows are the body of the sweep's trials.csv
        quick_start = python("-c", QUICK_START_ROWS, path)
        assert quick_start == outputs[threads, "sweep", "1"][0].split(b"\n", 1)[1], threads
    for (threads, *run), data in outputs.items():
        assert data == outputs["1", *run], (threads, *run)


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--bogus"])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["trial", "-K", "2", "-M", "4", "-B", "1", "--trial-index", "-1"],
             "error: config field 'trial_index': -1 is not a whole number >= 0\n"),
            (["sweep", "--preset", "fig4", "-o", "out", "--workers", "0"],
             "error: config field 'workers': 0 is not a positive whole number\n"),
            (["sweep", "--preset", "fig4", "-o", "out", "--workers", "-3"],
             "error: config field 'workers': -3 is not a positive whole number\n"),
            *((["sweep", "--preset", name, "-o", "out"],
              f"error: config field 'preset': unknown preset {name!r}; "
              "the presets are fig2, fig3, fig4\n") for name in ("fig9", "")),
        ],
        ids=["trial-index-negative", "workers-zero", "workers-negative", "preset-unknown",
             "preset-empty"],
    )
    def test_out_of_range_count_flag_exits_2(self, tmp_path, monkeypatch, capsys, argv,
                                             message):
        # the library reads the value and names it, before any output exists
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()


# A sweep in a child process whose trials each sleep 25 ms, so that a signal
# sent once the first point is flushed lands with most of the sweep to run.
# argv[1] names the pool's start method ("" for the default) and the rest is
# the CLI's.
SLOW_SWEEP = """
import multiprocessing, sys, time
import ristx.harness
from ristx.cli import main

streams = ristx.harness.derive_trial_streams


def slow_streams(*args):
    time.sleep(0.025)
    return streams(*args)


# at top level, so that a spawned worker, which imports this file, patches too
ristx.harness.derive_trial_streams = slow_streams

if __name__ == "__main__":
    if sys.argv[1]:
        multiprocessing.set_start_method(sys.argv[1])
    sys.exit(main(sys.argv[2:]))
"""


def slow_sweep(out, config_path, workers, start_method=""):
    """Start ``SLOW_SWEEP`` on ``config_path`` in a new session, from a
    script file beside ``out``."""
    script = out.parent / "slow_sweep.py"
    script.write_text(SLOW_SWEEP)
    src = str(Path(ristx.harness.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen(
        [sys.executable, str(script), start_method, "sweep", config_path, "-o", str(out),
         "--workers", str(workers)],
        env=env, stderr=subprocess.PIPE, text=True, start_new_session=True)


def live_session_members(sid):
    """Pids of the processes of session ``sid`` that are not zombies."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, _, session = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except OSError:  # the process is gone
            continue
        if int(session) == sid and state != "Z":
            pids.append(int(stat.parent.name))
    return pids


SIGNAL_CONFIG = SimConfig(m_list=(16,), b_list=(1, 4), k_list=tuple(range(2, 26, 2)),
                          num_intervals=8, trials=3, master_seed=11)


@pytest.fixture(scope="module")
def signal_reference(tmp_path_factory):
    """The config file and the uninterrupted dataset, shared by every case."""
    root = tmp_path_factory.mktemp("signal")
    path = write_config(root, SIGNAL_CONFIG.to_dict())
    assert main(["sweep", path, "-o", str(root / "full")]) == 0
    return path, {name: (root / "full" / name).read_bytes()
                  for name in (TRIALS_CSV, SUMMARY_CSV)}


class TestSignals:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name,send", [
        ("SIGINT", lambda proc: os.killpg(proc.pid, signal.SIGINT)),  # as a terminal
        ("SIGTERM", lambda proc: os.kill(proc.pid, signal.SIGTERM)),
    ], ids=["sigint-group", "sigterm-pid"])
    def test_signal_stops_sweep_with_record(self, tmp_path, signal_reference,
                                            workers, name, send):
        path, full = signal_reference
        out = tmp_path / "out"
        proc = slow_sweep(out, path, workers)
        try:
            point_bytes = len(b"\n".join(full[TRIALS_CSV].split(b"\n")[:1 + 3 * 2]))
            deadline = time.monotonic() + 30
            while not ((out / TRIALS_CSV).exists()
                       and (out / TRIALS_CSV).stat().st_size > point_bytes):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            send(proc)
            _, err = proc.communicate(timeout=30)
        finally:
            # the group: on failure, pool workers can outlive their parent
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 130
        assert err == f"error: interrupted by {name}\n"
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["failures"] == [f"interrupted by {name}"]
        assert manifest["duration_seconds"] is None
        assert not (out / SUMMARY_CSV).exists()
        # a signal may land while a point is written: a byte prefix, not
        # necessarily whole points
        cut = (out / TRIALS_CSV).read_bytes()
        assert len(cut) < len(full[TRIALS_CSV]) and full[TRIALS_CSV].startswith(cut)
        before = [signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)]
        assert main(["sweep", path, "-o", str(out), "--resume"]) == 0
        assert [signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)] == before
        for file_name, data in full.items():
            assert (out / file_name).read_bytes() == data

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the workers watch the sweep through a Linux pidfd; reads /proc")
    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_sigkill_takes_the_pool_workers_down(self, tmp_path, signal_reference,
                                                 start_method):
        # a SIGKILLed sweep runs no cleanup: its workers must not outlive it
        out = tmp_path / "out"
        proc = slow_sweep(out, signal_reference[0], workers=2, start_method=start_method)
        try:
            deadline = time.monotonic() + 30
            while not ((out / TRIALS_CSV).exists()
                       and (out / TRIALS_CSV).read_bytes().count(b"\n") >= 2):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while live_session_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert live_session_members(proc.pid) == []
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.stderr.close()
