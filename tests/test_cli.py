import json

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

    def test_bad_field_named(self, tmp_path, capsys):
        cfg = tiny_config_dict()
        cfg["k_list"] = []
        path = write_config(tmp_path, cfg)
        assert main(["validate-config", path]) == 2
        assert "k_list" in capsys.readouterr().err

    def test_unknown_field_named(self, tmp_path, capsys):
        cfg = tiny_config_dict()
        cfg["bogus"] = 3
        path = write_config(tmp_path, cfg)
        assert main(["validate-config", path]) == 2
        assert "bogus" in capsys.readouterr().err

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
            ({"wavelength": 1e200}, "wavelength",
             "puts the M=64 surface outside the float range"),
            ({"wavelength": 1e-170, "m_list": [4]}, "wavelength",
             "puts the M=4 surface outside the float range"),
            ({"wavelength": 1e200, "feed_distance": 1.0}, "wavelength",
             "puts the M=64 surface outside the float range"),
            ({"wavelength": 1e-300, "feed_distance": 1.0, "m_list": [4], "b_list": [4],
              "k_list": [2], "trials": 2, "schemes": ["single_rf"]}, "wavelength",
             "puts the M=4 surface outside the float range"),
            ({"feed_power": 1e-310, "m_list": [4], "b_list": [4], "k_list": [2],
              "trials": 2, "schemes": ["single_rf"]}, "feed_power",
             "unknown config field"),
        ],
        ids=["m_list-scalar", "b_list-scalar", "schemes-string", "b_list-fraction",
             "b_list-bool", "trials-fraction", "master_seed-bool", "m_list-bool",
             "track_best-string", "r_max-inf", "shadow_std_db-nan", "noise_var-nan",
             "feed_distance-inf", "change_threshold-inf", "trials-string",
             "num_intervals-string", "feed_power-string", "zeta_db-string",
             "m_list-string", "k_list-null", "max_iterations-fraction",
             "step_scale-nan", "feed_beamwidth_deg-unlit", "r_max-1e100",
             "r_max-1e200", "shadow_std_db-1e5", "shadow_std_db-800",
             "feed_distance-1e160", "wavelength-1e200", "wavelength-1e-170",
             "wavelength-1e200-feed_distance-set", "wavelength-1e-300-feed_distance-set",
             "feed_power-1e-310"],
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
        assert record["K"] == 2 and record["B"] == "1"
        assert "surface" in record and "solver" in record
        # the record's results are the rows the CSV output prints
        assert main(args) == 0
        header, *lines = capsys.readouterr().out.splitlines(keepends=True)
        assert header == ",".join(TRIAL_COLUMNS) + "\n"
        assert [format_row(r, TRIAL_COLUMNS) for r in record["results"]] == lines
        assert [r["scheme"] for r in record["results"]] == ["single_rf", "mf_digital"]

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
            if trial_index == 0:
                raise FloatingPointError("injected")
            return real(master_seed, num_users, num_elements, b, trial_index)

        monkeypatch.setattr(ristx.harness, "derive_trial_streams", streams)
        path = write_config(tmp_path, tiny_config_dict())
        out = tmp_path / "out"
        assert main(["sweep", path, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "1 trial(s) failed" in err and "injected" in err
        rows = (out / TRIALS_CSV).read_text().splitlines()[1:]
        assert [row.split(",")[:5] for row in rows] == [
            ["single_rf", "2", "4", "2", "1"], ["mf_digital", "2", "4", "2", "1"]]
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert len(manifest["failures"]) == 1
        assert "trial_index=0: injected" in manifest["failures"][0]

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
    ], ids=["manifest", "rows", "header", "encoding"])
    def test_rejected_resume_exits_2(self, tmp_path, capsys, damage, message):
        path = write_config(tmp_path, tiny_config_dict())
        out = tmp_path / "out"
        assert main(["sweep", path, "-o", str(out)]) == 0
        trials = out / TRIALS_CSV
        header, *rows = trials.read_text().splitlines()
        if damage == "manifest":
            path = write_config(tmp_path, tiny_config_dict() | {"r_max": 1500.0})
        elif damage == "rows":
            rows = rows[1:]
        elif damage == "header":
            header = header.replace("D_dB", "distortion")
        if damage == "encoding":
            trials.write_bytes(b"\xff\xfe x\n")
        else:
            trials.write_text("\n".join([header, *rows[:1]]) + "\n")
        capsys.readouterr()
        assert main(["sweep", path, "-o", str(out), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "config field 'resume'" in err and message in err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tiny_config_dict()
        cfg["trials"] = 0
        path = write_config(tmp_path, cfg)
        assert main(["sweep", path, "-o", str(tmp_path / "out")]) == 2
        assert "trials" in capsys.readouterr().err


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
        "argv,flag",
        [
            (["trial", "-K", "2", "-M", "4", "-B", "1", "--trial-index", "-1"],
             "--trial-index"),
            (["sweep", "--preset", "fig4", "-o", "out", "--workers", "0"], "--workers"),
            (["sweep", "--preset", "fig4", "-o", "out", "--workers", "-3"], "--workers"),
        ],
        ids=["trial-index-negative", "workers-zero", "workers-negative"],
    )
    def test_out_of_range_count_flag_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
