"""Smoke test of the benchmark at one trial per sweep point.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json is emitted with its unit
by the mode that owns it, that every name and unit is well formed, that the
reference gate passes at the reference seed and trips on a changed value, and
that the benchmark refuses to run without the ristx sources.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(workload, trace, *extra, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_spec_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[section]]
        for metric in SPEC[section]:
            assert UNIT.match(metric["unit"]), metric
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = result_of(bench(workload, trace, "--trials", "1"))
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_reference_gate_passes_at_reference_seed():
    proc = bench("fig4-serial", 0, seed=12345)
    result_of(proc)
    assert "reference: means match" in proc.stdout


def test_reference_gate_trips_on_a_changed_value():
    reference = json.loads(run.REFERENCE.read_text())
    seed, entries = next(iter(reference["seeds"].items()))
    preset, entry = next(iter(entries.items()))
    point = next(iter(entry["points"]))
    summary = ["scheme,K,M,B,D_dB_mean,PAPR_dB_mean"]
    for key, values in entry["points"].items():
        d_db = values["D_dB_mean"] + (1e-6 if key == point else 0.0)
        summary.append(",".join(key.split("/") + [repr(d_db), repr(values["PAPR_dB_mean"])]))
    fake = run.Sweep(1.0, 1.0, [], b"", ("\n".join(summary) + "\n").encode())
    errors = []
    note = run.check_reference(reference, preset, int(seed), entry["trials"], fake, errors)
    assert "MISMATCH" in note
    assert len(errors) == 1 and point in errors[0]


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("fig2-serial", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
