"""The public surface and the benchmark's view of the trial pipeline.

The README's library quick start must run as written, its CLI examples
must parse, its CLI section must name the keys of a trial record, its
config block must be the default config, its package table must list every
module, and ``ristx.harness``
must keep calling through the names that ``perfbench/tracing.py`` patches,
so that a traced replay still sees every stage of a trial.  Every ristx
module must use each name it imports and each private name it defines, and
import no other module's private name; a field that a ``ConfigError`` or a
``_fit`` call names literally must exist.
"""

import ast
import dataclasses
import importlib.util
import inspect
import json
import re
import shlex
import types
from pathlib import Path

import numpy as np

import ristx
import ristx.harness
import ristx.solver
from ristx.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quick_start():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start(), "README.md quick start", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_cli_examples_parse():
    # parsed only; a --preset name must also be one that preset_config knows
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line and not line.startswith("#")]
    assert lines and all(line.startswith("ristx ") for line in lines)
    for line in lines:
        args = _build_parser().parse_args(shlex.split(line)[1:])
        if getattr(args, "preset", None) is not None:
            ristx.harness.preset_config(args.preset)


def test_readme_names_the_trial_record_keys():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = re.search(r"A `--json` record has the keys (.*?):", readme, re.S).group(1)
    cfg = ristx.harness.SimConfig(m_list=(4,), k_list=(2,), b_list=(1,), num_intervals=4)
    record = ristx.harness.run_trial(cfg, 2, 4, 1, 0, with_record=True)[1]
    assert [r["scheme"] for r in record["results"]] == ["single_rf", "mf_digital"]
    assert re.findall(r"`(\w+)`", keys) == list(record)


def test_readme_config_block_is_the_default_config():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == ristx.harness.SimConfig().to_dict()


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == ristx.__version__


def test_readme_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `ristx\.(\w+)`", table, re.M)
    modules = [path.stem for path in (ROOT / "src" / "ristx").glob("*.py")
               if path.stem != "__init__"]
    assert sorted(listed) == sorted(modules)


def test_package_exports_only_the_quick_start_names():
    imported = re.search(r"from ristx import \((.*?)\)", quick_start(), re.S).group(1)
    exported = {name for name, value in vars(ristx).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {name.strip() for name in imported.split(",")}
    assert isinstance(ristx.__version__, str)


def test_every_module_uses_what_it_imports():
    # __init__.py is exempt: its imports are the re-exports pinned above
    unused = []
    for path in sorted((ROOT / "src" / "ristx").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name.split(".")[0]): node.lineno
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {(a.asname or a.name): node.lineno for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_private_module_name_is_used_in_its_module():
    # a module-level _name that nothing in its module refers to is dead code
    unused = []
    for path in sorted((ROOT / "src" / "ristx").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, ast.Assign):
                names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(isinstance(node, ast.Name) and node.id == name
                           for other in tree.body if other is not statement
                           for node in ast.walk(other)):
                    unused.append(f"{path.name}:{statement.lineno} {name}")
    assert unused == []


def test_no_module_imports_another_modules_private_name():
    # a _name is its module's own: another module that needs it wants a public name
    private = []
    for path in sorted((ROOT / "src" / "ristx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_every_config_error_names_a_field():
    # a literal first argument must be a SimConfig field, an argument of
    # run_trial or run_sweep, or a named non-field source
    fields = {f.name for f in dataclasses.fields(ristx.harness.SimConfig)}
    arguments = {name for function in (ristx.harness.run_trial, ristx.harness.run_sweep)
                 for name in inspect.signature(function).parameters}
    allowed = fields | arguments | {"<root>", "<file>", "resume", "preset"}
    stray = []
    for path in sorted((ROOT / "src" / "ristx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("ConfigError", "_fit") and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value not in allowed):
                stray.append(f"{path.name}:{node.lineno} {node.args[0].value!r}")
    assert stray == []


def test_harness_has_every_name_the_tracer_patches():
    tracing = load_tracing()
    names = [*tracing.WRAPPED, "solve_block", "distortion", "EffectiveMatrix", "np"]
    assert [n for n in names if not hasattr(ristx.harness, n)] == []
    assert callable(ristx.harness.EffectiveMatrix.build)
    assert ristx.harness.np is np


def test_traced_trial_emits_every_span_and_the_same_rows():
    tracing = load_tracing()
    harness = ristx.harness
    cfg = harness.preset_config("fig2", trials=1)
    tracer = tracing.Tracer(ristx.solver)
    with tracing.instrumented(tracer, harness):
        rows = tracing.replay(tracer, harness, cfg, [(64, 4, 2)], "workload")
    # trial_breakdown raises if a required single-RF span is missing
    (trial,) = tracing.trial_breakdown(tracer)
    assert trial["counters"]["columns"] == cfg.num_intervals
    names = {span[1] for span in tracer.spans}
    assert {*tracing.DISTORTION_SPANS, tracing.RADIATED_SPAN,
            "baseline.mf_precode_block", "baseline.mf_post_gains"} <= names
    assert rows == harness.trial_rows(cfg, 2, 64, 4, 0)
