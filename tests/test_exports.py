import ast
import importlib
import importlib.util
import json
import pathlib
import pkgutil
import shutil
import subprocess
import sys
import types

import pytest

import hdcnav

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = [info.name for info in pkgutil.iter_modules(hdcnav.__path__)
           if hasattr(importlib.import_module(f"hdcnav.{info.name}"), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hdcnav.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_public():
    stale = [name for name, value in vars(hdcnav).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)
             and name not in importlib.import_module(value.__module__).__all__]
    assert stale == []


def _benchmark_imports():
    """(file, module, name) of each import from hdcnav in perfbench/*.py;
    name is None for a plain ``import``."""
    perfbench = ROOT / "perfbench"
    for path in sorted(perfbench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from ((path.name, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, a.name, None) for a in node.names)


def _resolves(module, name):
    """Whether ``import module`` or ``from module import name`` would work."""
    if name is None:
        return importlib.util.find_spec(module) is not None
    return (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


def test_benchmark_imports_resolve():
    # The benchmark runs against this package, so removing a name it
    # imports fails here rather than in a benchmark run.
    imports = [i for i in _benchmark_imports() if i[1].split(".")[0] == "hdcnav"]
    assert imports
    assert [i for i in imports if not _resolves(*i[1:])] == []


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_benchmark_smoke_run(workload):
    # A 0.1 s run of each declared workload exits 0 and reports itself
    # correct, so a narrowed signature fails here rather than in a
    # benchmark run. The run's output directory is removed afterwards.
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=300)
        finally:
            proc.kill()   # does nothing once the run has exited
            proc.wait()
            shutil.rmtree(ROOT / "perfbench" / "out" / f"{workload}-seed1-trace0-{proc.pid}",
                          ignore_errors=True)
    assert proc.returncode == 0, err
    assert json.loads(out.splitlines()[-1])["correct"] is True


def test_only_io_opens_files():
    # io is the one file boundary: no other module opens a file or writes CSV.
    src = pathlib.Path(hdcnav.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                found.append((path.name, "open"))
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if a.name == "csv"]
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.append((path.name, "csv"))
    assert found == []


def test_only_network_and_calibration_build_stimuli():
    # StimulusGain.stimulus is the one yaw-rate rule: no other module builds
    # a TurningStimulus, so a second copy of the rule cannot come back.
    src = pathlib.Path(hdcnav.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("network.py", "calibration.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and (
                    (isinstance(node.func, ast.Name) and node.func.id == "TurningStimulus")
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "TurningStimulus")):
                found.append((path.name, node.lineno))
    assert found == []
