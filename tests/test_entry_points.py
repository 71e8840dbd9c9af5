"""What each entry point loads, and the seams the layer tracer wraps.

The geometry design and the sweep commands must not pay for the
Monte-Carlo engine or the process-pool stack; the engine's names stay
reachable from the package, and the names that bench/trace_cli.py wraps
stay module attributes that the calls go through. The package loads
numpy's OpenBLAS with one thread, because no module of it calls BLAS.
"""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import dronecell
from dronecell import cli, sim
from dronecell.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(dronecell.__file__).parents[1])}
ENGINE_MODULES = {"dronecell.sim", "dronecell.placement", "multiprocessing",
                  "concurrent.futures.process"}
# the module that defines each name of dronecell.__all__
HOMES = {
    "params": ["SPEED_OF_LIGHT", "URBAN", "ScenarioParams"],
    "channel": ["p_los", "expected_path_loss_db", "g_pos", "user_rate", "rate_function"],
    "design": ["max_gain", "ideal_directivity", "edge_angle_objective", "log_dmax_offset",
               "solve_edge_angle", "solve_edge_angles", "NoOptimumError",
               "NearDegenerateWarning"],
    "placement": ["Strategy", "min_enclosing_circle"],
    "sim": ["SimConfig", "run_simulation", "sample_user_count", "sample_users_uniform_disc"],
}
# cli calls solve_edge_angles, not solve_edge_angle: this hook wraps no name
DEAD_HOOKS = {("dronecell.cli", "solve_edge_angle")}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# numpy's entry points into BLAS, besides the @ operator
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def loaded_modules(*args: str) -> set[str]:
    """The modules a fresh `python -X importtime ARGS` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_package_import_and_design_load_no_engine():
    modules = loaded_modules("-c", "import dronecell; dronecell.solve_edge_angle(dronecell.URBAN)")
    assert "dronecell.design" in modules
    assert modules & ENGINE_MODULES == set()


@pytest.mark.parametrize("command", ["design", "gain"])
def test_sweep_commands_load_no_engine(tmp_path, command):
    modules = loaded_modules("-m", "dronecell.cli", command, "--er-max", "0.2",
                             "--out", str(tmp_path))
    assert "dronecell.design" in modules
    assert modules & ENGINE_MODULES == set()


def test_simulate_loads_the_engine(tmp_path):
    modules = loaded_modules("-m", "dronecell.cli", "simulate", "--timeslots", "20",
                             "--out", str(tmp_path))
    assert {"dronecell.sim", "dronecell.placement"} <= modules


def test_star_import_binds_each_name_to_its_defining_module():
    assert sorted([*(n for names in HOMES.values() for n in names), "__version__"]) == sorted(
        dronecell.__all__)
    script = f"""
import importlib
from dronecell import *
import dronecell
homes = {HOMES!r}
wrong = [name for module, names in homes.items() for name in names
         if globals()[name] is not getattr(importlib.import_module("dronecell." + module), name)]
assert wrong == [], wrong
assert __version__ == dronecell.__version__
assert dronecell.Strategy is dronecell.placement.Strategy
try:
    dronecell.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("an unknown attribute of dronecell resolved")
assert not hasattr(dronecell, "no_such_name")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=ENV)
    assert (proc.returncode, proc.stderr) == (0, "")


def _trace_cli():
    spec = importlib.util.spec_from_file_location("trace_cli", ROOT / "bench" / "trace_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    missing = [(module.__name__, name) for module, name, _, _ in _trace_cli().HOOKS
               if (module.__name__, name) not in DEAD_HOOKS and not hasattr(module, name)]
    assert missing == []
    assert callable(sim.rate_function)


def test_simulate_calls_the_engine_through_the_cli_seam(tmp_path, monkeypatch):
    calls = []
    engine = cli.run_simulation

    def spy(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", spy)
    assert main(["simulate", "--timeslots", "20", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_a_traced_simulate_times_the_engine(tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "trace_cli.py"), str(trace),
                           "simulate", "--timeslots", "20", "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
    layers = json.loads(trace.read_text())["layers"]
    assert layers["sim.engine"]["calls"] == 1 and layers["sim.engine"]["self_s"] > 0.0
    for layer in ("sim.sampling", "placement.sbc", "placement.mar", "channel.rate",
                  "design.solve"):
        assert layers[layer]["calls"] > 0, layer


def fresh_python(script: str, **env: str) -> str:
    """The standard output of SCRIPT in a fresh interpreter whose environment
    sets no BLAS thread count, apart from ENV."""
    base = {k: v for k, v in ENV.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**base, **env})
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_leaves_one_os_thread():
    assert fresh_python("import os, dronecell; print(len(os.listdir('/proc/self/task')))") == "1\n"


@pytest.mark.parametrize("preamble, env, writes", [
    ("", {}, ["OPENBLAS_NUM_THREADS"]),
    ("", {"OPENBLAS_NUM_THREADS": "2"}, []),
    ("", {"OMP_NUM_THREADS": "2"}, []),
    ("", {"GOTO_NUM_THREADS": "2"}, []),
    ("import numpy", {}, []),
], ids=["unset", "openblas", "omp", "goto", "numpy-first"])
def test_import_leaves_the_environment_as_it_was(preamble, env, writes):
    script = f"""
import json, os, subprocess, sys
{preamble}
written = []

class Spy(type(os.environ)):
    def __setitem__(self, key, value):
        written.append(key)
        super().__setitem__(key, value)

os.environ.__class__ = Spy
before = dict(os.environ)
import dronecell
probe = "import os; print(os.getenv('OPENBLAS_NUM_THREADS'))"
child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True).stdout
print(json.dumps([written, dict(os.environ) == before, child.strip()]))
"""
    assert json.loads(fresh_python(script, **env)) == [
        writes, True, env.get("OPENBLAS_NUM_THREADS", "None")]


def test_no_module_calls_blas():
    """The one-thread OpenBLAS load holds only while nothing calls BLAS."""
    calls = []
    for path in sorted(pathlib.Path(dronecell.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                names = ["@"] if isinstance(node.op, ast.MatMult) else []
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            elif isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".")
            else:
                continue
            calls += [(path.name, node.lineno, name) for name in names
                      if name == "@" or name in BLAS_NAMES]
    assert calls == []
