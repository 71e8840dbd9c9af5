"""Fast smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402

RUNNER = run.Runner(run.OUT_ROOT)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SWEEP = (run.sweep("design", 0.05), run.sweep("gain", 0.05))
TINY = {
    "tiny_simulate": run.Workload(commands=(run.simulate(5, 40, 2),),
                                  traced=(run.simulate(5, 40, 1),)),
    "tiny_sweep": run.Workload(commands=SWEEP, traced=SWEEP),
}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed(workload, trace, kind, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=TINY)
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_INVOCATIONS
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "campaign_lam5_w2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def sim_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    subprocess.run([sys.executable, "-m", "dronecell.cli", *run.simulate(5, 40, 1),
                    "--seed", "3", "--out", str(out)],
                   env=run.child_env(), check=True, timeout=60)
    return out


def test_clean_outputs_pass(sim_out):
    assert checks.check_simulate(sim_out, RUNNER.oracles, RUNNER.scenario) == []


def _swap_first_rows(lines):
    lines[1], lines[2] = lines[2], lines[1]


def _drop_last_row(lines):
    del lines[-1]


@pytest.mark.parametrize("corrupt", [_swap_first_rows, _drop_last_row])
@pytest.mark.parametrize("reseal", [False, True])
def test_a_corrupted_cdf_is_caught(sim_out, tmp_path, corrupt, reseal):
    out = tmp_path / "out"
    shutil.copytree(sim_out, out)
    path = out / "rate_cdf_mar.csv"
    lines = path.read_text().splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n")
    if reseal:  # fix the digest so only the CDF checks can notice
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            if entry["path"] == path.name:
                entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
    problems = checks.check_simulate(out, RUNNER.oracles, RUNNER.scenario)
    expect = "rate_cdf_mar.csv: " if reseal else "SHA-256 differs"
    assert any(expect in p for p in problems), problems
