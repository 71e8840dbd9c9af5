import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dronecell
from dronecell import URBAN, SimConfig, run_simulation
from dronecell import cli
from dronecell import sim
from dronecell.cli import _resolve_config, build_parser, main
from dronecell.params import _MAX_WORKERS

DESIGN_HEADER = ["e_r", "theta_edge_deg", "ideal_directivity_db",
                 "altitude_over_dmax", "status"]
GAIN_HEADER = ["e_r", "theta_edge_deg", "max_rate_at_kappa0",
               "rate_at_kappa1", "status"]
SIM_FILES = [f"{kind}_cdf_{s}.csv" for kind in ("rate", "travel")
             for s in ("static", "sbc", "mar", "cmp")]
NEAR_DEGENERATE_LINE = ("warning: optimal edge angle 86.477 deg exceeds 85.0 deg; "
                        "geometry is near-degenerate\n")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def digests(out_dir, skip=("manifest.json",)):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name not in skip}


def write_cdfs(jobs):
    """cli._write_cdfs on (path, value column, samples) jobs, each path
    opened as the CLI opens an output."""
    with contextlib.ExitStack() as stack:
        cli._write_cdfs([(stack.enter_context(cli._OutputSet(path.parent).create(path.name)),
                          column, samples) for path, column, samples in jobs])


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of each real pool that sim opens, in order."""
    sizes = []

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", SpyPool)
    return sizes


def test_documented_urban_defaults():
    parser = build_parser()
    cfg = _resolve_config(parser.parse_args(["simulate"]))
    assert (cfg["a"], cfg["b"]) == (9.61, 0.16)
    assert (cfg["eta_los"], cfg["eta_nlos"]) == (1.0, 20.0)
    assert cfg["freq_hz"] == 2e9 and cfg["er"] == 0.6
    assert cfg["lambda"] == 5.0 and cfg["timeslots"] == 100_000
    assert cfg["strategies"] == "static,sbc,mar,cmp"


# every config key, its flag, the flag's type and the commands that take the flag
SIM, SWEEPS, ALL = ("simulate",), ("design", "gain"), ("design", "gain", "simulate")
OPTIONS = [
    ("a", "--scenario-a", float, ALL), ("b", "--scenario-b", float, ALL),
    ("eta_los", "--eta-los", float, ALL), ("eta_nlos", "--eta-nlos", float, ALL),
    ("freq_hz", "--freq-hz", float, ALL), ("er", "--er", float, SIM),
    ("lambda", "--lambda", float, SIM), ("fixed_n", "--fixed-n", int, SIM),
    ("timeslots", "--timeslots", int, SIM), ("seed", "--seed", int, SIM),
    ("strategies", "--strategies", str, SIM), ("workers", "--workers", int, SIM),
    ("er_min", "--er-min", float, SWEEPS), ("er_max", "--er-max", float, SWEEPS),
    ("er_step", "--er-step", float, SWEEPS),
]
# per flag type: a flag value, the value it parses to, and a config-file value
OPTION_VALUES = {float: ("0.25", 0.25, 0.5), int: ("3", 3, 4),
                 str: ("static,mar", "static,mar", ["sbc"])}


@pytest.mark.parametrize("key, flag, flag_type, commands", OPTIONS,
                         ids=[row[0] for row in OPTIONS])
def test_each_option_reaches_the_config(tmp_path, key, flag, flag_type, commands):
    assert [row[0] for row in OPTIONS] == list(cli._OPTIONS)
    text, parsed, loaded = OPTION_VALUES[flag_type]
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({key: loaded}))
    parser = build_parser()
    for command in ALL:
        if command not in commands:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, flag, text])
            assert exc.value.code == 2
            continue
        value = _resolve_config(parser.parse_args([command, flag, text]))[key]
        assert value == parsed and type(value) is flag_type
        assert _resolve_config(parser.parse_args([command, "--config", str(conf)]))[key] == loaded
        assert _resolve_config(parser.parse_args(
            [command, "--config", str(conf), flag, text]))[key] == parsed


class TestDesign:
    def test_default_sweep(self, tmp_path):
        assert main(["design", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "design.csv")
        assert header == DESIGN_HEADER
        assert len(rows) == 19
        thetas = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))
        assert float(rows[0][0]) == 0.0
        assert thetas[0] == pytest.approx(42.438557472707245, abs=1e-6)
        for r in rows:
            assert r[4] == "ok"
            assert float(r[3]) == pytest.approx(
                math.tan(math.radians(float(r[1]))), rel=1e-12)

    @pytest.mark.parametrize("er_min, er_max, last, n_rows", [
        ("0", "0.93", 0.9, 19), ("0.3", "0.3", 0.3, 1)])
    def test_sweep_stops_at_er_max(self, tmp_path, er_min, er_max, last, n_rows):
        assert main(["design", "--er-min", er_min, "--er-max", er_max, "--er-step", "0.05",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "design.csv")
        assert len(rows) == n_rows and float(rows[-1][0]) == last

    def test_near_degenerate_status(self, tmp_path):
        assert main(["design", "--er-min", "0.999", "--er-max", "0.999",
                     "--er-step", "0.05", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "design.csv")
        assert rows[0][4] == "near_degenerate"

    def test_no_optimum_row_kept(self, tmp_path):
        assert main(["design", "--er-min", "0.99999", "--er-max", "0.99999",
                     "--er-step", "0.05", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "design.csv")
        assert rows[0][4] == "no_optimum"
        assert rows[0][1] == ""


class TestGain:
    def test_default_sweep(self, tmp_path):
        assert main(["gain", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "gain.csv")
        assert header == GAIN_HEADER
        assert all(r[3] == "1.0" for r in rows)
        max_rates = [float(r[2]) for r in rows]
        assert all(b < a for a, b in zip(max_rates, max_rates[1:]))
        assert any(float(r[0]) == 0.6 for r in rows)


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        assert main(["simulate", "--lambda", "2", "--timeslots", "300",
                     "--seed", "5", "--out", str(tmp_path)]) == 0
        for name in SIM_FILES + ["summary.json", "manifest.json"]:
            assert (tmp_path / name).exists(), name
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["lambda"] == 2.0
        assert manifest["artifact_version"] == dronecell.__version__
        listed = {e["path"]: e["sha256"] for e in manifest["outputs"]}
        actual = digests(tmp_path)
        assert listed == actual
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["cell"]["theta_edge_deg"] == pytest.approx(48.90218207417125,
                                                                  abs=1e-9)
        assert set(summary["cell"]) == {"theta_edge_deg", "altitude_over_dmax", "e_r",
                                        "max_rate_at_kappa0"}
        for s in ("static", "sbc", "mar", "cmp"):
            block = summary["strategies"][s]
            assert set(block) == {"mean_rate", "p5_rate", "frac_rate_above_1",
                                  "frac_kappa_above_1", "mean_travel",
                                  "n_user_samples"}

    def test_cdf_schema(self, tmp_path):
        assert main(["simulate", "--lambda", "1", "--timeslots", "60",
                     "--seed", "2", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "rate_cdf_mar.csv")
        assert header == ["rate_bits_per_symbol", "cdf"]
        probs = [float(r[1]) for r in rows]
        assert probs[-1] == 1.0 and all(b >= a for a, b in zip(probs, probs[1:]))
        header, rows = read_csv(tmp_path / "travel_cdf_mar.csv")
        assert header == ["distance_over_dmax", "cdf"]
        assert len(rows) == 60

    def test_same_seed_same_digests(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--lambda", "2", "--timeslots", "200",
                         "--seed", "42", "--out", str(out)]) == 0
        assert digests(a) == digests(b)

    @pytest.mark.parametrize("strategies, lam", [
        ("mar", "3"), ("static,cmp", "3"), ("sbc,mar,cmp", "3"), ("static,sbc,mar,cmp", "3"),
        ("static,sbc,mar,cmp", "20")],
        ids=["mar", "static,cmp", "sbc,mar,cmp", "static,sbc,mar,cmp", "static,sbc,mar,cmp-lam20"])
    def test_workers_do_not_change_outputs(self, tmp_path, monkeypatch, strategies, lam):
        # 400 slots in 4 chunks, so --workers 2 runs them on a real pool, and
        # this process writes every CDF; at lambda 20 the pool's processes
        # draw the counts through numpy
        submitted = []

        class SpyPool(ProcessPoolExecutor):
            def map(self, fn, *iterables):
                tasks = list(zip(*iterables))
                submitted.extend([fn.__name__] * len(tasks))
                return super().map(fn, *zip(*tasks))

            def submit(self, fn, *args, **kwargs):
                if not isinstance(fn, functools.partial):  # map's own submits
                    submitted.append(fn.__name__)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(sim, "_CHUNK_SLOTS", 100)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", SpyPool)
        a, b = tmp_path / "w1", tmp_path / "w2"
        common = ["simulate", "--lambda", lam, "--timeslots", "400", "--seed", "6",
                  "--strategies", strategies]
        assert main(common + ["--workers", "1", "--out", str(a)]) == 0
        assert submitted == []
        assert main(common + ["--workers", "2", "--out", str(b)]) == 0
        n = strategies.count(",") + 1
        assert submitted == ["_run_chunk"] * 4
        assert len(digests(a)) == 2 * n + 1 and digests(a) == digests(b)

    def test_near_degenerate_angle_across_workers(self, tmp_path, monkeypatch, capsys,
                                                  pool_sizes):
        # e_r 0.999 puts the edge at 86.48 deg; 3 chunks of 20 slots, so
        # --workers 2 runs a pool of 2, and no other process
        monkeypatch.setattr(sim, "_CHUNK_SLOTS", 20)
        runs = {}
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["simulate", "--er", "0.999", "--timeslots", "50", "--seed", "3",
                         "--workers", workers, "--out", str(out)]) == 0
            assert capsys.readouterr().err == NEAR_DEGENERATE_LINE
            runs[workers] = digests(out)
        assert pool_sizes == [2]
        assert len(runs["1"]) == 9 and runs["1"] == runs["2"]
        theta = json.loads((tmp_path / "2" / "summary.json").read_text())["cell"]["theta_edge_deg"]
        assert theta == pytest.approx(86.47665182133767, abs=1e-6)

    def test_single_user_slots_collapse_dynamic_strategies(self, tmp_path):
        assert main(["simulate", "--fixed-n", "1", "--timeslots", "200",
                     "--seed", "9", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        means = [summary["strategies"][s]["mean_rate"] for s in ("sbc", "mar", "cmp")]
        assert max(means) - min(means) < 1e-9
        assert summary["run"]["fixed_n"] == 1

    def test_strategy_subset(self, tmp_path):
        assert main(["simulate", "--strategies", "static,sbc", "--lambda", "2",
                     "--timeslots", "50", "--seed", "1", "--out", str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "rate_cdf_static.csv" in names and "rate_cdf_sbc.csv" in names
        assert "rate_cdf_mar.csv" not in names

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 3.0, "timeslots": 50,
                                   "strategies": "static", "seed": 4}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--lambda", "2",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lambda"] == 2.0
        assert manifest["config"]["timeslots"] == 50
        assert {p.name for p in out.iterdir() if p.suffix == ".csv"} == {
            "rate_cdf_static.csv", "travel_cdf_static.csv"}


class TestGoldenFiles:
    def test_design_csv_is_byte_stable(self, tmp_path):
        # column names, order and float formatting are part of the contract
        assert main(["design", "--out", str(tmp_path)]) == 0
        import pathlib
        golden = pathlib.Path(__file__).parent / "golden" / "design.csv"
        assert (tmp_path / "design.csv").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("command,sha256", [
        ("design", "976a943bdb6e3ce782aef17824f2d2849ac213477b7da7373f2b58ba21511256"),
        ("gain", "721929f6f0b55978bcf0ab1cad9c4b48e059b4bcf82cd29880d4c04b20d03f55")])
    def test_fine_sweep_is_byte_stable(self, tmp_path, command, sha256):
        # the benchmark's 991-row e_r grid: a last-bit change in any solved
        # edge angle moves these digests
        assert main([command, "--er-min", "0", "--er-max", "0.99", "--er-step", "0.001",
                     "--out", str(tmp_path)]) == 0
        assert digests(tmp_path) == {f"{command}.csv": sha256}

    @pytest.mark.parametrize("command,sha256", [
        ("design", "976a943bdb6e3ce782aef17824f2d2849ac213477b7da7373f2b58ba21511256"),
        ("gain", "721929f6f0b55978bcf0ab1cad9c4b48e059b4bcf82cd29880d4c04b20d03f55")])
    def test_fine_sweep_manifest_reports_the_solver(self, tmp_path, command, sha256):
        # the diagnostics go to the manifest only: the CSV keeps its digest
        assert main([command, "--er-min", "0", "--er-max", "0.99", "--er-step", "0.001",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == [{"path": f"{command}.csv", "sha256": sha256}]
        diag = manifest["diagnostics"]
        assert diag["rows"] == {"ok": 991, "near_degenerate": 0, "no_optimum": 0}
        assert diag["lockstep_passes"] > 40 and diag["scalar_rechecks"] > 991

    # every data file of two small campaigns at seed 7; a change to any of
    # these digests changes the engine's output and needs a __version__ bump
    SIMULATE_SHA256 = {
        "--lambda 5 --timeslots 600": {
            "rate_cdf_cmp.csv": "5eea3f700be86c70a606a2066c6046bc940291dc2334e7d840e84f6601234e07",
            "rate_cdf_mar.csv": "6cae780d7efc2b75d505547cea6a83a8399ccc2aea9c6dbf1eff346b50e2e4a3",
            "rate_cdf_sbc.csv": "db5d07084aceec6730c9f586471f9a881f4cfc64620f26c85f242fb53ba3b35c",
            "rate_cdf_static.csv": "916b6dfbb5210d52153599ebfe915e2981ecc3d26afea035a1cb713c3da54add",
            "summary.json": "7b405cd818e62e3adc224a6967c8a90cdda5b036efdb1d2c0797492c417d02b8",
            "travel_cdf_cmp.csv": "d061d3827464f1b52d4d1b303566beb879fec1b2fb22ceb334744ac44db41a79",
            "travel_cdf_mar.csv": "f00202f307a7ebe5f62c2b9abbeb12dab74bbbadc95b57080a193096f9616a94",
            "travel_cdf_sbc.csv": "9c1ddc79396de7c04e42976f5a33fa786e4c63ba48571ba4322c7a569b86f941",
            "travel_cdf_static.csv": "1a8dd5d23236044510345af05629f2edef24065420c1cfe39f545992d81e2058"},
        "--fixed-n 3 --timeslots 300": {
            "rate_cdf_cmp.csv": "c0cc9bf3677fef25874062ed993917b0ebf1da5e6196edb0b3989777bd364061",
            "rate_cdf_mar.csv": "857bfe010fe5b0ff8f894ff6be0028054bff9920a9b29f7c30c949f10b744332",
            "rate_cdf_sbc.csv": "3723d55f5a2a3ccc05bdd39d4786afc85f43c94a01e144ba9e7f6401e6a472f3",
            "rate_cdf_static.csv": "f40abbefe07348d37d7e7e93af36f70c07eb29ba7ae2d3844111a43455402168",
            "summary.json": "562028905f88a60ac34e245c01eb672bf46a23eca826a13c437e7e0f863720f2",
            "travel_cdf_cmp.csv": "941fd56a64b010dac73432db9491e6d60c8ed4674f3958bfb860338e09d9b0d1",
            "travel_cdf_mar.csv": "cd968667501732dea76b9fea4750d65483f06a344f134bd41008e6262106d18d",
            "travel_cdf_sbc.csv": "efb84d9f2a11d23519d146dc15eb94568beed3dbd9de8c827396beba60cc2091",
            "travel_cdf_static.csv": "a141601c3b3ccdfcc18d9737f400574105223ec425ae7f313c6c4b09e4949dc1"},
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("run", list(SIMULATE_SHA256))
    def test_simulate_is_byte_stable(self, tmp_path, monkeypatch, run, workers):
        if workers == "2":
            monkeypatch.setattr(sim, "_CHUNK_SLOTS", 100)  # several chunks, so the pool runs
        assert main(["simulate", *run.split(), "--seed", "7", "--workers", workers,
                     "--out", str(tmp_path)]) == 0
        assert digests(tmp_path) == self.SIMULATE_SHA256[run]

    @pytest.mark.parametrize("command", ["design", "gain"])
    def test_sweep_status_counts_match_the_csv(self, tmp_path, command):
        # e_r 0.98 ... 0.99999 holds ok, near-degenerate and no-optimum rows
        assert main([command, "--er-min", "0.98", "--er-max", "0.99999", "--er-step", "0.00001",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / f"{command}.csv")
        statuses = [r[4] for r in rows]
        diag = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
        assert diag["rows"] == {s: statuses.count(s)
                                for s in ("ok", "near_degenerate", "no_optimum")}
        assert all(diag["rows"].values())

    def test_cdf_csvs_are_byte_stable(self, tmp_path):
        # reference: the row-by-row writer the CDF files were first emitted by
        def reference(value_column, sorted_samples):
            buf = io.StringIO(newline="")
            w = csv.writer(buf)
            w.writerow([value_column, "cdf"])
            n = len(sorted_samples)
            for i, v in enumerate(sorted_samples):
                w.writerow([float(v), (i + 1) / n])
            return buf.getvalue().encode()

        block = cli._CDF_BLOCK_ROWS
        # a few hundred rows; over two full blocks plus a partial one; the
        # all-empty run, whose rate files hold the header alone; and one user
        # per slot, whose rate and travel files are written in one lockstep
        for lam, fixed_n, slots, seed in ((3.0, None, 80, 21), (1.0, None, 2 * block + 800, 3),
                                          (0.05, None, 20, 0), (5.0, 1, block + 300, 8)):
            out = tmp_path / f"lam{lam}"
            users = ["--lambda", str(lam)] if fixed_n is None else ["--fixed-n", str(fixed_n)]
            assert main(["simulate", *users, "--timeslots", str(slots),
                         "--seed", str(seed), "--out", str(out)]) == 0
            stats = run_simulation(SimConfig(scenario=URBAN, lam=lam, fixed_n=fixed_n,
                                             n_timeslots=slots, seed=seed))
            if slots > 2 * block:
                assert stats.n_users_total > 2 * block and stats.n_users_total % block
            if fixed_n is not None:
                assert stats.n_users_total == slots
            for s, result in stats.per_strategy.items():
                assert (out / f"rate_cdf_{s.value}.csv").read_bytes() == reference(
                    "rate_bits_per_symbol", result.rate_samples)
                assert (out / f"travel_cdf_{s.value}.csv").read_bytes() == reference(
                    "distance_over_dmax", result.travel_samples)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.sampled_from([1, cli._CDF_BLOCK_ROWS - 1, cli._CDF_BLOCK_ROWS,
                         cli._CDF_BLOCK_ROWS + 1]),
        st.integers(2, 4).flatmap(lambda b: st.integers(b * cli._CDF_BLOCK_ROWS + 1,
                                                        (b + 1) * cli._CDF_BLOCK_ROWS - 1))))
    def test_cdf_column_is_monotone_and_ends_at_one(self, tmp_path_factory, n):
        samples = np.sort(np.random.default_rng(n).random(n))
        path = tmp_path_factory.mktemp("cdf") / "cdf_property.csv"
        write_cdfs([(path, "value", samples)])
        header, rows = read_csv(path)
        assert header == ["value", "cdf"] and len(rows) == n
        assert [float(r[0]) for r in rows] == samples.tolist()
        cdf = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == 1.0

    def test_cdf_files_of_mixed_lengths_keep_their_own_rows(self, tmp_path):
        # three rate CDFs of 5 rows and three travel CDFs of 1, interleaved:
        # one call writes each file as a call of its own job alone would
        rng = np.random.default_rng(4)
        jobs = [(tmp_path / f"job{i}.csv", "rate" if i % 2 else "travel",
                 np.sort(rng.random(5 if i % 2 else 1))) for i in range(6)]
        write_cdfs(jobs)
        for i, (path, column, samples) in enumerate(jobs):
            alone = tmp_path / f"alone{i}.csv"
            write_cdfs([(alone, column, samples)])
            assert path.read_bytes() == alone.read_bytes()
            header, rows = read_csv(path)
            assert header == [column, "cdf"]
            assert [float(r[0]) for r in rows] == samples.tolist()
        assert len(list(tmp_path.iterdir())) == 12

    def test_cdf_writer_memory_does_not_grow_with_the_samples(self, tmp_path):
        # the text of one block at a time, never of a whole file
        def peak_bytes(n):
            samples = np.sort(np.random.default_rng(n).random(n))
            tracemalloc.start()
            try:
                write_cdfs([(tmp_path / f"n{n}.csv", "value", samples)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak_bytes(20_000), peak_bytes(200_000)
        assert large < 2e6 and small < 2e6
        assert large < 1.25 * small

    @pytest.mark.parametrize("args", [
        ["design"], ["gain"],
        ["simulate", "--strategies", "static", "--timeslots", "6000", "--workers", "1"],
        ["simulate", "--strategies", "static", "--timeslots", "6000", "--workers", "2"]],
        ids=["design", "gain", "simulate-w1", "simulate-w2"])
    def test_each_output_is_opened_once_and_hashed_as_written(self, tmp_path, monkeypatch,
                                                              args):
        opens = []
        path_open = pathlib.Path.open

        def spy_open(path, mode="r", *rest, **kwargs):
            opens.append((path, mode))
            return path_open(path, mode, *rest, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", spy_open)
        assert main([*args, "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        files = sorted(tmp_path.iterdir())
        assert sorted(path for path, _ in opens if path.parent == tmp_path) == files
        assert all(mode == "wb" for path, mode in opens if path.parent == tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == [
            {"path": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in files if p.name != "manifest.json"]
        if args[0] == "simulate":  # a CDF file over 1 MiB: many writes into one digest
            assert max(p.stat().st_size for p in files) > 1 << 20


class TestReproduction:
    def test_manifest_config_reproduces_the_run(self, tmp_path):
        first = tmp_path / "first"
        assert main(["simulate", "--lambda", "2", "--timeslots", "150",
                     "--seed", "12", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        cfg = tmp_path / "replay.json"
        cfg.write_text(json.dumps(manifest["config"]))
        second = tmp_path / "second"
        assert main(["simulate", "--config", str(cfg), "--out", str(second)]) == 0
        assert digests(first) == digests(second)

    def test_manifest_echoes_only_the_keys_the_command_reads(self, tmp_path):
        # one config file may serve every command; a sweep takes what it reads
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"er": 0.3, "timeslots": 0, "strategies": "bogus"}))
        assert main(["design", "--config", str(conf), "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert sorted(manifest["config"]) == ["a", "b", "er_max", "er_min", "er_step",
                                              "eta_los", "eta_nlos", "freq_hz"]
        assert manifest["seed"] is None

    def test_empty_run_emits_valid_json(self, tmp_path):
        # lam=0.05 with this seed draws zero users in every slot
        assert main(["simulate", "--lambda", "0.05", "--timeslots", "20",
                     "--seed", "0", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["run"]["n_users_total"] == 0
        assert summary["strategies"]["mar"]["mean_rate"] is None
        assert summary["strategies"]["mar"]["mean_travel"] == 0.0
        header, rows = read_csv(tmp_path / "rate_cdf_mar.csv")
        assert header == ["rate_bits_per_symbol", "cdf"] and rows == []


class TestErrors:
    def test_bad_strategy_list(self, tmp_path, capsys):
        rc = main(["simulate", "--strategies", "static,bogus",
                   "--timeslots", "10", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 2.0, "typo_key": 1}))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "typo_key" in capsys.readouterr().err

    def test_cell_radius_is_not_an_input(self, tmp_path, capsys):
        # every output is in units of the cell radius, so no radius is taken
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dmax": 500}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: dmax\n"
        assert not out.exists()
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dmax", "500", "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()

    @pytest.mark.parametrize("command", ["design", "gain"])
    def test_sweeps_take_no_er(self, tmp_path, command):
        # the sweep sets e_r in every row, so the flag would do nothing
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--er", "0.3", "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()

    @pytest.mark.parametrize("args", [
        ["design", "--scenario-a", "80", "--scenario-b", "20", "--eta-nlos", "1.5",
         "--er-min", "0.6", "--er-max", "0.6"],
        ["simulate", "--scenario-a", "80", "--scenario-b", "20", "--eta-nlos", "1.001",
         "--timeslots", "10"],
        ["simulate", "--scenario-b", "80", "--timeslots", "10"],
        ["design", "--eta-nlos", "1e300"]])
    def test_scenario_that_would_overflow(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_invalid_timeslots(self, tmp_path, capsys):
        rc = main(["simulate", "--timeslots", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_efficiency(self, tmp_path, capsys):
        rc = main(["design", "--er-min", "0.5", "--er-max", "1.2",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value,message", [
        ("--scenario-a", "inf", "a must be finite, got inf"),
        ("--scenario-b", "nan", "b must be finite, got nan"),
        ("--eta-los", "nan", "eta_los must be finite, got nan"),
        ("--eta-nlos", "inf", "eta_nlos must be finite, got inf"),
        ("--freq-hz", "inf", "freq_hz must be finite, got inf"),
        ("--lambda", "inf", "lambda must be finite, got inf")])
    def test_non_finite_input(self, tmp_path, capsys, flag, value, message):
        rc = main(["simulate", flag, value, "--timeslots", "10",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value,message", [
        ("--lambda", "1e7", "lambda must be at most 1000, got 10000000.0"),
        ("--fixed-n", "1000000000", "fixed_n must be at most 1000, got 1000000000"),
        ("--timeslots", "10000000000000",
         "n_timeslots x users per slot must be at most 5e+07, got 5e+13")])
    def test_campaign_too_large(self, tmp_path, capsys, flag, value, message):
        rc = main(["simulate", flag, value, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_er_step(self, tmp_path, capsys, value):
        rc = main(["design", "--er-step", value, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: er-step must be finite, got {value}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value,rows", [("1e-300", "9.9e+299"), ("1e-7", "9.9e+06")])
    def test_sweep_too_large(self, tmp_path, capsys, value, rows):
        rc = main(["design", "--er-max", "0.99", "--er-step", value, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: efficiency sweep must have at most 1000000 rows, got {rows}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,key,value,want", [
        ("simulate", "strategies", 5, "a string or a list of strings"),
        ("simulate", "strategies", ["static", 1], "a string or a list of strings"),
        ("simulate", "timeslots", None, "an integer"),
        ("simulate", "timeslots", 20.9, "an integer"),
        ("simulate", "seed", 1.5, "an integer"),
        ("simulate", "seed", True, "an integer"),
        ("simulate", "fixed_n", 3.0, "an integer or null"),
        ("simulate", "lambda", None, "a number"),
        ("design", "er_step", None, "a number"),
        ("design", "timeslots", 20.9, "an integer")])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command, key, value, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: config key {key} must be {want}, got {json.dumps(value)}\n")
        assert not out.exists()

    def test_config_accepts_null_fixed_n_and_a_strategy_list(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fixed_n": None, "strategies": ["static", "sbc"],
                                   "timeslots": 20, "lambda": 2}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "manifest.json", "rate_cdf_sbc.csv", "rate_cdf_static.csv", "summary.json",
            "travel_cdf_sbc.csv", "travel_cdf_static.csv"]

    def test_output_path_that_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "rate_cdf_mar.csv").mkdir()
        rc = main(["simulate", "--timeslots", "100", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # what the run created is gone; what was there before stays
        assert [p.name for p in tmp_path.iterdir()] == ["rate_cdf_mar.csv"]
        assert (tmp_path / "rate_cdf_mar.csv").is_dir()

    def test_write_error_after_a_pooled_run(self, tmp_path, capsys, monkeypatch, pool_sizes):
        # two chunks on a pool of 2; this process then fails on a CDF header
        line = cli._csv_line

        def failing_on_a_cdf_header(cells):
            if cells[-1] == "cdf":
                raise OSError("disk full")
            return line(cells)

        monkeypatch.setattr(sim, "_CHUNK_SLOTS", 50)
        monkeypatch.setattr(cli, "_csv_line", failing_on_a_cdf_header)
        rc = main(["simulate", "--timeslots", "100", "--workers", "2",
                   "--out", str(tmp_path)])
        assert rc == 2 and pool_sizes == [2]
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", str(_MAX_WORKERS + 1), "1000000000"])
    def test_worker_count_out_of_bounds(self, tmp_path, capsys, monkeypatch, workers):
        def no_pool(max_workers):
            raise AssertionError("no process may start")

        monkeypatch.setattr(sim, "ProcessPoolExecutor", no_pool)
        rc = main(["simulate", "--timeslots", "10000", "--workers", workers,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: workers must be in [1, {_MAX_WORKERS}], got {workers}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "design", "gain"])
    def test_worker_count_out_of_bounds_in_a_config_file(self, tmp_path, capsys, command):
        # only simulate reads workers: the sweeps leave the key out of their config
        conf = tmp_path / "c.json"
        conf.write_text('{"workers": 1000000000}')
        out = tmp_path / "out"
        rc = main([command, "--config", str(conf), "--out", str(out)])
        if command != "simulate":
            assert rc == 0
            assert "workers" not in json.loads((out / "manifest.json").read_text())["config"]
            return
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: workers must be in [1, {_MAX_WORKERS}], got 1000000000\n")

    def test_one_chunk_runs_in_this_process(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a run of one chunk starts no process")

        monkeypatch.setattr(sim, "ProcessPoolExecutor", no_pool)
        assert main(["simulate", "--timeslots", "100", "--workers", "2",
                     "--out", str(tmp_path)]) == 0
        assert len(digests(tmp_path)) == 9

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 2


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == dronecell.__version__


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "dronecell.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "design" in proc.stdout and "simulate" in proc.stdout


@pytest.mark.parametrize("scenario", [[], ["--scenario-a", "30", "--scenario-b", "10",
                                            "--eta-nlos", "1001"]])
def test_commands_raise_no_warning(tmp_path, scenario):
    # the urban default, and constants at the bounds of ScenarioParams
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(dronecell.__file__).parents[1])}
    for command in (["design"], ["gain"], ["simulate", "--timeslots", "200"]):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "dronecell.cli", *command,
                               *scenario, "--out", str(tmp_path / command[0])],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), command


def test_near_degenerate_warning_is_not_an_error(tmp_path):
    # under -W error the warning is still the one line, and the run completes
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(dronecell.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "dronecell.cli", "simulate",
                           "--er", "0.999", "--timeslots", "50", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, NEAR_DEGENERATE_LINE)
    assert len(digests(tmp_path)) == 9


@pytest.mark.skipif(shutil.which("dronecell") is None,
                    reason="console script not on PATH")
def test_installed_console_script():
    proc = subprocess.run(["dronecell", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
