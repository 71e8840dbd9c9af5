"""dronecell benchmark: the shipped CLI on fixed workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

Run from a source checkout; the program is imported from its `src/`, and
nothing is built. Every invocation is a fresh `python3 -m dronecell.cli`
process whose outputs are checked (see checks.py). The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted counts CLI
invocations and failed those that exited non-zero or failed a check.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, each the median
over the invocations of the run:
  wall_s       wall time of the invocation's processes
  slots_per_s  timeslots / wall_s; on design_sweep, e_r rows / wall_s
  cpu_s        user + system time of the processes and their pool workers
  peak_rss_mb  peak resident set of the largest process of that invocation
  output_mb    bytes written to the output directories / 1e6
  setup_s      wall time of a fresh process that imports dronecell and
               solves the urban edge angle; the median of a few probes
               before the measured window and one after each invocation

--trace 1 prints the per-layer metrics instead. It runs the workload
single-process, untraced once and traced twice at one CLI seed (more
pairs while time remains), through trace_cli.py, which wraps the public
names each layer is called by. Work counts must agree exactly between the
traced runs. Times are means over the traced runs; trace.overhead_frac is
mean traced wall / mean untraced wall - 1 at the same settings.

The CLI seeds of a run are drawn from --seed; --held-out draws them from a
separate seed space, so that a claim can be re-checked on inputs not used
while it was being made. Run context, every sample and any problems go to
.bench_out/<workload>-seed<N>-trace<T>[-held-out]/result.json.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"

SETUP_SAMPLES = 5  # before the window; one more follows each invocation
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150.0
SETUP_PROBE = "import dronecell as dc; dc.solve_edge_angle(dc.URBAN)"
CONTEXT_PROBE = ("import json, numpy, dronecell; print(json.dumps({"
                 "'dronecell_version': dronecell.__version__, "
                 "'dronecell_file': dronecell.__file__, "
                 "'numpy_version': numpy.__version__}))")


def simulate(lam: float, slots: int, workers: int,
             strategies: str = "static,sbc,mar,cmp") -> tuple[str, ...]:
    return ("simulate", "--lambda", str(lam), "--timeslots", str(slots),
            "--workers", str(workers), "--strategies", strategies)


def sweep(command: str, step: float) -> tuple[str, ...]:
    return (command, "--er-min", "0", "--er-max", "0.99", "--er-step", str(step))


@dataclass(frozen=True)
class Workload:
    # CLI argument tuples run one after another as one invocation; the
    # benchmark adds --out, and --seed to simulate commands
    commands: tuple[tuple[str, ...], ...]
    # the same work single-process, as the traced run and its untraced
    # twin run it
    traced: tuple[tuple[str, ...], ...]


# Why each workload exists is recorded in BENCHMARK.json. Sizes keep one
# invocation at 2-6 s on two cores, so a 60 s run holds 10 to 17 of them.
# dense_lam20_sbc_w1 is not in BENCHMARK.json: a third 60 s workload does
# not fit the time that all gated runs are allowed. It still runs by name,
# for the SBC- and emission-bound per-layer picture.
WORKLOADS = {
    # two full 4096-slot chunks, so both pool workers get one; the traced
    # run keeps a single chunk on one worker
    "campaign_lam5_w2": Workload(commands=(simulate(5, 8192, 2),),
                                 traced=(simulate(5, 4096, 1),)),
    "dense_lam20_sbc_w1": Workload(commands=(simulate(20, 4096, 1, "static,sbc"),),
                                   traced=(simulate(20, 4096, 1, "static,sbc"),)),
    "design_sweep": Workload(commands=(sweep("design", 0.001), sweep("gain", 0.001)),
                             traced=(sweep("design", 0.001), sweep("gain", 0.001))),
}

LAYERS = ("sim.sampling", "placement.sbc", "placement.mar", "channel.rate",
          "design.solve", "sim.engine", "cli.emit")
# per-layer metrics that count work; they must repeat exactly at one seed
COUNT_METRICS = ("sim.sampling.calls", "sim.sampling.users", "placement.sbc.calls",
                 "placement.sbc.points", "placement.mar.batches",
                 "placement.mar.instances", "placement.mar.sweeps",
                 "channel.rate.calls", "channel.rate.elems", "design.solve.calls",
                 "cli.emit.bytes")


@dataclass
class Invocation:
    """One workload invocation: its commands' processes, summed."""

    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    out_bytes: int = 0
    units: int = 0  # timeslots simulated, or e_r rows tabulated
    problems: list = field(default_factory=list)
    layer_totals: dict = field(default_factory=dict)
    mar_sweeps: int = 0
    mar_elems: int = 0

    def sample(self) -> dict:
        return {"wall_s": self.wall_s, "slots_per_s": self.units / self.wall_s,
                "cpu_s": self.cpu_s, "peak_rss_mb": self.peak_rss_mb,
                "output_mb": self.out_bytes / 1e6}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_process(argv: list[str], log_path: Path) -> tuple[int, float, float, float]:
    """Run argv to completion: (exit code, wall s, cpu s, peak RSS MB).

    cpu and peak RSS come from wait4 on this one child, so they cover the
    child and the workers it reaped, and nothing from earlier children.
    """
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class Runner:
    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.oracles = load_module("oracles", ROOT / "tests" / "oracles.py")
        params = load_module("dronecell_params", ROOT / "src" / "dronecell" / "params.py")
        self.scenario = params.URBAN  # the CLI's default scenario

    def invoke(self, index: int, commands, cli_seed: int, traced: bool) -> Invocation:
        inv = Invocation(traced=traced)
        inv_dir = self.run_dir / f"{index:03d}{'-traced' if traced else ''}"
        out_dirs = []
        for j, args in enumerate(commands):
            out = inv_dir / f"out{j}"
            out.mkdir(parents=True)
            out_dirs.append(out)
            cli_args = list(args) + ["--out", str(out)]
            if args[0] == "simulate":
                cli_args += ["--seed", str(cli_seed)]
            trace_path = inv_dir / f"trace{j}.json"
            argv = ([sys.executable, str(BENCH_DIR / "trace_cli.py"), str(trace_path)]
                    if traced else [sys.executable, "-m", "dronecell.cli"]) + cli_args
            code, wall, cpu, rss = run_process(argv, inv_dir / f"log{j}.txt")
            inv.wall_s += wall
            inv.cpu_s += cpu
            inv.peak_rss_mb = max(inv.peak_rss_mb, rss)
            if code != 0:
                inv.problems.append(f"{args[0]} exited with code {code}; see {inv_dir}")
                continue
            inv.out_bytes += dir_bytes(out)
            if traced:
                self._add_trace(inv, trace_path)
        if not inv.problems:
            inv.problems += self._check(commands, out_dirs)
        if not inv.problems:
            inv.units = self._units(commands, out_dirs)
        for out in out_dirs:
            shutil.rmtree(out)
        return inv

    def _check(self, commands, out_dirs) -> list[str]:
        if commands[0][0] == "simulate":
            return [f"{d.parent.name}: {p}" for d in out_dirs
                    for p in checks.check_simulate(d, self.oracles, self.scenario)]
        return checks.check_sweep(out_dirs[0], out_dirs[1],
                                  ROOT / "tests" / "golden" / "design.csv")

    @staticmethod
    def _units(commands, out_dirs) -> int:
        units = 0
        for args, d in zip(commands, out_dirs):
            if args[0] == "simulate":
                units += json.loads((d / "summary.json").read_text())["run"]["n_timeslots"]
            else:
                with (d / f"{args[0]}.csv").open() as fh:
                    units += sum(1 for _ in fh) - 1
        return units

    @staticmethod
    def _add_trace(inv: Invocation, trace_path: Path) -> None:
        trace = json.loads(trace_path.read_text())
        for layer, t in trace["layers"].items():
            acc = inv.layer_totals.setdefault(layer, {"calls": 0, "work": 0, "self_s": 0.0})
            for key in acc:
                acc[key] += t[key]
        inv.mar_sweeps += trace["mar_sweeps"]
        inv.mar_elems += trace["mar_elems"]


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def layer_metrics(inv: Invocation) -> dict[str, float]:
    """Per-layer metrics of one traced invocation. Self times plus
    trace.unattributed_s add up to the traced wall time."""
    def total(layer):
        return inv.layer_totals.get(layer, {"calls": 0, "work": 0, "self_s": 0.0})

    wall = inv.wall_s
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(layer)["self_s"]
        m[f"{layer}.share"] = total(layer)["self_s"] / wall
    sampling, sbc, mar, rate = (total(x) for x in
                                ("sim.sampling", "placement.sbc", "placement.mar",
                                 "channel.rate"))
    m["sim.sampling.calls"] = sampling["calls"]
    m["sim.sampling.users"] = sampling["work"]
    m["placement.sbc.calls"] = sbc["calls"]
    m["placement.sbc.points"] = sbc["work"]
    m["placement.mar.batches"] = mar["calls"]
    m["placement.mar.instances"] = mar["work"]
    m["placement.mar.sweeps"] = inv.mar_sweeps
    m["placement.mar.sweeps_per_batch"] = inv.mar_sweeps / mar["calls"] if mar["calls"] else 0.0
    m["channel.rate.calls"] = rate["calls"]
    m["channel.rate.elems"] = rate["work"]
    m["channel.rate.mar_elems_per_instance"] = \
        inv.mar_elems / mar["work"] if mar["work"] else 0.0
    m["channel.rate.ns_per_elem"] = rate["self_s"] * 1e9 / rate["work"] if rate["work"] else 0.0
    m["design.solve.calls"] = total("design.solve")["calls"]
    m["cli.emit.bytes"] = inv.out_bytes
    m["cli.emit.ns_per_byte"] = m["cli.emit.self_s"] * 1e9 / inv.out_bytes
    m["trace.unattributed_s"] = wall - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return m


def run_context(seed: int, held_out: bool) -> dict:
    out = subprocess.run([sys.executable, "-c", CONTEXT_PROBE], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"cannot import dronecell from {ROOT / 'src'}: {out.stderr.strip()}")
    ctx = json.loads(out.stdout)
    if not Path(ctx["dronecell_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"dronecell imported from {ctx['dronecell_file']}, not this checkout")
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    ctx.update(nproc=len(os.sched_getaffinity(0)), cpu_model=cpu_model,
               python_version=platform.python_version(), seed=seed, held_out=held_out)
    return ctx


def measure_setup(count: int) -> list[float]:
    """Wall times of fresh set-up processes. run_context() has already
    warmed the import caches."""
    walls = []
    for _ in range(count):
        code, wall, _, _ = run_process([sys.executable, "-c", SETUP_PROBE],
                                       OUT_ROOT / "setup.log")
        if code != 0:
            raise BenchError("the set-up probe failed; see .bench_out/setup.log")
        walls.append(wall)
    return walls


def run_window(seconds: float, invoke) -> list[Invocation]:
    """Invoke until the next invocation would end past `seconds`, at least
    MIN_INVOCATIONS times."""
    start = time.perf_counter()
    invocations, durations = [], []
    while True:
        t0 = time.perf_counter()
        invocations.append(invoke(len(invocations)))
        durations.append(time.perf_counter() - t0)
        if len(invocations) >= MIN_INVOCATIONS and \
                time.perf_counter() - start + statistics.median(durations) > seconds:
            return invocations


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            held_out: bool, workloads=None) -> tuple[dict, dict]:
    """Run one workload: (result object, full record also written to
    result.json)."""
    workload = (workloads or WORKLOADS)[workload_name]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    run_name = f"{workload_name}-seed{seed}-trace{int(trace)}{'-held-out' if held_out else ''}"
    run_dir = OUT_ROOT / run_name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    context = run_context(seed, held_out)
    rng = random.Random(f"{'held-out' if held_out else 'dev'}:{seed}")
    runner = Runner(run_dir)
    setup = []
    if trace:
        # one CLI seed for every invocation: the traced runs must repeat
        cli_seed = rng.randrange(2**31)
        seeds = []

        def invoke(i):
            seeds.append(cli_seed)
            # untraced first, then two traced, then alternate
            return runner.invoke(i, workload.traced, cli_seed,
                                 traced=(i in (1, 2) or (i > 2 and i % 2 == 0)))
    else:
        # set-up samples are spread over the run, so that their median sees
        # the same machine as the invocations do
        setup = measure_setup(SETUP_SAMPLES)
        seeds = []

        def invoke(i):
            seeds.append(rng.randrange(2**31))
            inv = runner.invoke(i, workload.commands, seeds[-1], traced=False)
            setup.extend(measure_setup(1))
            return inv

    invocations = run_window(seconds, invoke)
    ok = [inv for inv in invocations if not inv.problems]
    problems = [p for inv in invocations for p in inv.problems]
    if trace:
        metrics, trace_problems = traced_metrics(ok)
        problems += trace_problems
    else:
        if not ok:
            raise BenchError("every invocation failed: " + "; ".join(problems[:5]))
        samples = [inv.sample() for inv in ok]
        metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        metrics["setup_s"] = statistics.median(setup)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    failed = sum(1 for inv in invocations if inv.problems)
    result = {
        "correct": not problems,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {"context": context, "workload": workload_name, "cli_seeds": seeds,
              "setup_s_samples": setup, "problems": problems,
              "fail_frac": failed / len(invocations),
              "invocations": [vars(inv) for inv in invocations],
              "result": result}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def traced_metrics(ok: list[Invocation]) -> tuple[dict, list[str]]:
    traced = [inv for inv in ok if inv.traced]
    untraced = [inv for inv in ok if not inv.traced]
    if len(traced) < 2 or not untraced:
        raise BenchError("need two traced runs and one untraced run that pass their checks")
    per_run = [layer_metrics(inv) for inv in traced]
    problems = [f"{k} differs between traced runs: {[m[k] for m in per_run]}"
                for k in COUNT_METRICS if len({m[k] for m in per_run}) != 1]
    # means, so that the self times and trace.unattributed_s still add up
    # to the mean traced wall
    metrics = {k: per_run[0][k] if k in COUNT_METRICS else statistics.fmean(m[k] for m in per_run)
               for k in per_run[0]}
    metrics["trace.overhead_frac"] = (statistics.fmean(inv.wall_s for inv in traced)
                                      / statistics.fmean(inv.wall_s for inv in untraced) - 1.0)
    return metrics, problems


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw CLI seeds from the held-out seed space")
    args = parser.parse_args(argv)
    if args.workload not in (workloads or WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    missing = [p for p in ("src/dronecell/cli.py", "tests/oracles.py",
                           "tests/golden/design.csv", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a dronecell checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.held_out, workloads)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print("context " + json.dumps(record["context"], sort_keys=True))
    for p in record["problems"]:
        print(f"problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
