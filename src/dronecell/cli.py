"""Command-line front end.

Three subcommands: ``design`` sweeps the antenna efficiency exponent and
tabulates the optimal cell geometry, ``gain`` tabulates the best-case
repositioning rate over the same sweep, and ``simulate`` runs the
Monte-Carlo campaign. Sample/CDF data is emitted as CSV, scalar summaries
as JSON, and every run writes a manifest with content digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .channel import rate_function, user_rate
from .design import NearDegenerateWarning, NoOptimumError, ideal_directivity, solve_edge_angles
from .params import ScenarioParams, _check_workers

if TYPE_CHECKING:
    from .placement import Strategy
    from .sim import SimConfig, SummaryStats

_DEFAULTS = {
    "a": 9.61,
    "b": 0.16,
    "eta_los": 1.0,
    "eta_nlos": 20.0,
    "freq_hz": 2e9,
    "er": 0.6,
    "lambda": 5.0,
    "fixed_n": None,
    "timeslots": 100_000,
    "seed": 0,
    "strategies": "static,sbc,mar,cmp",
    "workers": 1,
    "er_min": 0.0,
    "er_max": 0.9,
    "er_step": 0.05,
}

# the largest e_r sweep; the row list is built before any row is solved
_MAX_SWEEP_ROWS = 10**6

# CDF rows formatted and written per block: enough to amortise the per-block
# numpy calls, few enough that the text of one block stays near 100 kB
_CDF_BLOCK_ROWS = 1024

# bytes per read when hashing an emitted file
_DIGEST_READ_BYTES = 1 << 20

# config keys that hold counts; every key but "strategies" holds a number
_INT_KEYS = ("fixed_n", "timeslots", "seed", "workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dronecell",
        description="Drone small-cell geometry design and repositioning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="flat JSON config; flags override")
        p.add_argument("--scenario-a", type=float, dest="a")
        p.add_argument("--scenario-b", type=float, dest="b")
        p.add_argument("--eta-los", type=float, dest="eta_los")
        p.add_argument("--eta-nlos", type=float, dest="eta_nlos")
        p.add_argument("--freq-hz", type=float, dest="freq_hz")
        p.add_argument("--out", type=Path, default=Path("out"))

    for name, help_text in (("design", "sweep the efficiency exponent, tabulate cell geometry"),
                            ("gain", "sweep the efficiency exponent, tabulate best-case rates")):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        p.add_argument("--er-min", type=float, dest="er_min")
        p.add_argument("--er-max", type=float, dest="er_max")
        p.add_argument("--er-step", type=float, dest="er_step")

    p = sub.add_parser("simulate", help="run the Monte-Carlo campaign")
    add_common(p)
    p.add_argument("--er", type=float, dest="er")
    p.add_argument("--lambda", type=float, dest="lambda",
                   help="mean users per timeslot (Poisson)")
    p.add_argument("--fixed-n", type=int, dest="fixed_n",
                   help="fixed user count overriding the Poisson draw")
    p.add_argument("--timeslots", type=int, dest="timeslots")
    p.add_argument("--seed", type=int, dest="seed")
    p.add_argument("--strategies", type=str, dest="strategies",
                   help="comma list out of static,sbc,mar,cmp")
    p.add_argument("--workers", type=int, dest="workers",
                   help="parallel workers; never affects the outputs")
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as e:
            raise ValueError(f"cannot read config file: {e}") from e
        except json.JSONDecodeError as e:
            raise ValueError(f"config file is not valid JSON: {e}") from e
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a flat JSON object")
        unknown = sorted(set(loaded) - set(cfg))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            _check_config_type(key, value)
        cfg.update(loaded)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    _check_workers(cfg["workers"])
    return cfg


def _check_config_type(key: str, value) -> None:
    # type(), not isinstance(): JSON true and false are Python ints
    if key == "strategies":
        ok = type(value) is str or (type(value) is list and all(type(v) is str for v in value))
        want = "a string or a list of strings"
    elif key in _INT_KEYS:
        ok = type(value) is int or (key == "fixed_n" and value is None)
        want = "an integer or null" if key == "fixed_n" else "an integer"
    else:
        ok, want = type(value) in (int, float), "a number"
    if not ok:
        raise ValueError(f"config key {key} must be {want}, got {json.dumps(value)}")


def _scenario(cfg: dict) -> ScenarioParams:
    return ScenarioParams(a=float(cfg["a"]), b=float(cfg["b"]),
                          eta_los=float(cfg["eta_los"]),
                          eta_nlos=float(cfg["eta_nlos"]),
                          freq_hz=float(cfg["freq_hz"]), e_r=float(cfg["er"]))


def _parse_strategies(value) -> tuple[Strategy, ...]:
    from .placement import Strategy

    if isinstance(value, str):
        names = [s.strip() for s in value.split(",") if s.strip()]
    else:
        names = list(value)
    try:
        return tuple(Strategy(n) for n in names)
    except ValueError:
        valid = ", ".join(s.value for s in Strategy)
        raise ValueError(f"strategies must be a comma list out of: {valid}") from None


def _er_sweep(cfg: dict) -> list[float]:
    lo, hi, step = float(cfg["er_min"]), float(cfg["er_max"]), float(cfg["er_step"])
    if not math.isfinite(step):
        raise ValueError(f"er-step must be finite, got {step}")
    if step <= 0.0:
        raise ValueError(f"er-step must be positive, got {step}")
    if not (0.0 <= lo <= hi < 1.0):
        raise ValueError(f"efficiency sweep must satisfy 0 <= min <= max < 1, got [{lo}, {hi}]")
    span = (hi - lo) / step
    if span + 1.0 > _MAX_SWEEP_ROWS:
        raise ValueError(
            f"efficiency sweep must have at most {_MAX_SWEEP_ROWS} rows, got {span + 1.0:.4g}")
    n = int(round(span)) + 1
    values = [round(lo + i * step, 12) for i in range(n)]
    # n is the nearest row count, so its last row may lie past max
    return [v for v in values if v <= round(hi, 12) and v < 1.0]


class _OutputSet:
    """Tracks the files a run creates so a failed run leaves nothing behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []

    def create(self, name: str) -> Path:
        """Create the file name (empty) and track it. The caller writes it in
        append mode: a second truncation would make ext4 flush the file's
        blocks when it is closed."""
        path = self.out_dir / name
        path.open("w", newline="").close()
        self.paths.append(path)
        return path

    def write_json(self, name: str, payload: dict) -> None:
        with self.create(name).open("a", newline="") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def cleanup(self) -> None:
        for p in self.paths:
            p.unlink(missing_ok=True)

    def manifest(self, command: str, cfg: dict, diagnostics: dict | None = None) -> None:
        entries = [{"path": p.name, "sha256": _sha256(p)}
                   for p in sorted(self.paths, key=lambda p: p.name)]
        payload = {
            "artifact_version": __version__,
            "command": command,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "seed": cfg.get("seed"),
            "config": cfg,
            "outputs": entries,
        }
        if diagnostics is not None:
            payload["diagnostics"] = diagnostics
        self.write_json("manifest.json", payload)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(_DIGEST_READ_BYTES):
            h.update(chunk)
    return h.hexdigest()


def _design_columns(theta: float, _) -> tuple[float, float]:
    return 10.0 * math.log10(ideal_directivity(theta)), math.tan(math.radians(theta))


def _gain_columns(theta: float, scenario: ScenarioParams) -> tuple[float, float]:
    rate = rate_function(theta, scenario)  # one edge reference for both columns
    return float(rate(0.0)), float(rate(1.0))


# e_r sweep commands: their two computed columns, named and evaluated at
# the solved edge angle; they depend on e_r only through that angle
_SWEEP_COLUMNS = {
    "design": (["ideal_directivity_db", "altitude_over_dmax"], _design_columns),
    "gain": (["max_rate_at_kappa0", "rate_at_kappa1"], _gain_columns),
}


def cmd_sweep(command: str, cfg: dict, out: _OutputSet) -> None:
    names, columns = _SWEEP_COLUMNS[command]
    base = _scenario(cfg)
    ers = _er_sweep(cfg)
    sweep = solve_edge_angles(base, ers)
    with out.create(f"{command}.csv").open("a", newline="") as fh:
        fh.write(_csv_line(["e_r", "theta_edge_deg", *names, "status"]))
        for er, theta, status in zip(ers, sweep.theta.tolist(), sweep.status):
            if status == "no_optimum":
                fh.write(_csv_line([er, "", "", "", status]))
            else:
                fh.write(_csv_line([er, theta, *columns(theta, base), status]))
    out.manifest(command, cfg, diagnostics={
        "rows": {s: sweep.status.count(s) for s in ("ok", "near_degenerate", "no_optimum")},
        "lockstep_passes": sweep.passes,
        "scalar_rechecks": sweep.rechecks,
    })


def run_simulation(config: SimConfig, workers: int = 1) -> SummaryStats:
    """The engine's run_simulation, imported when first called: the sweep
    commands never load the engine or the process pool."""
    from .sim import run_simulation
    return run_simulation(config, workers)


def cmd_simulate(cfg: dict, out: _OutputSet) -> None:
    from . import sim

    scenario = _scenario(cfg)
    fixed_n = cfg["fixed_n"]
    sim_config = sim.SimConfig(
        scenario=scenario,
        lam=float(cfg["lambda"]),
        fixed_n=None if fixed_n is None else int(fixed_n),
        n_timeslots=int(cfg["timeslots"]),
        seed=int(cfg["seed"]),
        strategies=_parse_strategies(cfg["strategies"]),
    )
    # a near-degenerate edge angle is one "warning:" line, also under -W error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NearDegenerateWarning)
        stats = run_simulation(sim_config, int(cfg["workers"]))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    jobs = [(out.create(f"{kind}_cdf_{s.value}.csv"), column,
             getattr(stats.per_strategy[s], attr))
            for kind, column, attr in _CDF_KINDS for s in sim_config.strategies]
    if stats.processes == 1 or len(sim_config.strategies) < 2:
        _write_cdfs(jobs)
    else:
        # a second process writes one half of the rows while this one writes
        # the other; it is handed its half at its start, which a forked
        # process inherits without a pickled copy
        remote, local = _split_rows(jobs)
        with sim.ProcessPoolExecutor(max_workers=1, initializer=_hold_jobs,
                                     initargs=(remote,)) as pool:
            pending = pool.submit(_write_cdfs)
            _write_cdfs(local)
            pending.result()

    theta = stats.theta_edge_deg
    summary = {
        "cell": {
            "theta_edge_deg": theta,
            "altitude_over_dmax": math.tan(math.radians(theta)),
            "e_r": scenario.e_r,
            "max_rate_at_kappa0": user_rate(0.0, theta, scenario),
        },
        "run": {
            "lambda": None if sim_config.fixed_n is not None else sim_config.lam,
            "fixed_n": sim_config.fixed_n,
            "n_timeslots": stats.n_timeslots,
            "n_users_total": stats.n_users_total,
            "seed": sim_config.seed,
        },
        "strategies": {
            s.value: {
                "mean_rate": _jsonable(stats.per_strategy[s].mean_rate),
                "p5_rate": _jsonable(stats.per_strategy[s].p5_rate),
                "frac_rate_above_1": _jsonable(stats.per_strategy[s].frac_rate_above_1),
                "frac_kappa_above_1": _jsonable(stats.per_strategy[s].frac_kappa_above_1),
                "mean_travel": _jsonable(stats.per_strategy[s].mean_travel),
                "n_user_samples": stats.per_strategy[s].n_user_samples,
            }
            for s in sim_config.strategies
        },
    }
    out.write_json("summary.json", summary)
    out.manifest("simulate", cfg)


def _jsonable(x: float):
    # an all-empty run has no rate samples; NaN is not valid JSON
    return None if math.isnan(x) else x


def _csv_line(cells) -> str:
    # the CSV dialect of every output file: "," between cells, "\r\n" after
    # the row, cells as str(); no cell we write needs quoting
    return ",".join(map(str, cells)) + "\r\n"


# the CDF files of each strategy: file name prefix, value column, StrategyStats field
_CDF_KINDS = (("rate", "rate_bits_per_symbol", "rate_samples"),
              ("travel", "distance_over_dmax", "travel_samples"))


def _split_rows(jobs: list) -> tuple[list, list]:
    """CDF jobs (path, value column, samples) in two halves of near-equal
    rows: the longest job first, each to the half with fewer rows so far."""
    halves, rows = ([], []), [0, 0]
    for job in sorted(jobs, key=lambda job: -len(job[2])):
        i = int(rows[1] < rows[0])
        halves[i].append(job)
        rows[i] += len(job[2])
    return halves


# the CDF jobs this process was handed at its start, when it is the pool
# process of cmd_simulate
_held_jobs: list = []


def _hold_jobs(jobs: list) -> None:
    global _held_jobs
    _held_jobs = jobs


def _write_cdfs(jobs: list | None = None) -> None:
    """Write one empirical CDF per job (path, value column, sorted samples):
    a header, then a "value,cdf" row per sample whose cdf is its rank over
    n, appended to the empty file path (see _OutputSet.create). The jobs
    default to those this process was handed at its start.

    The files of one sample count n are written in lockstep, a block of
    rows at a time, and each block's cdf text is formatted once for all
    of them. A float64 rank / n is the same IEEE division as the Python
    (i + 1) / n, and a Python float's repr is its str().
    """
    if jobs is None:
        jobs = _held_jobs
    for n in dict.fromkeys(len(samples) for _, _, samples in jobs):
        group = [job for job in jobs if len(job[2]) == n]
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(path.open("a", newline="")) for path, _, _ in group]
            for fh, (_, column, _) in zip(files, group):
                fh.write(_csv_line([column, "cdf"]))
            for lo in range(0, n, _CDF_BLOCK_ROWS):
                hi = min(lo + _CDF_BLOCK_ROWS, n)
                tails = [f",{c!r}\r\n" for c in (np.arange(lo + 1, hi + 1) / n).tolist()]
                for fh, (_, _, samples) in zip(files, group):
                    rows = zip(samples[lo:hi].tolist(), tails)
                    fh.write("".join([f"{v!r}{t}" for v, t in rows]))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_set = None
    try:
        cfg = _resolve_config(args)
        args.out.mkdir(parents=True, exist_ok=True)
        out_set = _OutputSet(args.out)
        if args.command == "simulate":
            cmd_simulate(cfg, out_set)
        else:
            cmd_sweep(args.command, cfg, out_set)
    except (ValueError, NoOptimumError, OSError) as e:
        if out_set is not None:
            out_set.cleanup()
        msg = " ".join(str(e).split())
        print(f"error: {msg}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
