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
    from .sim import SimConfig, SummaryStats

_COMMANDS = {
    "design": "sweep the efficiency exponent, tabulate cell geometry",
    "gain": "sweep the efficiency exponent, tabulate best-case rates",
    "simulate": "run the Monte-Carlo campaign",
}
_ALL, _SWEEPS, _SIM = tuple(_COMMANDS), ("design", "gain"), ("simulate",)

# one row per config key, which a config file of any command may set: the
# flag, the flag's type, the key's default (a None default also admits
# null), the commands that take the flag, and the flag's help
_OPTIONS = {
    "a": ("--scenario-a", float, 9.61, _ALL, None),
    "b": ("--scenario-b", float, 0.16, _ALL, None),
    "eta_los": ("--eta-los", float, 1.0, _ALL, None),
    "eta_nlos": ("--eta-nlos", float, 20.0, _ALL, None),
    "freq_hz": ("--freq-hz", float, 2e9, _ALL, None),
    "er": ("--er", float, 0.6, _SIM, None),
    "lambda": ("--lambda", float, 5.0, _SIM, "mean users per timeslot (Poisson)"),
    "fixed_n": ("--fixed-n", int, None, _SIM, "fixed user count overriding the Poisson draw"),
    "timeslots": ("--timeslots", int, 100_000, _SIM, None),
    "seed": ("--seed", int, 0, _SIM, None),
    "strategies": ("--strategies", str, "static,sbc,mar,cmp", _SIM,
                   "comma list out of static,sbc,mar,cmp"),
    "workers": ("--workers", int, 1, _SIM, "parallel workers; never affects the outputs"),
    "er_min": ("--er-min", float, 0.0, _SWEEPS, None),
    "er_max": ("--er-max", float, 0.9, _SWEEPS, None),
    "er_step": ("--er-step", float, 0.05, _SWEEPS, None),
}

# the largest e_r sweep; the row list is built before any row is solved
_MAX_SWEEP_ROWS = 10**6

# CDF rows formatted and written per block: enough to amortise the per-block
# numpy calls, few enough that the text of one block stays near 100 kB
_CDF_BLOCK_ROWS = 1024

# bytes per read when hashing an emitted file
_DIGEST_READ_BYTES = 1 << 20


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dronecell",
        description="Drone small-cell geometry design and repositioning simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, help="flat JSON config; flags override")
        p.add_argument("--out", type=Path, default=Path("out"))
        for key, (flag, flag_type, _, commands, flag_help) in _OPTIONS.items():
            if command in commands:
                p.add_argument(flag, type=flag_type, dest=key, help=flag_help)
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    cfg = {key: default for key, (_, _, default, _, _) in _OPTIONS.items()}
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
    _, flag_type, default, _, _ = _OPTIONS[key]
    # type(), not isinstance(): JSON true and false are Python ints
    if flag_type is str:
        ok = type(value) is str or (type(value) is list and all(type(v) is str for v in value))
        want = "a string or a list of strings"
    elif flag_type is int:
        ok, want = type(value) is int, "an integer"
    else:
        ok, want = type(value) in (int, float), "a number"
    if default is None:
        ok, want = ok or value is None, f"{want} or null"
    if not ok:
        raise ValueError(f"config key {key} must be {want}, got {json.dumps(value)}")


def _scenario(cfg: dict) -> ScenarioParams:
    return ScenarioParams(a=float(cfg["a"]), b=float(cfg["b"]),
                          eta_los=float(cfg["eta_los"]),
                          eta_nlos=float(cfg["eta_nlos"]),
                          freq_hz=float(cfg["freq_hz"]), e_r=float(cfg["er"]))


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
    strategies = cfg["strategies"]
    if isinstance(strategies, str):
        strategies = [s.strip() for s in strategies.split(",") if s.strip()]
    sim_config = sim.SimConfig(
        scenario=scenario,
        lam=float(cfg["lambda"]),  # a JSON int would print as 2, not 2.0, in summary.json
        fixed_n=cfg["fixed_n"],
        n_timeslots=cfg["timeslots"],
        seed=cfg["seed"],
        strategies=strategies,
    )
    # a near-degenerate edge angle is one "warning:" line, also under -W error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NearDegenerateWarning)
        stats = run_simulation(sim_config, cfg["workers"])
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    jobs = [(out.create(f"{kind}_cdf_{s.value}.csv"), column,
             getattr(stats.per_strategy[s], attr))
            for kind, column, attr in _CDF_KINDS for s in sim_config.strategies]
    _write_cdfs(jobs)

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
            s.value: {f: _jsonable(getattr(stats.per_strategy[s], f)) for f in _SUMMARY_FIELDS}
            for s in sim_config.strategies
        },
    }
    out.write_json("summary.json", summary)
    out.manifest("simulate", cfg)


# the StrategyStats fields of each strategy's block in summary.json
_SUMMARY_FIELDS = ("mean_rate", "p5_rate", "frac_rate_above_1", "frac_kappa_above_1",
                   "mean_travel", "n_user_samples")


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


def _write_cdfs(jobs: list) -> None:
    """Write one empirical CDF per job (path, value column, sorted samples):
    a header, then a "value,cdf" row per sample whose cdf is its rank over
    n, appended to the empty file path (see _OutputSet.create).

    The files of one sample count n are written in lockstep, a block of
    rows at a time, and each block's cdf text is formatted once for all
    of them. A float64 rank / n is the same IEEE division as the Python
    (i + 1) / n, and a Python float's repr is its str().
    """
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
