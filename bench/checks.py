"""Output checks for the benchmark's dronecell runs.

Each check returns a list of problems; an empty list means the outputs are
correct. The checks hold for any seed and any random stream, so they keep
working when a later artifact version changes the bytes of the data files.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# How many standard errors the static mean rate may sit from the quadrature
# oracle. At five, a correct program fails this check about once in two
# million runs.
_STATIC_MEAN_SE = 5.0


def check_manifest(out_dir: Path, expected: set[str]) -> list[str]:
    """Every expected file exists, the manifest lists exactly those files,
    and each listed SHA-256 matches the file."""
    problems = [f"missing output {name}" for name in sorted(expected)
                if not (out_dir / name).is_file()]
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return problems + ["missing manifest.json"]
    entries = json.loads(manifest_path.read_text())["outputs"]
    listed = {e["path"] for e in entries}
    if listed != expected:
        problems.append(f"manifest lists {sorted(listed)}, expected {sorted(expected)}")
    for e in entries:
        path = out_dir / e["path"]
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != e["sha256"]:
            problems.append(f"{e['path']}: SHA-256 differs from the manifest")
    return problems


def check_cdf(path: Path, value_column: str, n_rows: int) -> list[str]:
    """A CDF file has the right header and row count, both columns are
    non-decreasing, and the last probability is exactly 1."""
    with path.open() as fh:
        header = fh.readline().strip()
    if header != f"{value_column},cdf":
        return [f"{path.name}: header {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if data.shape[0] != n_rows:
        problems.append(f"{path.name}: {data.shape[0]} rows, expected {n_rows}")
    if data.shape[0] == 0:
        return problems
    if np.any(np.diff(data, axis=0) < 0.0):
        problems.append(f"{path.name}: CDF is not non-decreasing")
    if data[-1, 1] != 1.0 or data[0, 1] <= 0.0:
        problems.append(f"{path.name}: CDF runs from {data[0, 1]!r} to {data[-1, 1]!r}, "
                        "not from above 0 up to 1")
    return problems


def check_simulate(out_dir: Path, oracles, scenario) -> list[str]:
    """Check one `dronecell simulate` output directory.

    oracles is the test suite's oracle module; scenario holds the model
    constants the run used.
    """
    summary_path = out_dir / "summary.json"
    if not summary_path.is_file():
        return ["missing summary.json"]
    summary = json.loads(summary_path.read_text())
    strategies = summary["strategies"]
    n_slots = summary["run"]["n_timeslots"]
    expected = {"summary.json"}
    for s in strategies:
        expected |= {f"rate_cdf_{s}.csv", f"travel_cdf_{s}.csv"}
    problems = check_manifest(out_dir, expected)
    if problems:
        return problems

    for s, st in strategies.items():
        problems += check_cdf(out_dir / f"rate_cdf_{s}.csv",
                              "rate_bits_per_symbol", st["n_user_samples"])
        problems += check_cdf(out_dir / f"travel_cdf_{s}.csv",
                              "distance_over_dmax", n_slots)
    if "sbc" in strategies and strategies["sbc"]["frac_kappa_above_1"] != 0:
        problems.append("SBC left users outside the cell radius")
    if "mar" in strategies and "static" in strategies \
            and not strategies["mar"]["mean_rate"] >= strategies["static"]["mean_rate"]:
        problems.append("MAR mean rate is below the static mean rate")

    # the oracle mean below is taken at the program's edge angle, so that
    # angle is first checked against the grid oracle
    theta = summary["cell"]["theta_edge_deg"]
    theta_grid = oracles.theta_star_grid(scenario)
    if abs(theta - theta_grid) > 2e-3:
        problems.append(f"edge angle {theta} deg, grid oracle {theta_grid} deg")
    if "static" in strategies and not problems:
        rates = np.loadtxt(out_dir / "rate_cdf_static.csv", delimiter=",",
                           skiprows=1, ndmin=2)[:, 0]
        if rates.size > 1:
            mean = strategies["static"]["mean_rate"]
            se = float(np.std(rates, ddof=1)) / math.sqrt(rates.size)
            expect = oracles.static_mean_rate(theta, scenario)
            if abs(mean - expect) > _STATIC_MEAN_SE * se:
                problems.append(f"static mean rate {mean} is {abs(mean - expect) / se:.1f} "
                                f"standard errors from the oracle {expect}")
    return problems


def _rows_by_er(path: Path) -> tuple[str, dict[str, str]]:
    lines = path.read_text().splitlines()
    return lines[0], {line.split(",", 1)[0]: line for line in lines[1:]}


def check_sweep(design_dir: Path, gain_dir: Path, golden_design: Path) -> list[str]:
    """Check the outputs of `dronecell design` and `dronecell gain` run
    over the same e_r grid."""
    problems = check_manifest(design_dir, {"design.csv"}) \
        + check_manifest(gain_dir, {"gain.csv"})
    if problems:
        return problems
    header, design = _rows_by_er(design_dir / "design.csv")
    golden_header, golden = _rows_by_er(golden_design)
    if header != golden_header:
        problems.append(f"design.csv header {header!r}")
    for er, line in golden.items():
        if design.get(er) != line:
            problems.append(f"design.csv row for e_r={er} is {design.get(er)!r}, golden {line!r}")
    _, gain = _rows_by_er(gain_dir / "gain.csv")
    if gain.keys() != design.keys():
        problems.append("gain.csv and design.csv cover different e_r values")
    for er in gain.keys() & design.keys():
        g, d = gain[er].split(","), design[er].split(",")
        if g[1] != d[1] or g[4] != d[4]:
            problems.append(f"gain.csv row for e_r={er} disagrees with design.csv")
        elif g[4] == "ok" and abs(float(g[3]) - 1.0) > 1e-9:
            problems.append(f"gain.csv rate at the cell edge is {g[3]} for e_r={er}, not 1")
    return problems
