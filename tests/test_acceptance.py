"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured numbers (shown with ``pytest -s`` or whenever a criterion fails).
Statistical criteria run the urban scenario (a=9.61, b=0.16, eta_los=1,
eta_nlos=20, f=2 GHz), e_r=0.6, 1e5 timeslots, fixed seed.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from dronecell import (URBAN, SimConfig, Strategy, max_gain,
                       run_simulation, solve_edge_angle, user_rate)
from dronecell.channel import expected_path_loss_db
from dronecell.cli import main
from dronecell.placement import min_enclosing_circle
from dronecell.sim import _place_slots, _sample_slots

import oracles
from one_slot import place

N_SLOTS = 100_000
SEED = 1
WORKERS = 2

THETA = solve_edge_angle(URBAN)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")


@pytest.fixture(scope="session")
def run5():
    cfg = SimConfig(scenario=URBAN, lam=5.0, n_timeslots=N_SLOTS, seed=SEED)
    return run_simulation(cfg, workers=WORKERS)


@pytest.fixture(scope="session")
def run1():
    cfg = SimConfig(scenario=URBAN, lam=1.0, n_timeslots=N_SLOTS, seed=SEED)
    return run_simulation(cfg, workers=WORKERS)


def test_criterion_01_edge_angle_solver():
    theta0 = solve_edge_angle(URBAN.with_efficiency(0.0))
    grid = oracles.theta_star_grid(URBAN.with_efficiency(0.0))
    sweep = [solve_edge_angle(URBAN.with_efficiency(round(0.05 * i, 2)))
             for i in range(19)]
    ok = (abs(theta0 - 42.44) <= 0.5
          and abs(theta0 - grid) <= 0.002
          and all(b >= a for a, b in zip(sweep, sweep[1:])))
    _report(1, ok, f"theta*(0)={theta0:.4f} deg (grid oracle {grid:.4f}), "
                   f"sweep non-decreasing over 19 efficiency steps")
    assert ok


def test_criterion_02_edge_rate_normalization():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        p = oracles.random_scenario(rng)
        theta = float(rng.uniform(5.0, 85.0))
        worst = max(worst, abs(user_rate(1.0, theta, p) - 1.0))
    ok = worst < 1e-12
    _report(2, ok, f"rate at the cell edge deviates from 1.0 by at most {worst:.2e}")
    assert ok


def test_criterion_03_closed_form_equivalence():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(1000):
        p = oracles.random_scenario(rng)
        kappa = float(rng.uniform(0.0, 2.0))
        theta = float(rng.uniform(5.0, 85.0))
        d_max = float(rng.uniform(20.0, 5000.0))
        closed = expected_path_loss_db(kappa, theta, d_max, p)
        direct = oracles.mixed_path_loss_db(kappa, theta, d_max, p)
        worst = max(worst, abs(closed - direct))
    ok = worst < 1e-9
    _report(3, ok, f"closed form vs direct LoS/NLoS mixing: max |diff| = {worst:.2e} dB "
                   f"over 1000 random tuples")
    assert ok


def test_criterion_04_max_gain_trend():
    gains = [max_gain(round(0.1 * i, 1), URBAN) for i in range(1, 10)]
    ok = all(b < a for a, b in zip(gains, gains[1:]))
    _report(4, ok, f"best-case rate falls from {gains[0]:.4f} to {gains[-1]:.4f} "
                   f"over e_r = 0.1..0.9")
    assert ok


def test_criterion_05_sbc_hard_guarantee(run5):
    st = run5.per_strategy[Strategy.SBC]
    n_over = int(round(st.frac_kappa_above_1 * st.n_user_samples))
    ok = st.frac_kappa_above_1 == 0.0
    _report(5, ok, f"SBC users beyond the cell radius: {n_over} of {st.n_user_samples}")
    assert ok


def test_criterion_06_mar_overreach(run5):
    frac = run5.per_strategy[Strategy.MAR].frac_kappa_above_1
    ok = 0.02 <= frac <= 0.08
    _report(6, ok, f"MAR users beyond the cell radius: {100 * frac:.2f}% "
                   f"(band 5% +/- 3pp)")
    assert ok


def test_criterion_07_mar_mean_gain(run5):
    static = run5.per_strategy[Strategy.STATIC].mean_rate
    mar = run5.per_strategy[Strategy.MAR].mean_rate
    over_static = mar / static - 1.0
    over_preset = mar - 1.0
    ok_static = 0.031 <= over_static <= 0.081
    ok_preset = 0.165 <= over_preset <= 0.265
    detail = (f"MAR mean {mar:.4f}: +{100 * over_static:.2f}% vs static {static:.4f} "
              f"(band 5.6 +/- 2.5pp), +{100 * over_preset:.2f}% vs preset 1.0 "
              f"(band 21.5 +/- 5pp)")
    if not (ok_static and ok_preset):
        print(_mar_sensitivity_report(static, mar))
    _report(7, ok_static and ok_preset, detail)
    assert ok_static and ok_preset


def _mar_sensitivity_report(static_mean: float, mar_mean: float) -> str:
    quad = oracles.static_mean_rate(THETA, URBAN)
    # how often the MAR solution touches the feasible-region boundary
    cfg = SimConfig(scenario=URBAN, lam=5.0, n_timeslots=2000, seed=SEED)
    counts, users = _sample_slots(cfg, 0, cfg.n_timeslots)
    radii = np.hypot(*_place_slots(users, counts, (Strategy.MAR,), URBAN, THETA)[Strategy.MAR].T)
    at_boundary = int(np.count_nonzero(radii >= 1.0 - 1e-9))
    return "\n".join([
        "--- sensitivity report (out-of-band MAR mean) ---",
        f"solved edge angle: {THETA:.4f} deg; at this angle the uniform-disc",
        f"static mean is {quad:.4f} by independent quadrature (simulated "
        f"{static_mean:.4f}),",
        "so the two clauses of this criterion are mutually exclusive: any "
        "placement",
        f"gaining the minimum +3.1% over static already lands at {1.031 * quad:.3f} "
        f"> {1.265:.3f},",
        "the ceiling of the preset-relative band. Reproducing both bands would "
        "need an",
        "edge angle near 57.5 deg, which the coverage objective rejects (its "
        "implied",
        "radius is ~0.32 dB below the optimum).",
        "Sensitivity to the recorded design decisions:",
        f"  - MAR feasible region (cell disc): the unconstrained optimum can "
        f"never lie",
        f"    strictly outside the disc (projection onto a convex set shortens "
        f"every",
        f"    user distance), and in {len(radii)} diagnostic slots the solution "
        f"touched",
        f"    the boundary {at_boundary} times; enlarging the region cannot "
        f"raise the mean.",
        "  - travel-distance definition: never enters the rate statistics "
        "(orthogonal).",
        f"measured MAR mean {mar_mean:.4f} = preset +{100 * (mar_mean - 1):.2f}%.",
        "-------------------------------------------------",
    ])


def test_criterion_08_sbc_fairness(run5, run1):
    results = {}
    for lam, stats, lo, hi in ((5.0, run5, 0.00, 0.06), (1.0, run1, 0.07, 0.13)):
        p5_static = stats.per_strategy[Strategy.STATIC].p5_rate
        p5_sbc = stats.per_strategy[Strategy.SBC].p5_rate
        gain = p5_sbc / p5_static - 1.0
        results[lam] = (gain, lo <= gain <= hi)
    ok = all(flag for _, flag in results.values())
    _report(8, ok, "SBC 5th-percentile gain over static: "
                   f"{100 * results[5.0][0]:.2f}% at lam=5 (band 3 +/- 3pp), "
                   f"{100 * results[1.0][0]:.2f}% at lam=1 (band 10 +/- 3pp)")
    assert ok


def test_criterion_09_low_density_ceiling(run1):
    static = run1.per_strategy[Strategy.STATIC].mean_rate
    best = max(run1.per_strategy[s].mean_rate
               for s in (Strategy.SBC, Strategy.MAR, Strategy.CMP))
    over_static = best / static - 1.0
    over_edge = best - 1.0
    ok = (0.10 <= over_static <= 0.25) and (0.25 <= over_edge <= 0.45)
    _report(9, ok, f"best dynamic mean at lam=1: +{100 * over_static:.2f}% vs static "
                   f"(band 10-25%), +{100 * over_edge:.2f}% vs edge rate (band 25-45%)")
    assert ok


def test_criterion_10_travel_ordering(run5):
    st = {s: run5.per_strategy[s] for s in (Strategy.SBC, Strategy.MAR, Strategy.CMP)}
    n = run5.n_timeslots
    ok = True
    parts = []
    for other in (Strategy.SBC, Strategy.CMP):
        diff = st[Strategy.MAR].mean_travel - st[other].mean_travel
        sigma = math.hypot(float(np.std(st[Strategy.MAR].travel_samples)),
                           float(np.std(st[other].travel_samples))) / math.sqrt(n)
        ok = ok and diff > 3.0 * sigma
        parts.append(f"MAR-{other.value}: +{diff:.4f} ({diff / sigma:.0f} sigma)")
    _report(10, ok, "mean travel (cell radii) " + ", ".join(parts))
    assert ok


def test_criterion_11_geometry_oracles():
    rng = np.random.default_rng(2028)
    worst_mec = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        pts = rng.normal(scale=2.0, size=(n, 2))
        (c,), (r,) = min_enclosing_circle(pts[None])
        bc, br = oracles.brute_force_mec(pts)
        worst_mec = max(worst_mec, abs(r - br), float(np.hypot(*(c - bc))))
    ok_mec = worst_mec < 1e-9

    worst_gap = -math.inf
    rng = np.random.default_rng(2029)
    for _ in range(20):
        n = max(1, min(12, int(rng.poisson(5.0))))
        rad = np.sqrt(rng.random(n))
        phi = 2.0 * math.pi * rng.random(n)
        users_norm = np.stack([rad * np.cos(phi), rad * np.sin(phi)], axis=1)
        res = place(users_norm, Strategy.MAR)
        grid_best = oracles.grid_search_aggregate(users_norm, THETA, URBAN, n_grid=2001)
        worst_gap = max(worst_gap, grid_best - res.aggregate_rate)
    ok_mar = worst_gap < 1e-3

    ok = ok_mec and ok_mar
    _report(11, ok, f"bounding circle vs brute force: max dev {worst_mec:.2e} "
                    f"(1000 instances); MAR vs 2001^2 grid: worst shortfall "
                    f"{worst_gap:.2e} bits/symbol (20 instances)")
    assert ok


def test_criterion_12_worker_determinism(tmp_path):
    digests = []
    for w in (1, 4, 8):
        out = tmp_path / f"w{w}"
        rc = main(["simulate", "--lambda", "5", "--timeslots", "12500",
                   "--seed", "7", "--workers", str(w), "--out", str(out)])
        assert rc == 0
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir()) if p.name != "manifest.json"})
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {e["path"]: e["sha256"] for e in manifest["outputs"]}
        assert listed == digests[-1]
    ok = digests[0] == digests[1] == digests[2]
    _report(12, ok, f"{len(digests[0])} output files bit-identical for "
                    f"worker counts 1, 4, 8")
    assert ok
