"""Snapshot Monte-Carlo engine.

Each timeslot is independent: the number of active users is Poisson (or a
fixed count), users are placed uniformly over the cell disc, every enabled
strategy is evaluated on the same user set, and per-user rates plus
per-slot drone travel distances are pooled into empirical statistics.

Randomness is drawn from counter-based streams keyed by
(seed, timeslot, draw purpose), so a run is bit-reproducible for any
worker count and any chunking of the timeslot range.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import rate_derivatives, rate_function
from .design import CellGeometry, solve_edge_angle
from .params import ScenarioParams
from .placement import Strategy, min_enclosing_circle, solve_mar_batch

_CHUNK_SLOTS = 4096
_MAX_USERS_PER_SLOT = 1000    # bound on lam and fixed_n
_MAX_USER_SAMPLES = 50_000_000  # bound on n_timeslots x users per slot
_DRAW_COUNT = 0
_DRAW_POSITION = 1

ALL_STRATEGIES = (Strategy.STATIC, Strategy.SBC, Strategy.MAR, Strategy.CMP)


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign.

    lam is the mean number of active users per timeslot; fixed_n overrides
    the Poisson draw with a constant count. d_max only sets the metric
    scale: rates and travel distances depend on the cell proportions, not
    its absolute size. A campaign has at most _MAX_USERS_PER_SLOT users per
    slot and _MAX_USER_SAMPLES expected user samples in all, so that it
    cannot exhaust memory.
    """

    scenario: ScenarioParams
    lam: float = 5.0
    fixed_n: Optional[int] = None
    n_timeslots: int = 100_000
    seed: int = 0
    strategies: tuple[Strategy, ...] = ALL_STRATEGIES
    d_max: float = 500.0

    def __post_init__(self) -> None:
        strategies = tuple(Strategy(s) for s in self.strategies)
        if len(set(strategies)) != len(strategies):
            raise ValueError("duplicate strategies requested")
        if not strategies:
            raise ValueError("at least one strategy must be enabled")
        object.__setattr__(self, "strategies", strategies)
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")
        if self.fixed_n is None:
            if not self.lam > 0.0:
                raise ValueError(f"lambda must be positive, got {self.lam}")
        elif self.fixed_n < 1:
            raise ValueError(f"fixed_n must be >= 1, got {self.fixed_n}")
        per_slot = self.lam if self.fixed_n is None else self.fixed_n
        if per_slot > _MAX_USERS_PER_SLOT:
            name = "lambda" if self.fixed_n is None else "fixed_n"
            raise ValueError(f"{name} must be at most {_MAX_USERS_PER_SLOT}, got {per_slot}")
        if self.n_timeslots < 1:
            raise ValueError(f"n_timeslots must be >= 1, got {self.n_timeslots}")
        if self.n_timeslots * per_slot > _MAX_USER_SAMPLES:
            raise ValueError(f"n_timeslots x users per slot must be at most "
                             f"{_MAX_USER_SAMPLES:.0e}, got {self.n_timeslots * per_slot:.3g}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.d_max < math.inf:
            raise ValueError(f"cell radius must be positive and finite, got {self.d_max}")


@dataclass(frozen=True, eq=False)
class StrategyStats:
    """Pooled per-user rate and per-slot travel statistics of one strategy."""

    strategy: Strategy
    n_user_samples: int
    mean_rate: float
    p5_rate: float
    frac_rate_above_1: float
    frac_kappa_above_1: float
    mean_travel: float
    rate_samples: np.ndarray    # sorted, one entry per user per slot
    travel_samples: np.ndarray  # sorted, one entry per slot


@dataclass(frozen=True, eq=False)
class SummaryStats:
    """Result of a simulation campaign."""

    config: SimConfig
    geometry: CellGeometry
    n_timeslots: int
    n_users_total: int
    per_strategy: dict[Strategy, StrategyStats]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _stream(seed: int, timeslot: int, purpose: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(timeslot, purpose))
    return np.random.Generator(np.random.Philox(ss))


def sample_user_count(lam: float, rng: np.random.Generator) -> int:
    """Poisson-distributed number of active users in one timeslot."""
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return int(rng.poisson(lam))


def sample_users_uniform_disc(n: int, d_max: float, rng: np.random.Generator,
                              center=(0.0, 0.0)) -> np.ndarray:
    """n user positions uniform over the disc of radius d_max, shape (n, 2)."""
    if n < 0:
        raise ValueError(f"user count must be non-negative, got {n}")
    r = d_max * np.sqrt(rng.random(n))
    phi = 2.0 * math.pi * rng.random(n)
    c = np.asarray(center, dtype=float)
    return np.stack([c[0] + r * np.cos(phi), c[1] + r * np.sin(phi)], axis=1)


def _slot_users(config: SimConfig, timeslot: int) -> np.ndarray:
    if config.fixed_n is not None:
        n = config.fixed_n
    else:
        n = sample_user_count(config.lam, _stream(config.seed, timeslot, _DRAW_COUNT))
    return sample_users_uniform_disc(n, config.d_max,
                                     _stream(config.seed, timeslot, _DRAW_POSITION))


# ---------------------------------------------------------------------------
# Chunked engine
# ---------------------------------------------------------------------------

def _run_chunk(config: SimConfig, start: int, stop: int) -> dict:
    """Simulate timeslots [start, stop) and return normalized-frame arrays."""
    slots = [_slot_users(config, t) / config.d_max for t in range(start, stop)]
    counts = np.array([pts.shape[0] for pts in slots], dtype=np.int64)
    users = np.concatenate(slots, axis=0)
    return {"counts": counts, "users": users,
            "positions": _place_slots(users, counts, config.strategies, config.scenario)}


def _place_slots(users: np.ndarray, counts: np.ndarray, strategies: tuple[Strategy, ...],
                 scenario: ScenarioParams) -> dict[Strategy, np.ndarray]:
    """Drone positions of every requested strategy, {strategy: (L, 2)}, for
    L slots whose users, counts[i] of them in slot i, lie in slot order in
    users (U, 2), in the normalized frame.

    An empty slot keeps the drone at the cell center. The slots with one
    user count are gathered once into a (B, N, 2) block; the SBC center
    seeds the MAR search on that block. CMP takes the SBC or the MAR
    position, whichever is nearer the center; ties go to the SBC (fairness)
    position.
    """
    length = len(counts)
    need_mar = Strategy.MAR in strategies or Strategy.CMP in strategies
    if need_mar:
        theta = solve_edge_angle(scenario)
        rate = rate_function(theta, scenario)
        rate_terms = rate_derivatives(theta, scenario)
    sbc, mar = np.zeros((length, 2)), np.zeros((length, 2))
    if need_mar or Strategy.SBC in strategies:
        offsets = np.cumsum(counts) - counts
        # a set, not np.unique: its first call alone adds 1.5 MB of resident memory
        for n in sorted(set(counts.tolist()) - {0}):
            rows = np.flatnonzero(counts == n)
            block = users[offsets[rows, None] + np.arange(n)]
            sbc[rows], _ = min_enclosing_circle(block)
            if need_mar:
                mar[rows], _ = solve_mar_batch(block, rate, rate_terms, sbc[rows])
    use_sbc = np.hypot(*sbc.T) <= np.hypot(*mar.T)
    positions = {Strategy.STATIC: np.zeros((length, 2)), Strategy.SBC: sbc,
                 Strategy.MAR: mar, Strategy.CMP: np.where(use_sbc[:, None], sbc, mar)}
    return {s: positions[s] for s in strategies}


def _nearest_rank(sorted_vals: np.ndarray, pct: float) -> float:
    n = len(sorted_vals)
    if n == 0:
        return math.nan
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_vals[min(rank, n) - 1])


def _strategy_stats(strategy: Strategy, rates: np.ndarray, kappas: np.ndarray,
                    travel: np.ndarray) -> StrategyStats:
    n = rates.size
    rates_sorted = np.sort(rates)
    travel_sorted = np.sort(travel)
    return StrategyStats(
        strategy=strategy,
        n_user_samples=int(n),
        mean_rate=float(np.mean(rates)) if n else math.nan,
        p5_rate=_nearest_rank(rates_sorted, 5.0),
        frac_rate_above_1=float(np.count_nonzero(rates > 1.0) / n) if n else math.nan,
        frac_kappa_above_1=float(np.count_nonzero(kappas > 1.0) / n) if n else math.nan,
        mean_travel=float(np.mean(travel)),
        rate_samples=rates_sorted,
        travel_samples=travel_sorted,
    )


def run_simulation(config: SimConfig, workers: int = 1) -> SummaryStats:
    """Run the campaign and pool the statistics.

    Identical config and seed give bit-identical results for any worker
    count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    theta = solve_edge_angle(config.scenario)
    geometry = CellGeometry.from_edge_angle(theta, config.d_max)
    rate = rate_function(theta, config.scenario)

    bounds = list(range(0, config.n_timeslots, _CHUNK_SLOTS)) + [config.n_timeslots]
    tasks = [(config, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    if workers == 1 or len(tasks) == 1:
        chunks = [_run_chunk(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            chunks = list(pool.map(_run_chunk, *zip(*tasks)))

    counts = np.concatenate([c["counts"] for c in chunks])
    users = np.concatenate([c["users"] for c in chunks], axis=0)
    slot_of_user = np.repeat(np.arange(config.n_timeslots), counts)
    n_users_total = int(counts.sum())

    per_strategy: dict[Strategy, StrategyStats] = {}
    for s in config.strategies:
        pos = np.concatenate([c["positions"][s] for c in chunks], axis=0)
        pu = pos[slot_of_user]
        kappas = np.hypot(users[:, 0] - pu[:, 0], users[:, 1] - pu[:, 1])
        rates = rate(kappas)
        prev = np.vstack([np.zeros(2), pos[:-1]])
        travel = np.hypot(pos[:, 0] - prev[:, 0], pos[:, 1] - prev[:, 1])
        per_strategy[s] = _strategy_stats(s, rates, kappas, travel)

    return SummaryStats(config=config, geometry=geometry,
                        n_timeslots=config.n_timeslots,
                        n_users_total=n_users_total,
                        per_strategy=per_strategy)
