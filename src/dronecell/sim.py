"""Snapshot Monte-Carlo engine.

Each timeslot is independent: the number of active users is Poisson (or a
fixed count), users are placed uniformly over the cell disc, every enabled
strategy is evaluated on the same user set, and per-user rates plus
per-slot drone travel distances are pooled into empirical statistics.

Slot t draws its count and its positions from the numpy streams
Generator(Philox(SeedSequence(seed, spawn_key=(t, purpose)))). The engine
derives every slot's Philox key at once from SeedSequence's hash mix,
vectorised over a chunk of slots, and numpy's own generator, set to each
slot's key in turn, draws that slot's count and positions, for every
lambda. A slot's users are thus a pure function of (seed, slot), so a run
is bit-reproducible for any worker count and any chunking of the timeslot
range.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import rate_derivatives, rate_function
from .design import solve_edge_angle
from .params import _MAX_WORKERS, ScenarioParams, _check_workers
from .placement import Strategy, min_enclosing_circle, solve_mar_batch

_CHUNK_SLOTS = 4096
_MAX_USERS_PER_SLOT = 1000    # bound on lam and fixed_n
_MAX_USER_SAMPLES = 50_000_000  # bound on n_timeslots, and on n_timeslots x users per slot
_DRAW_COUNT = 0
_DRAW_POSITION = 1

ALL_STRATEGIES = (Strategy.STATIC, Strategy.SBC, Strategy.MAR, Strategy.CMP)


def _as_int(name: str, value) -> int:
    """value as a Python int; a bool or a non-integer is rejected."""
    # a bool is an int to Python, but never a count or a seed
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_ints(name: str, values) -> np.ndarray:
    """values as a non-negative int64 array; another kind (float, bool) is
    rejected rather than truncated, and 2**63 or more rather than wrapped."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    for bad, bound in ((values < 0, "non-negative"), (values > 2**63 - 1, "below 2**63")):
        if np.any(bad):
            raise ValueError(f"{name} must be {bound}, got {values[bad][0]}")
    return values.astype(np.int64)


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign.

    lam is the mean number of active users per timeslot; fixed_n overrides
    the Poisson draw with a constant count. A campaign has at most
    _MAX_USERS_PER_SLOT users per slot, and at most _MAX_USER_SAMPLES
    timeslots and expected user samples in all, so that it cannot exhaust
    memory.
    """

    scenario: ScenarioParams
    lam: float = 5.0
    fixed_n: Optional[int] = None
    n_timeslots: int = 100_000
    seed: int = 0
    strategies: tuple[Strategy, ...] = ALL_STRATEGIES

    def __post_init__(self) -> None:
        strategies = tuple(Strategy(s) for s in self.strategies)
        if len(set(strategies)) != len(strategies):
            raise ValueError("duplicate strategies requested")
        if not strategies:
            raise ValueError("at least one strategy must be enabled")
        object.__setattr__(self, "strategies", strategies)
        for name in ("seed", "n_timeslots", "fixed_n"):
            if not (name == "fixed_n" and self.fixed_n is None):
                object.__setattr__(self, name, _as_int(name, getattr(self, name)))
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
        if self.n_timeslots > _MAX_USER_SAMPLES:  # reachable at lambda < 1
            raise ValueError(f"n_timeslots must be at most {_MAX_USER_SAMPLES:.0e}, "
                             f"got {self.n_timeslots}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class StrategyStats:
    """Pooled per-user rate and per-slot travel statistics of one strategy."""

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
    theta_edge_deg: float
    n_timeslots: int
    n_users_total: int
    per_strategy: dict[Strategy, StrategyStats]
    processes: int  # ran the chunks: 1 is the calling process alone, more a pool of that size


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence: hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_sequence_key(entropy: list[np.ndarray]) -> np.ndarray:
    """generate_state(2, np.uint64) of SeedSequences whose assembled entropy
    words are the uint32 arrays in entropy (broadcast against each other),
    shape (2, L): the Philox key of each."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> 16

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ result >> 16

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * np.uint32(hash_const)
        state.append((word ^ word >> 16).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32])


def _slot_keys(seed: int, slots: np.ndarray, purpose: int) -> np.ndarray:
    """Philox keys of SeedSequence(seed, spawn_key=(t, purpose)) for every
    slot t in slots (as _as_ints returns them), shape (2, L) uint64."""
    seed = _as_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # the seed's little-endian 32-bit words ([0] for zero), padded with
    # zeros to the pool size, as a spawned SeedSequence assembles them
    run = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    run += [0] * (_POOL_SIZE - len(run))
    head = [np.array([w], np.uint32) for w in run]
    tail = [np.array([purpose], np.uint32)]
    t = slots.astype(np.uint64)
    lo, hi = (t & _MASK32).astype(np.uint32), (t >> 32).astype(np.uint32)
    keys = np.empty((2, len(slots)), np.uint64)
    narrow = hi == 0  # a slot below 2^32 is one spawn-key word, a larger one two
    for rows, words in ((narrow, [lo]), (~narrow, [lo, hi])):
        if rows.any():
            keys[:, rows] = _seed_sequence_key(head + [w[rows] for w in words] + tail)
    return keys


def _streams(keys: np.ndarray):
    """One numpy generator, set in turn to the start of the Philox stream
    of each key keys[:, i] (uint64) and yielded once per key; the same
    object each time, so each draw must be taken before the next key."""
    gen = np.random.Generator(np.random.Philox())
    # counter 0 and an empty buffer: the state a seeded Philox starts in;
    # Python ints, which the setter reads faster than numpy scalars
    zeros = (0, 0, 0, 0)
    state = {"bit_generator": "Philox", "buffer": zeros,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys.T.tolist():
        state["state"] = {"counter": zeros, "key": key}
        gen.bit_generator.state = state
        yield gen


def sample_user_count(lam: float, seed: int, slots: np.ndarray) -> np.ndarray:
    """Poisson(lam) numbers of active users of the timeslots in slots:
    slot t's is numpy's
    Generator(Philox(SeedSequence(seed, spawn_key=(t, 0)))).poisson(lam)."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    keys = _slot_keys(seed, _as_ints("timeslots", slots), _DRAW_COUNT)
    return np.fromiter((gen.poisson(lam) for gen in _streams(keys)), np.int64, keys.shape[1])


def sample_users_uniform_disc(n: int, seed: int, slots: np.ndarray,
                              counts: np.ndarray) -> np.ndarray:
    """n user positions uniform over the unit disc about the origin, (n, 2),
    the transposed view of a (2, n) array: counts[i] of them, in slot order,
    for timeslot slots[i]. A slot with m > 0 users takes their radii from
    the first m uniforms of its stream
    Generator(Philox(SeedSequence(seed, spawn_key=(t, 1)))) and their
    angles from the next m."""
    n, counts = _as_int("n", n), _as_ints("counts", counts)
    if n != counts.sum() or np.shape(slots) != counts.shape:
        raise ValueError(f"need one user count per slot, summing to n = {n}")
    occupied = counts > 0
    keys = _slot_keys(seed, _as_ints("timeslots", slots)[occupied], _DRAW_POSITION)
    u = np.empty((2, n))  # radius and angle uniforms, one column per user
    first = 0
    for gen, m in zip(_streams(keys), counts[occupied].tolist()):
        gen.random(out=u[0, first:first + m])
        gen.random(out=u[1, first:first + m])
        first += m
    # in place: r = sqrt(u0) and phi = 2 pi u1, then (r cos phi, r sin phi)
    np.sqrt(u[0], out=u[0])
    u[1] *= 2.0 * math.pi
    cos = np.cos(u[1])
    np.sin(u[1], out=u[1])
    u[1] *= u[0]
    u[0] *= cos
    u += 0.0  # -0.0 becomes 0.0
    return u.T


def _sample_slots(config: SimConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """User counts of timeslots [start, stop) and their users in slot
    order in the unit disc, (U, 2)."""
    slots = np.arange(start, stop)
    if config.fixed_n is None:
        counts = sample_user_count(config.lam, config.seed, slots)
    else:
        counts = np.full(len(slots), config.fixed_n, np.int64)
    return counts, sample_users_uniform_disc(int(counts.sum()), config.seed, slots, counts)


# ---------------------------------------------------------------------------
# Chunked engine
# ---------------------------------------------------------------------------

def _run_chunk(config: SimConfig, theta: float, start: int, stop: int) -> dict:
    """Simulate timeslots [start, stop) at edge angle theta: {strategy: (rates
    of the users in slot order, how many of them have kappa > 1, drone
    positions (L, 2) in the normalized frame)}."""
    counts, users = _sample_slots(config, start, stop)
    rate = rate_function(theta, config.scenario)
    pooled = {}
    for s, pos in _place_slots(users, counts, config.strategies, config.scenario, theta).items():
        pu = np.repeat(pos, counts, axis=0)
        kappas = np.hypot(users[:, 0] - pu[:, 0], users[:, 1] - pu[:, 1])
        pooled[s] = (rate(kappas), np.count_nonzero(kappas > 1.0), pos)
    return pooled


def _place_slots(users: np.ndarray, counts: np.ndarray, strategies: tuple[Strategy, ...],
                 scenario: ScenarioParams, theta: float) -> dict[Strategy, np.ndarray]:
    """Drone positions of every requested strategy, {strategy: (L, 2)}, for
    L slots whose users, counts[i] of them in slot i, lie in slot order in
    users (U, 2), in the normalized frame; theta is the scenario's edge
    angle.

    An empty slot keeps the drone at the cell center. The slots with one
    user count are gathered once into a (B, N, 2) block, which the SBC and
    the MAR solver each solve on their own. CMP takes the SBC or the MAR
    position, whichever is nearer the center; ties go to the SBC (fairness)
    position.
    """
    length = len(counts)
    need_sbc = Strategy.SBC in strategies or Strategy.CMP in strategies
    need_mar = Strategy.MAR in strategies or Strategy.CMP in strategies
    if need_mar:
        rate = rate_function(theta, scenario)
        rate_terms = rate_derivatives(theta, scenario)
    sbc, mar = np.zeros((length, 2)), np.zeros((length, 2))
    if need_sbc or need_mar:
        offsets = np.cumsum(counts) - counts
        # a set, not np.unique: its first call alone adds 1.5 MB of resident memory
        for n in sorted(set(counts.tolist()) - {0}):
            rows = np.flatnonzero(counts == n)
            block = users[offsets[rows, None] + np.arange(n)]
            if need_sbc:
                sbc[rows], _ = min_enclosing_circle(block)
            if need_mar:
                mar[rows], _ = solve_mar_batch(block, rate, rate_terms)
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


def _strategy_stats(rates: np.ndarray, beyond: int, travel: np.ndarray) -> StrategyStats:
    n = rates.size
    rates_sorted = np.sort(rates)
    travel_sorted = np.sort(travel)
    return StrategyStats(
        n_user_samples=int(n),
        mean_rate=float(np.mean(rates)) if n else math.nan,
        p5_rate=_nearest_rank(rates_sorted, 5.0),
        frac_rate_above_1=float(np.count_nonzero(rates > 1.0) / n) if n else math.nan,
        frac_kappa_above_1=float(beyond / n) if n else math.nan,
        mean_travel=float(np.mean(travel)),
        rate_samples=rates_sorted,
        travel_samples=travel_sorted,
    )


def run_simulation(config: SimConfig, workers: int = 1) -> SummaryStats:
    """Run the campaign and pool the statistics.

    The chunks run on min(workers, chunks) processes: this one alone when
    that is 1, else a process pool of that size that this call opens and
    closes. Identical config and seed give bit-identical results for any
    worker count.
    """
    _check_workers(workers)
    theta = solve_edge_angle(config.scenario)

    bounds = list(range(0, config.n_timeslots, _CHUNK_SLOTS)) + [config.n_timeslots]
    tasks = [(config, theta, bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    processes = min(workers, len(tasks))
    if processes == 1:
        chunks = [_run_chunk(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(_run_chunk, *zip(*tasks)))

    per_strategy: dict[Strategy, StrategyStats] = {}
    for s in config.strategies:
        # popped, so that each chunk's arrays are freed once concatenated
        rates, beyond, pos = zip(*(c.pop(s) for c in chunks))
        rates, pos = np.concatenate(rates), np.concatenate(pos)
        prev = np.vstack([np.zeros(2), pos[:-1]])
        travel = np.hypot(pos[:, 0] - prev[:, 0], pos[:, 1] - prev[:, 1])
        per_strategy[s] = _strategy_stats(rates, sum(beyond), travel)

    return SummaryStats(config=config, theta_edge_deg=theta,
                        n_timeslots=config.n_timeslots,
                        n_users_total=rates.size,
                        per_strategy=per_strategy,
                        processes=processes)
