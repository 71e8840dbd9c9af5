"""Snapshot Monte-Carlo engine.

Each timeslot is independent: the number of active users is Poisson (or a
fixed count), users are placed uniformly over the cell disc, every enabled
strategy is evaluated on the same user set, and per-user rates plus
per-slot drone travel distances are pooled into empirical statistics.

Slot t draws its count and its positions from the numpy streams
Generator(Philox(SeedSequence(seed, spawn_key=(t, purpose)))). The engine
computes exactly what those streams return, for a whole chunk of slots at
once (SeedSequence's hash mix, Philox4x64-10 and numpy's Poisson
algorithms, vectorised over slots), without building a generator per slot.
A slot's users are thus a pure function of (seed, slot), so a run is
bit-reproducible for any worker count and any chunking of the timeslot
range.
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
_SAMPLE_BLOCK_USERS = 1 << 16  # users whose positions are drawn at once

ALL_STRATEGIES = (Strategy.STATIC, Strategy.SBC, Strategy.MAR, Strategy.CMP)


def _as_int(name: str, value) -> int:
    """value as a Python int; a bool or a non-integer is rejected."""
    # a bool is an int to Python, but never a count or a seed
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
#
# Slot t draws its user count from the numpy stream
# Generator(Philox(SeedSequence(seed, spawn_key=(t, 0)))) and its user
# positions from the one with spawn_key (t, 1). The functions below compute
# exactly what those streams return, for many slots at once:
# SeedSequence's hash mix gives each slot's Philox key, Philox4x64-10
# (Salmon et al. 2011) gives its raw words from counter blocks 1, 2, ...,
# and numpy's own Poisson algorithms give the counts.

_MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence: hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Philox4x64-10: round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# numpy's random_loggam: Stirling series coefficients and log(2 pi)
_LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
             -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
             6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
             -1.39243221690590e+00)
_LG2PI = 1.8378770664093453e+00


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
    slot t in slots (int64), shape (2, L) uint64."""
    seed = _as_int("seed", seed)
    if seed < 0 or np.any(slots < 0):
        raise ValueError(f"seed and timeslots must be non-negative, got seed {seed}")
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


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from 32-bit
    halves."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & _MASK32, x >> 32
    lo_lo, hi_lo = x_lo * m_lo, x_hi * m_lo
    cross = (lo_lo >> 32) + (hi_lo & _MASK32) + x_lo * m_hi
    return x_hi * m_hi + (hi_lo >> 32) + (cross >> 32), x * np.uint64(m)


def _philox_uniforms(keys: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that numpy draws from the four words of each
    Philox4x64-10 block: key keys[:, i] (uint64), counter (counter[i], 0, 0,
    0). Shape (L, 4)."""
    c0 = counter.astype(np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = keys
    for i in range(_PHILOX_ROUNDS):
        if i:
            k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    # numpy's next_double: the top 53 bits of a word over 2^53
    return (np.stack([c0, c1, c2, c3], axis=1) >> 11) * (1.0 / 9007199254740992.0)


def _loggam(x: float) -> float:
    """log Gamma(x) for x >= 1, numpy's random_loggam constant for constant."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for a in _LOGGAM_A[8::-1]:
        gl0 = gl0 * x2 + a
    gl = gl0 / x0 + 0.5 * _LG2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def _poisson_mult(lam: float, keys: np.ndarray) -> np.ndarray:
    """numpy's Poisson draw for lam < 10 on each key's stream: the number
    of uniforms whose running product stays above exp(-lam)."""
    enlam = math.exp(-lam)
    counts = np.empty(keys.shape[1], np.int64)
    rows, prod = np.arange(keys.shape[1]), np.ones(keys.shape[1])
    block = 0
    while rows.size:
        u = _philox_uniforms(keys[:, rows], np.full(rows.size, block + 1))
        u[:, 0] *= prod
        run = np.cumprod(u, axis=1)  # one product at a time, as numpy's loop
        stop = run <= enlam
        done = stop.any(axis=1)
        counts[rows[done]] = 4 * block + stop[done].argmax(axis=1)
        rows, prod = rows[~done], run[~done, -1]
        block += 1
    return counts


def _poisson_ptrs(lam: float, keys: np.ndarray) -> np.ndarray:
    """numpy's Poisson draw for lam >= 10 on each key's stream: Hormann's
    PTRS transformed rejection, two uniforms per attempt. Attempts that
    pass neither the fast acceptance nor the fast rejection test take the
    scalar log test."""
    slam, loglam = math.sqrt(lam), math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    counts = np.empty(keys.shape[1], np.int64)
    rows = np.arange(keys.shape[1])
    block = 0
    while rows.size:
        u = _philox_uniforms(keys[:, rows], np.full(rows.size, block + 1))
        uc, v = u[:, 0::2] - 0.5, u[:, 1::2]  # two attempts per block
        us = 0.5 - np.abs(uc)
        with np.errstate(divide="ignore"):  # us == 0 gives k = -inf: rejected
            k = np.floor((2 * a / us + b) * uc + lam + 0.43)
        accept = (us >= 0.07) & (v <= vr)
        slow = ~accept & (k >= 0) & ~((us < 0.013) & (v > us))
        for i, j in zip(*np.nonzero(slow)):
            vij, uij, kij = float(v[i, j]), float(us[i, j]), float(k[i, j])
            lhs = ((math.log(vij) if vij > 0.0 else -math.inf) + math.log(invalpha)
                   - math.log(a / (uij * uij) + b))
            accept[i, j] = lhs <= -lam + kij * loglam - _loggam(kij + 1.0)
        done = accept.any(axis=1)
        first = accept[done].argmax(axis=1)
        counts[rows[done]] = k[done][np.arange(first.size), first]
        rows = rows[~done]
        block += 1
    return counts


def sample_user_count(lam: float, seed: int, slots: np.ndarray) -> np.ndarray:
    """Poisson(lam) numbers of active users of the timeslots in slots:
    slot t's is numpy's
    Generator(Philox(SeedSequence(seed, spawn_key=(t, 0)))).poisson(lam)."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    keys = _slot_keys(seed, np.asarray(slots, np.int64), _DRAW_COUNT)
    return (_poisson_mult if lam < 10.0 else _poisson_ptrs)(lam, keys)


def sample_users_uniform_disc(n: int, d_max: float, seed: int, slots: np.ndarray,
                              counts: np.ndarray) -> np.ndarray:
    """n user positions uniform over the disc of radius d_max about the
    origin, shape (n, 2): counts[i] of them, in slot order, for timeslot
    slots[i]. A slot with m users takes their radii from the first m
    uniforms of its stream Generator(Philox(SeedSequence(seed,
    spawn_key=(t, 1)))) and their angles from the next m."""
    counts = np.asarray(counts, np.int64)
    if n != counts.sum() or np.any(counts < 0) or np.shape(slots) != counts.shape:
        raise ValueError(f"need one non-negative user count per slot, summing to n = {n}")
    keys = _slot_keys(seed, np.asarray(slots, np.int64), _DRAW_POSITION)
    n_blocks = (counts + 1) // 2  # two words per user, four per block
    first_block = np.cumsum(n_blocks) - n_blocks
    counter = np.arange(1, n_blocks.sum() + 1) - np.repeat(first_block, n_blocks)
    u = _philox_uniforms(keys[:, np.repeat(np.arange(len(counts)), n_blocks)], counter).ravel()
    # a slot's user j takes word j of the slot for its radius, word m + j for its angle
    r_word = np.arange(n) + np.repeat(4 * first_block - (np.cumsum(counts) - counts), counts)
    r = d_max * np.sqrt(u[r_word])
    phi = 2.0 * math.pi * u[r_word + np.repeat(counts, counts)]
    return np.stack([0.0 + r * np.cos(phi), 0.0 + r * np.sin(phi)], axis=1)


def _sample_slots(config: SimConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """User counts of timeslots [start, stop) and their users in slot
    order in the normalized frame, (U, 2). Positions are drawn for runs of
    whole slots of at most _SAMPLE_BLOCK_USERS users (or one slot), so
    the working set does not grow with lambda."""
    slots = np.arange(start, stop)
    if config.fixed_n is None:
        counts = sample_user_count(config.lam, config.seed, slots)
    else:
        counts = np.full(len(slots), config.fixed_n, np.int64)
    ends = np.cumsum(counts)
    users = np.empty((int(ends[-1]), 2))
    lo = 0
    while lo < len(slots):
        first = int(ends[lo] - counts[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, first + _SAMPLE_BLOCK_USERS, side="right")))
        last = int(ends[hi - 1])
        users[first:last] = sample_users_uniform_disc(
            last - first, config.d_max, config.seed, slots[lo:hi], counts[lo:hi]) / config.d_max
        lo = hi
    return counts, users


# ---------------------------------------------------------------------------
# Chunked engine
# ---------------------------------------------------------------------------

def _run_chunk(config: SimConfig, start: int, stop: int) -> dict:
    """Simulate timeslots [start, stop) and return normalized-frame arrays."""
    counts, users = _sample_slots(config, start, stop)
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
