import math
import tracemalloc

import numpy as np
import pytest

import dronecell.sim as sim
from dronecell import (URBAN, SimConfig, Strategy, rate_function, run_simulation,
                       sample_user_count, sample_users_uniform_disc,
                       solve_edge_angle)
from dronecell.sim import _nearest_rank, _place_slots

import oracles

THETA = solve_edge_angle(URBAN)


def chunk_slots(cfg):
    """Per-slot normalized users and the positions of every strategy, as
    one engine chunk over the whole run samples and places them."""
    counts, users = sim._sample_slots(cfg, 0, cfg.n_timeslots)
    positions = _place_slots(users, counts, cfg.strategies, URBAN, THETA)
    return np.split(users, np.cumsum(counts)[:-1]), positions


@pytest.fixture(scope="module")
def sim20k():
    cfg = SimConfig(scenario=URBAN, lam=5.0, n_timeslots=20_000, seed=3)
    return run_simulation(cfg)


@pytest.fixture
def inline_pool(monkeypatch):
    """The sizes of the process pools that sim opens, in order; a fake
    pool stands in for each and runs its chunks in this process."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
    return sizes


def draws_in_pieces(draw, n, piece=1 << 16):
    """draw(slots) over slots 0..n-1, a piece at a time, concatenated."""
    return np.concatenate([draw(np.arange(lo, min(lo + piece, n))) for lo in range(0, n, piece)])


class TestSampling:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam, fixed_n", [(0.05, None), (1.0, None), (5.0, None),
                                              (9.99, None), (10.0, None), (20.0, None),
                                              (1000.0, None), (5.0, 3)])
    @pytest.mark.parametrize("seed", [0, 2**32 + 1, 2**130])
    @pytest.mark.parametrize("start", [0, 4093, 2**31 - 60, 2**32 - 60])
    def test_matches_per_slot_numpy_streams(self, lam, fixed_n, seed, start):
        cfg = SimConfig(scenario=URBAN, lam=lam, fixed_n=fixed_n, n_timeslots=1, seed=seed)
        counts, users = sim._sample_slots(cfg, start, start + 120)
        ref = [oracles.slot_users(seed, t, lam, fixed_n) for t in range(start, start + 120)]
        assert counts.tolist() == [len(pts) for pts in ref]
        assert users.tobytes() == np.concatenate(ref).tobytes()

    def test_poisson_moments(self):
        draws = draws_in_pieces(lambda slots: sample_user_count(5.0, 0, slots), 1_000_000)
        assert draws.mean() == pytest.approx(5.0, abs=0.01)
        assert draws.var() == pytest.approx(5.0, abs=0.05)

    def test_poisson_empty_slot_mass(self):
        draws = draws_in_pieces(lambda slots: sample_user_count(1.0, 1, slots), 1_000_000)
        assert np.mean(draws == 0) == pytest.approx(math.exp(-1.0), abs=0.002)

    def test_poisson_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            sample_user_count(0.0, 0, np.arange(1))

    def test_uniform_disc_moments(self):
        per_slot = np.full(100, 1000)
        pts = draws_in_pieces(lambda slots: sample_users_uniform_disc(
            100_000, 2, slots, per_slot), 1000, piece=100)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert len(pts) == 1_000_000 and np.all(r <= 1.0)
        assert r.mean() == pytest.approx(2.0 / 3.0, rel=0.001)
        assert np.mean(r < 0.5) == pytest.approx(0.25, abs=0.005)

    def test_uniform_disc_empty(self):
        pts = sample_users_uniform_disc(0, 2, np.array([1]), np.array([0]))
        assert pts.shape == (0, 2)

    def test_zero_slots(self):
        assert sample_user_count(5.0, 0, np.arange(0)).shape == (0,)
        assert sample_users_uniform_disc(0, 0, np.arange(0), np.arange(0)).shape == (0, 2)

    @pytest.mark.parametrize("slots, counts", [([1, 2], [1, 1]), ([1, 2], [4, -1]), ([1], [1, 2]),
                                               ([1, 2], [1.5, 2.0]), ([1], [3.0]),
                                               ([1.9], [3])])
    def test_uniform_disc_rejects_counts_that_miss_n(self, slots, counts):
        with pytest.raises(ValueError):
            sample_users_uniform_disc(3, 2, np.array(slots), np.array(counts))

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "2"])
    def test_uniform_disc_rejects_a_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_users_uniform_disc(n, 2, np.array([1]), np.array([2]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed, slot", [(-1, 0), (1.5, 0), (True, 0), (0, -1),
                                            (0, 1.5), (0, math.nan), (0, True)])
    def test_streams_reject_a_bad_seed_or_slot(self, seed, slot):
        with pytest.raises(ValueError):
            sample_user_count(5.0, seed, np.array([slot]))
        with pytest.raises(ValueError):
            sample_users_uniform_disc(1, seed, np.array([slot]), np.array([1]))

    def test_streams_name_the_first_negative_slot(self):
        slots = np.array([4, -3, -1])
        with pytest.raises(ValueError, match="timeslots must be non-negative, got -3$"):
            sample_user_count(5.0, 0, slots)
        with pytest.raises(ValueError, match="timeslots must be non-negative, got -3$"):
            sample_users_uniform_disc(3, 0, slots, np.array([1, 1, 1]))

    @pytest.mark.parametrize("slot", [2**63, 2**64 - 1])
    def test_streams_reject_a_slot_beyond_int64(self, slot):
        slots = np.array([3, slot], np.uint64)
        with pytest.raises(ValueError, match=f"timeslots must be below 2[*][*]63, got {slot}$"):
            sample_user_count(5.0, 0, slots)
        with pytest.raises(ValueError, match=f"timeslots must be below 2[*][*]63, got {slot}$"):
            sample_users_uniform_disc(2, 0, slots, np.array([1, 1]))

    def test_slot_streams_are_reproducible(self):
        cfg = SimConfig(scenario=URBAN, lam=4.0, n_timeslots=10, seed=9)
        a = sim._sample_slots(cfg, 7, 8)[1]
        b = sim._sample_slots(cfg, 7, 8)[1]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sim._sample_slots(cfg, 8, 9)[1])

    def test_memory_is_bounded_by_the_users_drawn(self):
        cfg = SimConfig(scenario=URBAN, lam=200.0, n_timeslots=4096, seed=5)
        tracemalloc.start()
        _, users = sim._sample_slots(cfg, 0, 4096)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 2 * users.nbytes


class TestConfigValidation:
    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            SimConfig(scenario=URBAN, lam=0.0)

    def test_rejects_bad_fixed_n(self):
        with pytest.raises(ValueError):
            SimConfig(scenario=URBAN, fixed_n=0)

    def test_rejects_empty_strategies(self):
        with pytest.raises(ValueError):
            SimConfig(scenario=URBAN, strategies=())

    def test_accepts_strategy_names(self):
        cfg = SimConfig(scenario=URBAN, strategies=("static", "mar"))
        assert cfg.strategies == (Strategy.STATIC, Strategy.MAR)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None])
    def test_rejects_non_integer_seed(self, value):
        with pytest.raises(ValueError):
            SimConfig(scenario=URBAN, seed=value)

    @pytest.mark.parametrize("value", [100.5, 100.0, True, "100", None])
    def test_rejects_non_integer_n_timeslots(self, value):
        with pytest.raises(ValueError):
            SimConfig(scenario=URBAN, n_timeslots=value)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_fixed_n(self, value):
        with pytest.raises(ValueError):
            SimConfig(scenario=URBAN, fixed_n=value)

    def test_numpy_integers_become_ints(self):
        cfg = SimConfig(scenario=URBAN, fixed_n=np.int64(2), n_timeslots=np.int32(10),
                        seed=np.uint64(2**63))
        assert (cfg.fixed_n, cfg.n_timeslots, cfg.seed) == (2, 10, 2**63)
        assert {type(cfg.fixed_n), type(cfg.n_timeslots), type(cfg.seed)} == {int}

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SimConfig(scenario=URBAN, seed=-1)

    @pytest.mark.parametrize("lam", [1e-6, 1e-300])
    def test_bounds_the_timeslots_on_their_own(self, lam):
        # a tiny lambda keeps n_timeslots x lambda small; only constructed
        SimConfig(scenario=URBAN, lam=lam, n_timeslots=sim._MAX_USER_SAMPLES)
        with pytest.raises(ValueError, match="n_timeslots must be at most 5e[+]07"):
            SimConfig(scenario=URBAN, lam=lam, n_timeslots=10**13)


class TestEngine:
    def test_deterministic_across_workers(self):
        cfg = SimConfig(scenario=URBAN, lam=5.0, n_timeslots=9000, seed=11)
        one = run_simulation(cfg, workers=1)
        four = run_simulation(cfg, workers=4)
        for s in cfg.strategies:
            assert np.array_equal(one.per_strategy[s].rate_samples,
                                  four.per_strategy[s].rate_samples)
            assert np.array_equal(one.per_strategy[s].travel_samples,
                                  four.per_strategy[s].travel_samples)

    def test_matches_per_slot_evaluation(self):
        # each slot placed alone gives its chunk row, bit for bit
        cfg = SimConfig(scenario=URBAN, lam=3.0, n_timeslots=40, seed=13)
        users, positions = chunk_slots(cfg)
        stats = run_simulation(cfg)
        alone = [_place_slots(pts, np.array([len(pts)]), cfg.strategies, URBAN, THETA)
                 for pts in users]
        for s in cfg.strategies:
            ref = np.concatenate([a[s] for a in alone])
            assert np.array_equal(positions[s], ref)
            prev = np.vstack([np.zeros(2), ref[:-1]])
            assert np.array_equal(stats.per_strategy[s].travel_samples,
                                  np.sort(np.hypot(*(ref - prev).T)))

    def test_bit_identical_across_chunk_sizes(self, monkeypatch):
        cfg = SimConfig(scenario=URBAN, lam=3.0, n_timeslots=300, seed=4)
        runs = []
        for chunk in (7, 64, 4096):
            monkeypatch.setattr(sim, "_CHUNK_SLOTS", chunk)
            runs.append(run_simulation(cfg).per_strategy)
        for s in cfg.strategies:
            for other in runs[1:]:
                assert np.array_equal(other[s].rate_samples, runs[0][s].rate_samples)
                assert np.array_equal(other[s].travel_samples, runs[0][s].travel_samples)

    def test_one_edge_angle_solve_per_run(self, monkeypatch):
        calls = []

        def counting_solve(params):
            calls.append(params)
            return solve_edge_angle(params)

        monkeypatch.setattr(sim, "_CHUNK_SLOTS", 7)
        monkeypatch.setattr(sim, "solve_edge_angle", counting_solve)
        run_simulation(SimConfig(scenario=URBAN, lam=3.0, n_timeslots=21, seed=4), workers=1)
        assert calls == [URBAN]

    def test_mar_runs_without_the_sbc_solver(self, monkeypatch):
        cfg = SimConfig(scenario=URBAN, lam=5.0, n_timeslots=200, seed=5)
        counts, users = sim._sample_slots(cfg, 0, cfg.n_timeslots)
        every = _place_slots(users, counts, cfg.strategies, URBAN, THETA)

        def no_sbc(points):
            raise AssertionError("MAR alone must not solve the SBC")

        monkeypatch.setattr(sim, "min_enclosing_circle", no_sbc)
        alone = _place_slots(users, counts, (Strategy.MAR,), URBAN, THETA)
        assert alone[Strategy.MAR].tobytes() == every[Strategy.MAR].tobytes()

    @pytest.mark.parametrize("n_timeslots", [20_000, 80_000])
    def test_memory_per_user_sample_is_bounded(self, n_timeslots):
        # the chunks keep their users: the run holds rates, not user arrays
        cfg = SimConfig(scenario=URBAN, lam=5.0, n_timeslots=n_timeslots, seed=3,
                        strategies=(Strategy.STATIC, Strategy.SBC))
        tracemalloc.start()
        stats = run_simulation(cfg, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 80 * stats.n_users_total

    def test_pool_never_larger_than_the_chunk_count(self, inline_pool):
        cfg = SimConfig(scenario=URBAN, lam=1.0, n_timeslots=2 * sim._CHUNK_SLOTS,
                        seed=2, strategies=(Strategy.STATIC,))
        stats = run_simulation(cfg, workers=sim._MAX_WORKERS)
        assert inline_pool == [2]
        assert stats.n_timeslots == cfg.n_timeslots

    @pytest.mark.parametrize("workers, n_timeslots, processes", [
        (1, 30, 1), (2, 10, 1), (2, 30, 2), (8, 30, 3)])
    def test_reports_the_process_count(self, monkeypatch, inline_pool, workers, n_timeslots,
                                       processes):
        monkeypatch.setattr(sim, "_CHUNK_SLOTS", 10)
        cfg = SimConfig(scenario=URBAN, lam=1.0, n_timeslots=n_timeslots, seed=2,
                        strategies=(Strategy.STATIC,))
        stats = run_simulation(cfg, workers=workers)
        assert stats.processes == processes
        assert inline_pool == ([] if processes == 1 else [processes])

    @pytest.mark.parametrize("workers", [0, sim._MAX_WORKERS + 1, 10**9])
    def test_rejects_a_worker_count_out_of_bounds(self, monkeypatch, workers):
        def no_pool(max_workers):
            raise AssertionError("no process may start")

        monkeypatch.setattr(sim, "ProcessPoolExecutor", no_pool)
        cfg = SimConfig(scenario=URBAN, lam=1.0, n_timeslots=2 * sim._CHUNK_SLOTS, seed=2)
        with pytest.raises(ValueError, match=f"workers must be in \\[1, {sim._MAX_WORKERS}\\]"):
            run_simulation(cfg, workers=workers)

    def test_empty_slot_returns_to_center(self):
        cfg = SimConfig(scenario=URBAN, lam=1.0, n_timeslots=200, seed=5)
        users, positions = chunk_slots(cfg)
        stats = run_simulation(cfg)
        empty = np.array([pts.shape[0] == 0 for pts in users])
        assert empty.any() and not empty.all()
        for s in cfg.strategies:
            pos = positions[s]
            prev = np.vstack([np.zeros(2), pos[:-1]])
            assert np.all(pos[empty] == 0.0)
            if s is not Strategy.STATIC:
                assert np.any(prev[empty] != 0.0)  # some returns actually move
            # travel is the distance from the previous slot's position
            travel = np.hypot(*(pos - prev).T)
            assert np.array_equal(travel[empty], np.hypot(*prev[empty].T))
            assert np.array_equal(np.sort(travel), stats.per_strategy[s].travel_samples)

    def test_sample_bookkeeping(self, sim20k):
        for s, st in sim20k.per_strategy.items():
            assert st.n_user_samples == sim20k.n_users_total
            assert len(st.rate_samples) == sim20k.n_users_total
            assert len(st.travel_samples) == sim20k.n_timeslots

    def test_static_matches_quadrature(self, sim20k):
        expected = oracles.static_mean_rate(THETA, URBAN)
        st = sim20k.per_strategy[Strategy.STATIC]
        sigma = np.std(st.rate_samples) / math.sqrt(st.n_user_samples)
        assert abs(st.mean_rate - expected) < 3.0 * sigma

    def test_static_all_users_beat_edge_rate(self, sim20k):
        assert sim20k.per_strategy[Strategy.STATIC].frac_rate_above_1 == 1.0
        assert sim20k.per_strategy[Strategy.STATIC].mean_travel == 0.0

    def test_sbc_never_exceeds_radius(self, sim20k):
        assert sim20k.per_strategy[Strategy.SBC].frac_kappa_above_1 == 0.0

    def test_mean_rate_ordering(self, sim20k):
        means = {s: st.mean_rate for s, st in sim20k.per_strategy.items()}
        slack = 3.0 * 0.2 / math.sqrt(sim20k.n_users_total)
        assert means[Strategy.MAR] >= means[Strategy.CMP] - slack
        assert means[Strategy.CMP] >= means[Strategy.STATIC] - slack
        assert means[Strategy.MAR] >= means[Strategy.SBC] - slack

    def test_travel_bounded_and_ordered(self, sim20k):
        for st in sim20k.per_strategy.values():
            assert np.all(st.travel_samples <= 2.0)
        travels = {s: st.mean_travel for s, st in sim20k.per_strategy.items()}
        assert travels[Strategy.MAR] > travels[Strategy.SBC]
        assert travels[Strategy.MAR] > travels[Strategy.CMP]

    def test_mar_dominates_per_slot(self):
        # the aggregate at the MAR point is never below the other placements
        cfg = SimConfig(scenario=URBAN, lam=5.0, n_timeslots=300, seed=17)
        users, positions = chunk_slots(cfg)
        rate = rate_function(THETA, URBAN)
        for t, pts in enumerate(users):
            agg = {s: float(np.sum(rate(np.hypot(*(pts - positions[s][t]).T))))
                   for s in cfg.strategies}
            for s in (Strategy.STATIC, Strategy.SBC, Strategy.CMP):
                assert agg[Strategy.MAR] >= agg[s] - 1e-12

    def test_strategy_subset(self):
        cfg = SimConfig(scenario=URBAN, lam=2.0, n_timeslots=100, seed=1,
                        strategies=(Strategy.STATIC, Strategy.SBC))
        stats = run_simulation(cfg)
        assert set(stats.per_strategy) == {Strategy.STATIC, Strategy.SBC}

    def test_fixed_n_two_users(self):
        cfg = SimConfig(scenario=URBAN, fixed_n=2, n_timeslots=50, seed=19)
        stats = run_simulation(cfg)
        assert stats.n_users_total == 100


def test_dynamic_gain_shrinks_with_crowd():
    # more evenly spread users leave less room for repositioning gains
    means = {s: [] for s in (Strategy.SBC, Strategy.MAR, Strategy.CMP)}
    sigmas = []
    for n in (1, 2, 5, 10, 20):
        cfg = SimConfig(scenario=URBAN, fixed_n=n, n_timeslots=2000, seed=23)
        stats = run_simulation(cfg)
        for s in means:
            means[s].append(stats.per_strategy[s].mean_rate)
        st = stats.per_strategy[Strategy.MAR]
        sigmas.append(np.std(st.rate_samples) / math.sqrt(st.n_user_samples))
    static_mean = oracles.static_mean_rate(THETA, URBAN)
    for s, series in means.items():
        for i in range(len(series) - 1):
            slack = 3.0 * math.hypot(sigmas[i], sigmas[i + 1])
            assert series[i + 1] <= series[i] + slack, (s, series)
        assert series[-1] >= static_mean - 0.01


class TestNearestRank:
    def test_nearest_rank_percentile(self):
        vals = np.arange(1, 101, dtype=float)
        assert _nearest_rank(vals, 5.0) == 5.0
        assert _nearest_rank(vals, 100.0) == 100.0

    def test_single_sample(self):
        assert _nearest_rank(np.array([7.0]), 5.0) == 7.0
