import math

import numpy as np
import pytest

from dronecell import (URBAN, Strategy, UserSet, cmp_position,
                       mar_objective, mar_position, min_enclosing_circle,
                       sbc_position, solve_edge_angle, static_position, user_rate)

import oracles

THETA = solve_edge_angle(URBAN)
D_MAX = 500.0


def make_users(coords_norm):
    pts = np.asarray(coords_norm, dtype=float).reshape(-1, 2) * D_MAX
    return UserSet(users=pts, cell_center=np.zeros(2), d_max=D_MAX)


def random_users(rng, n):
    r = np.sqrt(rng.random(n))
    phi = 2.0 * math.pi * rng.random(n)
    return make_users(np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1))


class TestMinEnclosingCircle:
    def test_single_point(self):
        c, r = min_enclosing_circle([(3.0, -2.0)])
        assert np.array_equal(c, [3.0, -2.0]) and r == 0.0

    def test_two_points(self):
        c, r = min_enclosing_circle([(0.0, 0.0), (2.0, 0.0)])
        assert np.allclose(c, [1.0, 0.0]) and r == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            pts = rng.normal(scale=3.0, size=(n, 2))
            c, r = min_enclosing_circle(pts)
            bc, br = oracles.brute_force_mec(pts)
            assert r == pytest.approx(br, abs=1e-9)
            assert np.hypot(*(c - bc)) < 1e-9

    def test_collinear_points(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            xs = rng.normal(size=int(rng.integers(2, 9)))
            pts = np.stack([xs, 2.0 * xs - 1.0], axis=1)
            c, r = min_enclosing_circle(pts)
            bc, br = oracles.brute_force_mec(pts)
            assert r == pytest.approx(br, abs=1e-9)
            assert np.hypot(*(c - bc)) < 1e-9

    def test_duplicates(self):
        c, r = min_enclosing_circle([(1.0, 1.0)] * 5)
        assert np.array_equal(c, [1.0, 1.0]) and r == 0.0

    def test_all_points_covered(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            pts = rng.uniform(-10, 10, size=(int(rng.integers(1, 40)), 2))
            c, r = min_enclosing_circle(pts)
            d = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
            assert np.all(d <= r + 1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            min_enclosing_circle(np.empty((0, 2)))


class TestUserSet:
    def test_rejects_user_outside_cell(self):
        with pytest.raises(ValueError):
            UserSet(users=[[600.0, 0.0]], cell_center=[0.0, 0.0], d_max=500.0)

    def test_empty_is_allowed(self):
        u = UserSet(users=np.empty((0, 2)), cell_center=[0.0, 0.0], d_max=500.0)
        assert u.n_users == 0

    def test_normalization(self):
        u = UserSet(users=[[250.0, 0.0]], cell_center=[0.0, 0.0], d_max=500.0)
        assert np.allclose(u.normalized(), [[0.5, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            UserSet(users=[[math.nan, 0.0]], cell_center=[0.0, 0.0], d_max=500.0)


class TestStatic:
    def test_edge_user(self):
        res = static_position(make_users([[1.0, 0.0]]), THETA, URBAN)
        assert np.array_equal(res.position, [0.0, 0.0])
        assert res.kappas[0] == pytest.approx(1.0, abs=1e-12)
        assert res.aggregate_rate == pytest.approx(1.0, abs=1e-9)

    def test_empty_slot(self):
        res = static_position(make_users(np.empty((0, 2))), THETA, URBAN)
        assert res.kappas.size == 0 and res.aggregate_rate == 0.0

    def test_without_channel_context(self):
        res = static_position(make_users([[0.5, 0.5]]))
        assert res.aggregate_rate is None


class TestSbc:
    def test_single_user_hover(self):
        res = sbc_position(make_users([[0.8, -0.6 * 0.5]]), THETA, URBAN)
        assert np.allclose(res.position, [0.8 * D_MAX, -0.3 * D_MAX], atol=1e-9)
        assert res.kappas[0] == pytest.approx(0.0, abs=1e-12)
        assert res.aggregate_rate == pytest.approx(user_rate(0.0, THETA, URBAN), abs=1e-9)

    def test_antipodal_edge_users(self):
        res = sbc_position(make_users([[1.0, 0.0], [-1.0, 0.0]]), THETA, URBAN)
        assert np.allclose(res.position, [0.0, 0.0], atol=1e-9)
        assert np.allclose(res.kappas, [1.0, 1.0], atol=1e-12)

    def test_never_exceeds_cell_radius(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            users = random_users(rng, int(rng.integers(1, 15)))
            res = sbc_position(users)
            assert np.max(res.kappas) <= 1.0 + 1e-9

    def test_minimax_optimality_against_grid(self):
        # no point of a 201x201 lattice over the disc beats the SBC center
        ax = np.linspace(-1.0, 1.0, 201)
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        grid = grid[np.hypot(grid[:, 0], grid[:, 1]) <= 1.0]
        rng = np.random.default_rng(33)
        for _ in range(1000):
            users = random_users(rng, int(rng.integers(1, 10)))
            res = sbc_position(users)
            u = users.normalized()
            worst = np.hypot(u[None, :, 0] - grid[:, None, 0],
                             u[None, :, 1] - grid[:, None, 1]).max(axis=1)
            assert np.max(res.kappas) <= worst.min() + 1e-9

    def test_empty_slot_returns_center(self):
        res = sbc_position(make_users(np.empty((0, 2))), THETA, URBAN)
        assert np.array_equal(res.position, [0.0, 0.0])


class TestMarObjective:
    def test_empty_sum(self):
        assert mar_objective([0.0, 0.0], make_users(np.empty((0, 2))), THETA, URBAN) == 0.0

    def test_above_single_user(self):
        u = make_users([[0.3, 0.4]])
        val = mar_objective([0.3 * D_MAX, 0.4 * D_MAX], u, THETA, URBAN)
        assert val == pytest.approx(user_rate(0.0, THETA, URBAN), abs=1e-12)

    def test_edge_ring_at_center(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 7)[:-1]
        u = make_users(np.stack([np.cos(phi), np.sin(phi)], axis=1))
        assert mar_objective([0.0, 0.0], u, THETA, URBAN) == pytest.approx(6.0, abs=1e-12)

    def test_rejects_position_outside_disc(self):
        with pytest.raises(ValueError):
            mar_objective([1.01 * D_MAX, 0.0], make_users([[0.0, 0.0]]), THETA, URBAN)


class TestMarPosition:
    def test_single_user(self):
        u = make_users([[0.25, -0.55]])
        res = mar_position(u, THETA, URBAN)
        assert np.hypot(*(res.position - u.users[0])) < 1e-6 * D_MAX

    def test_coincident_users(self):
        u = make_users([[0.4, 0.1]] * 5)
        res = mar_position(u, THETA, URBAN)
        assert np.hypot(*(res.position - u.users[0])) < 1e-6 * D_MAX
        assert res.aggregate_rate == pytest.approx(5.0 * user_rate(0.0, THETA, URBAN),
                                                   abs=1e-6)

    def test_dominates_every_start_candidate(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            users = random_users(rng, int(rng.integers(1, 10)))
            res = mar_position(users, THETA, URBAN)
            candidates = [np.zeros(2), sbc_position(users).position]
            candidates += list(users.users)
            for c in candidates:
                assert res.aggregate_rate >= mar_objective(c, users, THETA, URBAN)

    def test_matches_fine_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            users = random_users(rng, int(rng.integers(2, 7)))
            res = mar_position(users, THETA, URBAN)
            best = oracles.grid_search_aggregate(users.normalized(), THETA, URBAN,
                                                 n_grid=801)
            assert res.aggregate_rate >= best - 1e-3

    def test_stays_inside_disc(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            users = random_users(rng, int(rng.integers(1, 12)))
            res = mar_position(users, THETA, URBAN)
            assert np.hypot(*res.position) <= D_MAX * (1.0 + 1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        users = random_users(rng, 6)
        a = mar_position(users, THETA, URBAN)
        b = mar_position(users, THETA, URBAN)
        assert np.array_equal(a.position, b.position)
        assert a.aggregate_rate == b.aggregate_rate

    def test_empty_slot_returns_center(self):
        res = mar_position(make_users(np.empty((0, 2))), THETA, URBAN)
        assert np.array_equal(res.position, [0.0, 0.0])


class TestCmp:
    def test_picks_the_centermost(self):
        rng = np.random.default_rng(26)
        for _ in range(60):
            users = random_users(rng, int(rng.integers(1, 10)))
            sbc = sbc_position(users, THETA, URBAN)
            mar = mar_position(users, THETA, URBAN)
            res = cmp_position(users, THETA, URBAN)
            d_sbc = np.hypot(*sbc.position)
            d_mar = np.hypot(*mar.position)
            assert np.hypot(*res.position) == pytest.approx(min(d_sbc, d_mar), abs=1e-12)
            chosen = sbc if d_sbc <= d_mar else mar
            assert np.array_equal(res.position, chosen.position)
            assert res.strategy is Strategy.CMP

    def test_tie_breaks_to_sbc(self):
        users = make_users([[0.4, 0.0]])
        sbc = sbc_position(users, THETA, URBAN)
        res = cmp_position(users, THETA, URBAN)
        # single user: the SBC sits exactly on the user; the refined MAR point
        # can only tie or lose, and ties go to the fairness placement
        if np.hypot(*sbc.position) <= np.hypot(*mar_position(users, THETA, URBAN).position):
            assert np.array_equal(res.position, sbc.position)

    def test_single_user_collapses(self):
        # one user: every dynamic placement hovers right above it
        users = make_users([[0.4, 0.2]])
        peak = user_rate(0.0, THETA, URBAN)
        for place in (sbc_position, mar_position, cmp_position):
            assert place(users, THETA, URBAN).aggregate_rate == pytest.approx(peak, abs=1e-9)
        assert static_position(users, THETA, URBAN).aggregate_rate < peak

    def test_empty_slot_returns_center(self):
        res = cmp_position(make_users(np.empty((0, 2))), THETA, URBAN)
        assert np.array_equal(res.position, [0.0, 0.0])


@pytest.mark.parametrize("place", [static_position, sbc_position, mar_position,
                                   cmp_position], ids=lambda f: f.__name__)
def test_rates_recompute_from_kappa(place):
    users = random_users(np.random.default_rng(8), 6)
    res = place(users, THETA, URBAN)
    recomputed = float(np.sum(user_rate(res.kappas, THETA, URBAN)))
    assert res.aggregate_rate == pytest.approx(recomputed, abs=1e-12)


class TestTranslationInvariance:
    # the cell center is an arbitrary map datum; placements must follow it
    def test_positions_translate_with_the_cell(self):
        rng = np.random.default_rng(31)
        shift = np.array([-1250.0, 480.0])
        for _ in range(10):
            n = int(rng.integers(1, 8))
            r = np.sqrt(rng.random(n))
            phi = 2.0 * math.pi * rng.random(n)
            pts = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1) * D_MAX
            at_origin = UserSet(users=pts, cell_center=np.zeros(2), d_max=D_MAX)
            shifted = UserSet(users=pts + shift, cell_center=shift, d_max=D_MAX)
            for solve in (static_position, sbc_position, mar_position, cmp_position):
                a = solve(at_origin, THETA, URBAN)
                b = solve(shifted, THETA, URBAN)
                assert np.allclose(b.position - shift, a.position, atol=1e-9)
                assert np.allclose(b.kappas, a.kappas, atol=1e-9)


def test_two_user_midpoint_coincidence_report():
    # Whether the best aggregate-rate point for two users sits at their
    # midpoint is an empirical question; measure it rather than assert it.
    rng = np.random.default_rng(27)
    hits = 0
    trials = 60
    max_dev = 0.0
    for _ in range(trials):
        users = random_users(rng, 2)
        res = mar_position(users, THETA, URBAN)
        midpoint = users.users.mean(axis=0)
        dev = float(np.hypot(*(res.position - midpoint)) / D_MAX)
        max_dev = max(max_dev, dev)
        hits += dev < 1e-3
    print(f"\nMAR at the 2-user midpoint in {hits}/{trials} instances; "
          f"largest deviation {max_dev:.3f} cell radii")
    assert 0 <= hits <= trials
