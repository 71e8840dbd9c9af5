"""The batched MAR solver against a frozen corpus and under properties.

tests/golden/mar_corpus.csv holds 292 fixed instances in the normalized
frame (N = 1..12: uniform draws, N = 1, all or some users coincident,
users on the rim, users at the center, tight clusters), the urban
scenario at its coverage-optimal edge angle. Its positions and
objectives were written, as repr floats, by the batched Nelder-Mead
solver of dronecell 0.1.0 (xatol = fatol = 1e-10), which started from the
cell center, every user, the SBC center and the best polar-grid node. The
columns are case, n, users (x y pairs, space separated), x, y, objective.
"""

import csv
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dronecell import URBAN, ScenarioParams, solve_edge_angle
from dronecell import placement
from dronecell.channel import rate_derivatives, rate_function
from dronecell.placement import (_MAX_ITER, _POLAR_GRID, _aggregate_rates, _newton_ascent,
                                 min_enclosing_circle, solve_mar_batch)

import mar_start_probe
import oracles

THETA = solve_edge_angle(URBAN)
RATE = rate_function(THETA, URBAN)
RATE_TERMS = rate_derivatives(THETA, URBAN)
CORPUS = pathlib.Path(__file__).parent / "golden" / "mar_corpus.csv"

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def solve(users):
    """solve_mar_batch on (B, N, 2) users in the urban scenario."""
    return solve_mar_batch(np.asarray(users, dtype=float), RATE, RATE_TERMS)


def objective(position, users):
    # the solver's distance form, sqrt(dx^2 + dy^2), so that its objectives compare exactly
    dx, dy = users[:, 0] - position[0], users[:, 1] - position[1]
    return float(RATE(np.sqrt(dx * dx + dy * dy)).sum())


def load_corpus():
    with CORPUS.open(newline="") as fh:
        for row in csv.DictReader(fh):
            users = np.array([float(v) for v in row["users"].split()]).reshape(-1, 2)
            assert users.shape[0] == int(row["n"])
            yield (users, np.array([float(row["x"]), float(row["y"])]),
                   float(row["objective"]))


def test_matches_frozen_nelder_mead_corpus():
    worst_gap = worst_dist = 0.0
    cases = list(load_corpus())
    assert len(cases) == 292
    for users, old_pos, old_obj in cases:
        pos, val = solve(users[None])
        worst_gap = max(worst_gap, old_obj - val[0])
        worst_dist = max(worst_dist, math.hypot(*(pos[0] - old_pos)))
    print(f"\ncorpus: objective at most {worst_gap:.2e} below Nelder-Mead, "
          f"positions within {worst_dist:.2e}")
    assert worst_gap <= 1e-12
    assert worst_dist <= 1e-7


def test_corpus_converges_before_the_iteration_cap():
    # the ascent evaluates rate_terms once per iteration; one corpus case is
    # one block, so the call count is the iteration count of its slowest start
    calls = []

    def counting_terms(kappa):
        calls[-1] += 1
        return RATE_TERMS(kappa)

    for users, _, _ in load_corpus():
        calls.append(0)
        solve_mar_batch(users[None], RATE, counting_terms)
    print(f"\ncorpus: at most {max(calls)} iterations (cap {_MAX_ITER})")
    assert max(calls) < _MAX_ITER


# instances where the ascent reaches the global maximum from one start
# class only (found in engine draws under oracles.random_scenario
# parameters with e_r = 0); without that class MAR scores lower by the
# relative amount noted
ONE_START_CLASS_WINS = {
    "center": (  # 3.3e-3 lower without it
        ScenarioParams(a=12.079319289676024, b=0.44112858289436235,
                       eta_los=1.2439675480670123, eta_nlos=24.61340002678809,
                       freq_hz=1309142956.3887975, e_r=0.0),
        [(-0.6598278572741323, -0.5681836595257359),
         (-0.05589369057923344, 0.9900686234281522)]),
    "users": (  # 0.17 lower without them
        ScenarioParams(a=6.967653851402574, b=0.07253543816490708,
                       eta_los=1.910885061964363, eta_nlos=3.307548314649061,
                       freq_hz=5010332267.761444, e_r=0.0),
        [(-0.24060747756733544, 0.6837074790266634),
         (-0.40187505902128334, -0.5874992800730626),
         (-0.23935926091199283, 0.4797323400137587),
         (-0.3800792234090557, -0.5575478801745714),
         (0.8494957841974742, -0.08918784696870653)]),
    "grid": (  # 2.4e-2 lower without it
        ScenarioParams(a=14.698916952052505, b=0.5394645556462863,
                       eta_los=0.44629203669749373, eta_nlos=21.183263897731184,
                       freq_hz=3243935996.1815104, e_r=0.0),
        [(0.22327467193467299, 0.9706550399017233),
         (-0.6208251233175404, -0.39959654487951174)]),
}


@pytest.mark.parametrize("start", sorted(ONE_START_CLASS_WINS))
def test_reaches_a_maximum_one_start_class_finds(start):
    params, points = ONE_START_CLASS_WINS[start]
    theta = solve_edge_angle(params)
    users = np.array(points)
    _, val = solve_mar_batch(users[None], rate_function(theta, params),
                             rate_derivatives(theta, params))
    best = oracles.grid_search_aggregate(users, theta, params, n_grid=401)
    assert val[0] >= best * (1.0 - 1e-12)


def test_keeps_up_with_the_ascent_from_the_sbc_center():
    # MAR no longer starts from the SBC center. Of the probe's 74 529
    # instances, all 1754 where the user and SBC starts alone fall short of
    # the four start classes have at most 3 users, and the one where the
    # SBC start beats every user start is under draw 16 at e_r 0
    count = 0
    for params in mar_start_probe.scenarios(draws=(0, 1, 2, 16), e_rs=(0.0,),
                                            urban_e_rs=(0.6, 0.0)):
        theta = solve_edge_angle(params)
        rate, rate_terms = rate_function(theta, params), rate_derivatives(theta, params)
        for users in mar_start_probe.blocks(params, max_n=3):
            _, val = solve_mar_batch(users, rate, rate_terms)
            centers, _ = min_enclosing_circle(users)
            _, ref = mar_start_probe.refined(centers[:, None], users, rate, rate_terms)
            assert np.all(val >= ref[:, 0] * (1.0 - 1e-12))
            count += len(val)
    assert count == 4350


def test_met_starts_retire_within_their_instance_only(monkeypatch):
    users = np.array([[[-0.6, 0.1], [0.2, 0.5], [0.4, -0.7]]] * 2)
    x0 = np.array([[0.9, 0.0], [0.9, 0.0]])
    apart, _ = _newton_ascent(x0, users, RATE, RATE_TERMS)  # two instances of 1 start
    one, _ = _newton_ascent(x0, users, RATE, RATE_TERMS, starts=2)
    assert np.array_equal(apart[0], apart[1]) and np.array_equal(one[0], apart[0])
    # the second start met the first after one step and stopped there
    monkeypatch.setattr(placement, "_MAX_ITER", 1)
    step, _ = _newton_ascent(x0[:1], users[:1], RATE, RATE_TERMS)
    assert np.array_equal(one[1], step[0]) and not np.array_equal(one[1], one[0])


def test_retiring_met_starts_loses_nothing_on_engine_draws():
    # the ascent from the same starts without retiring, on the probe's urban draws
    terms_elems = [0, 0]

    def counting(i):
        def terms(kappa):
            terms_elems[i] += kappa.size
            return RATE_TERMS(kappa)
        return terms

    for users in mar_start_probe.blocks(URBAN.with_efficiency(0.6)):
        _, val = solve_mar_batch(users, RATE, counting(0))
        b, n, _ = users.shape
        grid = _aggregate_rates(np.broadcast_to(_POLAR_GRID, (b, 64, 2)), users, RATE)
        starts = np.concatenate([np.zeros((b, 1, 2)), users,
                                 _POLAR_GRID[np.argmax(grid, axis=1)][:, None]], axis=1)
        _, ref = mar_start_probe.refined(starts, users, RATE, counting(1))
        assert np.all(val >= ref.max(axis=1) * (1.0 - 1e-12))
    assert terms_elems[0] < 0.6 * terms_elems[1]


def test_objectives_are_the_finals_scores():
    # the ascent hands back each final's objective; they must be the bits
    # that scoring the returned position gives
    for params in mar_start_probe.scenarios(draws=(16,), e_rs=(0.0,), urban_e_rs=(0.6,)):
        theta = solve_edge_angle(params)
        rate, rate_terms = rate_function(theta, params), rate_derivatives(theta, params)
        for users in mar_start_probe.blocks(params):
            pos, val = solve_mar_batch(users, rate, rate_terms)
            assert np.array_equal(val, _aggregate_rates(pos[:, None], users, rate)[:, 0])
            # every start's objective too, from starts beside each user: these often snap onto it
            rows = np.repeat(users, users.shape[1], axis=0)
            x, f = _newton_ascent((users + 5e-4).reshape(-1, 2), rows, rate, rate_terms)
            assert np.array_equal(f, _aggregate_rates(x[:, None], rows, rate)[:, 0])


def test_finals_the_projection_moves_are_scored_again(monkeypatch):
    ascent = placement._newton_ascent

    def outside(x0, users, rate, rate_terms, starts=1):
        # every other final pushed out of the disc, its objective left as it was
        x, f = ascent(x0, users, rate, rate_terms, starts)
        x[::2] = (0.0, 2.0)
        return x, f

    users = np.array([[[0.2, 0.9], [-0.9, 0.3], [0.1, 0.1]],
                      [[0.0, 0.95], [0.1, 0.9], [-0.1, 0.9]]])
    monkeypatch.setattr(placement, "_newton_ascent", outside)
    pos, val = solve(users)
    assert np.all(np.hypot(pos[:, 0], pos[:, 1]) <= 1.0 + 2.0 * np.finfo(float).eps)
    assert np.array_equal(val, _aggregate_rates(pos[:, None], users, RATE)[:, 0])


def test_grid_sub_blocks_are_batch_independent(monkeypatch):
    for users in mar_start_probe.blocks(URBAN.with_efficiency(0.6)):
        pos, val = solve(users)
        # one instance per grid sub-block, several per ascent block
        monkeypatch.setattr(placement, "_ASCENT_BLOCK", len(_POLAR_GRID) * users.shape[1])
        p1, v1 = solve(users)
        monkeypatch.undo()
        assert np.array_equal(p1, pos) and np.array_equal(v1, val)


def test_start_probe_runs(capsys):
    params = URBAN.with_efficiency(0.6)
    mar_start_probe.main([params], slots=16)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    total = next(row for row in rows if row[:1] == ["all"])
    assert int(total[1]) == sum(len(users) for users in mar_start_probe.blocks(params, slots=16))
    assert float(total[2]) <= mar_start_probe.TOL
    assert ["center", "+", "users", "+", "grid", "0"] in [row[:-1] for row in rows]


# users inside the closed unit disc, with the points where a start sits
# (center, rim, polar grid nodes) drawn often enough to land under a start
SPECIAL = st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.25, 0.0),
                           (0.5, 0.5), tuple(_POLAR_GRID[37])])
POLAR = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi)).map(
    lambda rp: (rp[0] * math.cos(rp[1]), rp[0] * math.sin(rp[1])))
USER = st.one_of(POLAR, SPECIAL)


def as_users(points):
    u = np.array(points, dtype=float).reshape(-1, 2)
    r = np.hypot(u[:, 0], u[:, 1])
    return u / np.maximum(r, 1.0)[:, None]


@PROPERTY
@given(st.lists(USER, min_size=1, max_size=8))
def test_never_below_a_start(points):
    users = as_users(points)
    pos, val = solve(users[None])
    grid = [objective(g, users) for g in _POLAR_GRID]
    starts = [np.zeros(2), min_enclosing_circle(users[None])[0][0],
              _POLAR_GRID[int(np.argmax(grid))], *users]
    for s in starts:
        assert val[0] >= objective(s, users)
    assert val[0] == objective(pos[0], users)


@PROPERTY
@given(st.lists(USER, min_size=1, max_size=8))
def test_inside_closed_disc(points):
    pos, _ = solve(as_users(points)[None])
    # a point projected onto the rim may round one ulp past it
    assert math.hypot(*pos[0]) <= 1.0 + 2.0 * np.finfo(float).eps


@PROPERTY
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(USER, min_size=n, max_size=n), min_size=2, max_size=6)))
def test_batch_equals_instances_alone(instances):
    users = np.stack([as_users(p) for p in instances])
    pos, val = solve(users)
    for i in range(users.shape[0]):
        p1, v1 = solve(users[i:i + 1])
        assert np.array_equal(p1[0], pos[i]) and v1[0] == val[i]


# every user coincident (N = 1 included), or a user under the center start;
# USER draws rim points and polar grid nodes too
DEGENERATE = st.one_of(
    st.tuples(USER, st.integers(1, 8)).map(lambda pc: [pc[0]] * pc[1]),
    st.lists(USER, min_size=0, max_size=6).map(lambda p: [(0.0, 0.0), *p]),
)


@PROPERTY
@given(DEGENERATE)
def test_degenerate_inputs_raise_no_warning(points):
    users = as_users(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos, val = solve(users[None])
    assert np.all(np.isfinite(pos)) and np.isfinite(val[0])
    assert val[0] >= objective(users[0], users)


def test_coincident_users_stay_put():
    users = np.array([[0.3, -0.4]] * 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos, val = solve(users[None])
    assert np.array_equal(pos[0], users[0])
    assert val[0] == objective(users[0], users)
