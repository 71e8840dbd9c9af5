"""How much each MAR start class is worth, on engine draws under random
scenario parameters.

    PYTHONPATH=src python tests/mar_start_probe.py

Run by hand; pytest does not collect it. The instance set is every
non-empty slot of the engine draws (seed 3, 256 slots, lambda 1, 5 and 20,
fixed_n 2 and 3) under 20 oracles.random_scenario draws (rng seed 0), each
at its own e_r, at e_r 0 and at e_r 0.95, plus the urban scenario at e_r
0.6, 0 and 0.95. Each instance is refined from every start class MAR ever
had: the cell center, every user, the SBC center and the best polar-grid
node. The probe prints, per user count N, how far solve_mar_batch ends
below the best of those finals, how often it ends above, and how many
positions equal the one the four-class solver picked; then, for each set
of start classes, how many instances its best final leaves more than
1e-12 (relative) below that best.
"""

from __future__ import annotations

import itertools

import numpy as np

from dronecell import URBAN, SimConfig, solve_edge_angle
from dronecell.channel import rate_derivatives, rate_function
from dronecell.placement import (_POLAR_GRID, _aggregate_rates, _newton_ascent,
                                 min_enclosing_circle, solve_mar_batch)
from dronecell.sim import _sample_slots

import oracles

SEED, SLOTS = 3, 256
DRAWS = ((1.0, None), (5.0, None), (20.0, None), (5.0, 2), (5.0, 3))  # (lam, fixed_n)
CLASSES = ("center", "users", "sbc", "grid")
TOL = 1e-12


def scenarios(draws=range(20), e_rs=(None, 0.0, 0.95), urban_e_rs=(0.6, 0.0, 0.95)):
    """The oracles.random_scenario draws of rng seed 0 numbered in draws,
    each at every e_r in e_rs (None: the draw's own), then the urban
    scenario at every e_r in urban_e_rs."""
    rng = np.random.default_rng(0)
    drawn = [oracles.random_scenario(rng) for _ in range(max(draws, default=-1) + 1)]
    return ([drawn[i] if e is None else drawn[i].with_efficiency(e) for i in draws for e in e_rs]
            + [URBAN.with_efficiency(e) for e in urban_e_rs])


def blocks(params, max_n: int | None = None, slots: int = SLOTS):
    """The engine draws of `slots` slots under params, as (B, N, 2) blocks
    of the slots with one user count N (at most max_n), as the engine
    gathers them."""
    for lam, fixed_n in DRAWS:
        cfg = SimConfig(scenario=params, lam=lam, fixed_n=fixed_n, n_timeslots=slots, seed=SEED)
        counts, users = _sample_slots(cfg, 0, slots)
        offsets = np.cumsum(counts) - counts
        for n in sorted(set(counts.tolist()) - {0}):
            if max_n is None or n <= max_n:
                rows = np.flatnonzero(counts == n)
                yield users[offsets[rows, None] + np.arange(n)]


def refined(starts: np.ndarray, users: np.ndarray, rate, rate_terms
            ) -> tuple[np.ndarray, np.ndarray]:
    """The ascent's finals from starts (B, S, 2) against users (B, N, 2),
    projected onto the cell disc, and their objectives (B, S)."""
    b, s, _ = starts.shape
    finals, _ = _newton_ascent(starts.reshape(-1, 2), np.repeat(users, s, axis=0), rate,
                               rate_terms, starts=1)
    finals /= np.maximum(np.hypot(finals[:, 0], finals[:, 1]), 1.0)[:, None]
    finals = finals.reshape(b, s, 2)
    return finals, _aggregate_rates(finals, users, rate)


def class_starts(users: np.ndarray, rate) -> tuple[np.ndarray, np.ndarray]:
    """Every start MAR ever had, (B, N + 3, 2): the center, the users, the
    SBC center and the best grid node; and each column's class index."""
    b, n, _ = users.shape
    grid = _aggregate_rates(np.broadcast_to(_POLAR_GRID, (b,) + _POLAR_GRID.shape), users, rate)
    starts = np.concatenate([np.zeros((b, 1, 2)), users, min_enclosing_circle(users)[0][:, None],
                             _POLAR_GRID[np.argmax(grid, axis=1)][:, None]], axis=1)
    return starts, np.array([0] + [1] * n + [2, 3])


def main(params_list=None, slots: int = SLOTS) -> None:
    """Print the probe's tables over the scenarios of params_list (default:
    scenarios()), each on engine draws of `slots` slots."""
    per_n: dict[int, list] = {}  # N -> [instances, worst loss, instances above, equal positions]
    subsets = [c for k in range(1, 5) for c in itertools.combinations(range(4), k)]
    lost = {c: [0, 0.0] for c in subsets}  # classes -> [instances below TOL, worst loss]
    for params in scenarios() if params_list is None else params_list:
        theta = solve_edge_angle(params)
        rate, rate_terms = rate_function(theta, params), rate_derivatives(theta, params)
        for users in blocks(params, slots=slots):
            starts, cls = class_starts(users, rate)
            finals, values = refined(starts, users, rate, rate_terms)
            pick = np.argmax(values, axis=1)
            best = values[np.arange(len(pick)), pick]
            pos, val = solve_mar_batch(users, rate, rate_terms)
            row = per_n.setdefault(users.shape[1], [0, 0.0, 0, 0])
            row[0] += len(best)
            row[1] = max(row[1], float(np.max((best - val) / best)))
            row[2] += int(np.count_nonzero(val > best))
            row[3] += int(np.all(pos == finals[np.arange(len(pick)), pick], axis=1).sum())
            for c in subsets:
                loss = (best - values[:, np.isin(cls, c)].max(axis=1)) / best
                lost[c][0] += int(np.count_nonzero(loss > TOL))
                lost[c][1] = max(lost[c][1], float(loss.max()))
    print("solve_mar_batch against the best final of all four start classes")
    print(f"{'N':>4} {'instances':>10} {'worst loss':>11} {'above':>6} {'same position':>14}")
    rows = sorted(per_n.items())
    rows.append(("all", [sum(r[0] for _, r in rows), max(r[1] for _, r in rows),
                         sum(r[2] for _, r in rows), sum(r[3] for _, r in rows)]))
    for n, (count, worst, above, same) in rows:
        print(f"{n:>4} {count:>10} {worst:>11.2e} {above:>6} {same:>14}")
    print(f"\nstart classes kept: instances more than {TOL:g} below, worst loss")
    for c in subsets:
        print(f"  {' + '.join(CLASSES[i] for i in c):<28} {lost[c][0]:>6} {lost[c][1]:>10.2e}")


if __name__ == "__main__":
    main()
