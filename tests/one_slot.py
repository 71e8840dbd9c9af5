"""Place the drone in one timeslot through the engine's placement policy.

Everything is in the normalized frame: cell center at the origin, unit
cell radius, urban scenario at its coverage-optimal edge angle.
"""

from typing import NamedTuple

import numpy as np

from dronecell import URBAN, rate_function, solve_edge_angle
from dronecell.sim import _place_slots

THETA = solve_edge_angle(URBAN)
RATE = rate_function(THETA, URBAN)


class Placed(NamedTuple):
    position: np.ndarray  # (2,)
    kappas: np.ndarray    # distance of each user from the position
    aggregate_rate: float


def aggregate(users, position) -> float:
    """Summed rate of users (n, 2) with the drone at position."""
    users = np.asarray(users, dtype=float).reshape(-1, 2)
    return float(RATE(np.hypot(*(users - position).T)).sum())


def place(users, strategy) -> Placed:
    """Where strategy puts the drone for one slot of users (n, 2)."""
    users = np.asarray(users, dtype=float).reshape(-1, 2)
    position = _place_slots(users, np.array([len(users)]), (strategy,), URBAN,
                            THETA)[strategy][0]
    return Placed(position, np.hypot(*(users - position).T), aggregate(users, position))
