"""Drone placement strategies and the solvers behind them.

The four placements are the static cell center, the center of the
smallest bounding circle of the users (SBC, minimax fairness), the point
of maximum aggregate rate (MAR), and the center-most point of the two
(CMP). This module names them and holds the two solvers,
min_enclosing_circle and solve_mar_batch; the engine (sim) applies the
policy that combines them. The MAR solver works in a normalized frame
with the cell center at the origin and unit cell radius. Everything here
is deterministic: identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

# multiplicative tolerance for point-in-circle tests; keeps the active-set
# iteration from chasing rounding without inflating the circle measurably
_IN_CIRCLE_EPS = 1.0 + 1e-12
_COLLINEAR_EPS = 1e-12

_MAX_ITER = 100        # MAR ascent iteration cap
_XTOL = 1e-10          # MAR step length below which an instance has converged
_CONE_EPS = 1e-12      # a user this close sits under the iterate, on its cone
_SNAP_RADIUS = 1e-3    # reach of the move onto a strictly better user
_ASCENT_BLOCK = 16384  # MAR starts x users, or SBC points, per block; bounds the working set


class Strategy(str, Enum):
    STATIC = "static"
    SBC = "sbc"
    MAR = "mar"
    CMP = "cmp"


# ---------------------------------------------------------------------------
# Smallest enclosing circle (exact, batched active-set iteration)
# ---------------------------------------------------------------------------

# the circles of 4 points: 6 diameter circles, then 4 circumcircles, each
# with the 3 of the 4 points that determine it (a pair padded by a repeat)
_PAIRS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
_SUPPORTS = np.concatenate([_PAIRS[:, [0, 1, 1]], _TRIPLES])


def min_enclosing_circle(points) -> tuple[np.ndarray, np.ndarray]:
    """Exact smallest circles containing same-size point sets.

    points: (B, N, 2), N >= 1. Returns (centers (B, 2), radii (B,)). Each
    instance is solved independently, so results do not depend on how
    instances are batched together.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 2:
        raise ValueError(f"points must have shape (B, N, 2), got {pts.shape}")
    if pts.size == 0:
        raise ValueError("need at least one point")
    # min and max carry any NaN, without a temporary the size of the input
    if not np.isfinite([pts.min(), pts.max()]).all():
        raise ValueError("coordinates must be finite")
    b, n, _ = pts.shape
    size = max(1, _ASCENT_BLOCK // n)
    centers, radii = np.empty((b, 2)), np.empty(b)
    for i in range(0, b, size):
        centers[i:i + size], radii[i:i + size] = _sbc_block(pts[i:i + size])
    return centers, radii


def _sbc_block(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min_enclosing_circle on one block, every instance at once.

    Elzinga & Hearn's iteration: the circle is the smallest around a
    support of at most 3 points. While the farthest point lies outside, the
    circle becomes the smallest around the support plus that point, the
    best of the 10 circles of those 4 points, and its determining points
    become the support. The radius strictly grows, so the loop ends.
    Converged instances freeze, so no instance depends on the others.
    """
    b = pts.shape[0]
    support = np.zeros((b, 3), dtype=np.intp)
    centers, radii = pts[:, 0].copy(), np.zeros(b)
    active = np.arange(b)
    while active.size:
        dist = np.hypot(*np.moveaxis(pts[active] - centers[active, None], -1, 0))
        far = np.argmax(dist, axis=1)
        out = dist.max(axis=1) > radii[active] * _IN_CIRCLE_EPS
        active, far = active[out], far[out]
        quad = np.concatenate([support[active], far[:, None]], axis=1)
        q = pts[active[:, None], quad]  # (K, 4, 2)
        circum, collinear = _circumcenters(q[:, _TRIPLES])
        cand = np.concatenate([q[:, _PAIRS].sum(axis=2) / 2.0, circum], axis=1)  # (K, 10, 2)
        # each candidate's radius is its largest distance to the 4 points
        rad = np.hypot(*np.moveaxis(q[:, None] - cand[:, :, None], -1, 0)).max(axis=2)
        rad[:, len(_PAIRS):][collinear] = np.inf
        pick = np.argmin(rad, axis=1)
        rows = np.arange(active.size)
        centers[active], radii[active] = cand[rows, pick], rad[rows, pick]
        support[active] = quad[rows[:, None], _SUPPORTS[pick]]
    return centers, radii


def _circumcenters(tri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circumcenters of triangles (..., 3, 2), and whether each triple is
    (near-)collinear and so has none. Computed about the bounding-box
    center for conditioning, on the triangle scaled by a power of two to
    unit size: the scaling is exact, and no square over- or underflows."""
    o = (tri.min(axis=-2) + tri.max(axis=-2)) / 2.0
    v = tri - o[..., None, :]
    _, e = np.frexp(np.abs(v).max(axis=(-2, -1)))
    v = np.ldexp(v, -e[..., None, None])
    ax, bx, sx = np.moveaxis(v[..., 0], -1, 0)
    ay, by, sy = np.moveaxis(v[..., 1], -1, 0)
    d = 2.0 * (ax * (by - sy) + bx * (sy - ay) + sx * (ay - by))
    scale = np.abs(v).max(axis=(-2, -1))
    collinear = np.abs(d) <= _COLLINEAR_EPS * scale * scale
    d = np.where(collinear, 1.0, d)
    a2, b2, s2 = ax * ax + ay * ay, bx * bx + by * by, sx * sx + sy * sy
    x = (a2 * (by - sy) + b2 * (sy - ay) + s2 * (ay - by)) / d
    y = (a2 * (sx - bx) + b2 * (ax - sx) + s2 * (bx - ax)) / d
    return o + np.ldexp(np.stack([x, y], axis=-1), e[..., None]), collinear


# ---------------------------------------------------------------------------
# Batched MAR solver
# ---------------------------------------------------------------------------

def _coarse_polar_grid() -> np.ndarray:
    radii = np.array([0.25, 0.5, 0.75, 1.0])
    angles = np.arange(16) * (2.0 * math.pi / 16.0)
    r, a = np.meshgrid(radii, angles, indexing="ij")
    return np.stack([r * np.cos(a), r * np.sin(a)], axis=-1).reshape(-1, 2)


_POLAR_GRID = _coarse_polar_grid()


def _aggregate_rates(positions: np.ndarray, users: np.ndarray, rate) -> np.ndarray:
    """Objective at many candidate positions: positions (B, P, 2) against
    users (B, N, 2) -> (B, P)."""
    dx = users[:, None, :, 0] - positions[:, :, None, 0]
    dy = users[:, None, :, 1] - positions[:, :, None, 1]
    return rate(np.hypot(dx, dy)).sum(axis=-1)


def solve_mar_batch(users: np.ndarray, rate, rate_terms, sbc_centers: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the MAR placement for a batch of same-size instances.

    users: (B, N, 2) in the normalized frame (cell center at the origin,
    unit radius), N >= 1; rate and rate_terms are rate_function's and
    rate_derivatives' callables for the same geometry; sbc_centers: (B, 2).
    Returns (positions (B, 2), objectives (B,)). Each instance is solved
    independently, so results do not depend on how instances are batched
    together.
    """
    users = np.asarray(users, dtype=float)
    b, n, _ = users.shape
    size = max(1, _ASCENT_BLOCK // (n * (n + 3)))  # instances of N + 3 starts
    positions, values = np.empty((b, 2)), np.empty(b)
    for i in range(0, b, size):
        positions[i:i + size], values[i:i + size] = _solve_block(
            users[i:i + size], rate, rate_terms, sbc_centers[i:i + size])
    return positions, values


def _solve_block(users: np.ndarray, rate, rate_terms, sbc_centers: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """solve_mar_batch on one block of instances, every start at once."""
    b = users.shape[0]
    grid_vals = _aggregate_rates(np.broadcast_to(_POLAR_GRID, (b,) + _POLAR_GRID.shape),
                                 users, rate)
    grid_best = _POLAR_GRID[np.argmax(grid_vals, axis=1)]
    starts = np.concatenate([
        np.zeros((b, 1, 2)),
        users,
        sbc_centers[:, None, :],
        grid_best[:, None, :],
    ], axis=1)  # (B, S, 2)
    s = starts.shape[1]
    finals = _newton_ascent(starts.reshape(-1, 2), np.repeat(users, s, axis=0),
                            rate, rate_terms)
    # project onto the closed cell disc (a projection never lowers the
    # objective: users live inside the disc)
    finals /= np.maximum(np.hypot(finals[:, 0], finals[:, 1]), 1.0)[:, None]
    finals = finals.reshape(b, s, 2)
    # candidate set: refined finals first, then the raw starts, so that the
    # first-occurrence argmax prefers refined points on exact ties
    candidates = np.concatenate([finals, starts], axis=1)
    values = _aggregate_rates(candidates, users, rate)
    pick = np.argmax(values, axis=1)
    rows = np.arange(b)
    return candidates[rows, pick], values[rows, pick]


def _newton_ascent(x0: np.ndarray, users: np.ndarray, rate, rate_terms) -> np.ndarray:
    """Damped-Newton ascent of sum_i r(k_i), k_i = |x - u_i|, from starts
    x0 (M, 2) against users (M, N, 2).

    The step is Newton's where the Hessian is negative definite, else the
    Weiszfeld step (the gradient over sum_i -r'(k_i)/k_i), halved until the
    objective rises strictly; an instance that cannot rise has converged.
    Users under x (the cone at k_i = 0) are left out of both sums; x stays
    when the rest pull less than their slope sum |r'(0)| (Vardi & Zhang's
    test), else steps off along that pull. An accepted point close to a
    strictly better user moves onto it, so a cone maximum is reached
    exactly. Converged instances freeze, so no instance depends on the
    others.
    """
    x = x0.copy()
    active = np.arange(x.shape[0])
    for _ in range(_MAX_ITER):
        if active.size == 0:
            break
        xa, ua = x[active], users[active]
        dx = xa[:, None, :] - ua  # (K, N, 2)
        kap = np.hypot(dx[..., 0], dx[..., 1])
        r, r1, r2 = rate_terms(kap)
        on = kap <= _CONE_EPS
        cone = -np.where(on, r1, 0.0).sum(axis=1)
        k_safe = np.where(on, 1.0, kap)
        ex, ey = dx[..., 0] / k_safe, dx[..., 1] / k_safe
        r1 = np.where(on, 0.0, r1)
        tang = r1 / k_safe  # Hessian: sum_i (r'' - r'/k) e_i e_i^T + (r'/k) I
        rad = np.where(on, 0.0, r2) - tang
        gx, gy = (r1 * ex).sum(axis=1), (r1 * ey).sum(axis=1)
        hxx = (rad * ex * ex + tang).sum(axis=1)
        hxy = (rad * ex * ey).sum(axis=1)
        hyy = (rad * ey * ey + tang).sum(axis=1)
        det = hxx * hyy - hxy * hxy
        newton = (cone == 0.0) & (hxx < 0.0) & (det > 0.0)
        det = np.where(newton, det, 1.0)
        weight = np.where(on.all(axis=1), 1.0, -tang.sum(axis=1))
        step = np.stack([np.where(newton, (hxy * gy - hyy * gx) / det, gx / weight),
                         np.where(newton, (hxy * gx - hxx * gy) / det, gy / weight)],
                        axis=1)
        length = np.hypot(step[:, 0], step[:, 1])

        f = r.sum(axis=1)
        moved = np.zeros(active.size, dtype=bool)
        todo = np.flatnonzero(np.hypot(gx, gy) > cone)
        t = 1.0
        while (todo := todo[t * length[todo] > _XTOL]).size:
            xt = xa[todo] + t * step[todo]
            ft = _aggregate_rates(xt[:, None, :], ua[todo], rate)[:, 0]
            ok = ft > f[todo]
            x[active[todo[ok]]] = _snap(xt[ok], ft[ok], ua[todo[ok]], rate)
            moved[todo[ok]] = True
            todo = todo[~ok]
            t *= 0.5
        active = active[moved]
    return x


def _snap(x: np.ndarray, f: np.ndarray, users: np.ndarray, rate) -> np.ndarray:
    """Move each point x[j] (objective f[j]) onto its nearest user when that
    user lies within _SNAP_RADIUS and scores strictly higher."""
    kap = np.hypot(users[..., 0] - x[:, None, 0], users[..., 1] - x[:, None, 1])
    near = np.argmin(kap, axis=1)
    close = np.flatnonzero(kap[np.arange(x.shape[0]), near] <= _SNAP_RADIUS)
    if close.size:
        u = users[close, near[close]]
        better = _aggregate_rates(u[:, None, :], users[close], rate)[:, 0] > f[close]
        x[close[better]] = u[better]
    return x
