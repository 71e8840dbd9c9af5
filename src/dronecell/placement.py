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

# multiplicative tolerance for point-in-circle tests; keeps the incremental
# construction stable without inflating the circle measurably
_IN_CIRCLE_EPS = 1.0 + 1e-12
_COLLINEAR_EPS = 1e-12

_MAX_ITER = 100        # MAR ascent iteration cap
_XTOL = 1e-10          # MAR step length below which an instance has converged
_CONE_EPS = 1e-12      # a user this close sits under the iterate, on its cone
_SNAP_RADIUS = 1e-3    # reach of the move onto a strictly better user
_ASCENT_BLOCK = 16384  # MAR starts x users per block; bounds the working set


class Strategy(str, Enum):
    STATIC = "static"
    SBC = "sbc"
    MAR = "mar"
    CMP = "cmp"


# ---------------------------------------------------------------------------
# Smallest enclosing circle (exact, move-to-front incremental)
# ---------------------------------------------------------------------------

def min_enclosing_circle(points) -> tuple[np.ndarray, float]:
    """Exact smallest circle containing all points: (center, radius).

    Incremental construction with move-to-front restarts; the circle is
    determined by at most three boundary points. Near-collinear triples
    whose circumcircle determinant vanishes fall back to diameter circles.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("need at least one point")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("coordinates must be finite")
    p_list = [(float(x), float(y)) for x, y in pts]
    cx, cy, r = _mec_incremental(p_list)
    return np.array([cx, cy]), r


def _in_circle(c, p) -> bool:
    return math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * _IN_CIRCLE_EPS


def _diameter_circle(p, q):
    cx = (p[0] + q[0]) / 2.0
    cy = (p[1] + q[1]) / 2.0
    r = max(math.hypot(cx - p[0], cy - p[1]), math.hypot(cx - q[0], cy - q[1]))
    return (cx, cy, r)


def _circumcircle(p, q, s):
    # centered for conditioning; None when the triple is (near-)collinear
    ox = (min(p[0], q[0], s[0]) + max(p[0], q[0], s[0])) / 2.0
    oy = (min(p[1], q[1], s[1]) + max(p[1], q[1], s[1])) / 2.0
    ax, ay = p[0] - ox, p[1] - oy
    bx, by = q[0] - ox, q[1] - oy
    sx, sy = s[0] - ox, s[1] - oy
    d = 2.0 * (ax * (by - sy) + bx * (sy - ay) + sx * (ay - by))
    scale = max(abs(ax), abs(ay), abs(bx), abs(by), abs(sx), abs(sy))
    if abs(d) <= _COLLINEAR_EPS * scale * scale:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - sy) + (bx * bx + by * by) * (sy - ay)
              + (sx * sx + sy * sy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (sx - bx) + (bx * bx + by * by) * (ax - sx)
              + (sx * sx + sy * sy) * (bx - ax)) / d
    r = max(math.hypot(x - p[0], y - p[1]),
            math.hypot(x - q[0], y - q[1]),
            math.hypot(x - s[0], y - s[1]))
    return (x, y, r)


def _cross(ox, oy, ax, ay, bx, by) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _mec_incremental(pts):
    c = None
    for i, p in enumerate(pts):
        if c is None or not _in_circle(c, p):
            c = _mec_with_one(pts[: i + 1], p)
    return c


def _mec_with_one(pts, p):
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if not _in_circle(c, q):
            c = _diameter_circle(p, q) if c[2] == 0.0 else _mec_with_two(pts[: i + 1], p, q)
    return c


def _mec_with_two(pts, p, q):
    circ = _diameter_circle(p, q)
    left = None
    right = None
    for s in pts:
        if _in_circle(circ, s):
            continue
        side = _cross(p[0], p[1], q[0], q[1], s[0], s[1])
        c = _circumcircle(p, q, s)
        if c is None:
            continue
        d = _cross(p[0], p[1], q[0], q[1], c[0], c[1])
        if side > 0.0 and (left is None
                           or d > _cross(p[0], p[1], q[0], q[1], left[0], left[1])):
            left = c
        elif side < 0.0 and (right is None
                             or d < _cross(p[0], p[1], q[0], q[1], right[0], right[1])):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


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
