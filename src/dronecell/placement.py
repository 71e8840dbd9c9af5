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
_MEET_RADIUS = 1e-2    # a start this close to an earlier start of its instance retires
_ASCENT_BLOCK = 16384  # MAR starts or grid nodes x users, or SBC points, per (sub-)block;
                       # bounds the working set


class Strategy(str, Enum):
    STATIC = "static"
    SBC = "sbc"
    MAR = "mar"
    CMP = "cmp"


def _point_sets(name: str, points) -> np.ndarray:
    """points as a float (B, N, 2) array with B, N >= 1 and finite entries."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 2:
        raise ValueError(f"{name} must have shape (B, N, 2), got {pts.shape}")
    if pts.size == 0:
        raise ValueError("need at least one point")
    # min and max carry any NaN, without a temporary the size of the input
    if not np.isfinite([pts.min(), pts.max()]).all():
        raise ValueError("coordinates must be finite")
    return pts


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
    pts = _point_sets("points", points)
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

    The tolerance of that test can hide a point just outside a diameter
    circle, whose exact circle is then a circumcircle the diameter circle
    misses by up to the tolerance; _gate_diameters decides those supports
    exactly before an instance freezes.
    """
    b = pts.shape[0]
    support = np.zeros((b, 3), dtype=np.intp)
    centers, radii = pts[:, 0].copy(), np.zeros(b)
    active = np.arange(b)
    while active.size:
        dist = np.hypot(*np.moveaxis(pts[active] - centers[active, None], -1, 0))
        far = np.argmax(dist, axis=1)
        out = dist.max(axis=1) > radii[active] * _IN_CIRCLE_EPS
        moved = _gate_diameters(pts, active, dist, ~out, centers, radii, support)
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
        if moved.size:
            active = np.concatenate([active, moved])
    return centers, radii


def _gate_diameters(pts: np.ndarray, active: np.ndarray, dist: np.ndarray, inside: np.ndarray,
                    centers: np.ndarray, radii: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Of the active instances, those whose points all lie inside their
    circle up to the tolerance (inside): where the support is a diameter
    pair a, b and some point p lies strictly outside its circle,
    (a - p).(b - p) > 0, replace the circle with the smallest around a, b
    and the farthest such p, in place. dist holds the active instances'
    point distances to their centers. Returns the instances changed."""
    rows = np.flatnonzero(inside & (support[active, 1] == support[active, 2]))
    # only a point within two tolerances of the rim can lie outside, and a
    # and b are two such points
    rim = dist[rows] * (_IN_CIRCLE_EPS * _IN_CIRCLE_EPS) >= radii[active[rows], None]
    rows = rows[rim.sum(axis=1) > 2]
    idx, dist = active[rows], dist[rows]
    if not idx.size:
        return idx
    ia, ib = support[idx, 0], support[idx, 1]
    q = pts[idx]
    da, db = pts[idx, ia][:, None] - q, pts[idx, ib][:, None] - q
    outside = da[..., 0] * db[..., 0] + da[..., 1] * db[..., 1] > 0.0
    hit = outside.any(axis=1)
    idx, ia, ib = idx[hit], ia[hit], ib[hit]
    ip = np.argmax(np.where(outside[hit], dist[hit], -np.inf), axis=1)
    a, b, p = pts[idx, ia], pts[idx, ib], pts[idx, ip]
    # p sees ab under an acute angle; an obtuse angle at a or b makes the
    # circle on p and the other end the smallest, else it is the circumcircle
    at_a = np.sum((p - a) * (b - a), axis=1) < 0.0
    at_b = ~at_a & (np.sum((p - b) * (a - b), axis=1) < 0.0)
    circ = ~(at_a | at_b)
    center = np.where(at_a[:, None], (b + p) / 2.0, (a + p) / 2.0)
    center[circ] = p[circ] + _circumcenter_offsets(a[circ] - p[circ], b[circ] - p[circ])
    centers[idx] = center
    radii[idx] = np.hypot(*np.moveaxis(np.stack([a, b, p], axis=1) - center[:, None], -1, 0)
                          ).max(axis=1)
    support[idx] = np.stack([np.where(at_a, ib, ia), np.where(circ, ib, ip), ip], axis=1)
    return idx


def _circumcenter_offsets(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Circumcenters of the triangles (0, u, w), (K, 2) each, relative to
    the vertex at 0. Accurate when the angle there is far from 0 and 180
    degrees: u and w are exact-to-rounding differences, and their cross
    product does not cancel. Scaled by a power of two, like _circumcenters."""
    _, e = np.frexp(np.maximum(np.abs(u).max(axis=1), np.abs(w).max(axis=1)))
    u, w = np.ldexp(u, -e[:, None]), np.ldexp(w, -e[:, None])
    u2, w2 = np.sum(u * u, axis=1), np.sum(w * w, axis=1)
    d = 2.0 * (u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
    off = np.stack([w[:, 1] * u2 - u[:, 1] * w2, u[:, 0] * w2 - w[:, 0] * u2], axis=1) / d[:, None]
    return np.ldexp(off, e[:, None])


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
    users (B, N, 2) -> (B, P).

    Distances are sqrt(dx^2 + dy^2) here and throughout the MAR solver, at
    a third of np.hypot's cost: in the unit disc no square overflows, and a
    distance whose square underflows is on the cone (_CONE_EPS) either way.
    """
    dx = users[:, None, :, 0] - positions[:, :, None, 0]
    dy = users[:, None, :, 1] - positions[:, :, None, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return rate(np.sqrt(dx, out=dx)).sum(axis=-1)


def solve_mar_batch(users: np.ndarray, rate, rate_terms) -> tuple[np.ndarray, np.ndarray]:
    """Solve the MAR placement for a batch of same-size instances.

    users: (B, N, 2) in the normalized frame (cell center at the origin,
    unit radius), N >= 1; rate and rate_terms are rate_function's and
    rate_derivatives' callables for the same geometry. The ascent starts
    from the cell center, every user and the best node of a coarse polar
    grid. Returns (positions (B, 2), objectives (B,)), each instance's best
    refined point. Each instance is solved independently, so results do
    not depend on how instances are batched together.
    """
    users = _point_sets("users", users)
    b, n, _ = users.shape
    size = max(1, _ASCENT_BLOCK // (n * (n + 2)))  # instances of N + 2 starts
    positions, values = np.empty((b, 2)), np.empty(b)
    for i in range(0, b, size):
        positions[i:i + size], values[i:i + size] = _solve_block(
            users[i:i + size], rate, rate_terms)
    return positions, values


def _solve_block(users: np.ndarray, rate, rate_terms) -> tuple[np.ndarray, np.ndarray]:
    """solve_mar_batch on one block of instances, every start at once.

    The polar grid is scored in sub-blocks of at most _ASCENT_BLOCK rates.
    Each final's objective comes from the ascent; only the finals that the
    projection onto the disc moves are scored again.
    """
    b, n, _ = users.shape
    grid_best = np.empty((b, 2))
    size = max(1, _ASCENT_BLOCK // (len(_POLAR_GRID) * n))
    for i in range(0, b, size):
        part = users[i:i + size]
        grid_vals = _aggregate_rates(
            np.broadcast_to(_POLAR_GRID, (len(part),) + _POLAR_GRID.shape), part, rate)
        grid_best[i:i + size] = _POLAR_GRID[np.argmax(grid_vals, axis=1)]
    starts = np.concatenate([
        np.zeros((b, 1, 2)),
        users,
        grid_best[:, None, :],
    ], axis=1)  # (B, S, 2)
    s = starts.shape[1]
    start_users = np.repeat(users, s, axis=0)
    finals, values = _newton_ascent(starts.reshape(-1, 2), start_users, rate, rate_terms,
                                    starts=s)
    # project onto the closed cell disc (a projection never lowers the
    # objective: users live inside the disc)
    norm = np.sqrt(finals[:, 0] * finals[:, 0] + finals[:, 1] * finals[:, 1])
    out = np.flatnonzero(norm > 1.0)
    if out.size:
        finals[out] /= norm[out, None]
        values[out] = _aggregate_rates(finals[out, None], start_users[out], rate)[:, 0]
    # a final never scores below its start: the ascent only accepts strict
    # rises, and a start inside the disc is not moved by the projection
    pick = np.argmax(values.reshape(b, s), axis=1) + np.arange(b) * s
    return finals[pick], values[pick]


def _newton_ascent(x0: np.ndarray, users: np.ndarray, rate, rate_terms,
                   starts: int) -> tuple[np.ndarray, np.ndarray]:
    """Damped-Newton ascent of sum_i r(k_i), k_i = |x - u_i|, from starts
    x0 (M, 2) against users (M, N, 2), whose rows hold consecutive
    instances of `starts` starts each.

    The step is Newton's where the Hessian is negative definite, else the
    Weiszfeld step (the gradient over sum_i -r'(k_i)/k_i), halved until the
    objective rises strictly; an instance that cannot rise has converged.
    Users under x (the cone at k_i = 0) are left out of both sums; x stays
    when the rest pull less than their slope sum |r'(0)| (Vardi & Zhang's
    test), else steps off along that pull. An accepted point close to a
    strictly better user moves onto it, so a cone maximum is reached
    exactly. Converged instances freeze, so no instance depends on the
    others. A start that moves to within _MEET_RADIUS of an earlier start
    of its instance that has not retired retires where it is: it would
    climb the same hill, and the earlier start carries on.

    Returns the finals x (M, 2) and their objectives (M,): each is the
    objective of the start (the first iteration's sum), of the last
    accepted point, or of the user that point moved onto, with the bits of
    _aggregate_rates at x.
    """
    x = x0.copy()
    values = np.empty(x.shape[0])
    active = np.arange(x.shape[0])
    live = np.ones(x.shape[0], dtype=bool)  # not retired
    for it in range(_MAX_ITER):
        if active.size == 0:
            break
        xa, ua = x[active], users[active]
        dx = xa[:, None, 0] - ua[..., 0]  # (K, N)
        dy = xa[:, None, 1] - ua[..., 1]
        kap = np.sqrt(dx * dx + dy * dy)
        r, r1, r2 = rate_terms(kap)
        on = kap <= _CONE_EPS
        cone = -np.where(on, r1, 0.0).sum(axis=1)
        # with d_i = x - u_i, a_i = r'/k and c_i = (r'' - a_i)/k^2 (0 on the
        # cone): gradient sum_i a_i d_i, Hessian sum_i c_i d_i d_i^T + (sum_i a_i) I
        inv = 1.0 / np.where(on, np.inf, kap)
        a = r1 * inv
        c = (r2 - a) * inv * inv
        gx, gy = (a * dx).sum(axis=1), (a * dy).sum(axis=1)
        tang = a.sum(axis=1)
        cdx = c * dx
        hxx = (cdx * dx).sum(axis=1) + tang
        hxy = (cdx * dy).sum(axis=1)
        hyy = (c * dy * dy).sum(axis=1) + tang
        det = hxx * hyy - hxy * hxy
        newton = (cone == 0.0) & (hxx < 0.0) & (det > 0.0)
        det = np.where(newton, det, 1.0)
        weight = np.where(on.all(axis=1), 1.0, -tang)
        step = np.stack([np.where(newton, (hxy * gy - hyy * gx) / det, gx / weight),
                         np.where(newton, (hxy * gx - hxx * gy) / det, gy / weight)],
                        axis=1)
        length = np.sqrt(step[:, 0] * step[:, 0] + step[:, 1] * step[:, 1])

        f = r.sum(axis=1)
        if it == 0:
            values[:] = f
        moved = np.zeros(active.size, dtype=bool)
        todo = np.flatnonzero(gx * gx + gy * gy > cone * cone)
        t = 1.0
        while (todo := todo[t * length[todo] > _XTOL]).size:
            xt = xa[todo] + t * step[todo]
            ft = _aggregate_rates(xt[:, None, :], ua[todo], rate)[:, 0]
            ok = ft > f[todo]
            rows = active[todo[ok]]
            x[rows], values[rows] = _snap(xt[ok], ft[ok], ua[todo[ok]], rate)
            moved[todo[ok]] = True
            todo = todo[~ok]
            t *= 0.5
        active = _retire_met(x, active[moved], live, starts)
    return x, values


def _retire_met(x: np.ndarray, active: np.ndarray, live: np.ndarray, starts: int) -> np.ndarray:
    """The active starts (rows of x, `starts` per instance) that stay: those
    not within _MEET_RADIUS of a live earlier start of their instance. The
    others are marked not live."""
    rows = (active - active % starts)[:, None] + np.arange(starts)  # (K, S): the instance
    dx = x[rows, 0] - x[active, None, 0]
    dy = x[rows, 1] - x[active, None, 1]
    met = ((dx * dx + dy * dy <= _MEET_RADIUS * _MEET_RADIUS) & live[rows]
           & (rows < active[:, None])).any(axis=1)
    live[active[met]] = False
    return active[~met]


def _snap(x: np.ndarray, f: np.ndarray, users: np.ndarray, rate
          ) -> tuple[np.ndarray, np.ndarray]:
    """Move each point x[j] (objective f[j]) onto its nearest user when that
    user lies within _SNAP_RADIUS and scores strictly higher; returns the
    points and their objectives."""
    dx, dy = users[..., 0] - x[:, None, 0], users[..., 1] - x[:, None, 1]
    kap2 = dx * dx + dy * dy
    near = np.argmin(kap2, axis=1)
    close = np.flatnonzero(kap2[np.arange(x.shape[0]), near] <= _SNAP_RADIUS * _SNAP_RADIUS)
    if close.size:
        u = users[close, near[close]]
        fu = _aggregate_rates(u[:, None, :], users[close], rate)[:, 0]
        better = fu > f[close]
        x[close[better]], f[close[better]] = u[better], fu[better]
    return x, f
