"""Independent brute-force oracles used by the tests.

Everything here is written directly from the model definitions with slow,
obviously-correct methods (exhaustive determining sets, dense grids,
quadrature) and deliberately shares no code with the package internals.
"""

import math
from itertools import combinations

import numpy as np


def plos(theta_deg, a, b):
    return 1.0 / (1.0 + a * np.exp(-b * (np.asarray(theta_deg, float) - a)))


def mixed_path_loss_db(kappa, theta_edge_deg, d_max, p):
    """Expected path loss by direct LoS/NLoS mixing at the slant distance."""
    c = 299792458.0
    t = math.tan(math.radians(theta_edge_deg))
    d = d_max * math.sqrt(kappa * kappa + t * t)
    theta_user = math.degrees(math.atan2(t, kappa))
    directivity_db = p.e_r * 10.0 * math.log10(2.0 / (1.0 - math.sin(math.radians(theta_edge_deg))))
    fspl = 20.0 * math.log10(d) + 20.0 * math.log10(p.freq_hz * 4.0 * math.pi / c)
    l_los = -directivity_db + fspl + p.eta_los
    l_nlos = -directivity_db + fspl + p.eta_nlos
    prob = float(plos(theta_user, p.a, p.b))
    return prob * l_los + (1.0 - prob) * l_nlos


def rate_direct(kappa, theta_edge_deg, p):
    """Per-user rate from first principles (path-loss ratio against the edge)."""
    t = math.tan(math.radians(theta_edge_deg))
    k = np.asarray(kappa, float)
    theta_user = np.degrees(np.arctan2(t, k))
    g = (p.eta_los - p.eta_nlos) * plos(theta_user, p.a, p.b) \
        + 10.0 * np.log10(k * k + t * t)
    theta_e = np.degrees(np.arctan2(t, 1.0))
    g1 = (p.eta_los - p.eta_nlos) * plos(theta_e, p.a, p.b) \
        + 10.0 * np.log10(1.0 + t * t)
    return np.log2(1.0 + 10.0 ** ((g1 - g) / 10.0))


def log_dmax_curve(theta_deg, p):
    """20*log10 of the achievable cell radius at a fixed edge budget + const."""
    th = np.asarray(theta_deg, float)
    rad = np.radians(th)
    return (-(p.eta_los - p.eta_nlos) * plos(th, p.a, p.b)
            + 20.0 * np.log10(np.cos(rad))
            + p.e_r * 10.0 * np.log10(2.0 / (1.0 - np.sin(rad))))


def theta_star_grid(p, step=0.001):
    """Edge angle maximizing the achievable radius, dense-grid argmax."""
    th = np.arange(0.5, 89.5 + step / 2.0, step)
    return float(th[np.argmax(log_dmax_curve(th, p))])


def edge_residual(theta_deg, p):
    """Stationarity residual of the achievable radius in the edge angle:
    the negative theta-derivative of log_dmax_curve, in closed form, for a
    float64 array or an np.float64 scalar."""
    ln10 = math.log(10.0)
    rad = np.radians(theta_deg)
    bump = p.a * np.exp(-p.b * (theta_deg - p.a))
    gap = p.eta_los - p.eta_nlos
    return math.pi * np.tan(rad) / (9.0 * ln10) \
        + p.b * gap * bump / (1.0 + bump) ** 2 \
        - p.e_r * math.pi * np.cos(rad) / (18.0 * ln10 * (1.0 - np.sin(rad)))


def edge_roots(p):
    """Every stationary edge angle, one row at a time: a sign-change scan
    of the residual on the 0.25-degree grid over [0.5, 89.5], then a
    scalar bisection of each bracket on np.float64 midpoints, until a
    midpoint is an exact zero or reaches float resolution."""
    grid = np.arange(0.5, 89.5 + 0.125, 0.25)
    vals = edge_residual(grid, p)
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            lo, hi = float(grid[i]), float(grid[i + 1])
            root = None
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                f = float(edge_residual(np.float64(mid), p))
                if f == 0.0:
                    root = mid
                    break
                if (f > 0.0) == (vals[i] > 0.0):
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi) if root is None else root)
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def best_root(roots, p):
    """Of the stationary edge angles, the one with the largest radius; None
    without any."""
    if not roots:
        return None
    return max(roots, key=lambda r: float(log_dmax_curve(r, p)))


def static_mean_rate(theta_edge_deg, p, n_nodes=400):
    """E[rate] for a user uniform on the unit disc, Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    k = 0.5 * (x + 1.0)
    return float(np.sum(rate_direct(k, theta_edge_deg, p) * 2.0 * k * 0.5 * w))


def brute_force_mec(points):
    """Smallest enclosing circle by trying every 2- and 3-point determining set."""
    pts = [tuple(map(float, q)) for q in points]
    n = len(pts)
    if n == 1:
        return np.array(pts[0]), 0.0

    def contains(cx, cy, r):
        # relative slack: the same answer at any coordinate scale
        return all(math.hypot(q[0] - cx, q[1] - cy) <= r * (1.0 + 1e-12) for q in pts)

    def in_diameter_circle(a, b):
        # q lies in the circle on diameter ab exactly when (a - q).(b - q) <= 0;
        # no slack, so a point just outside brings in its 3-point circle instead
        return all((a[0] - q[0]) * (b[0] - q[0]) + (a[1] - q[1]) * (b[1] - q[1]) <= 0.0
                   for q in pts)

    best = None
    for i, j in combinations(range(n), 2):
        cx = (pts[i][0] + pts[j][0]) / 2.0
        cy = (pts[i][1] + pts[j][1]) / 2.0
        r = max(math.hypot(pts[i][0] - cx, pts[i][1] - cy),
                math.hypot(pts[j][0] - cx, pts[j][1] - cy))
        if in_diameter_circle(pts[i], pts[j]) and (best is None or r < best[2]):
            best = (cx, cy, r)
    for i, j, k in combinations(range(n), 3):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        # only an exactly collinear triple has no circle: a nearly collinear
        # one may be all that replaces a diameter circle the gate rejects,
        # and its huge circle otherwise loses on radius
        if d == 0.0:
            continue
        ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
        uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
        r = max(math.hypot(ax - ux, ay - uy), math.hypot(bx - ux, by - uy),
                math.hypot(cx - ux, cy - uy))
        if contains(ux, uy, r) and (best is None or r < best[2]):
            best = (ux, uy, r)
    return np.array([best[0], best[1]]), best[2]


def slot_users(seed, timeslot, lam, fixed_n=None):
    """One timeslot's users in the unit disc, (n, 2), drawn by numpy
    itself, one generator per stream: the count is Poisson(lam) (or fixed_n)
    from the stream with spawn key (timeslot, 0); the radii take the first n
    uniforms of the stream with spawn key (timeslot, 1), the angles the
    next n."""
    def stream(purpose):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(timeslot, purpose))
        return np.random.Generator(np.random.Philox(seq))

    n = fixed_n if fixed_n is not None else int(stream(0).poisson(lam))
    rng = stream(1)
    r = np.sqrt(rng.random(n))
    phi = 2.0 * math.pi * rng.random(n)
    return np.stack([0.0 + r * np.cos(phi), 0.0 + r * np.sin(phi)], axis=1)


def grid_search_aggregate(users_norm, theta_edge_deg, p, n_grid=2001):
    """Best aggregate rate over an n_grid x n_grid lattice on the unit disc."""
    ax = np.linspace(-1.0, 1.0, n_grid)
    best = -math.inf
    block = 64
    for i in range(0, n_grid, block):
        xs = ax[i:i + block]
        gx, gy = np.meshgrid(xs, ax, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 1.0]
        if not len(pts):
            continue
        d = np.hypot(users_norm[None, :, 0] - pts[:, None, 0],
                     users_norm[None, :, 1] - pts[:, None, 1])
        vals = rate_direct(d, theta_edge_deg, p).sum(axis=1)
        best = max(best, float(vals.max()))
    return best


def random_scenario(rng):
    """A random valid scenario parameter set (for property tests)."""
    from dronecell import ScenarioParams

    eta_los = float(rng.uniform(0.0, 3.0))
    return ScenarioParams(
        a=float(rng.uniform(4.0, 15.0)),
        b=float(rng.uniform(0.05, 0.6)),
        eta_los=eta_los,
        eta_nlos=eta_los + float(rng.uniform(1.0, 25.0)),
        freq_hz=float(rng.uniform(0.7e9, 6e9)),
        e_r=float(rng.uniform(0.0, 0.95)),
    )
