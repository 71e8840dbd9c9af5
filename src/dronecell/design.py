"""Directional-antenna model and the coverage-optimal cell edge angle.

The drone's conical beam is sized to cover the whole cell; the elevation
angle seen from the cell edge, theta_edge, fixes both the beam directivity
and the altitude-to-radius ratio. The solver picks the theta_edge that
maximizes the cell radius achievable at a fixed path-loss budget.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import _check_edge_angles, _scalar_like, p_los, user_rate
from .params import ScenarioParams

_LN10 = math.log(10.0)

_SCAN_LO_DEG = 0.5
_SCAN_HI_DEG = 89.5
_SCAN_STEP_DEG = 0.25
_BISECT_MAX_ITER = 200
# e_r rows per scan array: a (64, 357) block keeps the working set near 200 kB
_SCAN_BLOCK_ROWS = 64
# bound on the array-versus-scalar gap of the residual, per unit of the terms'
# magnitudes and of the cancellation in 1 - sin (the largest gap measured is
# 2.2e-16 of the magnitudes)
_SIGN_SLACK = 4e-15
NEAR_DEGENERATE_DEG = 85.0


class NoOptimumError(RuntimeError):
    """No coverage-maximizing edge angle exists in the search interval."""


class NearDegenerateWarning(UserWarning):
    """The optimal edge angle is pushed toward 90 degrees; the implied
    directivity and gains are physically implausible."""


def ideal_directivity(theta_edge_deg: float) -> float:
    """Directivity (linear ratio) of an ideal cone that exactly covers the
    cell whose edge elevation angle is theta_edge_deg.

    Equals 4*pi over the solid angle of the cone with half apex angle
    90 - theta_edge; a hemispheric beam (theta_edge = 0) gives 2.
    """
    _check_edge_angles(theta_edge_deg, zero_ok=True)
    return 2.0 / (1.0 - math.sin(math.radians(theta_edge_deg)))


def log_dmax_offset(theta_deg, params: ScenarioParams):
    """20*log10 of the achievable cell radius at a fixed edge path-loss
    budget, up to an additive constant independent of theta.

    Used to rank stationary points of the edge-angle objective.
    """
    th = np.asarray(theta_deg, dtype=float)
    _check_edge_angles(th)
    rad = np.radians(th)
    out = -(params.eta_los - params.eta_nlos) * p_los(th, params) \
        + 20.0 * np.log10(np.cos(rad)) \
        + params.e_r * 10.0 * np.log10(2.0 / (1.0 - np.sin(rad)))
    return _scalar_like(out, theta_deg)


def edge_angle_objective(theta_deg, params: ScenarioParams):
    """Stationarity residual of the cell radius with respect to the edge
    angle; a root marks a stationary point of the achievable radius.

    Equals the negative derivative of log_dmax_offset with respect to
    theta, so the radius is maximal where the residual crosses zero from
    below. Depends only on the terrain constants, the excess-loss gap and
    the antenna efficiency exponent, never on frequency or cell size.
    """
    th = np.asarray(theta_deg, dtype=float)
    _check_edge_angles(th)
    out = _residual(th, params, params.e_r)
    return _scalar_like(out, theta_deg)


def _residual_terms(th, params: ScenarioParams, e_r):
    # the residual's three terms, without the range check, for float64
    # arrays or np.float64 scalars; e_r broadcasts against th
    rad = np.radians(th)
    bump = params.a * np.exp(-params.b * (th - params.a))
    gap = params.eta_los - params.eta_nlos
    return (math.pi * np.tan(rad) / (9.0 * _LN10),
            params.b * gap * bump / (1.0 + bump) ** 2,
            e_r * math.pi * np.cos(rad) / (18.0 * _LN10 * (1.0 - np.sin(rad))))


def _residual(th, params: ScenarioParams, e_r):
    t1, t2, t3 = _residual_terms(th, params, e_r)
    return t1 + t2 - t3


def _sign_exact_residual(th: np.ndarray, params: ScenarioParams,
                         e_r: np.ndarray) -> tuple[np.ndarray, int]:
    """The residual at the points th (1-d, e_r per point), with the sign and
    zero-ness of the np.float64 scalar evaluation at every point; and the
    number of points evaluated again on that scalar path.

    numpy's array loops for tan, exp, sin and cos may differ from its scalar
    path in the last bit. Such a difference can flip the sign only where
    |f| lies within a few ulps of the terms' magnitudes, scaled by the
    cancellation in 1 - sin; those points are evaluated again as scalars.
    """
    terms = _residual_terms(th, params, e_r)
    f = terms[0] + terms[1] - terms[2]
    near = np.flatnonzero(np.abs(f) <= _gap_bound(th, terms))
    for i in near.tolist():
        f[i] = _residual(np.float64(th[i]), params, float(e_r[i]))
    return f, near.size


def _gap_bound(th, terms):
    # bound on |array - scalar| of the residual at th, given its three terms
    return _SIGN_SLACK * sum(np.abs(t) for t in terms) \
        * (1.0 + 1.0 / (1.0 - np.sin(np.radians(th))))


@dataclass(frozen=True)
class EdgeAngleSweep:
    """solve_edge_angles' result: per row the edge angle (NaN without an
    optimum) and its status, plus the work the lockstep bisection did."""

    theta: np.ndarray
    status: list[str]
    passes: int    # lockstep bisection passes
    rechecks: int  # midpoints evaluated again on the scalar path


def solve_edge_angles(params: ScenarioParams, e_rs) -> EdgeAngleSweep:
    """Edge elevation angle (degrees) maximizing the achievable cell radius,
    for params at every antenna efficiency exponent in e_rs.

    A coarse sign-change scan over (0.5, 89.5) degrees, a block of rows
    per array, brackets every stationary point; all brackets are then
    bisected in lockstep. Every sign decision equals the one of a scalar
    bisection, so each row's angle does not depend on the other rows. With
    several stationary points, the one with the largest implied radius
    wins. A row's status is "no_optimum" without any stationary point (the
    efficiency exponent too close to 1 removes the optimum),
    "near_degenerate" for solutions beyond 85 degrees, and "ok" otherwise.
    """
    e_r = np.asarray(e_rs, dtype=float)
    if e_r.ndim != 1 or not np.all((e_r >= 0.0) & (e_r < 1.0)):
        raise ValueError("antenna efficiency exponents must form a 1-d sequence in [0, 1)")
    if not e_r.size:
        return EdgeAngleSweep(theta=np.empty(0), status=[], passes=0, rechecks=0)
    grid = np.arange(_SCAN_LO_DEG, _SCAN_HI_DEG + 0.5 * _SCAN_STEP_DEG, _SCAN_STEP_DEG)
    scans = []
    for lo in range(0, e_r.size, _SCAN_BLOCK_ROWS):
        vals = _residual(grid, params, e_r[lo:lo + _SCAN_BLOCK_ROWS, None])  # (rows, grid)
        # grid points that are roots or open a sign change, row by row in grid
        # order; a bracket never opens at the grid end
        found = vals == 0.0
        found[:, :-1] |= vals[:, :-1] * vals[:, 1:] < 0.0
        r, c = np.nonzero(found)
        scans.append((lo + r, c, vals[r, c]))
    rows, cols, f_lo = (np.concatenate(x) for x in zip(*scans))
    roots = grid[cols]
    bisect = np.flatnonzero(f_lo != 0.0)
    roots[bisect], passes, rechecks = _bisect_lockstep(
        grid[cols[bisect]], grid[cols[bisect] + 1], f_lo[bisect] > 0.0, params, e_r[rows[bisect]])
    count = np.bincount(rows, minlength=e_r.size)
    theta = np.full(e_r.size, np.nan)
    single = count[rows] == 1
    theta[rows[single]] = roots[single]
    for row in np.flatnonzero(count > 1).tolist():
        row_params = params.with_efficiency(float(e_r[row]))
        theta[row] = max(roots[rows == row].tolist(),
                         key=lambda x: log_dmax_offset(x, row_params))
    status = ["no_optimum" if n == 0 else "near_degenerate" if t > NEAR_DEGENERATE_DEG else "ok"
              for n, t in zip(count.tolist(), theta.tolist())]
    return EdgeAngleSweep(theta=theta, status=status, passes=passes, rechecks=rechecks)


def _bisect_lockstep(lo: np.ndarray, hi: np.ndarray, lo_positive: np.ndarray,
                     params: ScenarioParams, e_r: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Bisect every bracket [lo, hi] at once, each as a scalar bisection
    would: a bracket ends at an exact zero, or once its midpoint reaches
    float resolution. Returns (roots, passes, scalar re-checks)."""
    roots = np.empty(lo.size)
    lo, hi = lo.copy(), hi.copy()
    open_ = np.arange(lo.size)
    passes = rechecks = 0
    while open_.size and passes < _BISECT_MAX_ITER:
        passes += 1
        mid = 0.5 * (lo[open_] + hi[open_])
        done = (mid == lo[open_]) | (mid == hi[open_])  # float resolution reached
        roots[open_[done]] = mid[done]
        open_, mid = open_[~done], mid[~done]
        f, n = _sign_exact_residual(mid, params, e_r[open_])
        rechecks += n
        zero = f == 0.0
        roots[open_[zero]] = mid[zero]
        open_, mid, f = open_[~zero], mid[~zero], f[~zero]
        up = (f > 0.0) == lo_positive[open_]
        lo[open_[up]] = mid[up]
        hi[open_[~up]] = mid[~up]
    roots[open_] = 0.5 * (lo[open_] + hi[open_])
    return roots, passes, rechecks


def solve_edge_angle(params: ScenarioParams) -> float:
    """Edge elevation angle (degrees) maximizing the achievable cell radius:
    solve_edge_angles for params' own efficiency exponent.

    Raises NoOptimumError when no stationary point exists, and warns with
    NearDegenerateWarning for solutions beyond 85 degrees.
    """
    sweep = solve_edge_angles(params, [params.e_r])
    theta, status = float(sweep.theta[0]), sweep.status[0]
    if status == "no_optimum":
        raise NoOptimumError(
            f"no stationary edge angle in ({_SCAN_LO_DEG}, {_SCAN_HI_DEG}) degrees "
            f"for e_r={params.e_r}")
    if status == "near_degenerate":
        warnings.warn(
            f"optimal edge angle {theta:.3f} deg exceeds {NEAR_DEGENERATE_DEG} deg; "
            "geometry is near-degenerate", NearDegenerateWarning, stacklevel=2)
    return theta


def max_gain(e_r: float, params: ScenarioParams) -> float:
    """Best-case per-user rate: drone directly above the user (kappa = 0),
    cell edge angle solved for the given antenna efficiency exponent.
    """
    p = params.with_efficiency(e_r)
    return user_rate(0.0, solve_edge_angle(p), p)
