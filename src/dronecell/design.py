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

from .channel import p_los
from .params import ScenarioParams

_LN10 = math.log(10.0)

_SCAN_LO_DEG = 0.5
_SCAN_HI_DEG = 89.5
_SCAN_STEP_DEG = 0.25
_BISECT_MAX_ITER = 200
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
    if not 0.0 <= theta_edge_deg < 90.0 - 1e-6:
        raise ValueError(
            f"edge angle must lie in [0, 90) degrees and away from 90, got {theta_edge_deg}")
    return 2.0 / (1.0 - math.sin(math.radians(theta_edge_deg)))


def log_dmax_offset(theta_deg, params: ScenarioParams):
    """20*log10 of the achievable cell radius at a fixed edge path-loss
    budget, up to an additive constant independent of theta.

    Used to rank stationary points of the edge-angle objective.
    """
    th = np.asarray(theta_deg, dtype=float)
    if np.any(th <= 0.0) or np.any(th >= 90.0):
        raise ValueError("edge angle must lie in (0, 90) degrees")
    rad = np.radians(th)
    out = -(params.eta_los - params.eta_nlos) * p_los(th, params) \
        + 20.0 * np.log10(np.cos(rad)) \
        + params.e_r * 10.0 * np.log10(2.0 / (1.0 - np.sin(rad)))
    return float(out) if np.ndim(theta_deg) == 0 else out


def edge_angle_objective(theta_deg, params: ScenarioParams):
    """Stationarity residual of the cell radius with respect to the edge
    angle; a root marks a stationary point of the achievable radius.

    Equals the negative derivative of log_dmax_offset with respect to
    theta, so the radius is maximal where the residual crosses zero from
    below. Depends only on the terrain constants, the excess-loss gap and
    the antenna efficiency exponent, never on frequency or cell size.
    """
    th = np.asarray(theta_deg, dtype=float)
    if np.any(th <= 0.0) or np.any(th >= 90.0):
        raise ValueError("edge angle must lie in (0, 90) degrees")
    out = _residual(th, params)
    return float(out) if np.ndim(theta_deg) == 0 else out


def _residual(th, params: ScenarioParams):
    # edge_angle_objective without the range check, for float64 arrays or
    # np.float64 scalars; the bisection calls it once per step
    rad = np.radians(th)
    bump = params.a * np.exp(-params.b * (th - params.a))
    gap = params.eta_los - params.eta_nlos
    return math.pi * np.tan(rad) / (9.0 * _LN10) \
        + params.b * gap * bump / (1.0 + bump) ** 2 \
        - params.e_r * math.pi * np.cos(rad) / (18.0 * _LN10 * (1.0 - np.sin(rad)))


def _bisect_root(lo: float, hi: float, f_lo: float, params: ScenarioParams) -> float:
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # float resolution reached
            break
        f_mid = float(_residual(np.float64(mid), params))
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_edge_angle(params: ScenarioParams) -> float:
    """Edge elevation angle (degrees) maximizing the achievable cell radius.

    Coarse sign-change scan over (0.5, 89.5) degrees followed by bisection;
    with several stationary points, the one with the largest implied radius
    wins. Raises NoOptimumError when no stationary point exists (the
    efficiency exponent too close to 1 removes the optimum), and warns with
    NearDegenerateWarning for solutions beyond 85 degrees.
    """
    grid = np.arange(_SCAN_LO_DEG, _SCAN_HI_DEG + 0.5 * _SCAN_STEP_DEG, _SCAN_STEP_DEG)
    vals = edge_angle_objective(grid, params)
    # grid points that are roots or open a sign change, in grid order
    hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    roots = [float(grid[i]) if vals[i] == 0.0 else
             _bisect_root(float(grid[i]), float(grid[i + 1]), float(vals[i]), params)
             for i in hits]
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        raise NoOptimumError(
            f"no stationary edge angle in ({_SCAN_LO_DEG}, {_SCAN_HI_DEG}) degrees "
            f"for e_r={params.e_r}")
    theta = roots[0] if len(roots) == 1 else max(
        roots, key=lambda r: log_dmax_offset(r, params))
    if theta > NEAR_DEGENERATE_DEG:
        warnings.warn(
            f"optimal edge angle {theta:.3f} deg exceeds {NEAR_DEGENERATE_DEG} deg; "
            "geometry is near-degenerate", NearDegenerateWarning, stacklevel=2)
    return theta


@dataclass(frozen=True)
class CellGeometry:
    """Cell proportions: edge elevation angle, radius and drone altitude."""

    theta_edge_deg: float
    d_max: float
    altitude: float

    def __post_init__(self) -> None:
        if not self.d_max > 0.0:
            raise ValueError(f"cell radius must be positive, got {self.d_max}")

    @classmethod
    def from_edge_angle(cls, theta_edge_deg: float, d_max: float) -> "CellGeometry":
        return cls(theta_edge_deg=float(theta_edge_deg), d_max=float(d_max),
                   altitude=float(d_max) * math.tan(math.radians(theta_edge_deg)))
