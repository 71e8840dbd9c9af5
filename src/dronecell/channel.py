"""Air-to-ground channel model: LoS probability, path loss, per-user rate.

All public angle arguments are in degrees, distances in meters, losses in
dB. Rates are in bits/symbol and are normalized so that a user at the
cell edge receives exactly 1.0; absolute transmit power and noise levels
therefore never appear.
"""

from __future__ import annotations

import math

import numpy as np

from .params import SPEED_OF_LIGHT, ScenarioParams

# edge angles from this one (degrees) up are rejected: nearer 90, 1 - sin(theta)
# rounds to 0 and the directivity and the radius terms become infinite
_MAX_EDGE_DEG = 90.0 - 1e-6


def _scalar_like(out, ref):
    return float(out) if np.ndim(ref) == 0 else out


def p_los(theta_user_deg, params: ScenarioParams):
    """Line-of-sight probability at a user elevation angle (degrees).

    S-curve fit in the elevation angle; strictly increasing, in (0, 1).
    Accepts scalars or arrays.
    """
    th = np.asarray(theta_user_deg, dtype=float)
    if not np.all((th >= 0.0) & (th <= 90.0)):  # NaN fails too
        raise ValueError("elevation angle must lie in [0, 90] degrees")
    return _scalar_like(1.0 / (1.0 + params.a * np.exp(-params.b * (th - params.a))),
                        theta_user_deg)


def fspl_offset_db(params: ScenarioParams) -> float:
    """Frequency part of the free-space path loss: 20*log10(4*pi*f/c), dB."""
    return 20.0 * math.log10(params.freq_hz * 4.0 * math.pi / SPEED_OF_LIGHT)


def g_pos(kappa, theta_edge_deg: float, params: ScenarioParams):
    """Horizontal repositioning gain, dB: the kappa-dependent part of the
    expected path loss for a user at normalized horizontal distance kappa.

    The user elevation angle follows from the cell geometry,
    theta_user = arctan(tan(theta_edge)/kappa), which is 90 degrees for a
    user directly under the drone (kappa = 0). Strictly increasing in
    kappa.
    """
    k = np.asarray(kappa, dtype=float)
    if not np.all((k >= 0.0) & (k < math.inf)):  # NaN fails too
        raise ValueError("kappa must be finite and non-negative")
    _check_edge_angles(theta_edge_deg)
    t = math.tan(math.radians(theta_edge_deg))
    return _scalar_like(_g(k, t, params), kappa)


def _g(k, t: float, params: ScenarioParams):
    # g_pos at kappa k with t = tan(theta_edge); the LoS probability is
    # inlined as a quotient so the rate kernel stays bit-stable
    theta_user = np.degrees(np.arctan2(t, k))
    return (params.eta_los - params.eta_nlos) \
        / (1.0 + params.a * np.exp(-params.b * (theta_user - params.a))) \
        + 10.0 * np.log10(k * k + t * t)


def expected_path_loss_db(kappa, theta_edge_deg: float, d_max: float,
                          params: ScenarioParams):
    """Expected path loss (dB) of a user at normalized distance kappa in a
    cell of radius d_max, with the drone-side directivity set by the cell
    edge angle and the antenna efficiency exponent.

    Closed form; identical to mixing the LoS/NLoS losses at the slant
    distance d_max*sqrt(kappa^2 + tan(theta_edge)^2) with the LoS
    probability at the user's elevation angle.
    """
    if not 0.0 < d_max < math.inf:
        raise ValueError(f"cell radius must be positive and finite, got {d_max}")
    _check_edge_angles(theta_edge_deg)
    t = math.radians(theta_edge_deg)
    directivity_db = params.e_r * 10.0 * math.log10(2.0 / (1.0 - math.sin(t)))
    g = g_pos(kappa, theta_edge_deg, params)
    return g + 20.0 * math.log10(d_max) + fspl_offset_db(params) \
        + params.eta_nlos - directivity_db


def rate_function(theta_edge_deg: float, params: ScenarioParams):
    """Vectorized kappa -> expected rate callable, edge gain precomputed.

    The returned callable accepts any non-negative kappa array and does no
    range checking; it is the hot kernel shared by the placement
    optimizers and the simulator.
    """
    _check_edge_angles(theta_edge_deg)
    t = math.tan(math.radians(theta_edge_deg))
    g_edge = float(_g(np.float64(1.0), t, params))

    def rate(kappa):
        k = np.asarray(kappa, dtype=float)
        return np.log2(1.0 + 10.0 ** ((g_edge - _g(k, t, params)) * 0.1))

    return rate


def rate_derivatives(theta_edge_deg: float, params: ScenarioParams):
    """Vectorized kappa -> (r, r', r'') callable: rate_function's rate, bit
    for bit, and its first two derivatives in kappa, finite at kappa = 0.

    With q = 10^((g_edge - g)/10), sigma = q/(1+q) and c = ln(10)/10,
    r' = -(c/ln 2) sigma g' and r'' = -(c/ln 2)(sigma g'' - c sigma(1-sigma) g'^2),
    where g', g'' follow from dP/dtheta = b P(1-P) and
    dtheta/dkappa = -(180/pi) t/(kappa^2 + t^2).
    """
    _check_edge_angles(theta_edge_deg)
    t = math.tan(math.radians(theta_edge_deg))
    g_edge = float(_g(np.float64(1.0), t, params))
    c = math.log(10.0) / 10.0
    d_eta = params.eta_los - params.eta_nlos
    deg_t = math.degrees(t)

    def terms(kappa):
        # _g's operations in _g's order, with the s-curve evaluated once
        k = np.asarray(kappa, dtype=float)
        den = 1.0 + params.a * np.exp(-params.b * (np.degrees(np.arctan2(t, k)) - params.a))
        s = k * k + t * t
        q = 10.0 ** ((g_edge - (d_eta / den + 10.0 * np.log10(s))) * 0.1)
        p = 1.0 / den
        sigma = q / (1.0 + q)
        p1 = params.b * p * (1.0 - p)                 # dP/dtheta
        p2 = params.b * p1 * (1.0 - 2.0 * p)          # d2P/dtheta2
        th1 = -deg_t / s                              # dtheta/dkappa
        th2 = 2.0 * deg_t * k / (s * s)               # d2theta/dkappa2
        g1 = d_eta * p1 * th1 + 2.0 * k / (c * s)
        g2 = d_eta * (p2 * th1 * th1 + p1 * th2) + 2.0 * (t * t - k * k) / (c * s * s)
        return (np.log2(1.0 + q), -c / math.log(2.0) * sigma * g1,
                -c / math.log(2.0) * (sigma * g2 - c * sigma * (1.0 - sigma) * g1 * g1))

    return terms


def user_rate(kappa, theta_edge_deg: float, params: ScenarioParams):
    """Expected per-user rate, bits/symbol, for normalized distance kappa.

    Normalized so user_rate(1, ...) == 1 exactly; strictly decreasing in
    kappa; independent of the cell radius and the carrier frequency.
    """
    k = np.asarray(kappa, dtype=float)
    if not np.all((k >= 0.0) & (k <= 2.0)):  # NaN fails too
        raise ValueError("kappa must lie in [0, 2]: the drone never leaves the cell")
    return _scalar_like(rate_function(theta_edge_deg, params)(k), kappa)


def _check_edge_angles(theta_deg, zero_ok: bool = False) -> None:
    """Raise ValueError unless every angle of theta_deg (degrees, a float or
    an array) lies in (0, _MAX_EDGE_DEG), or in [0, _MAX_EDGE_DEG) with
    zero_ok. A float is compared without numpy: the scalar kernels check
    their one angle on every call."""
    if isinstance(theta_deg, (int, float)):
        above = 0.0 <= theta_deg if zero_ok else 0.0 < theta_deg
        bad = [] if above and theta_deg < _MAX_EDGE_DEG else [theta_deg]
    else:
        th = np.asarray(theta_deg, dtype=float)
        bad = th[~(((th >= 0.0) if zero_ok else (th > 0.0)) & (th < _MAX_EDGE_DEG))]
    if len(bad):
        raise ValueError(f"edge angle must lie in {'[' if zero_ok else '('}0, 90) degrees "
                         f"and away from 90, got {bad[0]}")
