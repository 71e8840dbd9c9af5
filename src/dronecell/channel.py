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
# degrees per radian: x * _RAD_TO_DEG is bit for bit np.degrees(x), and faster
_RAD_TO_DEG = 180.0 / math.pi


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
    return _scalar_like(_s_curve(th, params), theta_user_deg)


def _s_curve(theta_user_deg, params: ScenarioParams):
    return 1.0 / (1.0 + params.a * np.exp(-params.b * (theta_user_deg - params.a)))


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
    p, s, _ = _kernel(theta_edge_deg, params)(k)
    return _scalar_like((params.eta_los - params.eta_nlos) * p + 10.0 * np.log10(s), kappa)


def _kernel(theta_edge_deg: float, params: ScenarioParams):
    """Unchecked kappa -> (P, s, q), t = tan(theta_edge): P is the s-curve at arctan(t/kappa),
    s = kappa^2 + t^2, and q = (s_edge/s) exp((ln(10)/10)(eta_los - eta_nlos)(P_edge - P)) is
    10^((g_pos(1) - g_pos)/10); P_edge takes P's array path, so q(1) = 1 exactly."""
    _check_edge_angles(theta_edge_deg)
    t = math.tan(math.radians(theta_edge_deg))
    scale = math.log(10.0) / 10.0 * (params.eta_los - params.eta_nlos)

    def p_s(k):
        return _s_curve(np.arctan2(t, k) * _RAD_TO_DEG, params), k * k + t * t
    p_edge, s_edge = (float(v[0]) for v in p_s(np.ones(1)))

    def kernel(k):
        p, s = p_s(k)
        return p, s, np.exp(scale * (p_edge - p)) * (s_edge / s)
    return kernel


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
    g = g_pos(kappa, theta_edge_deg, params)  # checks kappa and the edge angle
    t = math.radians(theta_edge_deg)
    directivity_db = params.e_r * 10.0 * math.log10(2.0 / (1.0 - math.sin(t)))
    return g + 20.0 * math.log10(d_max) + fspl_offset_db(params) + params.eta_nlos - directivity_db


def rate_function(theta_edge_deg: float, params: ScenarioParams):
    """Vectorized kappa -> expected rate callable, log2(1 + q) on the kernel's q.

    The returned callable accepts any non-negative kappa array and does no
    range checking; it is the hot kernel shared by the placement
    optimizers and the simulator.
    """
    kernel = _kernel(theta_edge_deg, params)

    def rate(kappa):
        return np.log2(1.0 + kernel(np.asarray(kappa, dtype=float))[2])

    return rate


def rate_derivatives(theta_edge_deg: float, params: ScenarioParams):
    """Vectorized kappa -> (r, r', r'') callable: rate_function's rate, bit
    for bit, and its first two derivatives in kappa, finite at kappa = 0.

    With g = g_pos, sigma = q/(1+q) and c = ln(10)/10,
    r' = -(c/ln 2) sigma g' and r'' = -(c/ln 2)(sigma g'' - c sigma(1-sigma) g'^2),
    where g', g'' follow from dP/dtheta = b P(1-P) and
    dtheta/dkappa = -(180/pi) t/(kappa^2 + t^2).
    """
    kernel = _kernel(theta_edge_deg, params)
    t = math.tan(math.radians(theta_edge_deg))
    deg_t, c = math.degrees(t), math.log(10.0) / 10.0
    d_eta = params.eta_los - params.eta_nlos

    def terms(kappa):
        k = np.asarray(kappa, dtype=float)
        p, s, q = kernel(k)
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
