"""Scenario parameter set for the air-to-ground propagation model, and the
bound on the worker processes of a run."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Largest constants at which no float64 (largest 1.8e308) overflows, for user
# elevations theta in [0, 90] degrees, kappa in [0, 2] and the edge angles
# the solver returns (0.5 to 89.5 degrees, so tan(theta_edge) >= 8.7e-3):
# - a, b <= 1e4 and a*b <= 300: the s-curve's bump a*exp(b*(a - theta))
#   peaks at theta = 0, at most 1e4*e^300 = 1.9e134, so the residual's
#   (1 + bump)^2 stays below 4e268 and b*gap*bump below 2e141;
# - gap = eta_nlos - eta_los <= 1000 dB: the residual's s-curve term
#   b*gap*bump/(1 + bump)^2 <= b*gap/4 <= 2.5e6 and its other terms stay
#   below 35, so the scan's product of two residuals stays below 1e13; the
#   rate's q = (s_edge/s) exp(gap*(P - P_edge) ln(10)/10) stays below
#   (1 + 1/tan^2) 10^(gap/10) < 1e105 at the smallest edge angle; and
#   the first kappa-derivative of g stays below b*gap*(180/pi)/tan(0.5 deg)
#   = 6.6e10, so the rate's second derivative, which squares it, below 1e22.
_MAX_A = _MAX_B = 1e4
_MAX_AB = 300.0
_MAX_LOSS_GAP_DB = 1000.0
_MAX_WORKERS = 64  # bound on the worker processes of a run


def _check_workers(workers: int) -> None:
    if not 1 <= workers <= _MAX_WORKERS:
        raise ValueError(f"workers must be in [1, {_MAX_WORKERS}], got {workers}")


@dataclass(frozen=True)
class ScenarioParams:
    """Terrain and equipment constants that fix the propagation environment.

    ``a`` and ``b`` are the s-curve constants of the LoS-probability fit
    (dimensionless and per-degree respectively), ``eta_los``/``eta_nlos``
    the mean excess path losses of the two propagation groups in dB,
    ``freq_hz`` the carrier frequency, and ``e_r`` the antenna efficiency
    exponent: the effective directivity is the ideal conical directivity
    raised to ``e_r``.
    """

    a: float
    b: float
    eta_los: float
    eta_nlos: float
    freq_hz: float
    e_r: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "eta_los", "eta_nlos", "freq_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(f"s-curve constants must be positive, got a={self.a}, b={self.b}")
        if not (self.a <= _MAX_A and self.b <= _MAX_B and self.a * self.b <= _MAX_AB):
            raise ValueError(f"s-curve constants must satisfy a <= {_MAX_A:g}, b <= {_MAX_B:g} "
                             f"and a*b <= {_MAX_AB:g}, got a={self.a}, b={self.b}")
        if not self.freq_hz > 0.0:
            raise ValueError(f"carrier frequency must be positive, got {self.freq_hz}")
        if self.eta_nlos < self.eta_los:
            raise ValueError("eta_nlos must be >= eta_los (shadowed users lose at least as much)")
        if not self.eta_nlos - self.eta_los <= _MAX_LOSS_GAP_DB:
            raise ValueError(f"eta_nlos - eta_los must be at most {_MAX_LOSS_GAP_DB:g} dB, "
                             f"got {self.eta_nlos - self.eta_los:g}")
        if not 0.0 <= self.e_r < 1.0:
            raise ValueError(f"antenna efficiency exponent must be in [0, 1), got {self.e_r}")

    def with_efficiency(self, e_r: float) -> "ScenarioParams":
        """Copy of these parameters with a different antenna efficiency exponent."""
        return replace(self, e_r=e_r)


#: Urban-scenario constants of the s-curve fit, 2 GHz carrier.
URBAN = ScenarioParams(a=9.61, b=0.16, eta_los=1.0, eta_nlos=20.0, freq_hz=2e9, e_r=0.6)
