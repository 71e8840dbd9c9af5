"""Scenario parameter set for the air-to-ground propagation model."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

SPEED_OF_LIGHT = 299_792_458.0  # m/s


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
        if not self.freq_hz > 0.0:
            raise ValueError(f"carrier frequency must be positive, got {self.freq_hz}")
        if self.eta_nlos < self.eta_los:
            raise ValueError("eta_nlos must be >= eta_los (shadowed users lose at least as much)")
        if not 0.0 <= self.e_r < 1.0:
            raise ValueError(f"antenna efficiency exponent must be in [0, 1), got {self.e_r}")

    def with_efficiency(self, e_r: float) -> "ScenarioParams":
        """Copy of these parameters with a different antenna efficiency exponent."""
        return replace(self, e_r=e_r)


#: Urban-scenario constants of the s-curve fit, 2 GHz carrier.
URBAN = ScenarioParams(a=9.61, b=0.16, eta_los=1.0, eta_nlos=20.0, freq_hz=2e9, e_r=0.6)
