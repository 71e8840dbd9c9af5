"""Standalone drone small cells: coverage-optimal geometry and dynamic
horizontal repositioning gains under Poisson user populations."""

__version__ = "0.7.0"

from .channel import expected_path_loss_db, g_pos, p_los, rate_function, user_rate
from .design import (NearDegenerateWarning, NoOptimumError, edge_angle_objective,
                     ideal_directivity, log_dmax_offset, max_gain, solve_edge_angle,
                     solve_edge_angles)
from .params import SPEED_OF_LIGHT, URBAN, ScenarioParams
from .placement import Strategy, min_enclosing_circle
from .sim import (SimConfig, run_simulation, sample_user_count,
                  sample_users_uniform_disc)

__all__ = [
    "SPEED_OF_LIGHT", "URBAN", "ScenarioParams",
    "p_los", "expected_path_loss_db", "g_pos", "user_rate", "rate_function",
    "max_gain", "ideal_directivity", "edge_angle_objective", "log_dmax_offset",
    "solve_edge_angle", "solve_edge_angles",
    "NoOptimumError", "NearDegenerateWarning",
    "Strategy", "min_enclosing_circle",
    "SimConfig", "run_simulation", "sample_user_count",
    "sample_users_uniform_disc",
    "__version__",
]
