"""Standalone drone small cells: coverage-optimal geometry and dynamic
horizontal repositioning gains under Poisson user populations."""

__version__ = "0.2.0"

from .channel import (UserRate, expected_path_loss_db, g_pos, max_gain, p_los,
                      path_loss_los, path_loss_nlos, rate_function, user_rate)
from .design import (AntennaModel, CellGeometry, NearDegenerateWarning,
                     NoOptimumError, cell_geometry, edge_angle_objective,
                     ideal_directivity, log_dmax_offset, solve_edge_angle)
from .params import SPEED_OF_LIGHT, URBAN, ScenarioParams
from .placement import (Strategy, UserSet, cmp_position, mar_objective,
                        mar_position, min_enclosing_circle, sbc_position,
                        static_position)
from .sim import (Ecdf, SimConfig, empirical_cdf, run_simulation,
                  sample_user_count, sample_users_uniform_disc)

__all__ = [
    "SPEED_OF_LIGHT", "URBAN", "ScenarioParams",
    "p_los", "path_loss_los", "path_loss_nlos", "expected_path_loss_db",
    "g_pos", "user_rate", "rate_function", "max_gain", "UserRate",
    "ideal_directivity", "edge_angle_objective", "log_dmax_offset",
    "solve_edge_angle", "cell_geometry", "AntennaModel", "CellGeometry",
    "NoOptimumError", "NearDegenerateWarning",
    "Strategy", "UserSet", "min_enclosing_circle", "static_position",
    "sbc_position", "mar_position", "cmp_position", "mar_objective",
    "SimConfig", "run_simulation", "sample_user_count",
    "sample_users_uniform_disc", "empirical_cdf", "Ecdf",
    "__version__",
]
