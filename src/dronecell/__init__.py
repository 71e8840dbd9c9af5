"""Standalone drone small cells: coverage-optimal geometry and dynamic
horizontal repositioning gains under Poisson user populations."""

__version__ = "0.8.0"


def _load_numpy():
    """Load numpy with one OpenBLAS thread, leaving os.environ as it was.

    At load, OpenBLAS starts a thread for each further core, and each spins
    for about 0.1 s of CPU before it sleeps; no module here calls BLAS. A
    caller who set a thread count, or loaded numpy first, keeps its choice.
    """
    import os
    import sys

    if "numpy" in sys.modules or not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS"}.isdisjoint(os.environ):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy()

from .channel import expected_path_loss_db, g_pos, p_los, rate_function, user_rate
from .design import (NearDegenerateWarning, NoOptimumError, edge_angle_objective,
                     ideal_directivity, log_dmax_offset, max_gain, solve_edge_angle,
                     solve_edge_angles)
from .params import SPEED_OF_LIGHT, URBAN, ScenarioParams

# the engine's names, each with its module: imported on first access, so that
# the geometry design alone never loads the engine
_ENGINE_NAMES = {
    "Strategy": "placement", "min_enclosing_circle": "placement",
    "SimConfig": "sim", "run_simulation": "sim", "sample_user_count": "sim",
    "sample_users_uniform_disc": "sim",
}

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


def __getattr__(name: str):
    if name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_ENGINE_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value
