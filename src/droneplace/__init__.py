"""Backhaul-aware optimal 3D placement of a drone base station.

The package is organised bottom-up: `channel` models the air-to-ground
link, `users` generates clustered ground users, `selection` solves the
per-position user subset problem exactly, `placement` scans the candidate
grid, and `experiments` wraps the multi-seed studies behind the CLI.
"""

__version__ = "0.1.0"

from .channel import (
    ENVIRONMENT_PRESETS,
    URBAN,
    EnvironmentParams,
    LinkGeometry,
    los_probability,
    mean_pathloss,
    pathloss_db,
    required_bandwidth,
    spectral_efficiency,
)
from .config import ConfigError, RunConfig, load_config
from .experiments import (
    ExperimentReport,
    RobustnessSpec,
    SweepSpec,
    backhaul_sweep,
    rate_cdf_from_rates,
    robustness_eval,
)
from .placement import (
    Placement,
    PlacementResult,
    PlacementSearch,
    SystemParams,
    candidate_grid,
    evaluate_position,
    optimal_placement,
)
from .selection import (
    SelectionInstance,
    SelectionResult,
    solve_bnb,
    solve_brute_force,
)
from .users import (
    AreaBounds,
    ClusterConfig,
    PopulationSample,
    User,
    assign_weights,
    displace_users,
    read_users_csv,
    sample_population,
    sample_users,
    write_users_csv,
)

__all__ = [
    "ENVIRONMENT_PRESETS",
    "URBAN",
    "AreaBounds",
    "ClusterConfig",
    "ConfigError",
    "EnvironmentParams",
    "ExperimentReport",
    "LinkGeometry",
    "Placement",
    "PlacementResult",
    "PlacementSearch",
    "PopulationSample",
    "RobustnessSpec",
    "RunConfig",
    "SelectionInstance",
    "SelectionResult",
    "SweepSpec",
    "SystemParams",
    "User",
    "__version__",
    "assign_weights",
    "backhaul_sweep",
    "candidate_grid",
    "displace_users",
    "evaluate_position",
    "load_config",
    "los_probability",
    "mean_pathloss",
    "optimal_placement",
    "pathloss_db",
    "rate_cdf_from_rates",
    "read_users_csv",
    "required_bandwidth",
    "robustness_eval",
    "sample_population",
    "sample_users",
    "solve_bnb",
    "solve_brute_force",
    "spectral_efficiency",
    "write_users_csv",
]
