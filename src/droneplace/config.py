"""Run configuration: defaults, JSON file loading, key=value overrides.

One flat key space. Precedence: built-in defaults < DRONEPLACE_OUTPUT_DIR
environment variable (output_dir only) < config file < command-line
overrides. Unknown keys and type mismatches are hard errors naming the key.
The resolved scenario (minus execution-only keys like threads/output_dir) is
echoed into every output and hashed so artifacts name the exact setup that
produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

from .channel import ENVIRONMENT_PRESETS, EnvironmentParams
from .experiments import MODES, RobustnessSpec, SweepSpec
from .placement import SystemParams
from .users import AreaBounds, ClusterConfig


class ConfigError(ValueError):
    """Bad configuration: unknown key, wrong type, or invalid value."""


DEFAULTS: dict = {
    # propagation environment (urban preset values)
    "environment": "urban",
    "a": 9.61,
    "b": 0.16,
    "eta_los_db": 1.0,
    "eta_nlos_db": 20.0,
    # radio and budgets
    "carrier_hz": 2.0e9,
    "tx_power_w": 5.0,
    "bandwidth_mhz": 15.0,
    "backhaul_mbps": 80.0,
    "pl_max_db": 120.0,
    "noise_density_dbm_hz": -174.0,
    "noise_figure_db": 0.0,
    # service area and search grid
    "x_min_m": 0.0,
    "x_max_m": 4000.0,
    "y_min_m": 0.0,
    "y_max_m": 4000.0,
    "h_min_m": 100.0,
    "h_max_m": 400.0,
    "grid_step_m": 100.0,
    # user population
    "parent_density_per_m2": 1.0e-7,
    "mean_users_per_cluster": 90.0,
    "cluster_radius_m": 700.0,
    "rate_set_mbps": [0.1, 0.5, 1.0, 1.5, 2.0],
    # run selection
    "mode": "network_centric",
    "seeds": list(range(20)),
    # experiment grids
    "backhaul_values_mbps": [float(r) for r in range(10, 201, 10)],
    "displacement_values_m": [0.0, 25.0, 50.0, 100.0, 150.0, 200.0],
    # execution (excluded from the scenario echo/hash)
    "threads": 1,
    "output_dir": ".",
}

_EXECUTION_KEYS = ("threads", "output_dir")

# the four sigmoid/excess keys follow the preset unless set explicitly
_ENV_KEYS = ("a", "b", "eta_los_db", "eta_nlos_db")


def _coerce(key: str, value):
    """Check ``value`` against the default's shape; return the coerced value."""
    default = DEFAULTS[key]
    if isinstance(default, bool):  # pragma: no cover - no bool keys today
        raise ConfigError(f"{key}: unsupported type")
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected string, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected integer, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected number, got {value!r}")
        # JSON parsing accepts NaN and Infinity, which no key can take
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return float(value)
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key}: expected non-empty list, got {value!r}")
        if key == "seeds":
            if any(isinstance(v, bool) or not isinstance(v, int) for v in value):
                raise ConfigError(f"{key}: expected list of integers, got {value!r}")
            return list(value)
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
            raise ConfigError(f"{key}: expected list of numbers, got {value!r}")
        if not all(math.isfinite(v) for v in value):
            raise ConfigError(f"{key}: expected list of finite numbers, got {value!r}")
        return [float(v) for v in value]
    raise ConfigError(f"{key}: unsupported type")  # pragma: no cover


def parse_override(text: str):
    """Parse one KEY=VALUE override; VALUE is JSON when possible, else a string."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not KEY=VALUE")
    key, raw = text.split("=", 1)
    key = key.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration plus its scenario hash."""

    resolved: dict

    @property
    def scenario(self) -> dict:
        return {k: v for k, v in self.resolved.items() if k not in _EXECUTION_KEYS}

    @property
    def config_hash(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self.scenario, sort_keys=True).encode()
        ).hexdigest()
        return digest[:12]

    @property
    def environment(self) -> EnvironmentParams:
        r = self.resolved
        return EnvironmentParams(
            a=r["a"], b=r["b"], eta_los_db=r["eta_los_db"], eta_nlos_db=r["eta_nlos_db"]
        )

    @property
    def bounds(self) -> AreaBounds:
        r = self.resolved
        return AreaBounds(r["x_min_m"], r["x_max_m"], r["y_min_m"], r["y_max_m"])

    @property
    def system(self) -> SystemParams:
        r = self.resolved
        return SystemParams(
            carrier_hz=r["carrier_hz"],
            tx_power_w=r["tx_power_w"],
            bandwidth_mhz=r["bandwidth_mhz"],
            backhaul_mbps=r["backhaul_mbps"],
            pl_max_db=r["pl_max_db"],
            noise_density_dbm_hz=r["noise_density_dbm_hz"],
            noise_figure_db=r["noise_figure_db"],
            bounds=self.bounds,
            h_min_m=r["h_min_m"],
            h_max_m=r["h_max_m"],
            grid_step_m=r["grid_step_m"],
        )

    @property
    def cluster(self) -> ClusterConfig:
        r = self.resolved
        return ClusterConfig(
            parent_density_per_m2=r["parent_density_per_m2"],
            mean_users_per_cluster=r["mean_users_per_cluster"],
            cluster_radius_m=r["cluster_radius_m"],
        )

    @property
    def rate_set_mbps(self) -> list[float]:
        return list(self.resolved["rate_set_mbps"])

    @property
    def seeds(self) -> list[int]:
        return list(self.resolved["seeds"])

    @property
    def mode(self) -> str:
        return self.resolved["mode"]

    @property
    def threads(self) -> int:
        return self.resolved["threads"]

    @property
    def output_dir(self) -> str:
        return self.resolved["output_dir"]

    def sweep_spec(self) -> SweepSpec:
        return SweepSpec(
            backhaul_values_mbps=tuple(self.resolved["backhaul_values_mbps"]),
            seeds=tuple(self.seeds),
            mode=self.mode,
        )

    def robustness_spec(self) -> RobustnessSpec:
        return RobustnessSpec(
            displacement_values_m=tuple(self.resolved["displacement_values_m"]),
            seeds=tuple(self.seeds),
            mode=self.mode,
        )


def load_config(path=None, overrides=()) -> RunConfig:
    """Resolve defaults, optional JSON file, then KEY=VALUE overrides."""
    provided: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                data = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        provided.update(data)
    for text in overrides:
        key, value = parse_override(text)
        provided[key] = value

    resolved = dict(DEFAULTS)
    env_out = os.environ.get("DRONEPLACE_OUTPUT_DIR")
    if env_out:
        resolved["output_dir"] = env_out
    for key, value in provided.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        resolved[key] = _coerce(key, value)

    env_name = resolved["environment"]
    if env_name not in ENVIRONMENT_PRESETS:
        raise ConfigError(
            f"unknown environment {env_name!r}; known: {sorted(ENVIRONMENT_PRESETS)}"
        )
    preset = ENVIRONMENT_PRESETS[env_name]
    preset_values = {
        "a": preset.a,
        "b": preset.b,
        "eta_los_db": preset.eta_los_db,
        "eta_nlos_db": preset.eta_nlos_db,
    }
    for key in _ENV_KEYS:
        if key not in provided:
            resolved[key] = preset_values[key]

    if resolved["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {resolved['mode']!r}")
    if resolved["threads"] < 1:
        raise ConfigError("threads must be >= 1")
    if any(v <= 0 for v in resolved["rate_set_mbps"]):
        raise ConfigError("rate_set_mbps values must be positive")
    if resolved["mean_users_per_cluster"] <= 0:
        # every draw would be empty, and resampling could never end it
        raise ConfigError(
            "mean_users_per_cluster must be positive: with a mean of 0 every population is empty"
        )
    if any(v < 0 for v in resolved["seeds"]):
        raise ConfigError("seeds values must be non-negative")
    if any(v < 0 for v in resolved["backhaul_values_mbps"]):
        raise ConfigError("backhaul_values_mbps values must be non-negative")
    if any(v < 0 for v in resolved["displacement_values_m"]):
        raise ConfigError("displacement_values_m values must be non-negative")

    cfg = RunConfig(resolved=resolved)
    try:
        # constructing the typed views runs every domain invariant check
        cfg.environment, cfg.system, cfg.cluster
        cfg.sweep_spec(), cfg.robustness_spec()
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return cfg
