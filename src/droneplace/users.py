"""Clustered user populations on a rectangular service area.

Users come from a Matern cluster process: Poisson parent points uniform in
the area, each spawning a Poisson number of daughter users uniform on a disk
around it. Daughters may land outside the area bounds and are kept. Each user
carries a required data rate drawn uniformly from a finite rate set, plus a
selection weight assigned later by the optimization mode.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

MAX_RESAMPLE_ATTEMPTS = 100


@dataclass(frozen=True)
class AreaBounds:
    """Axis-aligned rectangle the drone may fly over (meters)."""

    x_min_m: float
    x_max_m: float
    y_min_m: float
    y_max_m: float

    def __post_init__(self):
        if not (self.x_min_m < self.x_max_m and self.y_min_m < self.y_max_m):
            raise ValueError("area bounds must have positive extent")

    @property
    def area_m2(self) -> float:
        return (self.x_max_m - self.x_min_m) * (self.y_max_m - self.y_min_m)


@dataclass(frozen=True)
class ClusterConfig:
    """Matern cluster process parameters."""

    parent_density_per_m2: float  # mean parents per square meter
    mean_users_per_cluster: float  # Poisson mean of daughters per parent
    cluster_radius_m: float  # daughter scatter disk radius

    def __post_init__(self):
        if self.parent_density_per_m2 <= 0:
            raise ValueError("parent_density_per_m2 must be positive")
        if self.mean_users_per_cluster < 0:
            raise ValueError("mean_users_per_cluster must be non-negative")
        if self.cluster_radius_m <= 0:
            raise ValueError("cluster_radius_m must be positive")


@dataclass(frozen=True)
class User:
    """One ground user: position, required rate, selection weight."""

    id: int
    x_m: float
    y_m: float
    rate_mbps: float
    weight: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_m, self.y_m, self.rate_mbps, self.weight))):
            raise ValueError("x_m, y_m, rate_mbps and weight must be finite")
        if self.rate_mbps <= 0:
            raise ValueError("rate_mbps must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def _rng_for_attempt(seed: int, attempt: int) -> np.random.Generator:
    # attempt 0 is the plain seed; retries derive a fresh, documented stream
    if attempt == 0:
        return np.random.default_rng(np.random.SeedSequence(seed))
    return np.random.default_rng(np.random.SeedSequence([seed, attempt]))


def _sample_once(bounds: AreaBounds, cfg: ClusterConfig, rate_set_mbps, rng) -> list[User]:
    lam = cfg.parent_density_per_m2 * bounds.area_m2
    n_parents = int(rng.poisson(lam))
    px = rng.uniform(bounds.x_min_m, bounds.x_max_m, n_parents)
    py = rng.uniform(bounds.y_min_m, bounds.y_max_m, n_parents)
    counts = rng.poisson(cfg.mean_users_per_cluster, n_parents)
    total = int(counts.sum())
    # uniform on the disk: radius = R * sqrt(u)
    radii = cfg.cluster_radius_m * np.sqrt(rng.random(total))
    angles = 2.0 * np.pi * rng.random(total)
    cx = np.repeat(px, counts)
    cy = np.repeat(py, counts)
    xs = cx + radii * np.cos(angles)
    ys = cy + radii * np.sin(angles)
    rates = np.asarray(rate_set_mbps, dtype=float)[rng.integers(0, len(rate_set_mbps), total)]
    return [
        User(id=i, x_m=float(xs[i]), y_m=float(ys[i]), rate_mbps=float(rates[i]))
        for i in range(total)
    ]


def sample_users(
    bounds: AreaBounds,
    cfg: ClusterConfig,
    rate_set_mbps,
    seed: int,
    resample_on_empty: bool = True,
) -> list[User]:
    """Draw one clustered population; same seed gives a bitwise-identical list.

    With ``resample_on_empty`` (the default for optimization runs) an empty
    draw is retried with a deterministically derived seed so downstream
    placement always has at least one user. Pass False to study the raw,
    unconditioned point process. Use :func:`sample_population` when the
    number of resamples matters for run metadata.
    """
    return sample_population(bounds, cfg, rate_set_mbps, seed, resample_on_empty).users


@dataclass(frozen=True)
class PopulationSample:
    """A sampled population plus the bookkeeping needed for run metadata."""

    users: tuple[User, ...]
    seed: int
    resamples: int  # number of empty draws discarded before this one


def sample_population(
    bounds: AreaBounds,
    cfg: ClusterConfig,
    rate_set_mbps,
    seed: int,
    resample_on_empty: bool = True,
) -> PopulationSample:
    """Like :func:`sample_users` but also reports the resample count."""
    if len(rate_set_mbps) == 0:
        raise ValueError("rate_set_mbps must be non-empty")
    attempt = 0
    while True:
        users = _sample_once(bounds, cfg, rate_set_mbps, _rng_for_attempt(seed, attempt))
        if users or not resample_on_empty:
            return PopulationSample(users=tuple(users), seed=seed, resamples=attempt)
        attempt += 1
        if attempt >= MAX_RESAMPLE_ATTEMPTS:
            raise RuntimeError(
                f"no non-empty population after {MAX_RESAMPLE_ATTEMPTS} attempts; "
                "check the cluster parameters"
            )


def assign_weights(users, mode: str) -> list[User]:
    """Return users with selection weights set by the optimization mode.

    network_centric: every user weighs 1 (maximize the number served).
    user_centric: weight equals the required rate in Mbps (maximize served rate).
    """
    if mode == "network_centric":
        return [replace(u, weight=1.0) for u in users]
    if mode == "user_centric":
        return [replace(u, weight=u.rate_mbps) for u in users]
    raise ValueError(f"unknown mode {mode!r}")


def displace_users(users, distance_m: float, seed: int) -> list[User]:
    """Move every user by exactly ``distance_m`` in an independent uniform direction.

    Positions are not clipped to the area bounds. distance_m = 0 returns
    bitwise-identical coordinates.
    """
    if distance_m < 0:
        raise ValueError("distance_m must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    angles = 2.0 * np.pi * rng.random(len(users))
    dx = distance_m * np.cos(angles)
    dy = distance_m * np.sin(angles)
    return [
        replace(u, x_m=u.x_m + float(dx[i]), y_m=u.y_m + float(dy[i]))
        for i, u in enumerate(users)
    ]


# =====================================================================
# CSV round-trip
# =====================================================================

CSV_HEADER = ["id", "x_m", "y_m", "rate_mbps", "weight"]


def write_users_csv(users, path) -> None:
    """Write users as CSV with header id,x_m,y_m,rate_mbps,weight.

    Floats are written with repr so a round-trip reproduces them bitwise.
    """
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for u in users:
            w.writerow([u.id, repr(u.x_m), repr(u.y_m), repr(u.rate_mbps), repr(u.weight)])


def read_users_csv(path) -> list[User]:
    """Read a user CSV written by :func:`write_users_csv`."""
    users = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected user CSV header: {header}")
        for row in r:
            users.append(
                User(
                    id=int(row[0]),
                    x_m=float(row[1]),
                    y_m=float(row[2]),
                    rate_mbps=float(row[3]),
                    weight=float(row[4]),
                )
            )
    return users
