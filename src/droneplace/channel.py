"""Air-to-ground channel model for a low-altitude aerial base station.

Probabilistic line-of-sight pathloss: free-space spreading plus an
environment-dependent excess term weighted by the LoS probability, which is a
sigmoid in the elevation angle. On top of that, a simple link budget turns
pathloss into SNR and Shannon spectral efficiency.

All functions accept scalars or numpy arrays for the geometry/pathloss
arguments and broadcast accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s (exact)


def db_to_linear(x_db):
    """Convert dB to linear scale."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


# =====================================================================
# Parameter containers
# =====================================================================


@dataclass(frozen=True)
class EnvironmentParams:
    """Environment constants of the LoS-probability sigmoid and excess losses."""

    a: float  # sigmoid midpoint parameter (degrees)
    b: float  # sigmoid steepness parameter (1/degree)
    eta_los_db: float  # mean excess loss on LoS links, dB
    eta_nlos_db: float  # mean excess loss on NLoS links, dB

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("sigmoid parameters a, b must be positive")
        if not (0.0 <= self.eta_los_db <= self.eta_nlos_db):
            raise ValueError("excess losses need 0 <= eta_los_db <= eta_nlos_db")


URBAN = EnvironmentParams(a=9.61, b=0.16, eta_los_db=1.0, eta_nlos_db=20.0)

ENVIRONMENT_PRESETS = {"urban": URBAN}


@dataclass(frozen=True)
class LinkGeometry:
    """Geometry of one drone-to-user link.

    ``elevation_rad`` and ``slant_distance_m`` are derived in ``__post_init__``;
    the elevation angle at zero horizontal distance is pi/2 exactly.
    """

    horizontal_distance_m: float
    altitude_m: float
    elevation_rad: float = field(init=False)
    slant_distance_m: float = field(init=False)

    def __post_init__(self):
        if self.altitude_m <= 0:
            raise ValueError("altitude_m must be positive")
        if self.horizontal_distance_m < 0:
            raise ValueError("horizontal_distance_m must be non-negative")
        if self.horizontal_distance_m == 0.0:
            elev = math.pi / 2.0
        else:
            elev = math.atan(self.altitude_m / self.horizontal_distance_m)
        object.__setattr__(self, "elevation_rad", elev)
        object.__setattr__(
            self,
            "slant_distance_m",
            math.hypot(self.horizontal_distance_m, self.altitude_m),
        )


# =====================================================================
# Pathloss
# =====================================================================


def los_probability(geom: LinkGeometry, env: EnvironmentParams) -> float:
    """Line-of-sight probability of a link, strictly inside (0, 1).

    Sigmoid in the elevation angle theta (here converted to degrees):
    ``1 / (1 + a * exp(-b * (theta_deg - a)))``.
    """
    theta_deg = math.degrees(geom.elevation_rad)
    return float(_los_probability_deg(theta_deg, env))


def _los_probability_deg(theta_deg, env: EnvironmentParams):
    return 1.0 / (1.0 + env.a * np.exp(-env.b * (np.asarray(theta_deg) - env.a)))


def free_space_pathloss_db(distance_m, carrier_hz):
    """Free-space pathloss 20*log10(4*pi*f*d/c) in dB."""
    return 20.0 * np.log10(4.0 * np.pi * carrier_hz * np.asarray(distance_m) / SPEED_OF_LIGHT)


def mean_pathloss(geom: LinkGeometry, env: EnvironmentParams, carrier_hz: float) -> float:
    """Mean pathloss in dB: free-space term plus LoS-probability-weighted excess.

    ``PL = FSPL(d) + P_LoS * eta_los + (1 - P_LoS) * eta_nlos``. Strictly
    increasing in horizontal distance at fixed altitude (the excess term only
    grows as the elevation angle drops).
    """
    p = los_probability(geom, env)
    fspl = free_space_pathloss_db(geom.slant_distance_m, carrier_hz)
    return float(fspl + p * env.eta_los_db + (1.0 - p) * env.eta_nlos_db)


def pathloss_db(horizontal_m, altitude_m, env: EnvironmentParams, carrier_hz: float):
    """Vectorized mean pathloss over arrays of horizontal distances.

    Same model as :func:`mean_pathloss`; used by the placement grid scan where
    per-link ``LinkGeometry`` objects would be wasteful. ``altitude_m`` may be
    an array too, broadcast against ``horizontal_m``.
    """
    r = np.asarray(horizontal_m, dtype=float)
    h = np.asarray(altitude_m, dtype=float)
    theta_deg = np.degrees(np.arctan2(h, r))  # arctan2 gives pi/2 at r == 0
    p = _los_probability_deg(theta_deg, env)
    d = np.hypot(r, h)
    fspl = free_space_pathloss_db(d, carrier_hz)
    return fspl + p * env.eta_los_db + (1.0 - p) * env.eta_nlos_db


# =====================================================================
# Link budget
# =====================================================================


def spectral_efficiency(pathloss_db_value, sys: "SystemParams"):
    """Shannon spectral efficiency log2(1 + SNR) in bps/Hz.

    SNR in dB is ``P_t_dBm - PL - (N0_dBm_per_Hz + 10*log10(B_Hz) + NF)`` with
    noise taken over the full system bandwidth. Transmit power is treated as
    EIRP; antenna gains are folded in.
    """
    snr_db = sys.tx_power_dbm - np.asarray(pathloss_db_value, dtype=float) - sys.noise_power_dbm
    return np.log2(1.0 + db_to_linear(snr_db))


def required_bandwidth(rate: float, spectral_eff: float) -> float:
    """Bandwidth needed to carry ``rate`` at the given spectral efficiency.

    Pure division, so the result is in ``rate``'s units over bps/Hz
    (Mbps -> MHz). Raises ValueError when the link cannot carry traffic.
    """
    if spectral_eff <= 0.0:
        raise ValueError("spectral efficiency must be positive to carry traffic")
    return rate / spectral_eff
