import math

import numpy as np
import pytest

from droneplace.channel import (
    SPEED_OF_LIGHT,
    URBAN,
    EnvironmentParams,
    LinkGeometry,
    db_to_linear,
    free_space_pathloss_db,
    los_probability,
    mean_pathloss,
    pathloss_db,
    required_bandwidth,
    spectral_efficiency,
)
from droneplace.placement import SystemParams
from droneplace.users import AreaBounds

from reference_channel import (
    GOLDEN,
    ref_bandwidth_mhz,
    ref_pathloss_db,
    ref_spectral_efficiency,
)

F_C = 2e9


def default_system(**kw) -> SystemParams:
    base = dict(
        carrier_hz=F_C,
        tx_power_w=5.0,
        bandwidth_mhz=15.0,
        backhaul_mbps=80.0,
        pl_max_db=120.0,
        noise_density_dbm_hz=-174.0,
        bounds=AreaBounds(0.0, 4000.0, 0.0, 4000.0),
        h_min_m=100.0,
        h_max_m=400.0,
        grid_step_m=100.0,
    )
    base.update(kw)
    return SystemParams(**base)


# ---------------------------------------------------------------------
# LoS probability
# ---------------------------------------------------------------------


def test_los_probability_at_sigmoid_midpoint():
    # elevation (deg) equal to the a parameter kills the exponent: 1/(1+a)
    r = 400.0 / math.tan(math.radians(URBAN.a))
    p = los_probability(LinkGeometry(r, 400.0), URBAN)
    assert p == pytest.approx(1.0 / (1.0 + URBAN.a), rel=1e-12)
    assert p == pytest.approx(GOLDEN["plos_theta_eq_a"], rel=5e-3)


def test_los_probability_overhead():
    p = los_probability(LinkGeometry(0.0, 400.0), URBAN)
    assert p == pytest.approx(GOLDEN["plos_r0_h400"], rel=5e-3)
    assert p == pytest.approx(0.999975, abs=1e-6)


def test_los_probability_grazing_limit():
    # r -> infinity pushes elevation to 0; the sigmoid floor is 1/(1+a*e^(ab))
    p = los_probability(LinkGeometry(1e12, 400.0), URBAN)
    floor = 1.0 / (1.0 + URBAN.a * math.exp(URBAN.b * URBAN.a))
    assert p == pytest.approx(floor, rel=1e-6)
    assert p == pytest.approx(0.02188, abs=1e-4)


def test_los_probability_monotone_in_elevation():
    h = 300.0
    rs = np.linspace(1.0, 5000.0, 200)
    ps = [los_probability(LinkGeometry(float(r), h), URBAN) for r in rs]
    assert all(a > b for a, b in zip(ps, ps[1:]))  # larger r, lower elevation
    assert all(0.0 < p < 1.0 for p in ps)


# ---------------------------------------------------------------------
# Pathloss
# ---------------------------------------------------------------------


def test_pathloss_overhead_golden():
    pl = mean_pathloss(LinkGeometry(0.0, 400.0), URBAN, F_C)
    assert pl == pytest.approx(GOLDEN["pl_r0_h400_db"], rel=5e-3)
    assert pl == pytest.approx(91.51, abs=0.01)


def test_pathloss_1km_golden():
    pl = mean_pathloss(LinkGeometry(1000.0, 400.0), URBAN, F_C)
    assert pl == pytest.approx(GOLDEN["pl_r1000_h400_db"], rel=5e-3)
    assert pl == pytest.approx(111.08, abs=0.01)


def test_free_space_reference_distance():
    # at d = c/(4*pi*f) the FSPL argument is exactly 1 -> 0 dB
    d = SPEED_OF_LIGHT / (4.0 * math.pi * F_C)
    assert free_space_pathloss_db(d, F_C) == pytest.approx(0.0, abs=1e-12)
    env0 = EnvironmentParams(a=9.61, b=0.16, eta_los_db=0.0, eta_nlos_db=0.0)
    assert mean_pathloss(LinkGeometry(0.0, d), env0, F_C) == pytest.approx(0.0, abs=1e-12)


def test_pathloss_vector_matches_scalar():
    rs = np.array([0.0, 50.0, 400.0, 1000.0, 2500.0])
    vec = pathloss_db(rs, 400.0, URBAN, F_C)
    scal = [mean_pathloss(LinkGeometry(float(r), 400.0), URBAN, F_C) for r in rs]
    np.testing.assert_allclose(vec, scal, rtol=0, atol=1e-12)
    # altitudes broadcast too
    hs = np.array([100.0, 250.0, 400.0])
    grid = pathloss_db(rs[:, None], hs[None, :], URBAN, F_C)
    scal = [[mean_pathloss(LinkGeometry(float(r), float(h)), URBAN, F_C) for h in hs] for r in rs]
    np.testing.assert_allclose(grid, scal, rtol=0, atol=1e-12)


def test_pathloss_matches_independent_reference():
    for r in (0.0, 123.4, 800.0, 1500.0, 3200.0):
        for h in (100.0, 250.0, 400.0):
            mine = mean_pathloss(LinkGeometry(r, h), URBAN, F_C)
            ref = ref_pathloss_db(r, h, 9.61, 0.16, 1.0, 20.0, F_C)
            assert mine == pytest.approx(ref, rel=1e-12)


def test_pathloss_increases_with_horizontal_distance():
    pls = pathloss_db(np.linspace(0, 4000, 100), 200.0, URBAN, F_C)
    assert np.all(np.diff(pls) > 0)


def test_doubling_slant_distance_at_fixed_elevation():
    # scale r and h together: elevation fixed, FSPL grows by 20*log10(2)
    pl1 = mean_pathloss(LinkGeometry(300.0, 400.0), URBAN, F_C)
    pl2 = mean_pathloss(LinkGeometry(600.0, 800.0), URBAN, F_C)
    assert pl2 - pl1 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)


def test_excess_term_bounded_by_etas():
    for r, h in ((10.0, 100.0), (3000.0, 100.0), (500.0, 400.0)):
        g = LinkGeometry(r, h)
        excess = mean_pathloss(g, URBAN, F_C) - free_space_pathloss_db(g.slant_distance_m, F_C)
        assert URBAN.eta_los_db < excess < URBAN.eta_nlos_db


def test_altitude_tradeoff_terms():
    # at fixed r: the excess term falls with h while the FSPL term rises
    r = 800.0
    hs = np.array([100.0, 200.0, 300.0, 400.0])
    fspl = np.array(
        [free_space_pathloss_db(LinkGeometry(r, float(h)).slant_distance_m, F_C) for h in hs]
    )
    excess = np.array(
        [mean_pathloss(LinkGeometry(r, float(h)), URBAN, F_C) for h in hs]
    ) - fspl
    assert np.all(np.diff(fspl) > 0)
    assert np.all(np.diff(excess) < 0)


# ---------------------------------------------------------------------
# Link budget
# ---------------------------------------------------------------------


def test_spectral_efficiency_goldens():
    sys = default_system()
    assert spectral_efficiency(100.0, sys) == pytest.approx(GOLDEN["zeta_pl100"], rel=5e-3)
    assert spectral_efficiency(120.0, sys) == pytest.approx(GOLDEN["zeta_pl120"], rel=5e-3)
    assert spectral_efficiency(100.0, sys) == pytest.approx(13.03, abs=0.01)
    assert spectral_efficiency(120.0, sys) == pytest.approx(6.41, abs=0.01)


def test_snr_goldens():
    sys = default_system()
    assert sys.tx_power_dbm == pytest.approx(GOLDEN["tx_power_dbm"], rel=1e-12)
    assert sys.noise_power_dbm == pytest.approx(GOLDEN["noise_power_dbm"], rel=1e-12)
    snr_100 = sys.tx_power_dbm - 100.0 - sys.noise_power_dbm
    assert snr_100 == pytest.approx(39.23, abs=0.01)
    assert snr_100 - 20.0 == pytest.approx(19.23, abs=0.01)  # PL 120 case


def test_spectral_efficiency_matches_reference():
    sys = default_system()
    for pl in (85.0, 100.0, 111.5, 120.0, 140.0):
        assert spectral_efficiency(pl, sys) == pytest.approx(
            ref_spectral_efficiency(pl, 5.0, -174.0, 15e6), rel=1e-12
        )


def test_spectral_efficiency_vanishes_with_pathloss():
    sys = default_system()
    assert spectral_efficiency(1000.0, sys) == pytest.approx(0.0, abs=1e-12)
    assert float(spectral_efficiency(200.0, sys)) > 0.0


def test_noise_figure_shifts_snr():
    plain = default_system()
    noisy = default_system(noise_figure_db=7.0)
    assert noisy.noise_power_dbm == pytest.approx(plain.noise_power_dbm + 7.0)
    assert spectral_efficiency(100.0, noisy) < spectral_efficiency(100.0, plain)


def test_required_bandwidth_golden():
    sys = default_system()
    zeta = float(spectral_efficiency(120.0, sys))
    bw = required_bandwidth(2.0, zeta)
    assert bw == pytest.approx(GOLDEN["bw_2mbps_pl120_mhz"], rel=5e-3)
    assert bw * 1e3 == pytest.approx(312.2, abs=0.5)  # kHz
    assert bw == pytest.approx(ref_bandwidth_mhz(2.0, 120.0, 5.0, -174.0, 15e6), rel=1e-12)


def test_required_bandwidth_trivial_cases():
    assert required_bandwidth(0.0, 6.4) == 0.0
    assert required_bandwidth(1.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        required_bandwidth(1.0, 0.0)
    with pytest.raises(ValueError):
        required_bandwidth(1.0, -2.0)


def test_db_round_trip():
    x = np.array([0.5, 1.0, 250.0])
    np.testing.assert_allclose(db_to_linear(10.0 * np.log10(x)), x, rtol=1e-12)


# ---------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(ValueError):
        LinkGeometry(10.0, 0.0)
    with pytest.raises(ValueError):
        LinkGeometry(-1.0, 100.0)
    g = LinkGeometry(300.0, 400.0)
    assert g.slant_distance_m == pytest.approx(500.0)
    assert g.slant_distance_m >= g.altitude_m
    assert LinkGeometry(0.0, 50.0).elevation_rad == math.pi / 2.0


def test_environment_validation():
    with pytest.raises(ValueError):
        EnvironmentParams(a=-1.0, b=0.16, eta_los_db=1.0, eta_nlos_db=20.0)
    with pytest.raises(ValueError):
        EnvironmentParams(a=9.61, b=0.16, eta_los_db=5.0, eta_nlos_db=1.0)
