import numpy as np
import pytest

from droneplace.users import (
    MAX_RESAMPLE_ATTEMPTS,
    AreaBounds,
    ClusterConfig,
    User,
    assign_weights,
    displace_users,
    read_users_csv,
    sample_population,
    sample_users,
    write_users_csv,
)

BOUNDS = AreaBounds(0.0, 4000.0, 0.0, 4000.0)
CLUSTER = ClusterConfig(
    parent_density_per_m2=1e-7, mean_users_per_cluster=90.0, cluster_radius_m=700.0
)
RATES = [0.1, 0.5, 1.0, 1.5, 2.0]


def test_same_seed_same_population():
    a = sample_users(BOUNDS, CLUSTER, RATES, seed=42)
    b = sample_users(BOUNDS, CLUSTER, RATES, seed=42)
    assert a == b
    c = sample_users(BOUNDS, CLUSTER, RATES, seed=43)
    assert a != c


def test_ids_are_sequential():
    users = sample_users(BOUNDS, CLUSTER, RATES, seed=3)
    assert [u.id for u in users] == list(range(len(users)))


def test_rates_drawn_from_the_set():
    users = sample_users(BOUNDS, CLUSTER, RATES, seed=5)
    assert set(u.rate_mbps for u in users) <= set(RATES)


def test_all_daughters_within_cluster_radius():
    # one huge cluster, tiny area: parent is near the area, daughters within nu
    tight = ClusterConfig(
        parent_density_per_m2=1.0, mean_users_per_cluster=50.0, cluster_radius_m=10.0
    )
    small = AreaBounds(0.0, 2.0, 0.0, 2.0)
    users = sample_users(small, tight, RATES, seed=1)
    assert users
    for u in users:
        # parent somewhere in [0,2]^2, so daughters live within 10 of it
        assert -10.0 <= u.x_m <= 12.0
        assert -10.0 <= u.y_m <= 12.0


def test_daughter_mean_square_distance():
    # direct check of the disk law: conditional MSD -> nu^2 / 2
    rng = np.random.default_rng(0)
    nu = 700.0
    radii = nu * np.sqrt(rng.random(200_000))
    assert np.mean(radii**2) == pytest.approx(nu**2 / 2.0, rel=0.01)


# ~0.5 expected parents: an empty first draw happens for many seeds, while a
# non-empty draw arrives well within the retry cap
SPARSE = ClusterConfig(
    parent_density_per_m2=0.5 / BOUNDS.area_m2,
    mean_users_per_cluster=3.0,
    cluster_radius_m=10.0,
)


def _seed_with_empty_first_draw() -> int:
    for seed in range(100):
        if not sample_population(BOUNDS, SPARSE, RATES, seed, resample_on_empty=False).users:
            return seed
    raise AssertionError("no empty draw in 100 seeds; SPARSE is miscalibrated")


def test_resample_made_deterministic():
    seed = _seed_with_empty_first_draw()
    s1 = sample_population(BOUNDS, SPARSE, RATES, seed)
    s2 = sample_population(BOUNDS, SPARSE, RATES, seed)
    assert s1 == s2
    assert s1.users  # resampling only ends on a non-empty draw
    assert s1.resamples >= 1


def test_resample_disabled_returns_raw_process():
    seed = _seed_with_empty_first_draw()
    s = sample_population(BOUNDS, SPARSE, RATES, seed, resample_on_empty=False)
    assert s.users == ()
    assert s.resamples == 0


def test_resample_cap_raises():
    # zero daughters per parent: every attempt is empty
    barren = ClusterConfig(
        parent_density_per_m2=1e-7, mean_users_per_cluster=0.0, cluster_radius_m=700.0
    )
    with pytest.raises(RuntimeError, match=str(MAX_RESAMPLE_ATTEMPTS)):
        sample_population(BOUNDS, barren, RATES, seed=0)


def test_empty_rate_set_rejected():
    with pytest.raises(ValueError):
        sample_users(BOUNDS, CLUSTER, [], seed=0)


def test_assign_weights_modes():
    users = sample_users(BOUNDS, CLUSTER, RATES, seed=7)
    nc = assign_weights(users, "network_centric")
    uc = assign_weights(users, "user_centric")
    assert all(u.weight == 1.0 for u in nc)
    assert all(u.weight == u.rate_mbps for u in uc)
    # positions untouched either way
    assert [(u.x_m, u.y_m) for u in nc] == [(u.x_m, u.y_m) for u in users]
    with pytest.raises(ValueError):
        assign_weights(users, "balanced")


def test_displacement_magnitude_exact():
    users = sample_users(BOUNDS, CLUSTER, RATES, seed=2)
    moved = displace_users(users, 150.0, seed=99)
    assert len(moved) == len(users)
    for u, m in zip(users, moved):
        d = np.hypot(m.x_m - u.x_m, m.y_m - u.y_m)
        assert d == pytest.approx(150.0, abs=1e-9)
        assert m.id == u.id and m.rate_mbps == u.rate_mbps


def test_displacement_zero_is_identity():
    users = sample_users(BOUNDS, CLUSTER, RATES, seed=2)
    moved = displace_users(users, 0.0, seed=99)
    assert moved == list(users)


def test_displacement_deterministic_per_seed():
    users = sample_users(BOUNDS, CLUSTER, RATES, seed=2)
    assert displace_users(users, 50.0, seed=1) == displace_users(users, 50.0, seed=1)
    assert displace_users(users, 50.0, seed=1) != displace_users(users, 50.0, seed=2)
    with pytest.raises(ValueError):
        displace_users(users, -1.0, seed=1)


def test_csv_round_trip_bitwise(tmp_path):
    users = assign_weights(sample_users(BOUNDS, CLUSTER, RATES, seed=13), "user_centric")
    path = tmp_path / "users.csv"
    write_users_csv(users, path)
    again = read_users_csv(path)
    assert again == users
    # a second write is byte-identical
    path2 = tmp_path / "users2.csv"
    write_users_csv(users, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x,y\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_users_csv(path)


def test_user_validation():
    with pytest.raises(ValueError):
        User(id=0, x_m=0.0, y_m=0.0, rate_mbps=0.0)
    with pytest.raises(ValueError):
        User(id=0, x_m=0.0, y_m=0.0, rate_mbps=1.0, weight=0.0)
    for field in ("x_m", "y_m", "rate_mbps", "weight"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                User(**{**dict(id=0, x_m=0.0, y_m=0.0, rate_mbps=1.0, weight=1.0), field: bad})


def test_csv_rows_holding_nan_are_rejected(tmp_path):
    """A NaN position would leave the user silently unserved, and a NaN rate
    or weight passes every sign check; reading such a row fails instead."""
    users = sample_users(BOUNDS, CLUSTER, RATES, seed=13)[:3]
    path = tmp_path / "users.csv"
    write_users_csv(users, path)
    good = path.read_text().splitlines()
    for column in range(1, 5):
        row = good[2].split(",")
        row[column] = "nan"
        path.write_text("\n".join([*good[:2], ",".join(row), *good[3:]]) + "\n")
        with pytest.raises(ValueError, match="finite"):
            read_users_csv(path)


def test_bounds_and_cluster_validation():
    with pytest.raises(ValueError):
        AreaBounds(0.0, 0.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        ClusterConfig(parent_density_per_m2=0.0, mean_users_per_cluster=1.0, cluster_radius_m=1.0)
    with pytest.raises(ValueError):
        ClusterConfig(parent_density_per_m2=1.0, mean_users_per_cluster=-1.0, cluster_radius_m=1.0)
    with pytest.raises(ValueError):
        ClusterConfig(parent_density_per_m2=1.0, mean_users_per_cluster=1.0, cluster_radius_m=0.0)
