"""Experiment drivers: CDF helper, backhaul sweep, displacement robustness."""

import multiprocessing

import numpy as np
import pytest

from droneplace.channel import EnvironmentParams
from droneplace.experiments import (
    ExperimentReport,
    RobustnessSpec,
    SweepSpec,
    backhaul_sweep,
    rate_cdf_from_rates,
    robustness_eval,
    served_rates,
    write_report_csv,
    write_report_metadata,
)
from droneplace.placement import (
    Placement,
    PlacementResult,
    SystemParams,
    optimal_placement,
)
from droneplace.users import AreaBounds, ClusterConfig, User, assign_weights, sample_users

URBAN = EnvironmentParams(a=9.61, b=0.16, eta_los_db=1.0, eta_nlos_db=20.0)
RATES = [0.1, 0.5, 1.0, 1.5, 2.0]

BOUNDS = AreaBounds(0.0, 600.0, 0.0, 600.0)
CLUSTER = ClusterConfig(
    parent_density_per_m2=2.0 / BOUNDS.area_m2,
    mean_users_per_cluster=6.0,
    cluster_radius_m=80.0,
)


def small_system(**overrides) -> SystemParams:
    params = dict(
        carrier_hz=2e9,
        tx_power_w=5.0,
        bandwidth_mhz=15.0,
        backhaul_mbps=4.0,
        pl_max_db=120.0,
        noise_density_dbm_hz=-174.0,
        bounds=BOUNDS,
        h_min_m=100.0,
        h_max_m=200.0,
        grid_step_m=300.0,
    )
    params.update(overrides)
    return SystemParams(**params)


def fake_result(selected):
    return PlacementResult(
        placement=Placement(0.0, 0.0, 100.0),
        selected=tuple(selected),
        served_user_ids=tuple(i for i, s in enumerate(selected) if s),
        objective=float(sum(selected)),
        rate_used_mbps=0.0,
        bandwidth_used_mhz=0.0,
        candidates_evaluated=1,
        solver_nodes=0,
    )


def user_at(i, rate):
    return User(id=i, x_m=10.0 * i, y_m=0.0, rate_mbps=rate)


# ---------------------------------------------------------------------
# rate CDF
# ---------------------------------------------------------------------


def test_cdf_of_a_degenerate_rate_distribution_is_flat_one():
    cdf = rate_cdf_from_rates([0.1] * 5, RATES)
    assert cdf == [1.0, 1.0, 1.0, 1.0, 1.0]


def test_cdf_of_a_two_point_distribution():
    cdf = rate_cdf_from_rates([0.1, 2.0, 0.1, 2.0], RATES)
    assert cdf[0] == 0.5
    assert cdf[-1] == 1.0


def test_cdf_counts_only_served_users():
    users = [user_at(0, 0.1), user_at(1, 2.0)]
    served = fake_result([True, False]).served(users)
    assert served == [users[0]]
    cdf = rate_cdf_from_rates([u.rate_mbps for u in served], RATES)
    assert cdf == [1.0] * 5


def test_cdf_requires_a_served_user():
    with pytest.raises(ValueError, match="served"):
        rate_cdf_from_rates(np.array([]), RATES)
    with pytest.raises(ValueError, match="served"):
        rate_cdf_from_rates([], RATES)


def test_cdf_from_pooled_rates_matches_direct_computation():
    rng = np.random.default_rng(1)
    pool = rng.choice(RATES, size=200)
    cdf = rate_cdf_from_rates(pool, RATES)
    assert cdf == [float(np.mean(pool <= r)) for r in RATES]
    assert cdf[-1] == 1.0
    assert all(a <= b for a, b in zip(cdf, cdf[1:]))


# ---------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------


def test_sweep_spec_rejects_unordered_backhaul_values():
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec(backhaul_values_mbps=(10.0, 10.0), seeds=(0,))
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec(backhaul_values_mbps=(20.0, 10.0), seeds=(0,))


def test_sweep_spec_rejects_empty_axes_and_bad_modes():
    with pytest.raises(ValueError):
        SweepSpec(backhaul_values_mbps=(), seeds=(0,))
    with pytest.raises(ValueError):
        SweepSpec(backhaul_values_mbps=(10.0,), seeds=())
    with pytest.raises(ValueError, match="mode"):
        SweepSpec(backhaul_values_mbps=(10.0,), seeds=(0,), mode="greedy")


def test_robustness_spec_rejects_bad_displacements():
    with pytest.raises(ValueError, match="non-negative"):
        RobustnessSpec(displacement_values_m=(-1.0, 0.0), seeds=(0,))
    with pytest.raises(ValueError, match="strictly increasing"):
        RobustnessSpec(displacement_values_m=(0.0, 50.0, 50.0), seeds=(0,))


# ---------------------------------------------------------------------
# backhaul sweep
# ---------------------------------------------------------------------


def sweep_report(mode="network_centric", threads=1):
    spec = SweepSpec(backhaul_values_mbps=(1.0, 2.0, 4.0, 8.0), seeds=(0, 1, 2), mode=mode)
    return backhaul_sweep(spec, small_system(), URBAN, CLUSTER, RATES, threads=threads)


def test_sweep_served_count_is_monotone_per_seed():
    report = sweep_report()
    counts = report.metrics["served_count"]
    assert np.all(np.diff(counts, axis=1) >= 0)


def test_sweep_cells_match_independent_full_solves():
    report = sweep_report(mode="user_centric")
    for si, seed in enumerate(report.seeds):
        users = assign_weights(
            sample_users(BOUNDS, CLUSTER, RATES, seed), "user_centric"
        )
        for xi, R in enumerate(report.x_values):
            fresh = optimal_placement(users, small_system(backhaul_mbps=R), URBAN)
            assert report.metrics["objective"][si, xi] == fresh.objective
            assert report.metrics["served_count"][si, xi] == fresh.served_count


def test_sweep_is_thread_count_invariant():
    a = sweep_report(threads=1)
    b = sweep_report(threads=3)
    for name in a.metrics:
        assert np.array_equal(a.metrics[name], b.metrics[name])


def test_sweep_report_metadata_and_shape():
    report = sweep_report()
    assert report.x_name == "backhaul_mbps"
    assert report.metadata["mode"] == "network_centric"
    assert len(report.metadata["resamples"]) == 3
    for name in ("served_count", "objective", "rate_used_mbps", "bandwidth_used_mhz"):
        values = report.metrics[name]
        assert values.shape == (3, 4)
        assert np.all(report.mean(name) >= values.min(axis=0))
        assert np.all(report.mean(name) <= values.max(axis=0))


# ---------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------


def robustness_report(mode="network_centric"):
    spec = RobustnessSpec(
        displacement_values_m=(0.0, 50.0, 150.0), seeds=(0, 1, 2), mode=mode
    )
    return robustness_eval(spec, small_system(), URBAN, CLUSTER, RATES)


def test_no_displacement_drops_nobody():
    report = robustness_report()
    assert np.all(report.metrics["dropped_pct"][:, 0] == 0.0)
    assert np.all(report.metrics["dropped_pathloss"][:, 0] == 0.0)
    assert np.all(report.metrics["dropped_resource"][:, 0] == 0.0)


def test_drop_accounting_is_conservative():
    report = robustness_report(mode="user_centric")
    remaining = report.metrics["remaining_served"]
    by_pl = report.metrics["dropped_pathloss"]
    by_res = report.metrics["dropped_resource"]
    original = remaining[:, [0]]  # delta = 0 keeps everyone
    assert np.array_equal(remaining + by_pl + by_res, np.broadcast_to(original, remaining.shape))


def test_dropped_percentage_is_consistent_with_counts():
    report = robustness_report()
    remaining = report.metrics["remaining_served"]
    original = remaining[:, [0]]
    expect = 100.0 * (original - remaining) / original
    assert np.allclose(report.metrics["dropped_pct"], expect)


def test_same_seed_reuses_the_same_population():
    a = robustness_report()
    b = robustness_report()
    for name in a.metrics:
        assert np.array_equal(a.metrics[name], b.metrics[name])


# ---------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------


def report_bytes(report):
    return {name: values.tobytes() for name, values in report.metrics.items()}, report.metadata


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_drivers_are_identical_across_worker_processes(forked, workers):
    # 3 seeds x 4 R values split unevenly over every worker count; the
    # robustness and CDF drivers have 3 points, fewer than 5 workers
    spec = RobustnessSpec(displacement_values_m=(0.0, 50.0, 150.0), seeds=(0, 1, 2))
    runs = [
        (12, lambda threads: report_bytes(sweep_report(threads=threads))),
        (3, lambda threads: report_bytes(
            robustness_eval(spec, small_system(), URBAN, CLUSTER, RATES, threads=threads))),
        (3, lambda threads: served_rates(
            small_system(), URBAN, CLUSTER, RATES, (0, 1, 2), threads=threads)),
    ]
    for points, run in runs:
        lone = run(1)
        assert forked == []
        assert run(workers) == lone
        assert len(forked) == min(workers, points) - 1
        assert all(proc.exitcode == 0 for proc in forked)
        assert multiprocessing.active_children() == []
        forked.clear()


def test_served_rates_pool_the_seeds_in_order():
    pooled = served_rates(small_system(), URBAN, CLUSTER, RATES, (2, 0))
    parts = [served_rates(small_system(), URBAN, CLUSTER, RATES, (seed,)) for seed in (2, 0)]
    for mode, rates in pooled.items():
        assert rates == parts[0][mode] + parts[1][mode]
        assert len(rates) > 0


# ---------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------


def test_report_csv_layout_and_determinism(tmp_path):
    report = sweep_report()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(report, p1)
    write_report_csv(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "seed,x_value,metric,value"
    assert len(lines) == 1 + 3 * 4 * 4  # seeds x points x metrics
    seed, x, metric, value = lines[1].split(",")
    assert (seed, x, metric) == ("0", "1.0", "served_count")
    assert float(value) == report.metrics["served_count"][0, 0]


def test_metadata_sidecar_is_deterministic_and_complete(tmp_path):
    report = sweep_report()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report_metadata(report, p1, extra={"config_sha256_12": "abc"})
    write_report_metadata(report, p2, extra={"config_sha256_12": "abc"})
    assert p1.read_bytes() == p2.read_bytes()
    import json

    doc = json.loads(p1.read_text())
    assert doc["x_name"] == "backhaul_mbps"
    assert doc["seeds"] == [0, 1, 2]
    assert doc["config_sha256_12"] == "abc"
    assert set(doc["summary"]) == set(report.metrics)
    assert doc["summary"]["served_count"]["mean"] == [float(v) for v in report.mean("served_count")]


def test_report_means_are_recomputable_from_the_csv(tmp_path):
    report = robustness_report()
    path = tmp_path / "r.csv"
    write_report_csv(report, path)
    import csv

    raw = {}
    with open(path) as f:
        for row in csv.DictReader(f):
            key = (row["metric"], float(row["x_value"]))
            raw.setdefault(key, []).append(float(row["value"]))
    for name in report.metrics:
        for xi, x in enumerate(report.x_values):
            assert np.mean(raw[(name, x)]) == pytest.approx(report.mean(name)[xi])
