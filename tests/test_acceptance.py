"""Acceptance suite: one test per numbered release criterion.

Each test condenses to a single ``CRITERION n: PASS/FAIL`` line (collected
into the terminal summary by conftest) plus an assertion carrying the same
message. The expensive multi-seed runs are module-scoped fixtures shared by
every criterion that reads them; everything runs at the built-in default
scenario unless a criterion says otherwise.
"""

import json
import math
import time

import numpy as np
import pytest

from reference_channel import (
    GOLDEN,
    ref_los_probability,
    ref_pathloss_db,
    ref_spectral_efficiency,
)
from test_cli import SMALL, read_tree

from droneplace.channel import (
    URBAN,
    LinkGeometry,
    los_probability,
    pathloss_db,
    spectral_efficiency,
)
from droneplace.cli import main
from droneplace.config import load_config
from droneplace.experiments import backhaul_sweep, rate_cdf_from_rates, robustness_eval
from droneplace.placement import optimal_placement
from droneplace.selection import SelectionInstance, solve_bnb, solve_brute_force
from droneplace.users import AreaBounds, ClusterConfig, assign_weights, sample_users

MODES = ("network_centric", "user_centric")


@pytest.fixture()
def criterion(criterion_report):
    def check(num: int, ok: bool, detail: str) -> None:
        line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        criterion_report.append(line)
        print(line)
        assert ok, line

    return check


@pytest.fixture(scope="module")
def defaults():
    return load_config()


@pytest.fixture(scope="module")
def census(defaults):
    """Optimal placement for both modes on the 20 default scenarios."""
    cfg = defaults
    runs = {mode: [] for mode in MODES}
    t0 = time.perf_counter()
    for seed in cfg.seeds:
        users = sample_users(cfg.bounds, cfg.cluster, cfg.rate_set_mbps, seed)
        for mode in MODES:
            res = optimal_placement(assign_weights(users, mode), cfg.system, cfg.environment)
            runs[mode].append(
                {
                    "h_m": res.placement.h_m,
                    "served_count": res.served_count,
                    "sum_rate_mbps": res.sum_rate_mbps,
                    "served_rates": [u.rate_mbps for u, s in zip(users, res.selected) if s],
                }
            )
    return {"runs": runs, "n_seeds": len(cfg.seeds), "elapsed_s": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def nc_sweep(defaults):
    """Backhaul sweep, default (network-centric) mode, 20 seeds x R=10..200."""
    cfg = defaults
    return backhaul_sweep(cfg.sweep_spec(), cfg.system, cfg.environment, cfg.cluster, cfg.rate_set_mbps)


@pytest.fixture(scope="module")
def robustness(defaults):
    out = {}
    for mode in MODES:
        cfg = load_config(overrides=[f"mode={mode}"])
        out[mode] = robustness_eval(
            cfg.robustness_spec(), cfg.system, cfg.environment, cfg.cluster, cfg.rate_set_mbps
        )
    return out


def test_criterion_1_solver_agrees_with_enumeration(criterion):
    # spectral efficiencies span the serviceable link budget, so bandwidth
    # needs cover the same range the placement search produces
    zeta_lo, zeta_hi = GOLDEN["zeta_pl120"], GOLDEN["zeta_pl100"]
    rate_set = np.array([0.1, 0.5, 1.0, 1.5, 2.0])
    rng = np.random.default_rng(20248086)
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(1, 21))
        rates = rng.choice(rate_set, n)
        bws = rates / rng.uniform(zeta_lo, zeta_hi, n)
        weights = rates.copy() if trial % 2 else np.ones(n)
        inst = SelectionInstance(
            weights,
            rates,
            bws,
            float(rng.uniform(0.2, 0.8) * rates.sum()),
            float(rng.uniform(0.2, 0.8) * bws.sum()),
        )
        if solve_bnb(inst).objective != solve_brute_force(inst).objective:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    criterion(
        1,
        ok,
        f"1000 random instances (n<=20): {mismatches} objective mismatches "
        f"vs full enumeration, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_optimum_sits_at_max_altitude(census, defaults, criterion):
    h_max = defaults.system.h_max_m
    n = census["n_seeds"]
    at_top = {m: sum(r["h_m"] == h_max for r in census["runs"][m]) for m in MODES}
    need = math.ceil(0.9 * n)
    ok = all(at_top[m] >= need for m in MODES) and census["elapsed_s"] < 600.0
    criterion(
        2,
        ok,
        f"altitude == {h_max:.0f} m in {at_top['network_centric']}/{n} network-centric "
        f"and {at_top['user_centric']}/{n} user-centric runs (need >= {need} each), "
        f"{census['elapsed_s']:.0f}s (< 600s)",
    )


def test_criterion_3_mode_tradeoff_holds_on_every_seed(census, criterion):
    nc = census["runs"]["network_centric"]
    uc = census["runs"]["user_centric"]
    count_viol = sum(a["served_count"] < b["served_count"] for a, b in zip(nc, uc))
    rate_viol = sum(b["sum_rate_mbps"] < a["sum_rate_mbps"] - 1e-9 for a, b in zip(nc, uc))
    ok = count_viol == 0 and rate_viol == 0
    criterion(
        3,
        ok,
        f"{len(nc)} seeds: {count_viol} served-count violations, "
        f"{rate_viol} sum-rate violations (0 allowed)",
    )


def test_criterion_4_pooled_rate_cdf_dominance(census, defaults, criterion):
    rate_set = defaults.rate_set_mbps
    cdf = {}
    for mode in MODES:
        pooled = [r for run in census["runs"][mode] for r in run["served_rates"]]
        cdf[mode] = rate_cdf_from_rates(pooled, rate_set)
    slack = [a - b for a, b in zip(cdf["network_centric"], cdf["user_centric"])]
    ok = all(s >= -1e-12 for s in slack)
    criterion(
        4,
        ok,
        "network-centric CDF minus user-centric CDF at each rate: "
        + ", ".join(f"{rho:g} Mbps: {s:+.3f}" for rho, s in zip(rate_set, slack)),
    )


def test_criterion_5_backhaul_sweep_shape(nc_sweep, criterion):
    x = list(nc_sweep.x_values)
    served = nc_sweep.metrics["served_count"]
    monotone = bool((np.diff(served, axis=1) >= 0).all())
    mean = served.mean(axis=0)
    # first capacity whose pooled mean already equals the final plateau; with
    # per-seed monotonicity nothing can increase past it
    r_star = x[int(np.flatnonzero(mean >= mean[-1] - 1e-9)[0])]
    used = nc_sweep.metrics["rate_used_mbps"].mean(axis=0)
    tight = [used[i] / x[i] for i in range(len(x)) if x[i] <= 40.0]
    ok = monotone and 100.0 <= r_star <= 200.0 and min(tight) >= 0.95
    criterion(
        5,
        ok,
        f"per-seed served counts monotone: {monotone}; saturation at R* = {r_star:.0f} Mbps "
        f"(in [100, 200], last step +{mean[-1] - mean[-2]:.2f} users); mean backhaul use "
        f"down to {min(tight):.1%} of R for R <= 40 Mbps (>= 95%)",
    )


def test_criterion_6_displacement_drop_rates(robustness, criterion):
    caps = {"network_centric": 3.0, "user_centric": 2.0}
    parts = []
    ok = True
    for mode in MODES:
        rep = robustness[mode]
        x = list(rep.x_values)
        dropped = rep.metrics["dropped_pct"]
        zero_exact = bool((dropped[:, x.index(0.0)] == 0.0).all())
        mean = dropped.mean(axis=0)
        at_100 = float(mean[x.index(100.0)])
        nondecreasing = bool((np.diff(mean) >= -1e-9).all())
        ok = ok and zero_exact and at_100 <= caps[mode] and nondecreasing
        parts.append(
            f"{mode}: {at_100:.2f}% mean dropped at 100 m (cap {caps[mode]:.0f}%), "
            f"zero at rest: {zero_exact}, non-decreasing: {nondecreasing}"
        )
    criterion(6, ok, "; ".join(parts))


def test_criterion_7_channel_chain_matches_reference(defaults, criterion):
    env = URBAN
    sysp = defaults.system
    bw_hz = sysp.bandwidth_mhz * 1e6
    h = 400.0
    r_at_a = h / math.tan(math.radians(env.a))  # horizontal distance with theta = a
    pairs = [
        (
            los_probability(LinkGeometry(r_at_a, h), env),
            ref_los_probability(r_at_a, h, env.a, env.b),
        ),
        (
            los_probability(LinkGeometry(0.0, h), env),
            ref_los_probability(0.0, h, env.a, env.b),
        ),
        (
            float(pathloss_db(0.0, h, env, sysp.carrier_hz)),
            ref_pathloss_db(0.0, h, env.a, env.b, env.eta_los_db, env.eta_nlos_db, sysp.carrier_hz),
        ),
        (
            float(pathloss_db(1000.0, h, env, sysp.carrier_hz)),
            ref_pathloss_db(1000.0, h, env.a, env.b, env.eta_los_db, env.eta_nlos_db, sysp.carrier_hz),
        ),
        (
            float(spectral_efficiency(100.0, sysp)),
            ref_spectral_efficiency(100.0, sysp.tx_power_w, sysp.noise_density_dbm_hz, bw_hz),
        ),
        (
            float(spectral_efficiency(120.0, sysp)),
            ref_spectral_efficiency(120.0, sysp.tx_power_w, sysp.noise_density_dbm_hz, bw_hz),
        ),
    ]
    rel = [abs(got - want) / abs(want) for got, want in pairs]
    ok = max(rel) <= 0.005
    criterion(
        7,
        ok,
        f"{len(pairs)} link-budget quantities vs the independent reference, "
        f"max relative error {max(rel):.2e} (<= 5e-3)",
    )


def test_criterion_8_cluster_process_statistics(defaults, criterion):
    cfg = defaults
    n_seeds = 10_000
    rate_set = cfg.rate_set_mbps

    totals = np.empty(n_seeds)
    for seed in range(n_seeds):
        totals[seed] = len(
            sample_users(cfg.bounds, cfg.cluster, rate_set, seed, resample_on_empty=False)
        )
    mean_total = float(totals.mean())
    want_total = cfg.cluster.parent_density_per_m2 * cfg.bounds.area_m2 * cfg.cluster.mean_users_per_cluster

    # daughter-to-parent scatter, observed by shrinking the parent rectangle
    # to a point at the origin (same parent count and per-cluster law)
    point = AreaBounds(0.0, 1e-3, 0.0, 1e-3)
    at_origin = ClusterConfig(
        parent_density_per_m2=cfg.cluster.parent_density_per_m2 * cfg.bounds.area_m2 / point.area_m2,
        mean_users_per_cluster=cfg.cluster.mean_users_per_cluster,
        cluster_radius_m=cfg.cluster.cluster_radius_m,
    )
    sq_dist = []
    for seed in range(n_seeds):
        users = sample_users(point, at_origin, rate_set, seed, resample_on_empty=False)
        sq_dist.extend(u.x_m * u.x_m + u.y_m * u.y_m for u in users)
    msd = float(np.mean(sq_dist))
    want_msd = cfg.cluster.cluster_radius_m**2 / 2.0

    ok = abs(mean_total - want_total) <= 0.05 * want_total and abs(msd - want_msd) <= 0.05 * want_msd
    criterion(
        8,
        ok,
        f"10^4 seeds: mean users {mean_total:.1f} (want {want_total:.0f} +/- 5%), "
        f"mean squared scatter {msd:.0f} m^2 (want {want_msd:.0f} +/- 5%)",
    )


def test_criterion_9_outputs_identical_across_reruns_and_threads(tmp_path, criterion):
    # a denser small grid, so every search has real work; at 8 threads the
    # drivers' points are spread over as many processes as there are cores
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(json.dumps({**SMALL, "grid_step_m": 50.0}))
    differing = []
    for sub in ("gen-users", "place", "sweep-backhaul", "robustness", "cdf"):
        trees = []
        for run, threads in (("a", "1"), ("b", "1"), ("c", "8"), ("d", "8")):
            out = tmp_path / f"{sub}-{run}{threads}"
            argv = [sub, "--config", str(cfg_path), "--threads", threads, "--output-dir", str(out)]
            if sub == "place":
                argv += ["--seed", "0"]
            assert main(argv) == 0
            trees.append(read_tree(out))
        if not all(t == trees[0] for t in trees[1:]):
            differing.append(sub)
    ok = not differing
    criterion(
        9,
        ok,
        "5 subcommands x 2 runs x {1, 8} threads byte-identical"
        + (f"; differing: {', '.join(differing)}" if differing else ""),
    )
