"""Monte-Carlo experiment drivers: rate CDFs, backhaul sweeps, robustness.

Each driver turns every seed of a list into weighted users
(:func:`population`), places the drone with :meth:`PlacementSearch.place`
and returns an ExperimentReport holding the raw per-seed values (long-format
CSV) plus deterministic metadata for the JSON sidecar.

A driver's points are independent: a (seed, R) pair of a backhaul sweep,
a seed of the robustness analysis or of the rate CDF. ``threads`` spreads
them over forked worker processes (:func:`_map_points`), which return
their results keyed by point and are written in point order. Reports are
thus byte-identical across thread counts and reruns; anything
non-deterministic (wall clock) stays on the console.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .channel import EnvironmentParams, pathloss_db
from .placement import PlacementSearch, SystemParams, _bandwidth_need
from .users import ClusterConfig, assign_weights, displace_users, sample_population

MODES = ("network_centric", "user_centric")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Backhaul capacity sweep: which R values, seeds and weighting to run."""

    backhaul_values_mbps: tuple[float, ...]
    seeds: tuple[int, ...]
    mode: str = "network_centric"

    def __post_init__(self):
        _check_mode(self.mode)
        if not self.backhaul_values_mbps or not self.seeds:
            raise ValueError("sweep needs at least one backhaul value and one seed")
        if any(
            b <= a for a, b in zip(self.backhaul_values_mbps, self.backhaul_values_mbps[1:])
        ):
            raise ValueError("backhaul_values_mbps must be strictly increasing")


@dataclass(frozen=True)
class RobustnessSpec:
    """Displacement robustness: move users, keep the plan, count the fallout."""

    displacement_values_m: tuple[float, ...]
    seeds: tuple[int, ...]
    mode: str = "network_centric"

    def __post_init__(self):
        _check_mode(self.mode)
        if not self.displacement_values_m or not self.seeds:
            raise ValueError("robustness needs at least one displacement and one seed")
        if any(d < 0 for d in self.displacement_values_m):
            raise ValueError("displacements must be non-negative")
        if any(
            b <= a for a, b in zip(self.displacement_values_m, self.displacement_values_m[1:])
        ):
            raise ValueError("displacement_values_m must be strictly increasing")


@dataclass
class ExperimentReport:
    """Raw per-seed experiment values plus aggregation helpers.

    ``metrics[name]`` is an (n_seeds, n_points) array aligned with ``seeds``
    and ``x_values``. ``std`` is the population standard deviation (ddof=0).
    """

    x_name: str
    x_values: list[float]
    seeds: list[int]
    metrics: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def mean(self, metric: str) -> np.ndarray:
        return self.metrics[metric].mean(axis=0)

    def std(self, metric: str) -> np.ndarray:
        return self.metrics[metric].std(axis=0)


# =====================================================================
# Rate CDF
# =====================================================================


def rate_cdf_from_rates(served_rates, rate_set_mbps) -> list[float]:
    """Fraction of the served rates at or under each value of the rate set.

    ``served_rates`` may pool several seeds and modes. Evaluated at the
    rate-set points in the order given; reaches 1 at the largest rate
    present. Errors on an empty pool.
    """
    rates = np.asarray(served_rates, dtype=float)
    if len(rates) == 0:
        raise ValueError("no served users; CDF undefined")
    return [float(np.mean(rates <= rho)) for rho in rate_set_mbps]


# =====================================================================
# Drivers
# =====================================================================


def population(sys: SystemParams, cluster: ClusterConfig, rate_set_mbps, seed, mode):
    """Seed ``seed``'s users weighted for ``mode``, and the sampler's resample count."""
    sample = sample_population(sys.bounds, cluster, rate_set_mbps, seed)
    return assign_weights(sample.users, mode), sample.resamples


def _map_points(threads: int, seeds, prepare, per_seed: int, run) -> list:
    """``run(prepare(seed), j)`` for every seed, then every ``j < per_seed``, in that order.

    Point k is (``seeds[k // per_seed]``, ``k % per_seed``). They run over
    W = min(threads, points, usable cores) processes. With W = 1 each seed
    is prepared just before its points run, in this process. Otherwise
    this process prepares every seed first, so the forked children inherit
    the geometry copy-on-write; point k goes to share k mod W, this
    process runs share 0 itself and W - 1 children send theirs back over a
    pipe. An exception in a child is raised here, and every child is
    joined before this returns, whichever way it returns.
    """
    n = len(seeds) * per_seed
    workers = min(threads, n, len(os.sched_getaffinity(0)))
    if workers == 1:
        out = []
        for seed in seeds:
            state = prepare(seed)
            out.extend(run(state, j) for j in range(per_seed))
        return out

    import multiprocessing

    states = [prepare(seed) for seed in seeds]

    def point(k):
        si, j = divmod(k, per_seed)
        return run(states[si], j)

    def serve(share, conn):  # a child's body
        try:
            reply = (True, [point(k) for k in share])
        except BaseException as e:  # re-raised by the parent
            reply = (False, e)
        conn.send(reply)

    ctx = multiprocessing.get_context("fork")
    out = [None] * n
    children = []
    try:
        for w in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=serve, args=(range(w, n, workers), send), daemon=True)
            proc.start()
            send.close()
            children.append((proc, recv))
        out[0::workers] = [point(k) for k in range(0, n, workers)]
        for w, (_, recv) in enumerate(children, 1):
            try:
                ok, value = recv.recv()
            except EOFError:
                raise RuntimeError("a worker process exited without its results") from None
            if not ok:
                raise value
            out[w::workers] = value
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            proc.join()
            recv.close()
    return out


def served_rates(
    sys: SystemParams, env: EnvironmentParams, cluster: ClusterConfig, rate_set_mbps,
    seeds, threads: int = 1,
) -> dict[str, list[float]]:
    """Required rates of the users each mode serves at each seed's best placement.

    Pooled over ``seeds`` in seed order, per mode. Positions, eligibility
    and link budgets do not depend on the mode, so each seed is sampled
    once and one search places it for every mode; a seed is one point of
    :func:`_map_points`.
    """

    def prepare(seed):
        users, _ = population(sys, cluster, rate_set_mbps, seed, MODES[0])
        return users, PlacementSearch(users, sys, env)

    def run(state, _):
        users, search = state
        served = {}
        for mode in MODES:
            if mode != MODES[0]:
                users = assign_weights(users, mode)
            result = search.place(weights=[u.weight for u in users])
            served[mode] = [u.rate_mbps for u in result.served(users)]
        return served

    per_seed = _map_points(threads, seeds, prepare, 1, run)
    return {mode: [r for served in per_seed for r in served[mode]] for mode in MODES}


def backhaul_sweep(
    spec: SweepSpec,
    sys: SystemParams,
    env: EnvironmentParams,
    cluster: ClusterConfig,
    rate_set_mbps,
    threads: int = 1,
) -> ExperimentReport:
    """Optimal placement per seed at every backhaul capacity value.

    The per-scenario geometry is built once per seed and shared across R
    values, and so are the link budgets each R value computes on demand
    within one process. Nothing else passes from one R value to the next:
    each point is what ``place`` gives at that R. A (seed, R) pair is one
    point of :func:`_map_points`, so ``threads`` splits even a one-seed
    sweep.
    """
    names = ("served_count", "objective", "rate_used_mbps", "bandwidth_used_mhz")
    resamples = []

    def prepare(seed):
        users, n_resamples = population(sys, cluster, rate_set_mbps, seed, spec.mode)
        resamples.append(n_resamples)
        return PlacementSearch(users, sys, env)

    def run(search, xi):
        res = search.place(spec.backhaul_values_mbps[xi])
        return [getattr(res, name) for name in names]

    n_x = len(spec.backhaul_values_mbps)
    cells = np.array(_map_points(threads, spec.seeds, prepare, n_x, run), dtype=float)
    cells = cells.reshape(len(spec.seeds), n_x, len(names))
    return ExperimentReport(
        x_name="backhaul_mbps",
        x_values=[float(v) for v in spec.backhaul_values_mbps],
        seeds=list(spec.seeds),
        metrics={name: cells[:, :, i].copy() for i, name in enumerate(names)},
        metadata={"mode": spec.mode, "resamples": resamples},
    )


def _displacement_seed(seed: int, point_index: int) -> int:
    # documented derivation so every (seed, delta) pair is reproducible
    return int(np.random.SeedSequence([seed, 1000 + point_index]).generate_state(1)[0])


def robustness_eval(
    spec: RobustnessSpec,
    sys: SystemParams,
    env: EnvironmentParams,
    cluster: ClusterConfig,
    rate_set_mbps,
    threads: int = 1,
) -> ExperimentReport:
    """Displace users after placement; the drone and its plan stay fixed.

    Per displacement distance: users served by the unperturbed optimum that
    now exceed the pathloss threshold are dropped; the survivors' bandwidth
    needs are recomputed at their new positions and, if the spectrum budget
    is violated, the largest consumers are dropped until it holds again
    (counted separately as resource drops). Dropped plus remaining equals the
    original served count exactly. A seed is one point of
    :func:`_map_points`.
    """
    names = ("remaining_served", "dropped_pct", "dropped_pathloss", "dropped_resource")
    resamples = []

    def prepare(seed):
        users, n_resamples = population(sys, cluster, rate_set_mbps, seed, spec.mode)
        resamples.append(n_resamples)
        return seed, users, PlacementSearch(users, sys, env)

    def run(state, _):
        seed, users, search = state
        result = search.place()
        served_idx = np.flatnonzero(np.array(result.selected))
        n_served = len(served_idx)
        if n_served == 0:
            raise RuntimeError("optimal placement served no users; robustness undefined")
        rows = []
        for xi, delta in enumerate(spec.displacement_values_m):
            if delta == 0:
                moved = users
            else:
                moved = displace_users(users, float(delta), _displacement_seed(seed, xi))
            mx = np.array([moved[i].x_m for i in served_idx])
            my = np.array([moved[i].y_m for i in served_idx])
            dist = np.hypot(mx - result.placement.x_m, my - result.placement.y_m)
            pl = pathloss_db(dist, result.placement.h_m, env, sys.carrier_hz)
            keep = pl <= sys.pl_max_db
            dropped_pl = int(np.sum(~keep))
            # survivors' bandwidth re-check at the new positions
            rates = np.array([moved[i].rate_mbps for i in served_idx])
            bw = _bandwidth_need(pl, rates, sys)
            dropped_res = 0
            bw_alive = np.where(keep, bw, 0.0)
            while np.sum(bw_alive) > sys.bandwidth_mhz + 1e-9:
                worst = int(np.argmax(bw_alive))
                bw_alive[worst] = 0.0
                keep[worst] = False
                dropped_res += 1
            remaining = int(np.sum(keep))
            assert remaining + dropped_pl + dropped_res == n_served
            dropped_pct = 100.0 * (n_served - remaining) / n_served
            rows.append((remaining, dropped_pct, dropped_pl, dropped_res))
        return rows

    cells = np.array(_map_points(threads, spec.seeds, prepare, 1, run), dtype=float)
    return ExperimentReport(
        x_name="displacement_m",
        x_values=[float(v) for v in spec.displacement_values_m],
        seeds=list(spec.seeds),
        metrics={name: cells[:, :, i].copy() for i, name in enumerate(names)},
        metadata={"mode": spec.mode, "resamples": resamples},
    )


# =====================================================================
# Emission
# =====================================================================


def write_report_csv(report: ExperimentReport, path) -> None:
    """Long-format CSV: seed,x_value,metric,value (floats via repr)."""
    with open(path, "w", newline="") as f:
        f.write("seed,x_value,metric,value\n")
        for si, seed in enumerate(report.seeds):
            for xi, x in enumerate(report.x_values):
                for name, values in report.metrics.items():
                    f.write(f"{seed},{x!r},{name},{float(values[si, xi])!r}\n")


def write_report_metadata(report: ExperimentReport, path, extra: dict | None = None) -> None:
    """Deterministic JSON sidecar: config echo, seeds, per-point summaries."""
    doc = {
        "x_name": report.x_name,
        "x_values": report.x_values,
        "seeds": report.seeds,
        "summary": {
            name: {
                "mean": [float(v) for v in report.mean(name)],
                "std": [float(v) for v in report.std(name)],
            }
            for name in sorted(report.metrics)
        },
        **report.metadata,
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
