"""Untimed re-check of every CLI output the benchmark produced.

``place`` outputs are checked independently of the package's own solver
and channel code: users are rebuilt with ``sample_population``, served
links are recomputed with the package-free ``tests/reference_channel.py``,
and optimality of the served set at the returned position is re-proved
with ``scipy.optimize.milp``. Objectives (never placements or served sets,
which a tie-break change may move) are compared against ``golden.json``.
``sweep-backhaul`` CSVs get the golden and budget checks.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from common import TESTS, golden_key, read_placement, read_sweep

OBJECTIVE_TOL = 1e-9  # user-centric sums round differently per tied subset
FEAS_TOL = 1e-9  # slack on the pathloss threshold and the two budgets
MILP_TOL = 1e-6  # HiGHS works to 1e-6 feasibility; objectives step by >= 0.1


def _scipy_milp():
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as e:  # a missing checker must never pass silently
        raise SystemExit(f"perfbench: scipy.optimize.milp is required: {e}") from e
    return Bounds, LinearConstraint, milp


def _reference_channel():
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    import reference_channel

    return reference_channel


class Checker:
    def __init__(self, cli, golden: dict):
        self.cfg = cli.load_config()
        self.sample_population = cli.sample_population
        self.golden = golden
        self.ref = _reference_channel()
        self.Bounds, self.LinearConstraint, self.milp = _scipy_milp()
        self._users: dict[int, list] = {}
        self._optimum: dict[tuple, float] = {}

    # -- helpers -----------------------------------------------------------

    def _golden(self, mode: str, seed: int, r_mbps: float) -> float:
        try:
            return self.golden["objectives"][mode][str(seed)][golden_key(r_mbps)]
        except KeyError:
            raise ValueError(f"no golden objective for ({mode}, {seed}, {r_mbps})") from None

    def _population(self, seed: int) -> list:
        if seed not in self._users:
            cfg = self.cfg
            sample = self.sample_population(cfg.bounds, cfg.cluster, cfg.rate_set_mbps, seed)
            self._users[seed] = list(sample.users)
        return self._users[seed]

    def _links(self, users, x: float, y: float, h: float):
        """Reference pathloss (dB) and bandwidth need (MHz) of each user."""
        r, ref = self.cfg.resolved, self.ref
        pl = [ref.ref_pathloss_db(math.hypot(u.x_m - x, u.y_m - y), h, r["a"], r["b"],
                                  r["eta_los_db"], r["eta_nlos_db"], r["carrier_hz"])
              for u in users]
        bw = [ref.ref_bandwidth_mhz(u.rate_mbps, p, r["tx_power_w"], r["noise_density_dbm_hz"],
                                    r["bandwidth_mhz"] * 1e6, r["noise_figure_db"])
              for u, p in zip(users, pl)]
        return np.array(pl), np.array(bw)

    def _milp_optimum(self, w, rates, bws, R, B) -> float:
        """Best objective of the 0/1 selection, proved by HiGHS."""
        if len(w) == 0:
            return 0.0
        caps = np.array([R, B])
        for slack in (0.0, 2 * MILP_TOL):
            res = self.milp(
                -w,
                integrality=np.ones(len(w)),
                bounds=self.Bounds(0, 1),
                constraints=self.LinearConstraint(np.vstack([rates, bws]), -np.inf, caps - slack),
                options={"mip_rel_gap": 0.0},
            )
            if not res.success:
                raise ValueError(f"milp failed: {res.message}")
            x = np.round(res.x).astype(bool)
            # accept only a solution that is feasible at full precision; one
            # that HiGHS let through on its own tolerance is re-solved tighter
            if math.fsum(rates[x]) <= R + FEAS_TOL and math.fsum(bws[x]) <= B + FEAS_TOL:
                return -res.fun
        raise ValueError("milp found no selection feasible at full precision")

    # -- place -------------------------------------------------------------

    def check_place(self, out_dir: Path, mode: str, seed: int) -> list[str]:
        doc, rows = read_placement(out_dir)
        cfg = self.cfg
        R, B = cfg.system.backhaul_mbps, cfg.system.bandwidth_mhz
        errors = []
        if doc["seed"] != seed or doc["mode"] != mode:
            errors.append(f"ran seed {doc['seed']} mode {doc['mode']}")
        objective = doc["objective"]
        golden = self._golden(mode, seed, R)
        if abs(objective - golden) > OBJECTIVE_TOL:
            errors.append(f"objective {objective!r} != golden {golden!r}")

        users = self._population(seed)
        by_id = {u.id: u for u in users}
        ids = doc["served_user_ids"]
        if len(set(ids)) != len(ids) or not set(ids) <= by_id.keys():
            return errors + ["served ids are not distinct ids of the population"]
        if [int(row["id"]) for row in rows] != ids:
            errors.append("served CSV ids differ from the placement JSON")
        for row in rows:
            u = by_id[int(row["id"])]
            if (float(row["x_m"]), float(row["y_m"]), float(row["rate_mbps"])) != (
                u.x_m, u.y_m, u.rate_mbps
            ):
                errors.append(f"served CSV row of user {u.id} differs from the population")
                break
        if doc["served_count"] != len(ids):
            errors.append("served_count differs from the served ids")

        p = doc["placement"]
        x, y, h = p["x_m"], p["y_m"], p["h_m"]
        b = cfg.bounds
        if not (b.x_min_m <= x <= b.x_max_m and b.y_min_m <= y <= b.y_max_m
                and cfg.system.h_min_m <= h <= cfg.system.h_max_m):
            errors.append(f"placement {p} outside the search domain")

        weight = (lambda u: 1.0) if mode == "network_centric" else (lambda u: u.rate_mbps)
        pl, bw = self._links(users, x, y, h)
        index = {u.id: i for i, u in enumerate(users)}
        served = np.array([index[i] for i in ids], dtype=int)
        pl_max = cfg.system.pl_max_db
        if np.any(pl[served] > pl_max + FEAS_TOL):
            errors.append("a served user is beyond the pathloss threshold")
        rate_used = math.fsum(users[i].rate_mbps for i in served)
        bw_used = math.fsum(bw[served])
        if rate_used > R + FEAS_TOL:
            errors.append(f"rate used {rate_used!r} exceeds R = {R}")
        if bw_used > B + FEAS_TOL:
            errors.append(f"bandwidth used {bw_used!r} exceeds B = {B}")
        for key, value in (("rate_used_mbps", rate_used), ("bandwidth_used_mhz", bw_used),
                           ("objective", math.fsum(weight(users[i]) for i in served))):
            if abs(doc[key] - value) > FEAS_TOL:
                errors.append(f"{key} {doc[key]!r} != recomputed {value!r}")

        key = (mode, seed, x, y, h)
        if key not in self._optimum:
            eligible = pl <= pl_max
            el_users = [u for u, e in zip(users, eligible) if e]
            self._optimum[key] = self._milp_optimum(
                np.array([weight(u) for u in el_users]),
                np.array([u.rate_mbps for u in el_users]),
                bw[eligible], R, B,
            )
        best = self._optimum[key]
        if abs(best - objective) > MILP_TOL:
            errors.append(f"objective {objective!r} but milp optimum here is {best!r}")
        return errors

    # -- sweep-backhaul ----------------------------------------------------

    def check_sweep(self, out_dir: Path, mode: str, seed: int) -> list[str]:
        table = read_sweep(out_dir)
        grid = self.golden["backhaul_values_mbps"]
        B = self.cfg.system.bandwidth_mhz
        if sorted(table) != sorted(grid):
            return [f"swept R values {sorted(table)} != {grid}"]
        errors = []
        for r_mbps in grid:
            row = table[r_mbps]
            golden = self._golden(mode, seed, r_mbps)
            if abs(row["objective"] - golden) > OBJECTIVE_TOL:
                errors.append(f"R={r_mbps}: objective {row['objective']!r} != golden {golden!r}")
            if row["rate_used_mbps"] > r_mbps + FEAS_TOL:
                errors.append(f"R={r_mbps}: rate used {row['rate_used_mbps']!r} exceeds R")
            if row["bandwidth_used_mhz"] > B + FEAS_TOL:
                errors.append(f"R={r_mbps}: bandwidth used {row['bandwidth_used_mhz']!r} exceeds B")
            if mode == "network_centric" and row["served_count"] != row["objective"]:
                errors.append(f"R={r_mbps}: served_count differs from the objective")
        return errors
