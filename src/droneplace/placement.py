"""Optimal 3D drone placement by exhaustive candidate-grid search.

Every (x, y, h) grid candidate is scored by the exact selection optimum of
the users it can reach (pathloss within the service threshold). The result
is lexicographic, so that users can move without the drone having to:

1. the maximum objective;
2. among every placement and served set attaining it, the widest
   worst-case pathloss margin ``pl_max_db - max(served pathloss)``;
3. the first such candidate in grid order (x-major, then y, then h
   ascending), serving the lexicographically first optimal set of the users
   within that margin.

When the optimum serves nobody (no reachable user, or no budget) there is
no margin to widen, and the first candidate in grid order wins. A fixed
position is scored by the same search on a one-point grid
(:func:`evaluate_position`), so the two cannot apply different rules.

A best-first grid scan finds the maximum objective: candidates go by
eligible weight sum, highest first. The heaviest is solved on its own, and
the rest are screened in blocks against that incumbent by an admissible
upper bound (the fractional-relaxation bound, floored to the weight grid);
only a candidate whose bound can beat the incumbent is solved exactly, for
its value alone (:func:`~droneplace.selection.solve_value`). The
weight-side and backhaul-side bounds read each candidate's eligible users
per rate class, counted with the geometry, each class weighing as its
heaviest user: in both of the paper's weightings users of one required
rate weigh alike, so that is exact, and for any other weighting it only
loosens the bounds. The scan stops at the first whose weight sum, capped
by the backhaul-side bound of all users together, cannot; with
user-centric weights that is usually right after the first solve.
Pruning never changes the maximum, and the scan's order cannot change the
result: a margin stage then applies steps 2 and 3 over every candidate,
reading only the maximum from the scan, and builds the winner's served set
with one :func:`~droneplace.selection.solve_bnb` call. Both run on the calling
thread. One search is one point of the experiment drivers, which spread
their points over processes; a single placement starts none.

Pathloss rises strictly with horizontal distance, so one table per
altitude layer, of pathloss at evenly spaced horizontal distances, serves
both geometric screens. It gives the layer two radii around the service
threshold: a user inside the inner one is eligible, one beyond the outer
one is not, and exact pathloss decides only in the thin shell between
them. A link's bandwidth need is computed on demand, for the grid rows a
screen actually reads (:meth:`PlacementSearch.bw_rows`); the screens that
need no bandwidth go first. The margin stage orders each layer's
candidates by a lower bound taken from distances alone, the same table's
1/zeta (:meth:`PlacementSearch._distance_screen`), and reads link budgets
only for the candidates it visits before that bound passes its cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import EnvironmentParams, pathloss_db, spectral_efficiency
from .selection import (
    TIE_EPS,
    SelectionInstance,
    SelectionResult,
    _fill,
    _greedy_value,
    _grid_floor,
    _ratio_order,
    _value_grid,
    solve_bnb,
    solve_value,
)
from .users import AreaBounds

_CHUNK = 256  # candidates per screening block
_GEOMETRY_ROWS = 128  # grid rows per geometry block
# Fractional bounds hold each budget exactly, but the solvers accept a
# selection up to _SEARCH_EPS over it, which can be worth weight-per-cost
# times that much more; screens on those bounds leave this much room.
_LP_ROOM = 1e-6
# coverage radii sit this far either side of the service threshold, far
# above the float error of a pathloss evaluation (see PlacementSearch.__init__)
_RADIUS_MARGIN_DB = 0.01
# relative slack on squared radii, far above the rounding of dx*dx + dy*dy
# against np.hypot(dx, dy)**2 (a few ulp)
_SQUARED_SLACK = 1e-9
# distance steps of each layer's pathloss table; they only set how many
# links near the threshold get exact pathloss and how tight the margin
# stage's lower bounds are, never which links are eligible or the result
_TABLE_STEPS = 1024
# relative amount the table's 1/zeta values are lowered by, far above the
# float error of a pathloss, zeta and key evaluation (about 1e-13)
_TABLE_SLACK = 1e-9


@dataclass(frozen=True)
class Placement:
    """One drone position: horizontal coordinates and altitude, meters."""

    x_m: float
    y_m: float
    h_m: float


@dataclass(frozen=True)
class SystemParams:
    """Radio, budget and search-domain parameters of one scenario."""

    carrier_hz: float
    tx_power_w: float  # EIRP
    bandwidth_mhz: float  # spectrum budget B
    backhaul_mbps: float  # wireless backhaul budget R
    pl_max_db: float  # service pathloss threshold
    noise_density_dbm_hz: float
    bounds: AreaBounds
    h_min_m: float
    h_max_m: float
    grid_step_m: float
    noise_figure_db: float = 0.0

    def __post_init__(self):
        if self.carrier_hz <= 0 or self.tx_power_w <= 0:
            raise ValueError("carrier_hz and tx_power_w must be positive")
        if not 0 < self.bandwidth_mhz < math.inf:
            raise ValueError("bandwidth_mhz must be positive and finite")
        if not 0 <= self.backhaul_mbps < math.inf:
            raise ValueError("backhaul_mbps must be non-negative and finite")
        if self.pl_max_db <= 0:
            raise ValueError("pl_max_db must be positive")
        if not (0 < self.h_min_m <= self.h_max_m):
            raise ValueError("need 0 < h_min_m <= h_max_m")
        if self.grid_step_m <= 0:
            raise ValueError("grid_step_m must be positive")
        if self.noise_figure_db < 0:
            raise ValueError("noise_figure_db must be non-negative")

    @property
    def tx_power_dbm(self) -> float:
        return 10.0 * math.log10(self.tx_power_w * 1000.0)

    @property
    def noise_power_dbm(self) -> float:
        """Noise over the full system bandwidth plus noise figure."""
        return (
            self.noise_density_dbm_hz
            + 10.0 * math.log10(self.bandwidth_mhz * 1e6)
            + self.noise_figure_db
        )


@dataclass(frozen=True)
class PlacementResult:
    """Winning placement plus the exact selection found there."""

    placement: Placement
    selected: tuple[bool, ...]
    served_user_ids: tuple[int, ...]
    objective: float
    rate_used_mbps: float
    bandwidth_used_mhz: float
    candidates_evaluated: int
    solver_nodes: int

    @property
    def served_count(self) -> int:
        return int(sum(self.selected))

    @property
    def sum_rate_mbps(self) -> float:
        """Total required rate of the served users (equals the backhaul draw)."""
        return self.rate_used_mbps

    def served(self, users):
        """The users this result selects, in their original order."""
        return [u for u, s in zip(users, self.selected) if s]


def _axis_points(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive ticks from lo by step; a short final step is clamped to hi."""
    if hi < lo:
        raise ValueError("axis upper end below lower end")
    n = int(math.floor((hi - lo) / step + 1e-9))
    pts = lo + step * np.arange(n + 1)
    if abs(pts[-1] - hi) <= 1e-9 * max(1.0, abs(hi)):
        pts[-1] = hi
    elif pts[-1] < hi:
        pts = np.append(pts, hi)
    return pts


def _grid_axes(sys: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate grid's x, y and h ticks."""
    return (
        _axis_points(sys.bounds.x_min_m, sys.bounds.x_max_m, sys.grid_step_m),
        _axis_points(sys.bounds.y_min_m, sys.bounds.y_max_m, sys.grid_step_m),
        _axis_points(sys.h_min_m, sys.h_max_m, sys.grid_step_m),
    )


def candidate_grid(sys: SystemParams) -> list[Placement]:
    """All candidate placements, x-major, then y, then h ascending."""
    xs, ys, hs = _grid_axes(sys)
    return [
        Placement(float(x), float(y), float(h)) for x in xs for y in ys for h in hs
    ]


def _bandwidth_need(pl, rates, sys: SystemParams):
    """Bandwidth each link needs for its rate, ``rates / zeta`` in MHz.

    ``zeta`` is the link's spectral efficiency at pathloss ``pl``; a link
    with none (zeta <= 0) needs ``inf``. Every bandwidth need of the package
    comes from here, so the same link gets the same float everywhere.
    """
    zeta = spectral_efficiency(pl, sys)
    with np.errstate(divide="ignore"):
        return np.where(zeta > 0, rates / zeta, np.inf)


class _Weighting:
    """One weighting's tables on a search, kept while a sweep solves it at
    many backhaul values.

    ``w`` holds the users' weights and ``class_w`` the heaviest weight in
    each rate class of the search. In both of the paper's weightings that
    is every user's weight in the class; for any other it bounds them, so
    what reads ``class_w`` is an upper bound, and exact values come from
    ``w``. ``sum_w`` is each candidate's eligible weight by class,
    (n_xy, n_h), and ``order`` the candidates by it, highest first, ties in
    grid order: the scan's order. ``everyone`` is the class counts of all
    users.
    """

    def __init__(self, search, w):
        self.w = w
        self.key = w.tobytes()
        self.class_w = np.zeros(len(search.class_rates))
        np.maximum.at(self.class_w, search.user_class, w)
        self.sum_w = search.class_counts @ self.class_w
        self.everyone = search._one_hot.sum(axis=0)[None]
        # weight per rate does not depend on position: one item order serves every row
        self._by_ratio = _ratio_order(self.class_w, search.class_rates)
        self._w_g, self._r_g = self.class_w[self._by_ratio], search.class_rates[self._by_ratio]
        self.order = np.argsort(-self.sum_w.reshape(-1), kind="stable")

    def rate_fill(self, counts, R: float) -> np.ndarray:
        """Backhaul-side fractional fill (:func:`~droneplace.selection._fill`)
        of each row of class ``counts``. A class of k users is one item of k
        times its weight and rate, with the same weight per rate, so the
        fill is that of its users up to rounding, or bounds it where they
        weigh less than ``class_w``."""
        counts = counts[:, self._by_ratio]
        return _fill(counts > 0, counts * self._w_g, counts * self._r_g, R)[0]


class PlacementSearch:
    """Grid scan with per-scenario precomputation, reusable across budgets.

    Pathloss depends only on geometry, and per-user bandwidth need only on
    pathloss, so both are shared by every backhaul value and weighting of a
    sweep. Construction builds eligibility only, per altitude layer: a user
    inside the layer's inner radius is eligible, one beyond its outer radius
    is not, and exact pathloss decides the shell between them. Both radii
    come from the layer's table of pathloss at evenly spaced distances,
    which also gives the margin stage its lower bounds. Bandwidth need is
    computed on demand, a grid row at a time (:meth:`bw_rows`), and kept
    for later calls; ``rows_computed`` and ``links_computed`` count the
    (row, layer) pairs and the eligible links whose need has been computed.

    ``axes`` replaces the grid's x, y and h ticks (:func:`_grid_axes`); one
    tick per axis scores a fixed position (:func:`evaluate_position`).
    """

    def __init__(self, users, sys: SystemParams, env: EnvironmentParams, axes=None):
        self.users = list(users)
        self.sys = sys
        self.env = env
        if axes is None:
            axes = _grid_axes(sys)
        self.xs, self.ys, self.hs = (np.asarray(a, dtype=float) for a in axes)
        self.n_candidates = len(self.xs) * len(self.ys) * len(self.hs)

        n = len(self.users)
        self._ux = np.array([u.x_m for u in self.users])
        self._uy = np.array([u.y_m for u in self.users])
        self.rates = np.array([u.rate_mbps for u in self.users])
        self._gx = np.repeat(self.xs, len(self.ys))
        self._gy = np.tile(self.ys, len(self.xs))
        n_xy = len(self._gx)
        # Per layer, pathloss at evenly spaced horizontal distances from 0 to
        # `reach`, an upper bound on every link's distance. Pathloss rises
        # strictly with horizontal distance (free-space loss grows, and the
        # LoS-weighted excess can only grow since eta_nlos_db >= eta_los_db),
        # and its float evaluation is off by about 1e-13 dB. So a link nearer
        # than a step whose pathloss evaluates within pl_max_db -
        # _RADIUS_MARGIN_DB evaluates at least _RADIUS_MARGIN_DB - 2e-13 dB
        # under the threshold, and one farther than a step evaluating over
        # pl_max_db + _RADIUS_MARGIN_DB as much over it. The inner radius is
        # the last step of the first kind and the outer radius the first of
        # the second: `pathloss_db(dist) <= pl_max_db` accepts every link
        # inside the one and none beyond the other, and it decides the shell
        # between them. Where even `reach` stays within the inner level, the
        # inner radius is inf; where even distance 0 is over it, there is no
        # inner disc (its square is -1). Where `reach` stays within the outer
        # level, the outer radius is inf. The step count sets only the
        # shell's width, never which links are eligible. The margin stage
        # reads the same table's 1/zeta, a little lowered (see
        # _distance_screen).
        reach = np.hypot(
            np.ptp(np.append(self.xs, self._ux)), np.ptp(np.append(self.ys, self._uy))
        )
        steps = reach * np.linspace(0.0, 1.0, _TABLE_STEPS + 1)
        self._steps2 = steps * steps
        pl = pathloss_db(steps, self.hs[:, None], env, sys.carrier_hz)  # (n_h, len(steps))
        self._inv_zeta = _bandwidth_need(pl, 1.0, sys) * (1.0 - _TABLE_SLACK)
        under = pl <= sys.pl_max_db - _RADIUS_MARGIN_DB
        over = pl > sys.pl_max_db + _RADIUS_MARGIN_DB
        last_under = self._steps2[_TABLE_STEPS - np.argmax(under[:, ::-1], axis=1)]
        inner2 = np.where(under[:, -1], np.inf, np.where(np.any(under, axis=1), last_under, -1.0))
        inner2 *= 1.0 - _SQUARED_SLACK
        outer2 = np.where(np.any(over, axis=1), self._steps2[np.argmax(over, axis=1)], np.inf)
        outer2 *= 1.0 + _SQUARED_SLACK
        # one array per altitude layer: a single array for all layers raised
        # the resident peak of repeated searches by about 15%, most likely
        # because freeing one chunk that large lets the allocator keep more
        # freed heap
        self.eligible = [np.empty((n_xy, n), dtype=bool) for _ in self.hs]  # (n_xy, n)
        # rate classes: users needing one rate weigh alike in both of the
        # paper's weightings, so the screens count each candidate's eligible
        # users per class, each class weighing as its heaviest user (see
        # _Weighting), instead of reading them. float32 holds the counts
        # exactly, and casting a boolean block to it and multiplying costs
        # about half what float64 does
        self.class_rates, self.user_class = np.unique(self.rates, return_inverse=True)
        n_cls = len(self.class_rates)
        self._one_hot = (self.user_class[:, None] == np.arange(n_cls)).astype(np.float32)  # (n, n_cls)
        self.class_counts = np.empty((n_xy, len(self.hs), n_cls), dtype=np.float32)
        # squared horizontal distance of every (x, y) grid row to every user,
        # a block of rows at a time; exact pathloss only in each layer's shell
        for lo in range(0, n_xy, _GEOMETRY_ROWS):
            rows = slice(lo, lo + _GEOMETRY_ROWS)
            dx = self._gx[rows, None] - self._ux
            dy = self._gy[rows, None] - self._uy
            d2 = dx * dx + dy * dy
            for lay, h in enumerate(self.hs):
                el = np.less_equal(d2, inner2[lay], out=self.eligible[lay][rows])
                shell = np.flatnonzero((d2 <= outer2[lay]) & ~el)
                if len(shell):
                    dist = np.hypot(dx.reshape(-1)[shell], dy.reshape(-1)[shell])
                    pl = pathloss_db(dist, float(h), env, sys.carrier_hz)
                    el.reshape(-1)[shell] = pl <= sys.pl_max_db
                self.class_counts[rows, lay] = el.astype(np.float32) @ self._one_hot
        # bandwidth needs computed so far: per layer, grid row -> slot in
        # _bw, or -1
        self._slot = [np.full(n_xy, -1) for _ in self.hs]
        # compact store filled in the order rows are first asked for; its
        # pages stay untouched until written, so rows never asked for take
        # no resident memory
        self._bw = [np.empty((n_xy, n)) for _ in self.hs]
        self._filled = [0 for _ in self.hs]
        self.rows_computed = 0
        self.links_computed = 0
        self._weighting = None  # the last weighting's _Weighting

    def bw_rows(self, lay: int, rows) -> np.ndarray:
        """Bandwidth need of grid rows ``rows`` on layer ``lay``, (len(rows), n) MHz.

        ``inf`` wherever a user is not eligible. Rows not asked for before
        are computed now, from the same ``np.hypot`` distances, pathloss and
        :func:`_bandwidth_need` as every other link budget of the package,
        and kept for later calls.
        """
        rows = np.asarray(rows)
        slot = self._slot[lay]
        new = np.unique(rows[slot[rows] < 0])
        if len(new):
            # flat (row, user) indices of the eligible links
            link = np.flatnonzero(self.eligible[lay][new])
            at, user = np.divmod(link, len(self.users))
            at = new[at]
            dist = np.hypot(self._gx[at] - self._ux[user], self._gy[at] - self._uy[user])
            pl = pathloss_db(dist, float(self.hs[lay]), self.env, self.sys.carrier_hz)
            start = self._filled[lay]
            store = self._bw[lay][start:start + len(new)]
            store.fill(np.inf)
            store.reshape(-1)[link] = _bandwidth_need(pl, self.rates[user], self.sys)
            slot[new] = np.arange(start, start + len(new))
            self._filled[lay] += len(new)
            self.rows_computed += len(new)
            self.links_computed += len(link)
        return self._bw[lay][slot[rows]]

    def _candidate(self, c: int) -> Placement:
        n_h = len(self.hs)
        n_y = len(self.ys)
        row, lay = divmod(c, n_h)
        ix, iy = divmod(row, n_y)
        return Placement(float(self.xs[ix]), float(self.ys[iy]), float(self.hs[lay]))

    def place(self, backhaul_mbps: float | None = None, weights=None) -> PlacementResult:
        """Best placement: :meth:`solve`, then :meth:`result`.

        ``backhaul_mbps`` defaults to the scenario's, and ``weights`` to the
        users' own. Other weights reuse the search's geometry and link
        budgets, as when both weighting modes place the same population.
        """
        R = self.sys.backhaul_mbps if backhaul_mbps is None else float(backhaul_mbps)
        if weights is None:
            weights = [u.weight for u in self.users]
        return self.result(self.solve(weights, R), weights, R)

    def solve(self, weights, backhaul_mbps: float):
        """Best placement; returns (candidate_index, served_pool_mask, selection).

        The grid scan finds the maximum objective; the margin stage then
        picks, from that number alone, among every placement and served set
        attaining it, the one with the widest worst-case pathloss margin
        (see :meth:`_widest_margin`). ``selection`` runs over the users that
        ``served_pool_mask`` marks.
        """
        w = np.asarray(weights, dtype=float)
        R = float(backhaul_mbps)
        # a sweep solves one weighting at many R values: its tables are kept
        if self._weighting is None or self._weighting.key != w.tobytes():
            self._weighting = _Weighting(self, w)
        target = self._scan(self._weighting, R)
        return self._widest_margin(target, self._weighting, R)

    def _scan(self, wt, R: float) -> float:
        """The maximum objective over all candidates, found best-first.

        Candidates go by their eligible weight by class ``wt.sum_w``,
        highest first (ties in grid order, ``wt.order``). The first, the
        heaviest, is solved on its own, so every later block of ``_CHUNK``
        candidates is screened against a solved incumbent (Land and Doig's
        incumbent-first rule). A candidate's weight is bounded by ``top``,
        the backhaul-side fractional fill (``wt.rate_fill``) of all users,
        rounded down to the weight grid: the fill only grows with the item
        set. The scan stops at the first candidate whose weight, so capped,
        cannot beat the incumbent; with user-centric weights that is
        usually right after the first solve, once it reaches R. Within a
        block the bandwidth-free test goes first: a candidate whose own
        backhaul-side fill, so rounded, cannot beat the incumbent is dropped
        before its link budgets are read; it reads class counts, not users.
        Any other goes to :func:`~droneplace.selection.solve_value` only if
        the smaller of its backhaul- and bandwidth-side fills, so rounded,
        beats the incumbent (each row sorts its own items for the bandwidth
        side, over the users' own weights). No candidate comes back: the
        margin stage finds its own. The scan runs on the calling thread.
        """
        B = self.sys.bandwidth_mhz
        n_h = len(self.hs)
        w = wt.w
        q = _value_grid(w)
        weight = wt.sum_w.reshape(-1)
        order = wt.order
        top = _grid_floor(wt.rate_fill(wt.everyone, R)[0] + _LP_ROOM, q)
        bound = np.minimum(weight, top)

        # the incumbent also skips the bounds that merely tie it: any optimal
        # candidate will do
        best = skip_at = prune_below = -math.inf
        # the heaviest candidate alone, then blocks of _CHUNK
        edges = [0, *range(1, len(order), _CHUNK), len(order)]
        for lo, hi in zip(edges, edges[1:]):
            blk = order[lo:hi]
            blk = blk[bound[blk] > skip_at]
            if not len(blk):
                break
            rows, lays = np.divmod(blk, n_h)
            lp = wt.rate_fill(self.class_counts[rows, lays], R)
            # only rows the backhaul side leaves open can be solved, so only
            # they get link budgets
            open_ = np.flatnonzero(_grid_floor(lp + _LP_ROOM, q) > skip_at)
            blk, rows, lays, lp = blk[open_], rows[open_], lays[open_], lp[open_]
            el = np.empty((len(blk), len(w)), dtype=bool)
            bw = np.empty((len(blk), len(w)))
            for lay in range(n_h):
                at = lays == lay
                el[at] = self.eligible[lay][rows[at]]
                bw[at] = self.bw_rows(lay, rows[at])
            # bandwidth needs differ per row, and so does each row's item order
            by_bw = _ratio_order(w, bw)
            taken = np.take_along_axis(el, by_bw, axis=1)
            lp = np.minimum(lp, _fill(taken, w[by_bw], np.take_along_axis(bw, by_bw, axis=1), B)[0])
            ub = np.minimum(_grid_floor(lp + _LP_ROOM, q), bound[blk])
            for i in np.flatnonzero(ub > skip_at):
                if ub[i] <= skip_at:
                    continue
                mask = el[i]
                inst = SelectionInstance(w[mask], self.rates[mask], bw[i][mask], R, B)
                # subsets at different candidates can sum to the "same"
                # objective with ~1e-13 float noise: the solve returns a
                # value only for a genuine gain
                value = solve_value(inst, prune_below=prune_below)
                if value is not None:
                    best = value
                    skip_at, prune_below = best + 0.5 * TIE_EPS, best
        return best

    def _widest_margin(self, target: float, wt, R: float):
        """Among all placements attaining ``target``, the scan's maximum, the widest margin.

        A served set's margin is ``pl_max_db`` minus its worst served
        pathloss. At one candidate the widest margin comes from the tightest
        pathloss cut whose users still reach the target (:func:`_margin_cut`).
        The best cut starts open, at ``inf``. Layers go highest first, since
        high placements usually win and an early tight cut screens out most
        of the rest. Within a layer, candidates go in order of a lower bound
        on their own cut (:meth:`_contenders`), until the bound passes the
        best cut found. The cut tightens as the layer goes on, so each
        candidate is screened again at the current cut
        (:meth:`_distance_screen`) before its link budgets are read. An exact
        tie on the cut goes to the earlier candidate in grid order, so the
        winner is the least (cut, candidate) whatever order the candidates
        are visited in. Only the target comes from the scan, so which optimal
        candidate the scan met first cannot matter. With no user served (a
        target of 0, since weights are positive) there is no margin to
        widen, and the first candidate in grid order stands. The winner's
        served set comes from one ``solve_bnb`` call, at its cut.
        """
        B = self.sys.bandwidth_mhz
        w = wt.w
        if target == 0.0:
            pool = self.eligible[0][0]
            inst = SelectionInstance(w[pool], self.rates[pool], self.bw_rows(0, [0])[0][pool], R, B)
            return 0, pool, solve_bnb(inst)
        n_h = len(self.hs)
        # a set worth the target fills at least min(target, R * its lowest
        # weight per rate); when that reaches the target, no row can fail the
        # backhaul-side fill, and the screens skip it (as with user-centric
        # weights, whose weight per rate is 1 throughout)
        fill = R if R * np.min(w / self.rates) < target - _LP_ROOM else None
        cut, c = math.inf, None
        for lay in reversed(range(n_h)):
            for lb, cand in self._contenders(lay, wt, target, cut, fill):
                if lb > cut or (lb == cut and c is not None and cand > c):
                    break
                row = cand // n_h
                if not self._distance_screen(lay, np.array([row]), wt, target, cut, fill)[0][0]:
                    continue
                el = self.eligible[lay][row]
                found = _margin_cut(
                    w[el], self.rates[el], self.bw_rows(lay, [row])[0][el], R, B, target,
                    cut, c is None or cand < c,
                )
                if found is not None:
                    (cut, keep), c = found, int(cand)
        row, lay = divmod(c, n_h)
        pool = self.eligible[lay][row].copy()
        pool[np.flatnonzero(pool)[~keep]] = False
        bw = self.bw_rows(lay, [row])[0]
        inst = SelectionInstance(w[pool], self.rates[pool], bw[pool], R, B)
        return c, pool, solve_bnb(inst, prune_below=target - 2 * TIE_EPS)

    def _contenders(self, lay, wt, target: float, cut: float, fill):
        """One layer's candidates that may reach ``target`` within ``cut``.

        Returns an iterator of (bound, candidate) pairs, numpy scalars
        sorted by bound, then grid order, of the candidates
        :meth:`_distance_screen` keeps. The visit usually stops after a few,
        so none are made for the rest: a list of every pair left a
        user-centric ``place`` loop about 3.5 MiB more resident. The bound is
        a lower bound on the candidate's own cut, taken from distances
        alone, so no link budget is read here.

        ``fill`` is None, or the backhaul R when the backhaul-side
        fractional fill (``wt.rate_fill``) can screen anything (see
        :meth:`_widest_margin`). Then, before anything else, a candidate goes
        whose whole eligible set's fill falls short by more than twice the
        room: the fill is monotone in the item set, so the distance screen
        would drop it too, and this test is cheaper: it reads the
        candidate's class counts. Rows go in blocks so the temporaries stay
        small.
        """
        candidates = np.flatnonzero(wt.sum_w[:, lay] >= target - 2 * TIE_EPS)
        rows, lower = [candidates[:0]], [np.empty(0)]
        for lo in range(0, len(candidates), _CHUNK):
            blk = candidates[lo:lo + _CHUNK]
            if fill is not None:
                blk = blk[wt.rate_fill(self.class_counts[blk, lay], fill) >= target - 2 * _LP_ROOM]
            near, lb = self._distance_screen(lay, blk, wt, target, cut, fill)
            rows.append(blk[near])
            lower.append(lb)
        rows, lower = np.concatenate(rows), np.concatenate(lower)
        rank = np.lexsort((rows, lower))
        return zip(lower[rank], rows[rank] * len(self.hs) + lay)

    def _distance_screen(self, lay, rows, wt, target: float, cut: float, fill):
        """Distance-only screen and lower bounds of grid rows on layer ``lay``.

        Returns a mask of the rows that may reach ``target`` within ``cut``,
        and for each kept row a lower bound on its own cut. Reads no link
        budget. Pathloss, and with it 1/zeta, rises strictly with horizontal
        distance, and a key ``bw / rates`` is 1/zeta up to a few ulp. The
        layer's pathloss table (built with the search) gives 1/zeta,
        lowered by ``_TABLE_SLACK``, at evenly spaced distance steps from 0
        out to the farthest any link reaches, so:

        - a user whose key is at or under ``cut`` lies nearer than the
          first step whose table value exceeds ``cut``. The users within
          that radius include every user at or under ``cut``, so a row is
          kept only if they carry ``floor - TIE_EPS`` (``floor`` is
          ``target - 2 * TIE_EPS``) and, when ``fill`` is given (see
          :meth:`_contenders`), their backhaul-side fractional fill reaches
          ``target - _LP_ROOM``: weight and fill only grow with the item
          set, and :func:`_margin_cut` rejects a row that misses either at
          its loosest cut;
        - the users at or under a row's exact bound, the key at which its
          users taken by key first carry ``floor``, carry ``floor``, and
          none of them lies farther than its bound's user, give or take
          float error. Summed in distance order they carry at least
          ``floor - TIE_EPS``, since reordering a sum moves it by far less
          than ``TIE_EPS``. So they first do so at some distance ``d*`` no
          farther than the bound's user, and the table at the last step at
          or under ``d*``, the returned bound, is at most the exact bound.

        The slack covers the float error of 1/zeta, of a key against it, and
        of squared distances against ``np.hypot``, many times over. The
        weight and the fill within the radius come from the users' class
        counts there, by ``wt.class_w``, so they only bound the users' own;
        ``d*`` sums the users' own weights.
        """
        w = wt.w
        steps2, inv_zeta = self._steps2, self._inv_zeta[lay]
        over = np.flatnonzero(inv_zeta > cut)
        r2 = steps2[over[0]] * (1.0 + _SQUARED_SLACK) if len(over) else np.inf
        carry = target - 3 * TIE_EPS
        dx = self._gx[rows, None] - self._ux
        dy = self._gy[rows, None] - self._uy
        d2 = dx * dx + dy * dy
        el = self.eligible[lay][rows]
        inside = (el & (d2 <= r2)).astype(np.float32) @ self._one_hot  # class counts within the radius
        near = inside @ wt.class_w >= carry
        if fill is not None:
            kept = np.flatnonzero(near)
            near[kept] = wt.rate_fill(inside[kept], fill) >= target - _LP_ROOM
        d2 = np.where(el[near], d2[near], np.inf)
        order = np.argsort(d2, axis=1)
        cum = np.cumsum(w[order], axis=1)
        first = np.argmax(cum >= carry, axis=1)
        at = np.arange(len(d2))
        # a row whose users never carry it (float noise at the screen's
        # edge) gets the table's least value
        d_star2 = np.where(cum[at, first] >= carry, d2[at, order[at, first]], 0.0)
        return near, inv_zeta[np.searchsorted(steps2, d_star2, side="right") - 1]

    def result(self, best, weights, backhaul_mbps: float | None = None) -> PlacementResult:
        """Expand the output of :meth:`solve` into a verified PlacementResult."""
        c, mask, res = best
        R = self.sys.backhaul_mbps if backhaul_mbps is None else float(backhaul_mbps)
        w = np.asarray(weights, dtype=float)
        full = np.zeros(len(self.users), dtype=bool)
        full[np.flatnonzero(mask)[list(res.selected)]] = True
        lay, row = c % len(self.hs), c // len(self.hs)
        out = PlacementResult(
            placement=self._candidate(c),
            selected=tuple(bool(v) for v in full),
            served_user_ids=tuple(self.users[i].id for i in np.flatnonzero(full)),
            objective=float(np.sum(w[full])),
            rate_used_mbps=float(np.sum(self.rates[full])),
            bandwidth_used_mhz=float(np.sum(self.bw_rows(lay, [row])[0][full])),
            candidates_evaluated=self.n_candidates,
            solver_nodes=res.nodes_explored,
        )
        self._verify(out, R)
        return out

    def _verify(self, out: PlacementResult, backhaul_mbps: float) -> None:
        """Re-check the returned solution against the model from scratch."""
        served = np.array(out.selected)
        if not np.any(served):
            return
        ux = np.array([u.x_m for u in self.users])[served]
        uy = np.array([u.y_m for u in self.users])[served]
        dist = np.hypot(ux - out.placement.x_m, uy - out.placement.y_m)
        pl = pathloss_db(dist, out.placement.h_m, self.env, self.sys.carrier_hz)
        if np.any(pl > self.sys.pl_max_db):
            raise RuntimeError("served user beyond the pathloss threshold")
        if out.rate_used_mbps > backhaul_mbps + 1e-9:
            raise RuntimeError("backhaul budget exceeded")
        if out.bandwidth_used_mhz > self.sys.bandwidth_mhz + 1e-9:
            raise RuntimeError("bandwidth budget exceeded")


def _reach(w, r, b, R: float, B: float, target: float) -> bool:
    """Whether some selection of these users is worth ``target`` (within TIE_EPS).

    The fractional fills have already been ruled on, for every cut at once,
    by :func:`_margin_cut`; the cheap proofs left go first, the weight sum
    and the greedy value. The exact value
    (:func:`~droneplace.selection.solve_value`) is found only when neither
    settles it.
    """
    if np.sum(w) < target - TIE_EPS:
        return False
    if _greedy_value(w, r, b, R, B) >= target - TIE_EPS:
        return True
    return solve_value(SelectionInstance(w, r, b, R, B), prune_below=target - 2 * TIE_EPS) is not None


def _margin_cut(w, r, b, R: float, B: float, target: float, limit: float, inclusive: bool):
    """Tightest pathloss cut at which one position's users still reach ``target``.

    Users are ranked by 1/zeta = ``b / r``, which rises strictly with
    pathloss, so a cut on it is a cut on pathloss. Only cuts below
    ``limit`` count (or at it, when ``inclusive``). Returns the cut and the
    mask of users at or under it, or None when no such cut reaches the
    target.

    A cut whose smaller fractional fill
    (:func:`~droneplace.selection._fill`) falls short of the target by more
    than ``_LP_ROOM`` cannot reach it, and fills only grow with the cut, so
    the cuts they rule out come first. Both fills use one item order per
    budget: they are evaluated at the loosest cut, where most positions
    already fall short, and then at every cut at once. Reaching is monotone
    in the cut, so the cuts left are bisected with :func:`_reach`, after a
    first try at the tightest of them, which often reaches.
    """
    key = b / r
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True)) + 1
    cuts = ranked[ends - 1]
    ok = (cuts <= limit) if inclusive else (cuts < limit)
    ok &= np.cumsum(w[order])[ends - 1] >= target - 2 * TIE_EPS
    cuts = cuts[ok]
    if not len(cuts):
        return None
    budgets = []
    for cost, cap in ((r, R), (b, B)):
        by = _ratio_order(w, cost)  # one item order per budget, for every cut
        budgets.append((key[by], w[by], cost[by], cap))

    def fills_reach(at):
        """Whether both fills of the users at or under each cut ``at`` reach the target."""
        reach = np.ones(len(at), dtype=bool)
        for key_s, w_s, cost_s, cap in budgets:
            reach &= _fill(key_s <= at[:, None], w_s, cost_s, cap)[0] >= target - _LP_ROOM
        return reach

    if not fills_reach(cuts[-1:])[0]:
        return None
    cuts = cuts[np.argmax(fills_reach(cuts)):]

    def reaches(i: int) -> bool:
        m = key <= cuts[i]
        return _reach(w[m], r[m], b[m], R, B, target)

    lo, hi = 0, len(cuts) - 1
    if not reaches(lo):
        if lo == hi or not reaches(hi):
            return None
        lo += 1
        while lo < hi:
            mid = (lo + hi) // 2
            if reaches(mid):
                hi = mid
            else:
                lo = mid + 1
    return float(cuts[lo]), key <= cuts[lo]


def evaluate_position(users, placement: Placement, sys: SystemParams, env) -> SelectionResult:
    """Exact selection optimum with the drone fixed at one position.

    The grid search on a one-point grid, so the same rule applies: users
    beyond the pathloss threshold are excluded, and among optimal selections
    the one with the widest worst-case pathloss margin is served, the
    lexicographically first optimum of the users within that margin. The
    returned ``selected`` runs over the full user list.
    """
    axes = ([placement.x_m], [placement.y_m], [placement.h_m])
    res = PlacementSearch(users, sys, env, axes=axes).place()
    return SelectionResult(
        selected=res.selected,
        objective=res.objective,
        rate_used_mbps=res.rate_used_mbps,
        bandwidth_used_mhz=res.bandwidth_used_mhz,
        nodes_explored=res.solver_nodes,
    )


def optimal_placement(users, sys: SystemParams, env: EnvironmentParams) -> PlacementResult:
    """Best placement over the whole candidate grid.

    Deterministic: the maximum objective, then the widest worst-case
    pathloss margin of the served set, then the first candidate in grid
    order (see the module docstring). The search runs on the calling thread.
    """
    return PlacementSearch(users, sys, env).place()
