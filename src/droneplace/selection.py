"""Exact user selection under backhaul and bandwidth budgets.

Given per-user weights, required rates and required bandwidths, pick the
0/1 subset maximizing total weight subject to two knapsack constraints
(sum of rates <= backhaul capacity, sum of bandwidths <= spectrum). Solved
exactly by one depth-first branch-and-bound pass, with same-class dominance
among users of equal weight and rate; a full-enumeration solver is kept
alongside as an independent oracle for tests. When only the optimum's value
is needed, :func:`solve_value` finds it over per-class counts instead.

Quantities are expected in Mbps / MHz so magnitudes sit near 1 and the
absolute tolerances below behave uniformly.

Determinism and ties
--------------------
Objectives within TIE_EPS are treated as ties, broken toward the
lexicographically preferred indicator vector: scanning user indices
ascending, inclusion wins at the first difference. The branch-and-bound
visits complete solutions exactly in that preference order (index-order
branching, include-before-exclude), so its first incumbent at the optimal
value is the tie-break winner and tie subtrees can be pruned; dominance
skips only selections beaten by an earlier one of equal value. The oracle
applies the same rule explicitly. Agreement of the two solvers assumes
genuine objective gaps are large against TIE_EPS (weights on a 0.1 grid
give gaps >= ~0.1; TIE_EPS is 1e-9).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

FEAS_EPS = 1e-9  # documented slack on the result invariants
TIE_EPS = 1e-9  # objective values closer than this count as equal
_SEARCH_EPS = FEAS_EPS / 2  # internal feasibility slack; keeps recomputed
# sums (pairwise np.sum vs incremental) inside FEAS_EPS of the caps

BRUTE_FORCE_MAX_USERS = 25


@dataclass
class SelectionInstance:
    """One selection problem: parallel per-user arrays plus the two caps."""

    weights: np.ndarray  # objective weight per user, > 0
    rates_mbps: np.ndarray  # backhaul consumption per user, >= 0
    bandwidths_mhz: np.ndarray  # spectrum consumption per user, >= 0
    backhaul_cap_mbps: float
    bandwidth_cap_mhz: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.rates_mbps = np.asarray(self.rates_mbps, dtype=float)
        self.bandwidths_mhz = np.asarray(self.bandwidths_mhz, dtype=float)
        n = len(self.weights)
        if len(self.rates_mbps) != n or len(self.bandwidths_mhz) != n:
            raise ValueError("weights, rates and bandwidths must have equal length")
        if n and not np.all(self.weights > 0):
            raise ValueError("weights must be positive")
        if n and (np.any(self.rates_mbps < 0) or np.any(self.bandwidths_mhz < 0)):
            raise ValueError("rates and bandwidths must be non-negative")
        if not (math.isfinite(self.backhaul_cap_mbps) and math.isfinite(self.bandwidth_cap_mhz)):
            raise ValueError("capacities must be finite")
        if self.backhaul_cap_mbps < 0 or self.bandwidth_cap_mhz < 0:
            raise ValueError("capacities must be non-negative")

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one exact solve."""

    selected: tuple[bool, ...]
    objective: float
    rate_used_mbps: float
    bandwidth_used_mhz: float
    nodes_explored: int

    @property
    def served_count(self) -> int:
        return int(sum(self.selected))


def _finalize(inst: SelectionInstance, mask: np.ndarray, nodes: int) -> SelectionResult:
    # canonical recompute: np.sum over ascending indices, identical in both
    # solvers, so equal selections give bitwise-equal reported sums
    mask = np.asarray(mask, dtype=bool)
    return SelectionResult(
        selected=tuple(bool(v) for v in mask),
        objective=float(np.sum(inst.weights[mask])),
        rate_used_mbps=float(np.sum(inst.rates_mbps[mask])),
        bandwidth_used_mhz=float(np.sum(inst.bandwidths_mhz[mask])),
        nodes_explored=nodes,
    )


# =====================================================================
# Brute-force oracle
# =====================================================================


def solve_brute_force(inst: SelectionInstance) -> SelectionResult:
    """Enumerate all subsets; same tie rule as :func:`solve_bnb`.

    Subset sums are built by doubling (each subset accumulates in ascending
    index order, matching the search's incremental sums). Guarded to
    BRUTE_FORCE_MAX_USERS users.
    """
    n = inst.n
    if n > BRUTE_FORCE_MAX_USERS:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_USERS} users, got {n}")
    obj = np.zeros(1)
    rate = np.zeros(1)
    bw = np.zeros(1)
    for i in range(n):
        obj = np.concatenate([obj, obj + inst.weights[i]])
        rate = np.concatenate([rate, rate + inst.rates_mbps[i]])
        bw = np.concatenate([bw, bw + inst.bandwidths_mhz[i]])
    feasible = (rate <= inst.backhaul_cap_mbps + _SEARCH_EPS) & (
        bw <= inst.bandwidth_cap_mhz + _SEARCH_EPS
    )
    best = np.max(obj[feasible])  # subset 0 is always feasible
    ties = np.flatnonzero(feasible & (obj >= best - TIE_EPS))
    # lexicographic preference = maximize the bit-reversed mask (user 0 most
    # significant, inclusion preferred)
    keys = np.zeros(len(ties), dtype=np.uint64)
    for i in range(n):
        keys |= (((ties.astype(np.uint64) >> np.uint64(i)) & np.uint64(1))) << np.uint64(
            n - 1 - i
        )
    winner = int(ties[int(np.argmax(keys))])
    mask = np.array([(winner >> i) & 1 for i in range(n)], dtype=bool)
    return _finalize(inst, mask, nodes=2**n)


# =====================================================================
# Fractional-relaxation bounds
# =====================================================================


def _ratio_order(w, c):
    """Indices that sort items by weight per cost, highest first: the item
    order of :func:`_fill`. Stable, so ties go by index, and zero-cost items
    (an infinite ratio) come first. ``c`` may hold one cost row per row of
    items; the order is then per row."""
    with np.errstate(divide="ignore"):
        return np.argsort(-(w / c), axis=-1, kind="stable")


def _fill(taken, w, c, cap):
    """Fractional fill of one budget, row by row: (value, critical ratio).

    Dantzig's bound, the LP relaxation of a 0/1 knapsack (Martello & Toth,
    *Knapsack Problems*, 1990, ch. 2). ``taken`` is a (rows, items) mask;
    ``w`` and ``c`` hold the items' weights and costs, shared by every row
    (items,) or per row (rows, items), each row in :func:`_ratio_order`.
    ``cap`` is a scalar or one value per row, and counts as 0 below 0. A
    row's taken items go in whole while their running cost stays within
    ``cap + 1e-12``, and the first that does not goes in for the room left.
    That item's weight per cost is the row's critical ratio t, or 0 when
    every taken item goes in whole: the minimizer of the Lagrangian dual
    ``G(t) = sum(max(0, w_i - t*c_i)) + t*cap`` over the taken items, which
    bounds every selection within the cap. Untaken items' costs are never
    read, so they may be ``inf``.
    """
    rows = len(taken)
    if not taken.shape[1]:
        return np.zeros(rows), np.zeros(rows)
    cap = np.maximum(cap, 0.0)
    cost = np.where(taken, c, 0.0)
    cum = cost.cumsum(axis=1)
    # costs only add up, so the items that go in whole come first, and the
    # first item past the cap is a taken one: the one that goes in partly
    over = cum > (cap[:, None] if np.ndim(cap) else cap) + 1e-12
    whole = taken & ~over
    value = whole @ w if w.ndim == 1 else np.where(whole, w, 0.0).sum(axis=1)
    at = np.arange(rows)
    j = over.argmax(axis=1)
    part = over[at, j]
    w_j = w[at, j] if w.ndim == 2 else w[j]
    c_j = np.where(part, cost[at, j], 1.0)
    room = cap - np.where(j > 0, cum[at, j - 1], 0.0)
    # a select, not a product: under an inf cap the room is inf
    value += np.where(part, w_j * np.maximum(room, 0.0) / c_j, 0.0)
    return value, part * (w_j / c_j)


def _rays(r, b, R, B):
    """The single budgets every selection under both caps meets: (mus, costs, caps).

    Row 0 is the backhaul budget and row 1 the bandwidth budget. For each
    mu >= 0 the mixed surrogate ``sum((r_i + mu*b_i) x_i) <= R + mu*B``
    follows from the two; ``mus`` lists those of rows 2.., ``(R/B) * 4**k``
    for k in -4..4, or none unless both caps are positive and finite.
    """
    mus = []
    if R > 0 and B > 0 and math.isfinite(R) and math.isfinite(B):
        mus = [(R / B) * 4.0**k for k in range(-4, 5)]
    mu = np.array(mus)[:, None]
    costs = np.concatenate([[r, b], r + mu * b])
    caps = np.array([R, B] + [R + m * B for m in mus])
    return mus, costs, caps


def _ray_fills(w, costs, caps):
    """:func:`_fill` of every item on each ray: (value, critical ratio) per ray."""
    order = _ratio_order(w, costs)
    taken = np.ones(costs.shape, dtype=bool)
    return _fill(taken, w[order], np.take_along_axis(costs, order, axis=1), caps)


def _value_grid(weights) -> float | None:
    """Detect whether all weights sit on a coarse value grid (1, 0.1 or 0.01)."""
    for q in (1.0, 0.1, 0.01):
        scaled = weights / q
        if np.all(np.abs(scaled - np.round(scaled)) <= 1e-9):
            return q
    return None


def _grid_floor(x, q: float | None):
    """Round bounds down to the weight grid ``q`` (None: weights on no grid)."""
    return x if q is None else q * np.floor(x / q + 1e-9)


class _ReachableSums:
    """Exact subset-sum reachability of grid-valued rates, per suffix.

    When the objective weight of every user equals its rate (the sum-rate
    weighting), the fractional rate bound degenerates to "fill the whole
    remaining capacity" at every node, which prunes nothing whenever the
    optimum is below the cap. With rates on a coarse grid the true maximum
    achievable rate-sum of a suffix is cheap to precompute as bitmask
    subset-sum tables (bit v of ``reach[k]`` = some subset of users k..
    sums to v grid units), giving an exact - hence admissible - rate-side
    bound that replaces the vacuous relaxation.
    """

    MAX_UNITS = 1_000_000

    def __init__(self, units: list[int], cap_units: int):
        full = (1 << (cap_units + 1)) - 1
        m = len(units)
        reach = [0] * (m + 1)
        reach[m] = 1  # empty suffix reaches only 0
        for k in range(m - 1, -1, -1):
            prev = reach[k + 1]
            reach[k] = (prev | (prev << units[k])) & full
        self.reach = reach
        self.cap_units = cap_units

    @classmethod
    def build(cls, rates: np.ndarray, cap: float, grid: float | None):
        if grid is None:
            return None
        cap_units = int((cap + _SEARCH_EPS) / grid)
        if cap_units > cls.MAX_UNITS:
            return None
        units = [int(round(v / grid)) for v in rates]
        return cls(units, cap_units)

    def max_reachable(self, k: int, cap_units: int) -> int:
        """Largest reachable sum (grid units) of suffix k under cap_units."""
        bits = self.reach[k]
        if cap_units < self.cap_units:
            bits &= (1 << (cap_units + 1)) - 1
        return bits.bit_length() - 1


# =====================================================================
# Branch and bound
# =====================================================================


class _SuffixBounds:
    """Per-suffix fractional-greedy tables for one constraint.

    Branching in index order keeps every node's free set a suffix, so the
    greedy order restricted to users k.. can be precomputed and each node's
    bound becomes one binary search. Every depth's running sums are built
    at once: row k keeps the whole ratio order with the items before k
    zeroed, and adding 0.0 leaves a running sum unchanged, so the row
    equals the running sums of items k.. alone, bit for bit, and one list
    of item weights and costs serves every depth. A depth's first visit
    searches its numpy row; a depth visited again gets plain lists, since
    bound() runs millions of times on hard instances and scalar bisect on
    a list is roughly an order of magnitude cheaper than numpy element
    access or a searchsorted call. A dive visits most depths once.
    """

    def __init__(self, weights, costs):
        m = len(weights)
        order = _ratio_order(weights, costs)
        c, w = costs[order], weights[order]
        self.item_c = c.tolist()
        self.item_w = w.tolist()
        later = order >= np.arange(m + 1)[:, None]  # (m + 1, m): row k, items k..
        self._rows_c = np.where(later, c, 0.0).cumsum(axis=1)
        self._rows_w = np.where(later, w, 0.0).cumsum(axis=1)
        # per depth: None before its first visit, False after it, then lists
        self.cum_c: list = [None] * (m + 1)
        self.cum_w: list = [None] * (m + 1)

    def bound(self, k: int, cap: float) -> float:
        cum_c = self.cum_c[k]
        if cum_c is None:
            self.cum_c[k] = False
            cum_c, cum_w = self._rows_c[k], self._rows_w[k]
        elif cum_c is False:
            cum_c = self.cum_c[k] = self._rows_c[k].tolist()
            cum_w = self.cum_w[k] = self._rows_w[k].tolist()
        else:
            cum_w = self.cum_w[k]
        return _sorted_fill(cum_c, cum_w, self.item_w, self.item_c, cap)


def _sorted_fill(cum_c, cum_w, item_w, item_c, cap: float) -> float:
    """:func:`_fill` of one row by binary search: ``item_w`` and ``item_c``
    in :func:`_ratio_order`, with running sums ``cum_w`` and ``cum_c``."""
    if cap < 0.0:
        cap = 0.0
    j = bisect_right(cum_c, cap + 1e-12)
    total = cum_w[j - 1] if j else 0.0
    if j < len(cum_c):
        rem = cap - (cum_c[j - 1] if j else 0.0)
        c_next = item_c[j]
        if rem > 0 and c_next > 0:
            total += item_w[j] * rem / c_next
    return total


def _pick_surrogate_mu(w, r, b, R, B) -> float | None:
    """Multiplier for a weighted-sum surrogate constraint, or None.

    For any mu >= 0, feasibility implies sum((r_i + mu*b_i) x_i) <= R + mu*B,
    so the single-constraint fractional bound on that mixed cost is
    admissible; minimized over mu it equals the true two-constraint LP bound.
    The pure rate/bandwidth bounds are the mu -> 0 and mu -> inf limits, so a
    mu is only worth the extra per-node lookup when some interior value beats
    both — which happens exactly in the regime where both budgets bind and
    the pure bounds go slack. One :func:`_fill` call evaluates every ray of
    :func:`_rays`; the first mu whose fill is least, and below the smaller
    pure fill by more than 1e-9, wins.
    """
    mus, costs, caps = _rays(r, b, R, B)
    if not mus:
        return None
    value = _ray_fills(w, costs, caps)[0]
    i = int(np.argmin(value[2:]))
    return mus[i] if value[2 + i] < min(value[0], value[1]) - 1e-9 else None


class _FlipBounds:
    """Reduced-cost bounds on selections that flip one item's natural state.

    Evaluates the Lagrangian dual on the rays of :func:`_rays` (pure rate,
    pure bandwidth and the mixed surrogates) with one :func:`_fill` call:
    each ray's critical ratio t gives its dual value
    ``G = sum(max(0, w_i - t*c_i)) + t*max(cap, 0)``, and the first ray with
    the least G is the best point. From it, ``drop_out[i]`` bounds the value
    of every feasible selection excluding item i, and ``drop_in[i]`` of every
    one including it: flipping item i away from the sign of its reduced cost
    ``w_i - t*c_i`` lowers the bound by that amount. Any item whose flip
    bound rounds down to a target threshold or below is therefore forced for
    all selections above that threshold — fixing it preserves the full set of
    such selections, including the lexicographically first optimum the
    search must return.
    """

    def __init__(self, w, r, b, R, B):
        _, costs, caps = _rays(r, b, R, B)
        t = _ray_fills(w, costs, caps)[1]
        g = np.sum(np.maximum(0.0, w - t[:, None] * costs), axis=1) + t * np.maximum(caps, 0.0)
        best = int(np.argmin(g))  # the first least
        rc = w - t[best] * costs[best]
        self.root = float(g[best])
        self.drop_out = self.root - np.maximum(0.0, rc)
        self.drop_in = self.root + np.minimum(0.0, rc)

    def fix(self, threshold: float, q: float | None):
        """(fixed_in, free) masks valid for selections with value > threshold."""
        out_b, in_b = _grid_floor(self.drop_out, q), _grid_floor(self.drop_in, q)
        fixed_in = out_b <= threshold + TIE_EPS
        fixed_out = (in_b <= threshold + TIE_EPS) & ~fixed_in
        return fixed_in, ~(fixed_in | fixed_out)


def _prune_cut(v: float, q: float | None) -> float:
    """The least bound that may still beat incumbent ``v``: a subtree whose
    bound ``ub`` is below it has ``grid_floor(ub) <= v + TIE_EPS``."""
    if q and v > -math.inf:
        return q * (math.floor((v + TIE_EPS) / q) + 1.0 - 1e-9)
    return v + TIE_EPS


def _greedy_value(weights, rates, bws, r_cap, b_cap) -> float:
    """Feasible greedy by weight per combined relative cost; warm-start value."""
    denom = rates / max(r_cap, 1e-300) + bws / max(b_cap, 1e-300)
    order = _ratio_order(weights, denom)
    value = 0.0
    r_rem, b_rem = r_cap, b_cap
    for i in order:
        if rates[i] <= r_rem + _SEARCH_EPS and bws[i] <= b_rem + _SEARCH_EPS:
            value += float(weights[i])
            r_rem -= float(rates[i])
            b_rem -= float(bws[i])
    return value


def solve_bnb(inst: SelectionInstance, prune_below: float = -math.inf) -> SelectionResult | None:
    """Exact maximum-weight selection under both capacity constraints.

    Depth-first branch and bound over users in index order, include branch
    first. Per-node upper bound: the smaller of the two single-constraint
    fractional relaxations over the remaining suffix (plus a mixed surrogate
    and, for sum-rate weights, an exact subset-sum reachability bound),
    floored to the weight grid when one exists.

    One pass seeks the lexicographically first optimum among selections
    worth more than a threshold t: just below the greedy value, which is
    always attainable (one grid step, or a relative 1e-6 off the grid), or
    ``prune_below`` when that is higher; the solve then returns None when
    nothing clears it. Every item whose reduced-cost flip bound
    (:class:`_FlipBounds`) rounds down to t or less is fixed beforehand.

    Same-class dominance: a user's weight depends only on its rate in both
    weightings, so users of one class, an exact (weight, rate) pair,
    differ only in bandwidth need. If free users i < j share a class and
    b_i <= b_j, a selection that excludes i and includes j loses to its
    swap: feasible, worth the same, lexicographically earlier (Martello
    and Toth, *Knapsack Problems*, 1990). So the DFS keeps per class the
    least bandwidth excluded on its path, and skips user k's include
    branch when that is <= b_k. The result stays the same because:

    - fixed users are shared by both selections and the free ones keep
      index order, so the swap is earlier over the whole instance too;
    - the swap's sums, in another order, move by ulps, far under
      ``_SEARCH_EPS``: the slack on which this search and
      :func:`solve_brute_force` already agree;
    - the whole-suffix shortcut may take a dominated user, harmlessly: the
      swap lies on i's include branch, searched first, so ``consider``
      rejects the equal value.

    When every user fits within both caps (up to ``_SEARCH_EPS``), selecting
    all of them is the unique optimum: it is returned at once, with 0 nodes
    explored, whatever ``prune_below`` says.
    """
    n = inst.n
    R = float(inst.backhaul_cap_mbps)
    B = float(inst.bandwidth_cap_mhz)
    if np.sum(inst.rates_mbps) <= R + _SEARCH_EPS and np.sum(inst.bandwidths_mhz) <= B + _SEARCH_EPS:
        return _finalize(inst, np.ones(n, dtype=bool), nodes=0)
    fits = (inst.rates_mbps <= R + _SEARCH_EPS) & (inst.bandwidths_mhz <= B + _SEARCH_EPS)
    idx = np.flatnonzero(fits)  # ascending, so lex order is preserved
    full_mask = np.zeros(n, dtype=bool)
    if len(idx) == 0:
        return _finalize(inst, full_mask, nodes=1)
    w0 = inst.weights[idx]
    r0 = inst.rates_mbps[idx]
    b0 = inst.bandwidths_mhz[idx]

    q = _value_grid(w0)
    g = _greedy_value(w0, r0, b0, R, B)
    t = max(g - (q if q else 1e-6 * max(1.0, abs(g))), prune_below)
    fixed_in, free = _FlipBounds(w0, r0, b0, R, B).fix(t, q)
    base = float(np.sum(w0[fixed_in]))
    in_r = float(np.sum(r0[fixed_in]))
    in_b = float(np.sum(b0[fixed_in]))
    if in_r > R + _SEARCH_EPS or in_b > B + _SEARCH_EPS:
        # every selection worth more than t holds the forced set, so there is
        # none: reachable when a raised floor puts t above the optimum, where
        # the flip certificates hold vacuously
        return None
    w, r, b = w0[free], r0[free], b0[free]
    free_idx = np.flatnonzero(free)
    m = len(w)
    full_mask[idx[fixed_in]] = True
    if m == 0:  # everything forced: the lone candidate wins iff it clears t
        return _finalize(inst, full_mask, nodes=0) if base > t + TIE_EPS else None
    Rp = max(R - in_r, 0.0)
    Bp = max(B - in_b, 0.0)
    if sys.getrecursionlimit() < m + 1000:
        sys.setrecursionlimit(m + 1000)  # DFS depth is at most m

    rate_bounds = _SuffixBounds(w, r)
    bw_bounds = _SuffixBounds(w, b)
    # sum-rate weighting: swap in the exact grid-reachability rate bound
    reach = _ReachableSums.build(r, Rp, _value_grid(r)) if np.array_equal(w, r) else None
    rate_grid = _value_grid(r) if reach is not None else None
    surr_mu = _pick_surrogate_mu(w, r, b, Rp, Bp)
    surr_bounds = _SuffixBounds(w, r + surr_mu * b) if surr_mu is not None else None
    # scalars touched every node live in plain lists / bound methods;
    # numpy element access is several times costlier at this grain
    suffix_rate_sum = np.concatenate([np.cumsum(r[::-1])[::-1], [0.0]]).tolist()
    suffix_bw_sum = np.concatenate([np.cumsum(b[::-1])[::-1], [0.0]]).tolist()
    suffix_w_sum = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]]).tolist()
    w_l, r_l, b_l = w.tolist(), r.tolist(), b.tolist()
    rate_bound = rate_bounds.bound
    bw_bound = bw_bounds.bound
    surr_bound = surr_bounds.bound if surr_bounds is not None else None
    # same-class dominance: a class id per (weight, rate) pair, and per class
    # the least bandwidth excluded on the current path (None: none excluded)
    classes: dict = {}
    cls = [classes.setdefault(pair, len(classes)) for pair in zip(w_l, r_l)]
    least_out: list = [None] * len(classes)

    best_val = t - base
    best_sel: np.ndarray | None = None
    cut = _prune_cut(best_val, q)
    cur = np.zeros(m, dtype=bool)
    nodes = 0

    def consider(value: float, sel: np.ndarray) -> None:
        nonlocal best_val, best_sel, cut
        if value > best_val + TIE_EPS:
            best_val = value
            best_sel = sel
            cut = _prune_cut(best_val, q)

    def dfs(k: int, r_rem: float, b_rem: float, value: float) -> None:
        nonlocal nodes
        nodes += 1
        if suffix_rate_sum[k] <= r_rem + _SEARCH_EPS and suffix_bw_sum[k] <= b_rem + _SEARCH_EPS:
            # whole suffix fits: taking all of it is both value- and lex-optimal
            sel = cur.copy()
            sel[k:] = True
            consider(value + suffix_w_sum[k], sel)
            return
        if reach is not None:
            ru = int((r_rem + _SEARCH_EPS) / rate_grid)
            rate_ub = rate_grid * reach.max_reachable(k, ru)
        else:
            rate_ub = rate_bound(k, r_rem)
        ub = value + min(rate_ub, bw_bound(k, b_rem))
        if ub < cut:
            return
        if surr_bound is not None:
            # only consulted when the cheap pure bounds failed to prune
            mixed = value + surr_bound(k, r_rem + surr_mu * b_rem)
            if mixed < ub:
                ub = mixed
            if ub < cut:
                return
        rk, bk, ck = r_l[k], b_l[k], cls[k]
        least = least_out[ck]
        if rk <= r_rem + _SEARCH_EPS and bk <= b_rem + _SEARCH_EPS and (least is None or least > bk):
            cur[k] = True
            dfs(k + 1, r_rem - rk, b_rem - bk, value + w_l[k])
            cur[k] = False
        least_out[ck] = bk if least is None or bk < least else least
        dfs(k + 1, r_rem, b_rem, value)
        least_out[ck] = least

    try:
        dfs(0, Rp, Bp, 0.0)
    finally:
        del dfs  # it refers to itself: left alone, every solve's tables wait for the cycle collector
    if best_sel is None:
        # only reachable with a raised floor: the default threshold sits
        # strictly below the feasible greedy value, which the search finds
        assert prune_below > -math.inf
        return None
    full_mask[idx[free_idx[best_sel]]] = True
    return _finalize(inst, full_mask, nodes=nodes)


# =====================================================================
# Value-only solve over class counts
# =====================================================================

MAX_CLASSES = 8  # more (weight, rate) classes than this go to solve_bnb
_MAX_UNITS = 1_000_000  # rate-grid units past which the DP goes to solve_bnb


class _TableFill:
    """:func:`_fill` of one fixed item set at any cap, one binary search a
    call (:func:`_sorted_fill`)."""

    def __init__(self, w, c):
        order = _ratio_order(w, c)
        self.item_w, self.item_c = w[order].tolist(), c[order].tolist()
        self.cum_w, self.cum_c = np.cumsum(w[order]).tolist(), np.cumsum(c[order]).tolist()

    def __call__(self, cap: float) -> float:
        return _sorted_fill(self.cum_c, self.cum_w, self.item_w, self.item_c, cap)


class _CountSearch:
    """Depth-first search over how many users each class serves.

    Classes go by weight per rate, highest first; a class's count runs from
    the most that fits down to 0, each taking its smallest needs. A count
    goes on only while the smaller of the later classes' fills, backhaul
    side (whole classes) and bandwidth side (their users), floored to the
    weight grid, can beat the incumbent. The last class takes the most
    that fits. Methods, not a nested closure, so a solve leaves no cycle.
    """

    def __init__(self, cw, cr, needs, q):
        self.cw, self.cr, self.q = cw.tolist(), cr.tolist(), q
        self.prefix = [[0.0, *np.cumsum(b).tolist()] for b in needs]
        counts = np.array([len(b) for b in needs])
        # per class c, the fills of classes c + 1..
        self.later = [
            (
                _TableFill(counts[c:] * cw[c:], counts[c:] * cr[c:]),
                _TableFill(np.repeat(cw[c:], counts[c:]), np.concatenate(needs[c:])),
            )
            for c in range(1, len(needs))
        ]

    def best(self, c: int, r_rem: float, b_rem: float, value: float, best: float) -> float:
        w_c, r_c, pre = self.cw[c], self.cr[c], self.prefix[c]
        k_max = bisect_right(pre, b_rem) - 1
        if r_c > 0:
            k_max = min(k_max, int(r_rem / r_c))
        if c + 1 == len(self.cw):
            v = value + k_max * w_c
            return v if v > best + TIE_EPS else best
        rate_fill, bw_fill = self.later[c]
        cut = _prune_cut(best, self.q)
        for k in range(k_max, -1, -1):
            r_k = max(r_rem - k * r_c, 0.0)
            b_k = max(b_rem - pre[k], 0.0)
            if value + k * w_c + min(rate_fill(r_k), bw_fill(b_k)) >= cut:
                best = self.best(c + 1, r_k, b_k, value + k * w_c, best)
                cut = _prune_cut(best, self.q)
        return best


def _least_needs(units, needs, top: int, B: float) -> np.ndarray:
    """Least bandwidth per reachable rate sum: ``least[v]`` for v grid units, up to ``top``.

    One min-plus pass per class over its sorted needs' running sums; ``inf``
    where no selection sums to v units within ``B``.
    """
    least = np.full(top + 1, np.inf)
    least[0] = 0.0
    for u, b in zip(units, needs):
        pre = np.cumsum(b)
        k_max = min(int(np.searchsorted(pre, B, side="right")), top // u)
        nxt = least.copy()
        for k in range(1, k_max + 1):
            s = k * u
            np.minimum(nxt[s:], least[: top + 1 - s] + pre[k - 1], out=nxt[s:])
        least = nxt
    return least


def _count_value(w, r, b, R: float, B: float, prune_below: float) -> float | None:
    """:func:`solve_value`'s optimum over class counts (caps with their
    slack), or None where neither count solver applies."""
    order = np.lexsort((b, r, w))
    ws, rs, bs = w[order], r[order], b[order]
    starts = np.flatnonzero(np.append(True, (ws[1:] != ws[:-1]) | (rs[1:] != rs[:-1])))
    if len(starts) > MAX_CLASSES:
        return None
    cw, cr = ws[starts], rs[starts]
    needs = np.split(bs, starts[1:])
    if not np.array_equal(cw, cr):
        by_ratio = _ratio_order(cw, cr)
        search = _CountSearch(cw[by_ratio], cr[by_ratio], [needs[i] for i in by_ratio], _value_grid(cw))
        return search.best(0, R, B, 0.0, prune_below)
    grid = _value_grid(cr)
    if grid is None:
        return None
    units = np.rint(cr / grid).astype(int)
    # sums in units must stand for sums of rates: every rate a whole number
    # of grid steps up to float noise, not merely within the grid's 1e-9
    top = min(int(R / grid), int(units @ np.diff(np.append(starts, len(w)))))
    if np.any(units == 0) or np.any(np.abs(units * grid - cr) > 1e-12 * cr) or top > _MAX_UNITS:
        return None
    least = _least_needs(units.tolist(), needs, top, B)
    return grid * int(np.flatnonzero(least <= B)[-1])


def solve_value(inst: SelectionInstance, prune_below: float = -math.inf) -> float | None:
    """The optimum objective of ``inst`` when it exceeds ``prune_below`` by more than TIE_EPS, else None.

    The same optimum as :func:`solve_bnb`, without the selection. In both of
    the paper's weightings a user's weight depends only on its rate, so
    users fall into a few classes, one per exact (weight, rate) pair, that
    differ only in bandwidth need. An optimum picks a count per class and,
    within each, the smallest needs: a two-budget bounded knapsack over the
    class counts (Kellerer, Pferschy & Pisinger, *Knapsack Problems*, 2004,
    ch. 7). Caps get ``_SEARCH_EPS`` of slack, as in :func:`solve_bnb`.

    - When weights differ from rates: :class:`_CountSearch`.
    - When every weight equals its rate and the rates sit on a value grid
      (:func:`_value_grid`: 1, 0.1 or 0.01), the backhaul-side fill bounds
      nothing below R, and a DP runs instead: the least bandwidth for each
      reachable rate sum in grid units (:func:`_least_needs`); the optimum
      is the largest sum within B.
    - Otherwise, with more than ``MAX_CLASSES`` classes, rates off the
      grid, or a DP wider than ``_MAX_UNITS``: :func:`solve_bnb`.

    Counts times weights may differ from :func:`solve_bnb`'s sum of the same
    selection by a few ulp, far under TIE_EPS.
    """
    w, r, b = inst.weights, inst.rates_mbps, inst.bandwidths_mhz
    R = inst.backhaul_cap_mbps + _SEARCH_EPS
    B = inst.bandwidth_cap_mhz + _SEARCH_EPS
    if np.sum(r) <= R and np.sum(b) <= B:
        value = float(np.sum(w))
    else:
        value = _count_value(w, r, b, R, B, prune_below)
        if value is None:
            res = solve_bnb(inst, prune_below)
            value = -math.inf if res is None else res.objective
    return value if value > prune_below + TIE_EPS else None
