"""Exact user-selection solver vs the brute-force oracle."""

import numpy as np
import pytest

from droneplace import selection
from droneplace.selection import (
    MAX_CLASSES,
    TIE_EPS,
    SelectionInstance,
    _fill,
    _FlipBounds,
    _ratio_order,
    _SuffixBounds,
    solve_bnb,
    solve_brute_force,
    solve_value,
)


def inst(weights, rates, bws, R, B):
    return SelectionInstance(
        weights=np.asarray(weights, dtype=float),
        rates_mbps=np.asarray(rates, dtype=float),
        bandwidths_mhz=np.asarray(bws, dtype=float),
        backhaul_cap_mbps=R,
        bandwidth_cap_mhz=B,
    )


def random_instance(rng, n=None, equal_weights_and_rates=False):
    """An instance textured like the placement layer's subproblems.

    Rates come from the small discrete requirement set, bandwidth need is
    rate over a plausible spectral efficiency, and caps sit where they
    actually bind.
    """
    if n is None:
        n = int(rng.integers(1, 21))
    rates = rng.choice([0.1, 0.5, 1.0, 1.5, 2.0], size=n)
    zeta = 6.4 + 6.6 * rng.random(n)
    bws = rates / zeta
    if equal_weights_and_rates:
        weights = rates.copy()
    else:
        weights = np.ones(n)
    R = float(np.sum(rates)) * rng.uniform(0.2, 0.8)
    B = float(np.sum(bws)) * rng.uniform(0.2, 0.8)
    return inst(weights, rates, bws, R, B)


# ---------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------


def test_two_of_three_fit_the_backhaul():
    res = solve_bnb(inst([1, 1, 1], [2, 1, 0.5], [0.3, 0.2, 0.1], 2.5, 15.0))
    assert res.objective == 2
    # obj-2 ties: {0,1} is infeasible (rate 3), {0,2} and {1,2} both fit;
    # inclusion of the lowest index wins
    assert res.selected == (True, False, True)
    assert res.rate_used_mbps == 2.5


def test_rate_weighted_variant_prefers_the_big_user():
    res = solve_bnb(inst([2, 1, 0.5], [2, 1, 0.5], [0.3, 0.2, 0.1], 2.5, 15.0))
    assert res.objective == 2.5
    assert res.selected == (True, False, True)


def test_zero_backhaul_serves_nobody():
    res = solve_bnb(inst([1, 1], [2, 1], [0.3, 0.2], 0.0, 15.0))
    assert res.selected == (False, False)
    assert res.objective == 0.0


def test_empty_instance():
    res = solve_bnb(inst([], [], [], 80.0, 15.0))
    assert res.objective == 0.0
    assert res.selected == ()
    assert solve_brute_force(inst([], [], [], 80.0, 15.0)).objective == 0.0


def test_singleton_within_caps_is_selected():
    res = solve_brute_force(inst([1.0], [2.0], [0.3], 80.0, 15.0))
    assert res.selected == (True,)


def test_all_fit_instances_select_everyone_at_the_root():
    """When every user fits within both caps, all are selected with no node
    explored, whatever the floor: weights on the unit grid, equal to the
    rates, or messy; caps slack or exactly at the sums; and one weight far
    off every grid."""
    rng = np.random.default_rng(29)
    problems = [inst([1, 1e-7], [0.5, 0.5], [0.1, 0.1], 10.0, 10.0)]
    for trial in range(60):
        n = int(rng.integers(1, 21))
        rates = rng.choice([0.1, 0.5, 1.0, 1.5, 2.0], size=n)
        bws = rates / (6.4 + 6.6 * rng.random(n))
        weights = (np.ones(n), rates, rng.uniform(0.05, 3.0, n))[trial % 3]
        R, B = float(np.sum(rates)), float(np.sum(bws))
        if trial % 2:
            R, B = R * rng.uniform(1.0, 2.0), B * rng.uniform(1.0, 2.0)
        problems.append(inst(weights, rates, bws, R, B))
    for problem in problems:
        everyone = (True,) * problem.n
        total = float(np.sum(problem.weights))
        for floor in (-np.inf, total):
            res = solve_bnb(problem, prune_below=floor)
            assert res.selected == everyone and res.nodes_explored == 0
            assert res.objective == total
        assert solve_brute_force(problem).selected == everyone


def test_brute_force_refuses_large_instances():
    n = 26
    with pytest.raises(ValueError, match="25"):
        solve_brute_force(inst(np.ones(n), np.ones(n), np.ones(n), 1.0, 1.0))


# ---------------------------------------------------------------------
# solver vs oracle
# ---------------------------------------------------------------------


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(300):
        problem = random_instance(rng, equal_weights_and_rates=trial % 2 == 1)
        got = solve_bnb(problem)
        want = solve_brute_force(problem)
        assert got.objective == want.objective, f"trial {trial}"
        assert got.selected == want.selected, f"trial {trial}"


def test_matches_brute_force_with_messy_weights():
    # arbitrary positive weights exercise the generic bound path
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(1, 13))
        problem = inst(
            rng.uniform(0.05, 3.0, n),
            rng.uniform(0.0, 2.0, n),
            rng.uniform(0.0, 1.0, n),
            float(rng.uniform(0.0, 6.0)),
            float(rng.uniform(0.0, 3.0)),
        )
        got = solve_bnb(problem)
        want = solve_brute_force(problem)
        assert got.objective == pytest.approx(want.objective, abs=1e-9), f"trial {trial}"
        assert got.selected == want.selected, f"trial {trial}"


def class_heavy_instance(rng, user_centric):
    """Few rate classes with many users each, in one of the two weightings.

    Bandwidth needs repeat, sit one ulp or 1e-7 apart or are 0, so
    same-class dominance meets ties, near-ties within the solvers'
    feasibility slack and small genuine gaps; both caps are exact subset
    sums.
    """
    n = int(rng.integers(6, 17))
    classes = rng.choice([0.1, 0.5, 1.0, 1.5, 2.0], size=int(rng.integers(1, 4)), replace=False)
    rates = rng.choice(classes, size=n)
    needs = rng.choice(rng.uniform(0.05, 0.3, size=int(rng.integers(1, 4))), size=n)
    kind = rng.integers(0, 4, size=n)
    bws = np.choose(kind, [needs, np.nextafter(needs, 1.0), needs + 1e-7, np.zeros(n)])
    weights = rates.copy() if user_centric else np.ones(n)
    R = float(np.sum(rates[rng.random(n) < 0.5]))
    B = float(np.sum(bws[rng.random(n) < 0.5]))
    return inst(weights, rates, bws, R, B)


def test_matches_brute_force_under_heavy_class_repetition():
    """Same-class dominance keeps the lexicographically first optimum, with
    and without a floor: just under the optimum the same selection comes
    back, and at or above it none does. The value-only solve, over class
    counts in network-centric trials and by the rate-sum DP in
    user-centric ones, returns the optimum under the same floors."""
    rng = np.random.default_rng(37)
    for trial in range(400):
        problem = class_heavy_instance(rng, user_centric=trial % 2 == 1)
        want = solve_brute_force(problem)
        got = solve_bnb(problem)
        assert (got.selected, got.objective) == (want.selected, want.objective), f"trial {trial}"
        for floor in (-np.inf, want.objective - 2 * TIE_EPS):
            assert solve_value(problem, floor) == pytest.approx(want.objective, abs=1e-9), f"trial {trial}"
        for floor in (want.objective, want.objective + 1.0):
            assert solve_value(problem, floor) is None, f"trial {trial}"
        if got.nodes_explored == 0 or want.objective == 0.0:
            continue  # everyone or no one fits: settled before any floor applies
        below = solve_bnb(problem, prune_below=want.objective - 2 * TIE_EPS)
        assert below.selected == want.selected, f"trial {trial}"
        assert solve_bnb(problem, prune_below=want.objective) is None, f"trial {trial}"
        assert solve_bnb(problem, prune_below=want.objective + 1.0) is None, f"trial {trial}"


def test_value_falls_back_to_the_selection_search_off_the_class_paths(monkeypatch):
    """Weights equal to rates off every value grid, and more classes than
    ``MAX_CLASSES``, go to ``solve_bnb``; the paper's two weightings on the
    default rate set do not, and weights equal to rates on the 0.01 and
    0.001 grids take the rate-sum DP. The value is the optimum either way."""
    calls, dp = [], []
    monkeypatch.setattr(selection, "solve_bnb", lambda *a: calls.append(1) or solve_bnb(*a))
    least_needs = selection._least_needs
    monkeypatch.setattr(selection, "_least_needs", lambda *a: dp.append(1) or least_needs(*a))
    rng = np.random.default_rng(47)
    for trial in range(240):
        kind = ("off_grid", "many_classes", "classes", "fine_grid")[trial % 4]
        n = int(rng.integers(4, 13))
        if kind == "off_grid":
            rates = rng.choice([0.1555, 0.2555, 0.3555], n)
            weights = rates
        elif kind == "many_classes":
            steps = np.arange(1, MAX_CLASSES + 2) / 4.0  # one class past the cap
            rates = rng.permutation(np.append(steps, rng.choice(steps, n)))
            weights = np.ones(len(rates))
        elif kind == "fine_grid":
            fine = [0.135, 0.575, 1.015, 1.495, 2.035] if trial // 4 % 2 else [0.13, 0.57, 1.01, 1.49, 2.03]
            rates = rng.choice(fine, n)
            weights = rates
        else:
            rates = rng.choice([0.1, 0.5, 1.0, 1.5, 2.0], n)
            weights = rates if trial // 4 % 2 else np.ones(n)
        bws = rates / (6.4 + 6.6 * rng.random(len(rates)))
        problem = inst(weights, rates, bws, float(np.sum(rates)) * 0.5, float(np.sum(bws)) * 0.6)
        calls.clear()
        dp.clear()
        assert solve_value(problem) == pytest.approx(solve_brute_force(problem).objective, abs=1e-9)
        assert bool(calls) == (kind in ("off_grid", "many_classes")), f"trial {trial}"
        if kind == "fine_grid":
            assert dp, f"trial {trial}"


def test_returned_selection_is_feasible():
    rng = np.random.default_rng(19)
    for _ in range(100):
        problem = random_instance(rng)
        res = solve_bnb(problem)
        sel = np.array(res.selected)
        assert np.sum(problem.rates_mbps[sel]) <= problem.backhaul_cap_mbps + 1e-9
        assert np.sum(problem.bandwidths_mhz[sel]) <= problem.bandwidth_cap_mhz + 1e-9
        assert res.objective == float(np.sum(problem.weights[sel]))


def test_deterministic_across_repeat_solves():
    rng = np.random.default_rng(23)
    problem = random_instance(rng, n=18)
    first = solve_bnb(problem)
    for _ in range(3):
        again = solve_bnb(problem)
        assert again.selected == first.selected
        assert again.objective == first.objective


def test_growing_either_cap_never_hurts():
    rng = np.random.default_rng(29)
    for _ in range(50):
        problem = random_instance(rng)
        base = solve_bnb(problem).objective
        more_rate = inst(
            problem.weights,
            problem.rates_mbps,
            problem.bandwidths_mhz,
            problem.backhaul_cap_mbps * 1.5,
            problem.bandwidth_cap_mhz,
        )
        more_bw = inst(
            problem.weights,
            problem.rates_mbps,
            problem.bandwidths_mhz,
            problem.backhaul_cap_mbps,
            problem.bandwidth_cap_mhz * 1.5,
        )
        assert solve_bnb(more_rate).objective >= base - 1e-12
        assert solve_bnb(more_bw).objective >= base - 1e-12


def test_weight_scaling_keeps_the_selected_set():
    rng = np.random.default_rng(31)
    for _ in range(30):
        problem = random_instance(rng)
        scaled = inst(
            problem.weights * 7.25,
            problem.rates_mbps,
            problem.bandwidths_mhz,
            problem.backhaul_cap_mbps,
            problem.bandwidth_cap_mhz,
        )
        a = solve_bnb(problem)
        b = solve_bnb(scaled)
        assert b.selected == a.selected
        assert b.objective == pytest.approx(7.25 * a.objective, rel=1e-12)


# ---------------------------------------------------------------------
# bounding rule
# ---------------------------------------------------------------------


def test_flip_bounds_are_admissible():
    # drop_out[i] bounds every selection without item i, drop_in[i] every one
    # with it; 1e-6 of room, as the placement screens leave, for selections
    # the solvers accept up to 5e-10 over a cap
    rng = np.random.default_rng(43)
    both_bind = 0
    for trial in range(150):
        n = int(rng.integers(1, 15))
        rates = rng.choice([0.0, 0.1, 0.5, 1.0, 2.0], n)
        bws = rng.choice([0.0, 0.02, 0.07, 0.1, 0.25], n)
        weights = rates if trial % 3 == 0 else rng.choice([0.1, 1.0, 2.0], n)
        weights = np.where(weights > 0, weights, 1.0)
        if trial % 10 == 0:
            rates = np.zeros(n)  # every item free on the backhaul
        R = float(np.sum(rates)) * rng.choice([0.0, 0.3, 0.6, 1.2])
        B = float(np.sum(bws)) * rng.choice([0.0, 0.3, 0.6, 1.2])
        flip = _FlipBounds(weights, rates, bws, R, B)
        best = solve_brute_force(inst(weights, rates, bws, R, B)).objective
        # caps must be finite: one past every sum binds nothing
        only_r = solve_brute_force(inst(weights, rates, bws, R, float(np.sum(bws)) + 1.0)).objective
        only_b = solve_brute_force(inst(weights, rates, bws, float(np.sum(rates)) + 1.0, B)).objective
        both_bind += best < min(only_r, only_b) - 1e-9
        assert flip.root >= best - 1e-6
        for i in range(n):
            rest = np.arange(n) != i
            without = inst(weights[rest], rates[rest], bws[rest], R, B)
            assert solve_brute_force(without).objective <= flip.drop_out[i] + 1e-6
            if rates[i] <= R and bws[i] <= B:
                with_i = inst(weights[rest], rates[rest], bws[rest], R - rates[i], B - bws[i])
                value = weights[i] + solve_brute_force(with_i).objective
                assert value <= flip.drop_in[i] + 1e-6
    assert both_bind >= 20


# ---------------------------------------------------------------------
# the fractional fill, against an LP solver
# ---------------------------------------------------------------------


def lp_value(w, c, taken, cap):
    """HiGHS's optimum of the LP relaxation of one row's knapsack."""
    from scipy.optimize import linprog

    w, c = w[taken], c[taken]
    if not len(w):
        return 0.0
    if cap == np.inf:  # HiGHS takes no infinite bound; every item fits
        return float(np.sum(w))
    res = linprog(-w, A_ub=c[None, :], b_ub=[max(cap, 0.0)], bounds=(0, 1), method="highs")
    assert res.success, res.message
    return -res.fun


def fill_rows(rng, rows, n, per_row):
    """Random rows of a knapsack fill: weights, costs (zero on some items,
    ties in weight per cost, ``inf`` on some items not taken) and caps."""
    shape = (rows, n) if per_row else (n,)
    w = rng.choice([0.1, 0.5, 1.0, 2.0], shape)
    c = w * rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], shape)  # ratios tie often
    c = c * rng.choice([1.0, 1.0, 1.0, 0.7], shape)
    taken = rng.random((rows, n)) < 0.6
    taken[0] = False
    if per_row:
        c = np.where(~taken & (rng.random((rows, n)) < 0.3), np.inf, c)
    total = np.sum(np.where(taken, np.broadcast_to(c, (rows, n)), 0.0), axis=1)
    caps = total * rng.choice([-0.5, 0.0, 0.2, 0.5, 0.9, 1.5], rows)
    caps[1] = -1.0
    caps[2] = np.inf
    return w, c, taken, caps


def test_fill_matches_an_lp_solver():
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(47)
    for per_row in (False, True):
        for n in (0, 1, 7, 30):
            rows = 60
            w, c, taken, caps = fill_rows(rng, rows, n, per_row)
            order = _ratio_order(w, c)
            if per_row:
                at = np.arange(rows)[:, None]
                args = (taken[at, order], w[at, order], c[at, order])
            else:
                args = (taken[:, order], w[order], c[order])
            for cap in (caps, 1.5):  # a cap per row, and one for every row
                value, t = _fill(*args, cap)
                assert value.shape == t.shape == (rows,)
                for i in range(rows):
                    wi = w[i] if per_row else w
                    ci = c[i] if per_row else c
                    cap_i = cap[i] if np.ndim(cap) else cap
                    want = lp_value(wi, ci, taken[i], cap_i)
                    assert value[i] == pytest.approx(want, abs=1e-9)
                    assert t[i] >= 0.0
                    if cap_i == np.inf:
                        assert t[i] == 0.0  # every taken item fits
                        continue
                    # the critical ratio minimizes the Lagrangian dual
                    # G(t) = sum(max(0, w - t c)) + t max(cap, 0) over the
                    # taken items, whose minimum is the LP value; G is
                    # convex and piecewise linear, with its breaks at 0 and
                    # at the items' weight per cost
                    wt, ct = wi[taken[i]], ci[taken[i]]

                    def dual(x):
                        return np.sum(np.maximum(0.0, wt - x * ct)) + x * max(cap_i, 0.0)

                    assert dual(t[i]) == pytest.approx(want, abs=1e-9)
                    with np.errstate(divide="ignore"):
                        breaks = np.append(wt[ct > 0] / ct[ct > 0], 0.0)
                    assert all(dual(t[i]) <= dual(x) + 1e-9 for x in breaks)


def test_ratio_order_sorts_each_row_by_weight_per_cost():
    rng = np.random.default_rng(53)
    for per_row in (False, True):
        w, c, _, _ = fill_rows(rng, 20, 25, per_row)
        order = _ratio_order(w, c)
        for i in range(20):
            wi = w[i] if per_row else w
            ci = c[i] if per_row else c
            ratio = [np.inf if ci[k] == 0 else wi[k] / ci[k] for k in range(25)]
            want = sorted(range(25), key=lambda k: (-ratio[k], k))
            assert list(order[i] if per_row else order) == want


def suffix_bound(w, c, k, cap):
    """The DFS's fractional bound of items k.. from a table of those items
    alone: the ratio order filtered to them, its running sums, one binary
    search. The reference for ``_SuffixBounds``, which builds every depth's
    running sums at once."""
    from bisect import bisect_right

    order = _ratio_order(w, c)
    sel = order[order >= k]
    item_c, item_w = c[sel].tolist(), w[sel].tolist()
    cum_c, cum_w = np.cumsum(c[sel]).tolist(), np.cumsum(w[sel]).tolist()
    if not cum_c:
        return 0.0
    cap = max(cap, 0.0)
    j = bisect_right(cum_c, cap + 1e-12)
    total = cum_w[j - 1] if j else 0.0
    if j < len(cum_c):
        rem = cap - (cum_c[j - 1] if j else 0.0)
        if rem > 0 and item_c[j] > 0:
            total += item_w[j] * rem / item_c[j]
    return total


def test_suffix_bounds_match_per_suffix_tables_bit_for_bit():
    """Every depth, k = m included, on the first visit (the numpy row) and
    on later ones (plain lists), with zero costs, ratio ties and caps below
    0, at the caps and between them."""
    rng = np.random.default_rng(59)
    for n in (1, 2, 9, 40):
        for _ in range(15):
            w = rng.choice([0.1, 0.5, 1.0, 2.0], n) * rng.choice([1.0, 1.0, 1.3], n)
            c = w * rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], n)  # ratios tie often
            total = float(np.sum(c))
            caps = np.concatenate([[-1.0, 0.0, total, np.inf], total * rng.uniform(-0.2, 1.2, 8)])
            caps = np.concatenate([caps, np.cumsum(c[_ratio_order(w, c)])])  # at the running sums
            want = np.array([[suffix_bound(w, c, k, float(cap)) for k in range(n + 1)] for cap in caps])
            # a fresh table per cap: every depth on its first visit
            for cap, row in zip(caps, want):
                fresh = _SuffixBounds(w, c)
                first = [fresh.bound(k, float(cap)) for k in range(n + 1)]
                assert np.array(first).tobytes() == row.tobytes(), (n, cap)
            # one table for all caps: every depth visited again and again
            bounds = _SuffixBounds(w, c)
            for k in np.concatenate([rng.permutation(n + 1) for _ in range(3)]):
                got = [bounds.bound(int(k), float(cap)) for cap in caps]
                assert np.array(got).tobytes() == want[:, k].tobytes(), (n, k)


# ---------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------


def test_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="length"):
        inst([1, 1], [1], [0.1, 0.1], 1.0, 1.0)


def test_rejects_nonpositive_weights():
    with pytest.raises(ValueError, match="positive"):
        inst([1, 0], [1, 1], [0.1, 0.1], 1.0, 1.0)


def test_rejects_negative_resources():
    with pytest.raises(ValueError, match="non-negative"):
        inst([1, 1], [1, -1], [0.1, 0.1], 1.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        inst([1, 1], [1, 1], [0.1, 0.1], -1.0, 1.0)


def test_rejects_infinite_caps():
    """Weights equal to rates under an infinite backhaul once overflowed the
    rate grid's reachable sums, and an infinite need under an infinite
    bandwidth made the search's remainder NaN; no cap may be infinite."""
    with pytest.raises(ValueError, match="finite"):
        inst([1, 2, 1.5], [1, 2, 1.5], [0.6, 0.6, 0.5], np.inf, 1.0)
    with pytest.raises(ValueError, match="finite"):
        inst([1, 1, 1], [1, 1, 1], [np.inf, 0.6, np.inf], 2.0, np.inf)
    with pytest.raises(ValueError, match="finite"):
        inst([1], [1], [0.1], np.nan, 1.0)


# ---------------------------------------------------------------------
# large-n oracle: HiGHS on instances harvested from a default-grid scan
# ---------------------------------------------------------------------


def milp_objective(instance):
    """Optimum of the 0/1 selection, bracketed by HiGHS: (low, high).

    HiGHS accepts a selection up to 1e-6 over a cap. A solution that also
    holds the caps to 1e-9 is optimal, and both ends are its objective;
    otherwise the caps are tightened by 2e-6 for a selection that surely
    holds them, a lower end.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    w, r, b = instance.weights, instance.rates_mbps, instance.bandwidths_mhz
    caps = np.array([instance.backhaul_cap_mbps, instance.bandwidth_cap_mhz])
    ends = []
    for slack in (0.0, 2e-6):
        res = milp(
            -w,
            integrality=np.ones(len(w)),
            bounds=Bounds(0, 1),
            constraints=LinearConstraint(np.vstack([r, b]), -np.inf, caps - slack),
            options={"mip_rel_gap": 0.0},
        )
        assert res.success, res.message
        x = np.round(res.x).astype(bool)
        ends.append(-res.fun)
        if np.sum(r[x]) <= caps[0] + 1e-9 and np.sum(b[x]) <= caps[1] + 1e-9:
            return ends[-1], ends[0]
    raise AssertionError("HiGHS found no selection within the caps at 1e-9")


def harvested_instances():
    """Selection problems as the grid scan and the margin stage pose them.

    Default scenario, three populations large enough for 80-280 eligible
    users: per mode and backhaul value, candidates spread over that range
    of eligible counts, each with all its eligible users and the
    pathloss-sorted prefixes of 3/4 of them and of 80 (users by rising
    1/zeta, as the margin stage cuts them).
    """
    from droneplace.config import load_config
    from droneplace.placement import PlacementSearch
    from droneplace.users import assign_weights, sample_users

    cfg = load_config()
    B = cfg.system.bandwidth_mhz
    for seed in (4, 14, 25):
        users = sample_users(cfg.bounds, cfg.cluster, cfg.rate_set_mbps, seed=seed)
        search = PlacementSearch(users, cfg.system, cfg.environment)
        counts = np.stack([el.sum(axis=1) for el in search.eligible], axis=1).reshape(-1)
        fit = np.flatnonzero((counts >= 80) & (counts <= 280))
        picks = fit[np.argsort(counts[fit], kind="stable")]
        picks = picks[np.linspace(0, len(picks) - 1, 5).astype(int)]
        for mode in ("network_centric", "user_centric"):
            w = np.array([u.weight for u in assign_weights(users, mode)])
            for c in picks:
                row, lay = divmod(int(c), len(search.hs))
                el = search.eligible[lay][row]
                bw, r = search.bw_rows(lay, [row])[0][el], search.rates[el]
                by_pathloss = np.argsort(bw / r, kind="stable")
                for m in {len(r), max(80, len(r) * 3 // 4), 80}:
                    keep = np.sort(by_pathloss[:m])
                    for R in (30.0, cfg.system.backhaul_mbps):
                        yield SelectionInstance(w[el][keep], r[keep], bw[keep], R, B)


def test_matches_highs_on_harvested_large_instances():
    pytest.importorskip("scipy.optimize")
    n_sizes, binding = [], 0
    for instance in harvested_instances():
        res = solve_bnb(instance)
        low, high = milp_objective(instance)
        assert low - 1e-9 <= res.objective <= high + 1e-9
        value = solve_value(instance)
        assert value == pytest.approx(res.objective, abs=1e-9)
        assert low - 1e-9 <= value <= high + 1e-9
        assert np.sum(instance.rates_mbps[list(res.selected)]) <= instance.backhaul_cap_mbps + 1e-9
        assert np.sum(instance.bandwidths_mhz[list(res.selected)]) <= instance.bandwidth_cap_mhz + 1e-9
        n_sizes.append(instance.n)
        binding += res.objective < np.sum(instance.weights) - 1e-9
    assert min(n_sizes) == 80 and max(n_sizes) >= 250
    # the budgets bind, so the solver had to choose
    assert binding >= len(n_sizes) * 3 // 4
