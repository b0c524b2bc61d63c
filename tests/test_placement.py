"""Grid construction, single-position evaluation, and the full 3D search."""

from dataclasses import replace

import numpy as np
import pytest

from droneplace.channel import EnvironmentParams, pathloss_db, spectral_efficiency
from droneplace.config import load_config
from droneplace.experiments import population
from droneplace.placement import (
    _LP_ROOM,
    _RADIUS_MARGIN_DB,
    Placement,
    PlacementSearch,
    SystemParams,
    _margin_cut,
    _ratio_order,
    _Weighting,
    candidate_grid,
    evaluate_position,
    optimal_placement,
)
from droneplace.selection import (
    TIE_EPS,
    SelectionInstance,
    _fill,
    solve_bnb,
    solve_brute_force,
    solve_value,
)
from droneplace.users import AreaBounds, User, assign_weights, sample_users

URBAN = EnvironmentParams(a=9.61, b=0.16, eta_los_db=1.0, eta_nlos_db=20.0)


def default_system(**overrides) -> SystemParams:
    params = dict(
        carrier_hz=2e9,
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
    params.update(overrides)
    return SystemParams(**params)


def small_system(**overrides) -> SystemParams:
    """A 3 x 3 x 2 grid that keeps exhaustive cross-checks cheap."""
    params = dict(
        bounds=AreaBounds(0.0, 600.0, 0.0, 600.0),
        grid_step_m=300.0,
        h_min_m=100.0,
        h_max_m=200.0,
    )
    params.update(overrides)
    return default_system(**params)


def coverage_radius_m(
    sys: SystemParams, h_m: float, env: EnvironmentParams = URBAN, under_db: float = 0.0
) -> float:
    """Horizontal distance where pathloss crosses ``under_db`` under the service threshold."""
    lo, hi = 0.0, 20_000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pathloss_db(mid, h_m, env, sys.carrier_hz) <= sys.pl_max_db - under_db:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------
# candidate grid
# ---------------------------------------------------------------------


def test_default_grid_has_6724_candidates():
    grid = candidate_grid(default_system())
    assert len(grid) == 41 * 41 * 4 == 6724


def test_grid_order_is_x_major_then_y_then_h():
    grid = candidate_grid(default_system())
    assert grid[0] == Placement(0.0, 0.0, 100.0)
    assert grid[1] == Placement(0.0, 0.0, 200.0)
    assert grid[4] == Placement(0.0, 100.0, 100.0)
    assert grid[41 * 4] == Placement(100.0, 0.0, 100.0)
    assert grid[-1] == Placement(4000.0, 4000.0, 400.0)


def test_grid_clamps_a_short_final_step_to_the_boundary():
    sys = default_system(bounds=AreaBounds(0.0, 250.0, 0.0, 250.0), grid_step_m=100.0)
    grid = candidate_grid(sys)
    xs = sorted({p.x_m for p in grid})
    assert xs == [0.0, 100.0, 200.0, 250.0]


def test_oversized_step_degenerates_to_the_corner():
    sys = default_system(bounds=AreaBounds(0.0, 50.0, 0.0, 50.0), grid_step_m=1000.0)
    grid = candidate_grid(sys)
    assert {(p.x_m, p.y_m) for p in grid} == {(0.0, 50.0), (0.0, 0.0), (50.0, 0.0), (50.0, 50.0)}


def test_altitude_axis_spans_min_to_max():
    hs = sorted({p.h_m for p in candidate_grid(default_system())})
    assert hs == [100.0, 200.0, 300.0, 400.0]


# ---------------------------------------------------------------------
# evaluate_position
# ---------------------------------------------------------------------


def test_out_of_reach_users_yield_the_empty_selection():
    users = [User(id=0, x_m=50_000.0, y_m=50_000.0, rate_mbps=1.0)]
    res = evaluate_position(users, Placement(0.0, 0.0, 400.0), default_system(), URBAN)
    assert res.selected == (False,)
    assert res.objective == 0.0


def test_colocated_users_with_slack_budgets_are_all_served():
    sys = default_system()
    users = [User(id=i, x_m=1000.0, y_m=1000.0, rate_mbps=2.0) for i in range(10)]
    res = evaluate_position(users, Placement(1000.0, 1000.0, 400.0), sys, URBAN)
    assert all(res.selected)
    assert res.rate_used_mbps == pytest.approx(20.0)
    assert res.objective == 10.0


def check_fixed_position(users, pos, sys):
    """evaluate_position's served set and objective are the widest-margin
    oracle's on a one-candidate list; returns the served set."""
    res = evaluate_position(users, pos, sys, URBAN)
    _, objective, served = widest_margin_oracle(users, sys, candidates=[pos])
    assert res.selected == served
    assert res.objective == objective
    return served


def test_agrees_with_brute_force_at_a_fixed_position():
    rng = np.random.default_rng(3)
    users = [
        User(
            id=i,
            x_m=float(rng.uniform(0, 2000)),
            y_m=float(rng.uniform(0, 2000)),
            rate_mbps=float(rng.choice([0.5, 1.0, 2.0])),
        )
        for i in range(12)
    ]
    check_fixed_position(users, Placement(1000.0, 1000.0, 300.0), default_system(backhaul_mbps=3.0))


def test_fixed_position_serves_the_oracles_set_off_the_grid():
    """evaluate_position applies the grid search's rule off the grid too, in
    both modes, with budgets that bind and users within 1e-6 m of the
    threshold."""
    rng = np.random.default_rng(17)
    edge_served = binding = 0
    for R, B in ((2.0, 15.0), (100.0, 0.3), (100.0, 100.0)):
        sys = default_system(backhaul_mbps=R, bandwidth_mhz=B)
        for pos in (Placement(1234.5, 987.25, 237.5), Placement(2718.3, 3141.6, 333.3)):
            edge = coverage_radius_m(sys, pos.h_m)
            for mode in ("network_centric", "user_centric"):
                # ten users over the coverage disc and just past it, then one
                # 1e-6 m inside the threshold and one 1e-6 m outside
                dist = np.append(rng.uniform(0.0, 1.2 * edge, 10), [edge - 1e-6, edge + 1e-6])
                angle = rng.uniform(0.0, 2 * np.pi, len(dist))
                users = assign_weights([
                    User(
                        id=i,
                        x_m=float(pos.x_m + d * np.cos(a)),
                        y_m=float(pos.y_m + d * np.sin(a)),
                        rate_mbps=float(rng.choice([0.1, 0.5, 1.0, 1.5, 2.0])),
                    )
                    for i, (d, a) in enumerate(zip(dist, angle))
                ], mode)
                pl = pathloss_db(
                    np.hypot([u.x_m - pos.x_m for u in users], [u.y_m - pos.y_m for u in users]),
                    pos.h_m, URBAN, sys.carrier_hz,
                )
                assert pl[-2] <= sys.pl_max_db < pl[-1]
                served = np.array(check_fixed_position(users, pos, sys))
                w = np.array([u.weight for u in users])
                edge_served += served[-2]
                binding += w[served].sum() < w[pl <= sys.pl_max_db].sum()
    assert edge_served and binding


def test_user_just_past_the_pathloss_threshold_is_excluded():
    sys = default_system()
    edge = coverage_radius_m(sys, 400.0)
    users = [
        User(id=0, x_m=edge + 2.0, y_m=0.0, rate_mbps=0.1, weight=100.0),
        User(id=1, x_m=100.0, y_m=0.0, rate_mbps=0.1, weight=1.0),
    ]
    res = evaluate_position(users, Placement(0.0, 0.0, 400.0), sys, URBAN)
    # resources are ample; only the threshold keeps user 0 out
    assert res.selected == (False, True)


def test_user_just_inside_the_threshold_is_served():
    sys = default_system()
    edge = coverage_radius_m(sys, 400.0)
    users = [User(id=0, x_m=edge - 2.0, y_m=0.0, rate_mbps=0.1)]
    res = evaluate_position(users, Placement(0.0, 0.0, 400.0), sys, URBAN)
    assert res.selected == (True,)


# ---------------------------------------------------------------------
# PlacementSearch geometry
# ---------------------------------------------------------------------


def all_links_geometry(users, sys, env, grid):
    """Eligibility and bandwidth need of every (grid row, user) link per layer.

    The reference formula: pathloss of every link on every layer, from the
    same ``np.hypot`` distances, with no coverage radius. Arrays are
    (n_xy, n), rows in grid order (x-major, then y).
    """
    hs = sorted({p.h_m for p in grid})
    rows = [p for p in grid if p.h_m == hs[0]]
    gx = np.array([p.x_m for p in rows])
    gy = np.array([p.y_m for p in rows])
    ux = np.array([u.x_m for u in users])
    uy = np.array([u.y_m for u in users])
    rates = np.array([u.rate_mbps for u in users])
    dist = np.hypot(gx[:, None] - ux[None, :], gy[:, None] - uy[None, :])
    out = []
    for h in hs:
        pl = pathloss_db(dist, h, env, sys.carrier_hz)
        out.append((pl <= sys.pl_max_db, rates[None, :] / spectral_efficiency(pl, sys)))
    return out


def edge_users(sys, env, centre, rng, n_random):
    """Users on a grid point, around each layer's two radii, and at random.

    Per layer, eight users sit at the service threshold's radius +-2 m and
    +-1e-6 m (four along x, four along y), then eight more around the radius
    ``_RADIUS_MARGIN_DB`` inside it, the inner edge of the shell where the
    search evaluates exact pathloss.
    """
    cx, cy = centre
    b = sys.bounds
    offsets = (-2.0, -1e-6, 1e-6, 2.0)
    spots = [(cx, cy)]
    for h in sorted({p.h_m for p in candidate_grid(sys)}):
        for under in (0.0, _RADIUS_MARGIN_DB):
            edge = coverage_radius_m(sys, h, env, under)
            spots += [(cx + edge + d, cy) for d in offsets]
            spots += [(cx, cy - edge - d) for d in offsets]
    spots += [
        (float(rng.uniform(b.x_min_m, b.x_max_m)), float(rng.uniform(b.y_min_m, b.y_max_m)))
        for _ in range(n_random)
    ]
    return [
        User(id=i, x_m=x, y_m=y, rate_mbps=float(rng.choice([0.1, 0.5, 1.0, 1.5, 2.0])))
        for i, (x, y) in enumerate(spots)
    ]


SUBURBAN = EnvironmentParams(a=4.88, b=0.43, eta_los_db=0.1, eta_nlos_db=21.0)


@pytest.mark.parametrize(
    "case, overrides, env, centre",
    [
        ("default", dict(grid_step_m=500.0), URBAN, (2000.0, 2000.0)),
        # pathloss of every link stays under the threshold: no finite radius
        ("radius_inf", dict(grid_step_m=500.0, pl_max_db=200.0), URBAN, (2000.0, 2000.0)),
        # the threshold sits under the pathloss straight below the lowest
        # layer: no link is served
        ("nothing_in_reach", dict(grid_step_m=500.0, pl_max_db=79.0), URBAN, (2000.0, 2000.0)),
        # one layer reaches a small disk, the others nothing
        ("lowest_layer_only", dict(grid_step_m=500.0, pl_max_db=85.0), URBAN, (2000.0, 2000.0)),
        (
            "suburban_3p5ghz_non_square",
            dict(
                carrier_hz=3.5e9,
                pl_max_db=112.0,
                bounds=AreaBounds(-500.0, 2500.0, 1000.0, 2800.0),
                grid_step_m=150.0,
                h_min_m=50.0,
                h_max_m=350.0,
            ),
            SUBURBAN,
            (1000.0, 1900.0),
        ),
        # one user 60 km out: the table's steps are about 60 m apart, far
        # coarser than the shell between the radii
        ("far_user", dict(grid_step_m=500.0), URBAN, (2000.0, 2000.0)),
        # a one-point grid whose only user sits under it: the table spans 0 m
        ("reach_zero", dict(), URBAN, (2000.0, 2000.0)),
        # a one-point grid with users under it and 1.5 km east, where the
        # pathloss is 0.005 dB under the threshold: the farthest step lies
        # inside the shell, so the outer radius is unbounded
        (
            "reach_in_shell",
            dict(pl_max_db=float(pathloss_db(1500.0, 400.0, URBAN, 2e9)) + 0.005),
            URBAN,
            (2000.0, 2000.0),
        ),
    ],
)
def test_radius_limited_geometry_matches_all_links(case, overrides, env, centre):
    sys = default_system(**overrides)
    axes = None
    if case in ("reach_zero", "reach_in_shell"):
        east = (0.0, 1500.0) if case == "reach_in_shell" else (0.0,)
        users = [
            User(id=i, x_m=centre[0] + d, y_m=centre[1], rate_mbps=1.0) for i, d in enumerate(east)
        ]
        axes = ([centre[0]], [centre[1]], [sys.h_max_m])
    else:
        users = edge_users(sys, env, centre, np.random.default_rng(41), n_random=40)
    if case == "far_user":
        users.append(User(id=len(users), x_m=60_000.0, y_m=centre[1], rate_mbps=1.0))
    search = PlacementSearch(users, sys, env, axes=axes)
    if axes is None:
        grid = candidate_grid(sys)
    else:
        grid = [Placement(x, y, h) for x in axes[0] for y in axes[1] for h in axes[2]]
    reference = all_links_geometry(users, sys, env, grid)
    assert len(search.eligible) == len(reference)
    rng = np.random.default_rng(7)
    for lay, (el, bw) in enumerate(reference):
        assert np.array_equal(search.eligible[lay], el)
        # every row through the on-demand accessor, in shuffled batches of
        # rows both new and already computed
        rows = rng.permutation(len(el))
        cuts = np.sort(rng.choice(np.arange(1, len(rows)), size=min(4, len(rows) - 1), replace=False))
        got = np.empty_like(bw)
        for part in np.split(rows, cuts):
            again = rng.choice(rows, size=min(3, len(rows)), replace=False)
            batch = np.concatenate([part, again])
            got[batch] = search.bw_rows(lay, batch)
        assert np.array_equal(got[el], bw[el])
        assert np.all(got[~el] == np.inf)
    assert search.rows_computed == len(reference) * len(reference[0][0])
    assert search.links_computed == sum(int(np.sum(el)) for el, _ in reference)

    hs = sorted({p.h_m for p in grid})
    row = [(p.x_m, p.y_m) for p in grid if p.h_m == hs[0]].index(centre)
    served = np.array([el[row] for el, _ in reference])  # (layer, user)
    if case == "far_user":
        assert np.sqrt(search._steps2[1]) > 50.0 and not np.any(served[:, -1])
    if case == "radius_inf":
        assert all(np.all(el) for el, _ in reference)
    elif case == "nothing_in_reach":
        assert not any(np.any(el) for el, _ in reference)
    elif case == "lowest_layer_only":
        assert served[0, 0] and not np.any(served[1:])
    elif case == "reach_zero":
        assert np.all(search._steps2 == 0.0) and served[0, 0]
    elif case == "reach_in_shell":
        assert np.all(served)
    else:
        # the user on the grid point is served on every layer; users just
        # inside a layer's radius are served there, users just outside not;
        # so are users at most 1e-6 m past the shell's inner edge (it lies
        # only metres inside the radius, so 2 m past it may be outside)
        for lay in range(len(hs)):
            inside, outside = 1 + 16 * lay + np.array([[0, 1], [2, 3]])
            assert served[lay, 0]
            assert np.all(served[lay, inside]) and np.all(served[lay, inside + 4])
            assert not np.any(served[lay, outside]) and not np.any(served[lay, outside + 4])
            assert np.all(served[lay, inside + 8]) and np.all(served[lay, inside + 12])
            assert served[lay, 1 + 16 * lay + 10] and served[lay, 1 + 16 * lay + 14]


def test_link_budgets_are_computed_on_demand_and_once(monkeypatch):
    """A default-grid network-centric solve reads the bandwidth need of few
    (row, layer) pairs; a later solve at a higher backhaul recomputes none."""
    from droneplace import placement

    cfg = load_config()
    users = assign_weights(
        sample_users(cfg.bounds, cfg.cluster, cfg.rate_set_mbps, seed=0), "network_centric"
    )
    w = [u.weight for u in users]
    R = cfg.system.backhaul_mbps
    search = PlacementSearch(users, cfg.system, cfg.environment)
    assert search.rows_computed == search.links_computed == 0

    asked, links = set(), []
    bw_rows, pathloss = search.bw_rows, placement.pathloss_db

    def spy_rows(lay, rows):
        asked.update((lay, int(r)) for r in np.asarray(rows))
        return bw_rows(lay, rows)

    def spy_pathloss(dist, *args):
        links.append(np.size(dist))
        return pathloss(dist, *args)

    monkeypatch.setattr(search, "bw_rows", spy_rows)
    monkeypatch.setattr(placement, "pathloss_db", spy_pathloss)
    search.solve(w, R)
    assert 0 < search.rows_computed < search.n_candidates / 4
    search.solve(w, 2 * R)
    # each row asked for was computed once, and the counters say what ran
    assert search.rows_computed == len(asked)
    assert search.links_computed == sum(links) == sum(
        int(np.sum(search.eligible[lay][row])) for lay, row in asked
    )
    monkeypatch.undo()
    fresh = PlacementSearch(users, cfg.system, cfg.environment)
    assert search.result(search.solve(w, 2 * R), w, 2 * R) == fresh.result(
        fresh.solve(w, 2 * R), w, 2 * R
    )

    # user-centric weights: the margin stage once read the link budgets of
    # most candidates on this seed (59% of the (row, layer) pairs) only to
    # rank them; ranked by distance first, it reads those of a few
    users, _ = population(cfg.system, cfg.cluster, cfg.rate_set_mbps, 28, "user_centric")
    search = PlacementSearch(users, cfg.system, cfg.environment)
    search.solve([u.weight for u in users], R)
    assert 0 < search.rows_computed < search.n_candidates / 8


# ---------------------------------------------------------------------
# margin stage: contenders ordered by distance bounds
# ---------------------------------------------------------------------


def eager_contenders(search, lay, w, R, target, cut):
    """The margin stage's contenders with every candidate's exact keys.

    The reference for ``PlacementSearch._contenders``: each candidate with
    the target weight (and, where it can drop anything, a whole-set fill
    reaching it) gets its exact 1/zeta keys, the screen on the weight within
    ``cut``, and its bound; the rest are sorted by (bound, candidate), and
    those whose fill within ``cut`` falls short are screened out.
    """
    floor = target - 2 * TIE_EPS
    n_h = len(search.hs)
    el = search.eligible[lay]
    by_ratio = _ratio_order(w, search.rates)
    w_g, r_g = w[by_ratio], search.rates[by_ratio]
    prescreen = R * w_g[-1] / r_g[-1] < target - _LP_ROOM
    rows = np.flatnonzero(el @ w >= floor)
    if prescreen:
        rows = rows[_fill(el[rows][:, by_ratio], w_g, r_g, R)[0] >= target - 2 * _LP_ROOM]
    key = np.where(el[rows], search.bw_rows(lay, rows) / search.rates, np.inf)
    heavy = (key <= cut) @ w >= floor
    rows, key = rows[heavy], key[heavy]
    order = np.argsort(key, axis=1)
    first = np.argmax(np.cumsum(w[order], axis=1) >= floor, axis=1)
    at = np.arange(len(rows))
    bounds = key[at, order[at, first]]
    inside = el[rows] & (key <= cut)
    ok = _fill(inside[:, by_ratio], w_g, r_g, R)[0] >= target - _LP_ROOM
    return sorted(zip(bounds[ok].tolist(), (rows[ok] * n_h + lay).tolist()))


def screen_fill(search, w, R, target):
    """The ``fill`` the margin stage hands its screens: R, or None where the
    backhaul-side fill cannot drop anything."""
    return R if R * np.min(w / search.rates) < target - _LP_ROOM else None


def margin_stage_inputs(search, w, R):
    """What the margin stage hands ``_contenders``: the scan's objective, the
    weighting's tables, and three cuts: ``inf``, where the stage starts, the
    final candidate's loosest cut, and the final cut."""
    n_h = len(search.hs)
    wt = _Weighting(search, w)

    def loosest(c, pool):
        row, lay = divmod(c, n_h)
        return float(np.max(search.bw_rows(lay, [row])[0][pool] / search.rates[pool]))

    target = search._scan(wt, R)
    c, pool, _ = search._widest_margin(target, wt, R)
    row, lay = divmod(c, n_h)
    return target, wt, (np.inf, loosest(c, search.eligible[lay][row]), loosest(c, pool))


def lattice_users(mode):
    """100 users on a 100 m lattice offset by 50 m from the grid's.

    Grid points see users at exactly equal distances, both several users
    around one point and the same pattern around many points; rates repeat
    every three lattice steps, so equal-distance users have rates 0.1, 1.0
    and 1.5 Mbps, whose 1/zeta keys ``(rate / zeta) / rate`` differ by an
    ulp.
    """
    rates = (0.1, 1.0, 1.5)
    users = [
        User(id=10 * i + j, x_m=50.0 + 100.0 * i, y_m=50.0 + 100.0 * j,
             rate_mbps=rates[(i + 2 * j) % 3])
        for i in range(10)
        for j in range(10)
    ]
    return assign_weights(users, mode)


LATTICE_GRID = dict(bounds=AreaBounds(0.0, 1000.0, 0.0, 1000.0), h_max_m=200.0, backhaul_mbps=12.0)


def assert_contenders_cover(search, lay, w, R, target, cut, got):
    """``got``, what ``_contenders`` yielded, is sorted by (bound,
    candidate) and holds every candidate the exact keys keep, with a lower
    bound at most its exact bound. Returns how many the exact keys keep."""
    assert got == sorted(got)
    lower = {cand: lb for lb, cand in got}
    eager = eager_contenders(search, lay, w, R, target, cut)
    for bound, cand in eager:
        assert lower[cand] <= bound
    return len(eager)


@pytest.mark.parametrize("seed", [0, 4, 14, 25, 28])
def test_contenders_cover_the_eager_order(seed):
    """Every candidate the exact keys keep comes out of ``_contenders``,
    with a lower bound at most its exact bound, and the list is sorted by
    (bound, candidate)."""
    cfg = load_config()
    R = cfg.system.backhaul_mbps
    covered = 0
    for mode in ("network_centric", "user_centric"):
        users, _ = population(cfg.system, cfg.cluster, cfg.rate_set_mbps, seed, mode)
        search = PlacementSearch(users, cfg.system, cfg.environment)
        w = np.array([u.weight for u in users])
        target, wt, cuts = margin_stage_inputs(search, w, R)
        fill = screen_fill(search, w, R, target)
        for lay in range(len(search.hs)):
            for cut in cuts:
                got = list(search._contenders(lay, wt, target, float(cut), fill))
                covered += assert_contenders_cover(search, lay, w, R, target, float(cut), got)
    assert covered > 0


@pytest.mark.parametrize("screen", [1, 3, 64])
def test_lazy_contenders_match_the_eager_order_on_exact_ties(monkeypatch, screen):
    """On the lattice, at two targets and more cuts (keys an ulp apart, and
    candidates tied on the bound), screening the candidates in blocks of
    ``screen`` yields the same contenders as one block does, and they cover
    the eager order."""
    from droneplace import placement

    sys = default_system(**LATTICE_GRID)
    R = sys.backhaul_mbps
    covered = one_ulp = tied = 0
    for mode in ("network_centric", "user_centric"):
        users = lattice_users(mode)
        search = PlacementSearch(users, sys, URBAN)
        w = np.array([u.weight for u in users])
        target, wt, cuts = margin_stage_inputs(search, w, R)
        for lay in range(len(search.hs)):
            key = search.bw_rows(lay, np.arange(len(wt.sum_w))) / search.rates
            finite = np.unique(key[np.isfinite(key)])
            one_ulp += int(np.sum(np.diff(finite) <= np.spacing(finite[1:])))
            for t in (target, 4 * min(w)):
                fill = screen_fill(search, w, R, t)
                for cut in (*cuts, *np.quantile(finite, [0.25, 0.5, 1.0])):
                    args = (lay, wt, t, float(cut), fill)
                    # small blocks put equal bounds on both sides of a block boundary
                    monkeypatch.setattr(placement, "_CHUNK", screen)
                    got = list(search._contenders(*args))
                    monkeypatch.setattr(placement, "_CHUNK", len(wt.sum_w))
                    assert got == list(search._contenders(*args))
                    covered += assert_contenders_cover(search, lay, w, R, t, float(cut), got)
                    tied += sum(a[0] == b[0] for a, b in zip(got, got[1:]))
    assert covered > 0 and one_ulp > 0 and tied > 0


def exact_bounds(search, lay, rows, w, floor):
    """Each row's key where its users, taken by key, first carry ``floor``."""
    key = np.where(search.eligible[lay][rows], search.bw_rows(lay, rows) / search.rates, np.inf)
    order = np.argsort(key, axis=1)
    first = np.argmax(np.cumsum(w[order], axis=1) >= floor, axis=1)
    at = np.arange(len(rows))
    return key[at, order[at, first]]


def margin_in_grid_order(search, w, R, target):
    """The margin stage restated: :func:`_margin_cut` on every candidate in
    grid order, each against the best cut so far, so a tie keeps the
    earlier candidate. Returns the winner and its served pool."""
    n_h = len(search.hs)
    cut, c = np.inf, None
    for cand in range(search.n_candidates):
        row, lay = divmod(cand, n_h)
        el = search.eligible[lay][row]
        bw = search.bw_rows(lay, [row])[0][el]
        found = _margin_cut(
            w[el], search.rates[el], bw, R, search.sys.bandwidth_mhz, target, cut, c is None
        )
        if found is not None:
            (cut, keep), c = found, cand
    row, lay = divmod(c, n_h)
    pool = search.eligible[lay][row].copy()
    pool[np.flatnonzero(pool)[~keep]] = False
    return c, pool


def larger_grid_cases():
    """The 50-candidate grid and the two 30-user populations (network- and
    then user-centric) of ``test_matches_an_enumeration_on_a_larger_grid``."""
    sys = default_system(**SMALL_GRID, backhaul_mbps=6.0)
    rng = np.random.default_rng(31)
    return [(sys, scattered_users(rng, 30, span=1200.0, weighted=weighted)) for weighted in (False, True)]


def own_cuts(search, lay, rows, w, R, target):
    """Each row's own cut, the tightest at which its users reach ``target``
    (``inf`` where none does): the tightest lower bound there is."""
    cuts = []
    for row in rows:
        el = search.eligible[lay][row]
        bw = search.bw_rows(lay, [row])[0][el]
        found = _margin_cut(
            w[el], search.rates[el], bw, R, search.sys.bandwidth_mhz, target, np.inf, True
        )
        cuts.append(np.inf if found is None else found[0])
    return np.array(cuts)


@pytest.mark.parametrize("bounds", ["table", "own_cut_on_even_rows", "own_cut_on_odd_rows"])
@pytest.mark.parametrize("grid", ["lattice", "larger"])
def test_margin_stage_does_not_depend_on_the_visiting_order(monkeypatch, grid, bounds):
    """The margin stage visits candidates by lower bound and stops at one
    over its cut; it must pick what :func:`_margin_cut` on every candidate
    in grid order picks. With each row's own cut as the bound on some rows
    and the table's bound on others, a candidate that ties the best cut on
    the lattice comes after a later one in grid order, and only a bound
    equal to the cut with an earlier candidate lets it in."""
    if grid == "lattice":
        sys = default_system(**LATTICE_GRID)
        cases = [(sys, lattice_users(mode)) for mode in ("network_centric", "user_centric")]
    else:
        cases = larger_grid_cases()
    for sys, users in cases:
        search = PlacementSearch(users, sys, URBAN)
        w = np.array([u.weight for u in users])
        R, B = sys.backhaul_mbps, sys.bandwidth_mhz
        if bounds != "table":
            parity = 0 if bounds == "own_cut_on_even_rows" else 1

            def mixed(lay, rows, wt, target, cut, fill, search=search, screen=search._distance_screen):
                near, lb = screen(lay, rows, wt, target, cut, fill)
                own = own_cuts(search, lay, rows[near], wt.w, R, target)
                return near, np.where(rows[near] % 2 == parity, own, lb)

            monkeypatch.setattr(search, "_distance_screen", mixed)
        wt = _Weighting(search, w)
        target = search._scan(wt, R)
        c, pool, res = search._widest_margin(target, wt, R)
        want, want_pool = margin_in_grid_order(search, w, R, target)
        assert c == want
        assert np.array_equal(pool, want_pool)
        row, lay = divmod(c, len(search.hs))
        bw = search.bw_rows(lay, [row])[0]
        inst = SelectionInstance(w[pool], search.rates[pool], bw[pool], R, B)
        assert res.selected == solve_bnb(inst, prune_below=target - 2 * TIE_EPS).selected


def test_margin_stage_keeps_a_pool_whose_fill_is_within_the_room():
    """A backhaul a hair under the two nearby users' rates: the solvers
    serve both within their feasibility slack, but the backhaul-side fill
    of those users falls just short of the target, by less than
    ``_LP_ROOM``. A 2 Mbps user lowers the least weight per rate, so the
    fill screens run; they must keep every candidate serving the pair."""
    sys = small_system(backhaul_mbps=2.0 - 3e-10)
    users = [
        User(id=0, x_m=250.0, y_m=250.0, rate_mbps=1.0),
        User(id=1, x_m=270.0, y_m=240.0, rate_mbps=1.0),
        User(id=2, x_m=550.0, y_m=500.0, rate_mbps=2.0),
    ]
    got = optimal_placement(users, sys, URBAN)
    placement, objective, served = widest_margin_oracle(users, sys)
    assert got.objective == objective == 2.0
    assert (got.placement, got.selected) == (placement, served) and served == (True, True, False)


def cuts_reached(w, r, b, R, B, target):
    """Every pathloss cut of one position's users, and whether the exact
    optimum of the users at or under it reaches ``target``."""
    key = b / r
    cuts = np.unique(key)
    reached = []
    for cut in cuts:
        m = key <= cut
        res = solve_bnb(SelectionInstance(w[m], r[m], b[m], R, B), prune_below=target - 2 * TIE_EPS)
        reached.append(res is not None and res.objective >= target - TIE_EPS)
    return cuts, np.array(reached)


@pytest.mark.parametrize("seed", [4, 14, 28])
def test_margin_cut_matches_solving_every_cut(seed):
    # per mode, the first candidate the margin stage reaches on the top
    # layer and the heaviest one on the lowest layer, at the scan's target
    cfg = load_config()
    R, B = cfg.system.backhaul_mbps, cfg.system.bandwidth_mhz
    found = missed = 0
    for mode in ("network_centric", "user_centric"):
        users, _ = population(cfg.system, cfg.cluster, cfg.rate_set_mbps, seed, mode)
        search = PlacementSearch(users, cfg.system, cfg.environment)
        w = np.array([u.weight for u in users])
        wt = _Weighting(search, w)
        target = search._scan(wt, R)
        top = len(search.hs) - 1
        fill = screen_fill(search, w, R, target)
        _, first = next(search._contenders(top, wt, target, np.inf, fill))
        for lay, row in ((top, first // len(search.hs)), (0, int(np.argmax(wt.sum_w[:, 0])))):
            el = search.eligible[lay][row]
            args = (w[el], search.rates[el], search.bw_rows(lay, [row])[0][el], R, B, target)
            cuts, reached = cuts_reached(*args)
            key = args[2] / args[1]
            # reaching is monotone in the cut, as the bisection assumes
            assert np.all(reached[np.argmax(reached):]) or not np.any(reached)
            limits = [np.inf, cuts[len(cuts) // 2]]
            if np.any(reached):
                limits.append(cuts[np.argmax(reached)])
            for limit in limits:
                for inclusive in (True, False):
                    within = (cuts <= limit) if inclusive else (cuts < limit)
                    got = _margin_cut(*args, limit, inclusive)
                    if not np.any(reached & within):
                        assert got is None
                        missed += 1
                        continue
                    want = cuts[np.argmax(reached & within)]
                    cut, mask = got
                    assert cut == want
                    assert np.array_equal(mask, key <= want)
                    found += 1
    assert found and missed


@pytest.mark.parametrize("seed", [4, 28])
def test_distance_bounds_are_admissible(seed):
    """On every candidate with the target weight, the table's lower bound is
    at most the exact bound, and at each cut the distance screen keeps every
    candidate whose users at or under the cut carry the target weight, and,
    with the backhaul-side fill on, also fill to the target."""
    cfg = load_config()
    R = cfg.system.backhaul_mbps
    dropped = 0
    for mode in ("network_centric", "user_centric"):
        users, _ = population(cfg.system, cfg.cluster, cfg.rate_set_mbps, seed, mode)
        search = PlacementSearch(users, cfg.system, cfg.environment)
        w = np.array([u.weight for u in users])
        target, wt, cuts = margin_stage_inputs(search, w, R)
        floor = target - 2 * TIE_EPS
        by_ratio = _ratio_order(w, search.rates)
        for lay in range(len(search.hs)):
            rows = np.flatnonzero(wt.sum_w[:, lay] >= floor)
            near, lb = search._distance_screen(lay, rows, wt, target, np.inf, None)
            assert np.all(near)
            assert np.all(lb <= exact_bounds(search, lay, rows, w, floor))
            el = search.eligible[lay][rows]
            key = np.where(el, search.bw_rows(lay, rows) / search.rates, np.inf)
            finite = key[np.isfinite(key)]
            for cut in (*cuts, *np.quantile(finite, [0.1, 0.5, 0.9])):
                inside = el & (key <= cut)
                heavy = inside @ w >= floor
                fills = _fill(inside[:, by_ratio], w[by_ratio], search.rates[by_ratio], R)[0] >= target - _LP_ROOM
                near, _ = search._distance_screen(lay, rows, wt, target, float(cut), None)
                assert np.all(near[heavy])
                filled, _ = search._distance_screen(lay, rows, wt, target, float(cut), R)
                assert np.all(filled[heavy & fills])
                dropped += int(np.sum(near & ~filled))
    # the fill screen drops rows the weight screen keeps
    assert dropped > 0


def table_step_users(sys, hs, spots):
    """Users at some of each layer's table distances inside its outer
    radius, five rates at each of the (x, y) ``spots(d)`` gives for such a
    distance d, and two users beyond every outer radius, at opposite
    corners of all the others, that fix the span of the table. Returns the
    users and the table's distances."""
    corners = [
        User(id=0, x_m=-4000.0, y_m=-4000.0, rate_mbps=1.0),
        User(id=1, x_m=4000.0, y_m=4000.0, rate_mbps=1.0),
    ]
    steps = np.sqrt(PlacementSearch(corners, sys, URBAN, axes=([0.0], [0.0], hs))._steps2)
    users = list(corners)
    for h in hs:
        # the layer's outer radius is the first step over the shell's outer
        # level; nobody beyond it can be eligible
        pl = pathloss_db(steps, h, URBAN, sys.carrier_hz)
        inside = int(np.argmax(pl > sys.pl_max_db + _RADIUS_MARGIN_DB))
        for k in sorted({*range(0, inside, 16), 1, 2, inside - 2, inside - 1}):
            for x, y in spots(steps[k]):
                users += [
                    User(id=len(users) + i, x_m=float(x), y_m=float(y), rate_mbps=rate)
                    for i, rate in enumerate((0.1, 0.3, 0.7, 1.0, 1.5))
                ]
    return users, steps


def test_distance_bounds_hold_at_the_table_steps():
    """Users at the table's distances and 1e-6 m either side, along an axis
    and a diagonal (:func:`table_step_users`): where the j-th nearest user
    first carries the weight, the lower bound is at most the j-th smallest
    key, and a cut at that key keeps the candidate. At a table distance
    itself the key can sit an ulp under the table's unlowered value, which
    the table's slack must absorb."""
    sys = default_system()
    hs = sorted({p.h_m for p in candidate_grid(sys)})

    def spots(step):
        for d in step + np.array([-1e-6, 0.0, 1e-6]):
            yield from ((d, 0.0), (d / np.sqrt(2.0), d / np.sqrt(2.0)))

    users, steps = table_step_users(sys, hs, spots)
    search = PlacementSearch(users, sys, URBAN, axes=([0.0], [0.0], hs))
    assert np.array_equal(search._steps2, steps * steps)
    wt = _Weighting(search, np.ones(len(users)))
    row = np.array([0])
    checked = 0
    for lay in range(len(hs)):
        key = search.bw_rows(lay, row)[0] / search.rates
        ranked = np.sort(key[search.eligible[lay][0]])
        for j, bound in enumerate(ranked, start=1):
            near, lb = search._distance_screen(lay, row, wt, j, np.inf, None)
            assert near[0] and lb[0] <= bound
            near, _ = search._distance_screen(lay, row, wt, j, float(bound), None)
            assert near[0]
            checked += 1
    assert checked > 300


def test_the_cut_radius_holds_at_the_table_steps_with_an_unlowered_table(monkeypatch):
    """With the table's 1/zeta not lowered, a key can sit an ulp under the
    table's value at its own step, so the cut's radius is that step, and a
    user at that distance in some direction can have a squared distance an
    ulp over the step's square. The radius's own slack must keep every user
    at or under the cut inside it: a cut at a user's key keeps the
    candidate on that user's weight alone."""
    from droneplace import placement

    monkeypatch.setattr(placement, "_TABLE_SLACK", 0.0)
    sys = default_system()
    hs = sorted({p.h_m for p in candidate_grid(sys)})
    angles = np.linspace(0.0, np.pi / 2, 7)
    users, _ = table_step_users(sys, hs, lambda d: zip(d * np.cos(angles), d * np.sin(angles)))
    search = PlacementSearch(users, sys, URBAN, axes=([0.0], [0.0], hs))
    row = np.array([0])
    checked = 0
    for lay in range(len(hs)):
        key = search.bw_rows(lay, row)[0] / search.rates
        for i in np.flatnonzero(search.eligible[lay][0]):
            w = np.zeros(len(users))
            w[i] = 1.0
            assert search._distance_screen(lay, row, _Weighting(search, w), 1.0, float(key[i]), None)[0][0]
            checked += 1
    assert checked > 3000


# ---------------------------------------------------------------------
# optimal_placement
# ---------------------------------------------------------------------


def scattered_users(rng, n, span=600.0, weighted=False, rates=None):
    """``n`` users uniform on a square; rates drawn from the default set, or
    ``rates`` in turn."""
    if rates is None:
        rates = rng.choice([0.1, 0.5, 1.0, 1.5, 2.0], n)
    users = [
        User(
            id=i,
            x_m=float(rng.uniform(0, span)),
            y_m=float(rng.uniform(0, span)),
            rate_mbps=float(rates[i]),
        )
        for i in range(n)
    ]
    return assign_weights(users, "user_centric" if weighted else "network_centric")


# more rate classes than solve_value's count solvers take
TEN_RATES = (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 2.0)


def widest_margin_oracle(users, sys, solve=solve_brute_force, candidates=None):
    """The placement rule restated by enumeration.

    Every candidate (by default the whole grid, in grid order) and every
    pathloss-sorted prefix of its eligible users is solved exactly, by full
    enumeration unless ``solve`` says otherwise. The best objective comes
    first; among all (candidate, prefix) pairs reaching it, the largest
    worst-case pathloss margin; then the first candidate in the list. The
    served set is the solver's (lexicographically first) optimum of that
    prefix.
    """
    if candidates is None:
        candidates = candidate_grid(sys)
    ux = np.array([u.x_m for u in users])
    uy = np.array([u.y_m for u in users])
    rates = np.array([u.rate_mbps for u in users])
    weights = np.array([u.weight for u in users])
    entries = []
    for index, p in enumerate(candidates):
        pl = pathloss_db(np.hypot(ux - p.x_m, uy - p.y_m), p.h_m, URBAN, sys.carrier_hz)
        bw = rates / spectral_efficiency(pl, sys)
        for worst in np.unique(pl[pl <= sys.pl_max_db]):
            m = pl <= worst
            res = solve(
                SelectionInstance(weights[m], rates[m], bw[m], sys.backhaul_mbps, sys.bandwidth_mhz)
            )
            entries.append((res.objective, sys.pl_max_db - worst, index, m, res))
    best = max(e[0] for e in entries)
    ties = [e for e in entries if e[0] >= best - 1e-9]
    margin = max(e[1] for e in ties)
    _, _, index, m, res = min((e for e in ties if e[1] == margin), key=lambda e: e[2])
    served = np.zeros(len(users), dtype=bool)
    served[np.flatnonzero(m)[list(res.selected)]] = True
    return candidates[index], best, tuple(bool(v) for v in served)



def test_matches_an_exhaustive_scan_of_the_grid():
    """Default-rate users in both modes; users of all ten rates of a larger
    set in both modes; and network-centric users whose weights vary within
    a rate class, where the screens' class weights only bound the users'."""
    sys = small_system(backhaul_mbps=2.0)
    rng = np.random.default_rng(5)
    for trial in range(11):
        if trial < 5:
            users = scattered_users(rng, 8, weighted=trial % 2 == 0)
        elif trial < 8:
            rates = rng.permutation(np.append(TEN_RATES, rng.choice(TEN_RATES, 2)))
            users = scattered_users(rng, 12, weighted=trial % 2 == 0, rates=rates)
        else:
            users = [replace(u, weight=float(rng.choice([0.5, 1.0, 1.5, 2.0])))
                     for u in scattered_users(rng, 10)]
        got = optimal_placement(users, sys, URBAN)
        placement, objective, served = widest_margin_oracle(users, sys)
        assert got.objective == pytest.approx(objective, abs=1e-9)
        assert got.placement == placement
        assert got.selected == served
        assert evaluate_position(users, got.placement, sys, URBAN).selected == got.selected


def test_matches_an_enumeration_on_a_larger_grid():
    # 50 candidates over two altitudes and 30 users with a binding backhaul:
    # many candidates tie on the objective, so the margin stage's screens,
    # bounds and layer order all come into play
    for sys, users in larger_grid_cases():
        got = optimal_placement(users, sys, URBAN)
        placement, objective, served = widest_margin_oracle(users, sys, solve=solve_bnb)
        assert got.objective == pytest.approx(objective, abs=1e-9)
        assert got.placement == placement
        assert got.selected == served


def test_single_user_is_covered_by_the_first_covering_candidate():
    """The lone user goes to the covering candidate with the least pathloss to
    it (the widest margin); an exact tie goes to the first in grid order."""
    sys = small_system()
    grid = candidate_grid(sys)
    # the second user sits next to the first candidate, which the scan
    # returns and the margin stage must keep
    for x, y in ((431.0, 222.0), (10.0, 10.0)):
        users = [User(id=7, x_m=x, y_m=y, rate_mbps=1.5)]
        res = optimal_placement(users, sys, URBAN)
        assert res.objective == 1.0
        assert res.selected == (True,)
        assert res.served_user_ids == (7,)
        pl = [
            float(pathloss_db(np.hypot(p.x_m - x, p.y_m - y), p.h_m, URBAN, sys.carrier_hz))
            for p in grid
        ]
        nearest = min(v for v in pl if v <= sys.pl_max_db)
        assert res.placement == grid[pl.index(nearest)]


def test_exact_margin_ties_go_to_the_first_candidate():
    # only the 0.5 Mbps user fits the backhaul; it sits 212 m from each of
    # (0, 0), (0, 300), (300, 0) and (300, 300), so those tie exactly on the
    # margin at every altitude, while the 2 Mbps user is nearer to some
    sys = small_system(backhaul_mbps=1.0)
    users = [
        User(id=0, x_m=150.0, y_m=0.0, rate_mbps=2.0),
        User(id=1, x_m=150.0, y_m=150.0, rate_mbps=0.5),
    ]
    res = optimal_placement(users, sys, URBAN)
    assert res.selected == (False, True)
    placement, objective, served = widest_margin_oracle(users, sys)
    assert (placement.x_m, placement.y_m) == (0.0, 0.0)
    assert (res.placement, res.objective, res.selected) == (placement, objective, served)


def solve_each_candidate(search, w, R):
    """The exact selection at every candidate, in grid order."""
    n_h = len(search.hs)
    results = []
    for c in range(search.n_candidates):
        row, lay = divmod(c, n_h)
        mask = search.eligible[lay][row]
        inst = SelectionInstance(
            w[mask], search.rates[mask], search.bw_rows(lay, [row])[0][mask], R, search.sys.bandwidth_mhz
        )
        results.append(solve_bnb(inst))
    return results


def solve_every_candidate(search, w, R):
    """The exact selection optimum at every candidate, in grid order."""
    return np.array([res.objective for res in solve_each_candidate(search, w, R)])


def scan(search, w, R):
    return search._scan(_Weighting(search, w), R)


def cluster_users(mode, counts=(20, 10), rates=(2.0, 0.5)):
    """Two clusters out of each other's reach at pl_max_db = 100: by
    default 20 users needing 2 Mbps near (150, 150) and 10 needing 0.5 Mbps
    near (1050, 1050)."""
    jitter = np.random.default_rng(7).uniform(-60.0, 60.0, (sum(counts), 2))
    users = [
        User(id=i, x_m=float(c + jitter[i, 0]), y_m=float(c + jitter[i, 1]), rate_mbps=rate)
        for i, (c, rate) in enumerate([(150.0, rates[0])] * counts[0] + [(1050.0, rates[1])] * counts[1])
    ]
    return assign_weights(users, mode)


SMALL_GRID = dict(bounds=AreaBounds(0.0, 1200.0, 0.0, 1200.0), grid_step_m=300.0, h_max_m=400.0)


def test_scan_finds_the_best_objective_over_every_candidate():
    """The scan prunes, but the number it hands the margin stage is the
    maximum of the exact optimum over every candidate.

    Two 30-user populations on a 50-candidate grid, in both modes: users
    scattered, and two clusters out of each other's reach, where the
    candidates with the most eligible weight (20 users needing 2 Mbps) lose
    to those serving the other 10 (0.5 Mbps each), so the scan must go past
    its first solve."""
    rng = np.random.default_rng(31)
    for weighted in (False, True):
        mode = "user_centric" if weighted else "network_centric"
        cases = (
            (default_system(**SMALL_GRID, backhaul_mbps=6.0), scattered_users(rng, 30, span=1200.0, weighted=weighted)),
            (default_system(**SMALL_GRID, backhaul_mbps=5.0, pl_max_db=100.0), cluster_users(mode)),
        )
        for sys, users in cases:
            w = np.array([u.weight for u in users])
            search = PlacementSearch(users, sys, URBAN)
            assert search.n_candidates == 50
            objectives = solve_every_candidate(search, w, sys.backhaul_mbps)
            assert abs(scan(search, w, sys.backhaul_mbps) - np.max(objectives)) <= TIE_EPS


def test_user_centric_scan_stops_once_the_first_solve_reaches_the_backhaul(monkeypatch):
    """User-centric weights equal the rates, so no candidate is worth more
    than R: once the heaviest candidate's solve reaches it, the scan stops.
    It has read the link budgets of that one (row, layer) pair and screened
    no other candidate."""
    from droneplace import placement

    filled, fill = [], placement._fill

    def spy_fill(taken, *args):
        filled.append(len(taken))
        return fill(taken, *args)

    monkeypatch.setattr(placement, "_fill", spy_fill)
    cfg = load_config()
    R = cfg.system.backhaul_mbps
    for seed in range(4):
        users, _ = population(cfg.system, cfg.cluster, cfg.rate_set_mbps, seed, "user_centric")
        search = PlacementSearch(users, cfg.system, cfg.environment)
        filled.clear()
        assert abs(scan(search, np.array([u.weight for u in users]), R) - R) <= TIE_EPS
        assert search.rows_computed == 1
        # the stop bound's one row and the first candidate's two fills
        assert filled == [1, 1, 1]


def test_user_centric_scan_goes_on_while_the_backhaul_is_not_reached():
    """The stop bound, the fill of all users at R, ends the scan only once
    the incumbent reaches it.

    - Bandwidth binds at the heaviest candidate (0.5 MHz): its solve stays
      below R, and another candidate does better.
    - R sits 4e-10 under a point of the weight grid, which a selection
      reaches within the solvers' feasibility slack; the heaviest candidate
      (ten 0.7 Mbps users) cannot reach that point, five 1 Mbps users out
      of its reach can. Without the room the bound leaves for that slack,
      the scan would stop at 4.9.
    """
    cases = (
        (default_system(**SMALL_GRID, backhaul_mbps=12.0, bandwidth_mhz=0.5, pl_max_db=100.0),
         cluster_users("user_centric", counts=(8, 6), rates=(2.0, 1.0))),
        (default_system(**SMALL_GRID, backhaul_mbps=5.0 - 4e-10, pl_max_db=100.0),
         cluster_users("user_centric", counts=(10, 5), rates=(0.7, 1.0))),
    )
    for sys, users in cases:
        w = np.array([u.weight for u in users])
        search = PlacementSearch(users, sys, URBAN)
        objectives = solve_every_candidate(search, w, sys.backhaul_mbps)
        weight = _Weighting(search, w).sum_w.reshape(-1)
        heaviest = int(np.argmax(weight))
        assert weight[heaviest] >= sys.backhaul_mbps
        assert objectives[heaviest] < np.max(objectives) - TIE_EPS
        assert abs(scan(search, w, sys.backhaul_mbps) - np.max(objectives)) <= TIE_EPS
    assert np.max(objectives) == 5.0


def test_a_large_rate_class_keeps_the_exact_solves_small():
    """Twenty users of one rate class in one cluster, user-centric weights,
    R = 20 Mbps: every selection that leaves out one of them and takes a
    later one needing no less bandwidth ties an earlier selection, so the
    search skips it. Without that rule the 50 solves ran for seconds at
    B = 0.5 MHz and for minutes at 1 MHz; with it they stay within a node
    budget, and the scan still finds their best objective."""
    nodes = 0
    for bandwidth_mhz, pl_max_db in ((0.5, 110.0), (1.0, 120.0)):
        sys = default_system(**SMALL_GRID, backhaul_mbps=20.0, bandwidth_mhz=bandwidth_mhz, pl_max_db=pl_max_db)
        users = cluster_users("user_centric")
        w = np.array([u.weight for u in users])
        search = PlacementSearch(users, sys, URBAN)
        results = solve_each_candidate(search, w, sys.backhaul_mbps)
        nodes += sum(res.nodes_explored for res in results)
        best = max(res.objective for res in results)
        assert abs(scan(search, w, sys.backhaul_mbps) - best) <= TIE_EPS
    assert nodes <= 200_000


def test_weight_sums_are_kept_per_weighting(monkeypatch):
    """A sweep solves one weighting at many backhaul values, and each
    candidate's eligible weight and the scan's order depend on the
    weighting alone: they are built once, and again only when the
    weighting changes."""
    from droneplace import placement

    sys = small_system()
    users = scattered_users(np.random.default_rng(9), 15)
    rates = [u.rate_mbps for u in users]
    want = [PlacementSearch(users, sys, URBAN).place(2.0, weights=w) for w in (None, rates)]
    sums = []
    monkeypatch.setattr(placement, "_Weighting", lambda search, w: sums.append(1) or _Weighting(search, w))
    search = PlacementSearch(users, sys, URBAN)
    for R in (1.0, 2.0, 4.0):
        search.place(R)
    assert len(sums) == 1
    assert search.place(2.0, weights=rates) == want[1]
    assert search.place(2.0) == want[0]
    assert len(sums) == 3


def test_class_fill_matches_the_fill_of_the_users():
    """The backhaul-side fill of class counts equals the fill of the users
    they count, within 1e-9, on random eligibility rows: weights whose
    weight per rate differs by class, equals 1 throughout (user-centric) or
    ties across some classes, at caps of 0, past every user, at each
    class's whole weight and in between. With weights that vary within a
    class, each class weighs as its heaviest user, and the class fill
    bounds the users' fill on every row."""
    users = scattered_users(np.random.default_rng(41), 60)
    search = PlacementSearch(users, small_system(), URBAN)
    r = search.rates
    rows = np.random.default_rng(43).random((200, len(users))) < np.linspace(0.0, 1.0, 200)[:, None]
    per_rate = {0.1: 1.0, 0.5: 1.0, 1.0: 1.0, 1.5: 1.5, 2.0: 2.0}  # three classes tie at 1
    varying = np.random.default_rng(53).choice([0.5, 1.0, 1.5, 2.0], len(r))
    for w in (np.ones(len(r)), r.copy(), np.array([per_rate[v] for v in r]), varying):
        wt = _Weighting(search, w)
        heaviest = [np.max(w[search.user_class == k]) for k in range(len(search.class_rates))]
        assert np.array_equal(wt.class_w, heaviest)
        assert np.array_equal(wt.class_w[search.user_class], w) == (w is not varying)
        by = _ratio_order(w, r)
        for cap in (0.0, float(np.sum(r)) + 1.0, *np.cumsum(search.class_rates * np.bincount(search.user_class)),
                    *np.random.default_rng(47).uniform(0.0, np.sum(r), 5)):
            want = _fill(rows[:, by], w[by], r[by], cap)[0]
            got = wt.rate_fill(rows @ search._one_hot, cap)
            if w is varying:
                assert np.all(got >= want - 1e-9), cap
            else:
                assert np.allclose(got, want, rtol=0.0, atol=1e-9), cap


def test_solvers_and_a_warm_place_leave_no_cyclic_garbage():
    """Neither solver nor a second ``place`` leaves garbage only the cycle
    collector frees: a self-referring search closure once kept every
    solve's bound tables alive until a full collection."""
    import gc

    cfg = load_config()
    users, _ = population(cfg.system, cfg.cluster, cfg.rate_set_mbps, 4, "network_centric")
    search = PlacementSearch(users, cfg.system, cfg.environment)
    problem = SelectionInstance([1.0] * 6, [0.1, 0.5, 1.0, 1.5, 2.0, 0.5], [0.1, 0.2, 0.3, 0.1, 0.2, 0.3], 2.0, 0.5)
    search.place()
    gc.disable()
    try:
        gc.collect()
        solve_bnb(problem)
        assert gc.collect() == 0
        solve_value(problem)
        solve_value(SelectionInstance(problem.rates_mbps, problem.rates_mbps, problem.bandwidths_mhz, 2.0, 0.5))
        assert gc.collect() == 0
        search.place()
        search.place(30.0, weights=search.rates)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nothing_served_keeps_the_first_candidate():
    """With no user, no reachable user, or no backhaul, there is no margin to widen."""
    far = [User(id=0, x_m=50_000.0, y_m=50_000.0, rate_mbps=1.0)]
    near = [User(id=0, x_m=300.0, y_m=300.0, rate_mbps=1.0)]
    # in reach of the x = 600 m candidates only, not of the first one
    aside = [User(id=0, x_m=1850.0, y_m=600.0, rate_mbps=1.0)]
    cases = (
        ([], small_system()),
        (far, small_system()),
        (near, small_system(backhaul_mbps=0.0)),
        (aside, small_system(backhaul_mbps=0.0)),
    )
    for users, sys in cases:
        res = optimal_placement(users, sys, URBAN)
        assert res.served_count == 0
        assert res.placement == candidate_grid(sys)[0]


def test_removing_a_user_never_raises_the_objective():
    sys = small_system(backhaul_mbps=2.0)
    rng = np.random.default_rng(13)
    users = scattered_users(rng, 6, weighted=True)
    base = optimal_placement(users, sys, URBAN).objective
    for drop in range(len(users)):
        rest = [u for i, u in enumerate(users) if i != drop]
        assert optimal_placement(rest, sys, URBAN).objective <= base + 1e-9


def test_served_users_recheck_below_the_pathloss_threshold():
    sys = small_system(backhaul_mbps=2.0)
    rng = np.random.default_rng(17)
    users = scattered_users(rng, 12, span=3000.0)
    res = optimal_placement(users, sys, URBAN)
    for u, taken in zip(users, res.selected):
        if taken:
            d = np.hypot(u.x_m - res.placement.x_m, u.y_m - res.placement.y_m)
            assert pathloss_db(d, res.placement.h_m, URBAN, sys.carrier_hz) <= sys.pl_max_db


def test_mode_comparison_on_the_same_population():
    sys = small_system(backhaul_mbps=3.0)
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        base = scattered_users(rng, 14)
        nc = optimal_placement(assign_weights(base, "network_centric"), sys, URBAN)
        uc = optimal_placement(assign_weights(base, "user_centric"), sys, URBAN)
        # serving count is the network-centric objective; served rate the
        # user-centric one; each mode must win its own game
        assert nc.served_count >= uc.served_count
        assert uc.rate_used_mbps >= nc.rate_used_mbps - 1e-9


def test_sampled_population_end_to_end():
    bounds = AreaBounds(0.0, 600.0, 0.0, 600.0)
    from droneplace.users import ClusterConfig

    cfg = ClusterConfig(
        parent_density_per_m2=2.0 / bounds.area_m2,
        mean_users_per_cluster=6.0,
        cluster_radius_m=80.0,
    )
    users = assign_weights(
        sample_users(bounds, cfg, [0.1, 0.5, 1.0, 1.5, 2.0], seed=2),
        "network_centric",
    )
    sys = small_system(backhaul_mbps=5.0)
    res = optimal_placement(users, sys, URBAN)
    assert res.candidates_evaluated == 18
    assert res.rate_used_mbps <= 5.0 + 1e-9
    assert res.bandwidth_used_mhz <= sys.bandwidth_mhz + 1e-9
    assert 0 < res.served_count <= len(users)


def test_search_object_reuse_matches_fresh_solves():
    sys = small_system()
    rng = np.random.default_rng(21)
    users = scattered_users(rng, 10, weighted=True)
    weights = [u.weight for u in users]
    search = PlacementSearch(users, sys, URBAN)
    for R in (1.0, 2.0, 4.0):
        reused = search.result(search.solve(weights, R), weights, backhaul_mbps=R)
        fresh = optimal_placement(users, default_system(
            bounds=sys.bounds,
            grid_step_m=sys.grid_step_m,
            h_min_m=sys.h_min_m,
            h_max_m=sys.h_max_m,
            backhaul_mbps=R,
        ), URBAN)
        assert reused.placement == fresh.placement
        assert reused.selected == fresh.selected


def test_place_with_other_weights_matches_a_search_of_those_users():
    sys = small_system(backhaul_mbps=2.0)
    users = scattered_users(np.random.default_rng(23), 12)
    search = PlacementSearch(users, sys, URBAN)
    for mode in ("user_centric", "network_centric"):
        weighted = assign_weights(users, mode)
        got = search.place(weights=[u.weight for u in weighted])
        assert got == PlacementSearch(weighted, sys, URBAN).place()


def test_system_params_validation():
    with pytest.raises(ValueError):
        default_system(h_min_m=400.0, h_max_m=100.0)
    with pytest.raises(ValueError):
        default_system(grid_step_m=0.0)
    with pytest.raises(ValueError):
        default_system(tx_power_w=0.0)
    # the selection instances take finite budgets only
    for budget in ("backhaul_mbps", "bandwidth_mhz"):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                default_system(**{budget: bad})
