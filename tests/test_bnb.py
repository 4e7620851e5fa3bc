"""Branch-and-bound tests against exhaustive segment enumeration."""

import contextlib
import dataclasses
import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dedpoz import (ValidationError, build_milp1, build_milp2, evaluate_cost,
                    evaluate_violations, load_instance, solve_milp)
from dedpoz.bnb import (
    FEASIBLE_TIME_LIMIT,
    MILP_INFEASIBLE,
    OPTIMAL_WITHIN_GAP,
    BnbConfig,
    rounding_heuristic,
)
from dedpoz.milp import (BINARY, CONTINUOUS, DEFAULT_TANGENT_STEPS, GE, Constraint, MilpModel,
                         Variable, lp_relaxation, tangent_gap_bound)
from dedpoz.simplex import INFEASIBLE as LP_INFEASIBLE
from dedpoz.simplex import OPTIMAL as LP_OPTIMAL
from dedpoz.simplex import PreparedLp
from dedpoz.system import SystemInstance
from support import (enumeration_milp_min, highs_milp, make_unit, random_lossless_instance,
                     random_lossy_instance)

TIGHT = BnbConfig(gap=1e-9)


def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(10):
        instance = random_lossless_instance(rng, n_units=2, n_periods=2)
        model, varmap = build_milp1(instance, tangent_steps=3)
        best, _ = enumeration_milp_min(instance, model, varmap)
        sol = solve_milp(model, varmap, TIGHT)
        assert sol.status == OPTIMAL_WITHIN_GAP
        assert sol.objective == pytest.approx(best, rel=1e-6, abs=1e-6)
        assert sol.best_bound <= sol.objective + 1e-9

        schedule = varmap.extract_schedule(sol.values)
        audit = evaluate_violations(instance, schedule, use_loss=False)
        assert audit.feasible
        assert audit.max_violation <= 1e-5
        # the true cost sits within the tangent envelope error of the objective
        exact = evaluate_cost(instance, schedule)
        bound = tangent_gap_bound(instance, schedule, 3)
        assert -1e-6 <= exact - sol.objective <= bound + 1e-6


def test_snapped_binaries_are_integral():
    rng = np.random.default_rng(33)
    instance = random_lossless_instance(rng, n_units=3, n_periods=2)
    model, varmap = build_milp1(instance, tangent_steps=2)
    sol = solve_milp(model, varmap, BnbConfig(gap=1e-6))
    assert sol.has_incumbent
    bin_idx = [j for j, v in enumerate(model.variables) if v.kind == "binary"]
    picked = np.asarray(sol.values)[bin_idx]
    assert np.abs(picked - np.round(picked)).max() <= 1e-9
    assert set(np.round(picked)) <= {0.0, 1.0}
    assert not sol.values.flags.writeable


def snap_model(y_floor):
    """min x + 2y over y binary and x in [0, 10], with y >= ``y_floor`` and
    x + y >= 1.5: the LP optimum puts y on its floor."""
    variables = (Variable("x", CONTINUOUS, 0.0, 10.0), Variable("y", BINARY, 0.0, 1.0))
    rows = (Constraint("floor", ((1, 1.0),), GE, y_floor),
            Constraint("cover", ((0, 1.0), (1, 1.0)), GE, 1.5))
    return MilpModel(variables, rows, ((0, 1.0), (1, 2.0))).validate()


@pytest.mark.parametrize("y_floor, pinned", [(0.9995, 1.0), (0.0005, None)])
def test_binaries_integral_only_to_tolerance_are_snapped(y_floor, pinned):
    # y sits 5e-4 from an integer: integral at int_tol = 1e-3 but not at the
    # snap's 1e-9, so the search ends at the root and the snap re-solves
    # with y pinned.  Pinned at 1 the LP is feasible and its answer is
    # taken; pinned at 0 it breaks the floor, and the LP point stays.
    model = snap_model(y_floor)
    prep = PreparedLp(lp_relaxation(model))
    root = prep.solve()
    assert 1e-9 < abs(root.values[1] - round(root.values[1])) <= 1e-3
    # the snap costs 5e-4 of 2.5, so a gap of 1e-3 still covers it
    sol = solve_milp(model, None, BnbConfig(gap=1e-3, int_tol=1e-3))
    assert sol.status == OPTIMAL_WITHIN_GAP and sol.nodes_explored == 1
    if pinned is None:
        assert prep.solve(lower=[0.0, 0.0], upper=[10.0, 0.0]).status == LP_INFEASIBLE
        np.testing.assert_array_equal(sol.values, root.values)
        assert sol.objective == root.objective
    else:
        again = prep.solve(lower=[0.0, pinned], upper=[10.0, pinned])
        assert again.status == LP_OPTIMAL
        assert sol.values[1] == pinned
        np.testing.assert_allclose(sol.values, again.values, rtol=0.0, atol=1e-12)
        assert sol.objective == pytest.approx(again.objective, rel=1e-12)
        assert sol.objective > root.objective + 1e-4


def test_snap_that_costs_more_than_the_gap_keeps_a_closed_search_optimal():
    # the search closes at the root on y = 0.9995 (objective 2.4995); the
    # snap to y = 1 costs 2e-4 of 2.5, twice the default gap, but no limit
    # stopped the search, so its status stands and the objective is the
    # snapped one
    sol = solve_milp(snap_model(0.9995), None, BnbConfig(int_tol=1e-3))
    assert sol.status == OPTIMAL_WITHIN_GAP and not sol.limit_hit
    assert sol.objective == pytest.approx(2.5, rel=1e-12)
    assert sol.values[1] == 1.0
    assert sol.rel_gap == pytest.approx(2e-4, rel=1e-6)


def test_deterministic_replay():
    rng = np.random.default_rng(77)
    instance = random_lossless_instance(rng)
    model, varmap = build_milp1(instance, tangent_steps=4)
    a = solve_milp(model, varmap, BnbConfig(gap=1e-6))
    b = solve_milp(model, varmap, BnbConfig(gap=1e-6))
    assert a.objective == b.objective
    assert a.nodes_explored == b.nodes_explored
    assert a.node_log == b.node_log
    np.testing.assert_array_equal(a.values, b.values)


def test_node_log_is_consistent():
    rng = np.random.default_rng(55)
    instance = random_lossless_instance(rng, n_units=2, n_periods=3)
    model, varmap = build_milp1(instance, tangent_steps=4)
    stream = io.StringIO()
    sol = solve_milp(model, varmap, BnbConfig(gap=1e-9, log_stream=stream))
    assert len(sol.node_log) == sol.nodes_explored
    for count, depth, bound, incumbent in sol.node_log:
        assert 1 <= count <= sol.nodes_explored
        assert depth >= 0
        if np.isfinite(incumbent):
            assert bound <= incumbent + 1e-9
    assert sol.node_log[-1][0] == sol.nodes_explored
    lines = [ln for ln in stream.getvalue().splitlines() if ln]
    assert len(lines) == sol.nodes_explored
    assert all(ln.startswith("node ") for ln in lines)


def test_rounding_heuristic_picks_largest_selector():
    instance = SystemInstance(
        units=(make_unit(uid=1, zones=((20.0, 25.0), (30.0, 35.0))),),
        demand=np.array([30.0]), reserve=np.zeros(1))
    model, varmap = build_milp1(instance, tangent_steps=1)
    values = np.zeros(model.n_variables)
    idxs = varmap.u_seg[0][0]
    values[idxs[0]] = 0.2
    values[idxs[1]] = 0.5
    values[idxs[2]] = 0.3
    plan = rounding_heuristic(values, varmap)
    assert plan == {idxs[0]: 0, idxs[1]: 1, idxs[2]: 0}
    # ties resolve to the lowest segment
    values[idxs[0]] = 0.5
    plan = rounding_heuristic(values, varmap)
    assert plan[idxs[0]] == 1 and plan[idxs[1]] == 0


def test_infeasible_when_demand_exceeds_capacity():
    instance = SystemInstance(units=(make_unit(p_min=10, p_max=20),),
                              demand=np.array([50.0]), reserve=np.zeros(1))
    model, varmap = build_milp1(instance)
    sol = solve_milp(model, varmap)
    assert sol.status == MILP_INFEASIBLE
    assert not sol.has_incumbent
    assert sol.objective == np.inf
    assert sol.rel_gap == np.inf


def test_demand_inside_a_zone_is_infeasible():
    instance = SystemInstance(units=(make_unit(p_min=10, p_max=40,
                                               zones=((20.0, 25.0),)),),
                              demand=np.array([22.0]), reserve=np.zeros(1))
    model, varmap = build_milp1(instance)
    sol = solve_milp(model, varmap)
    assert sol.status == MILP_INFEASIBLE


@pytest.mark.parametrize("name, value", [
    ("gap", float("nan")), ("gap", -1.0),
    ("time_limit_s", float("nan")), ("time_limit_s", -1.0),
    ("int_tol", float("nan")), ("int_tol", -1e-6),
    ("node_limit", -1), ("node_limit", 2.0), ("node_limit", True), ("node_limit", np.float64(3)),
])
def test_config_rejects_bad_fields(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be"):
        BnbConfig(**{name: value})


def test_config_takes_no_limit_and_zero_limits():
    for value in (None, 0):
        config = BnbConfig(time_limit_s=value, node_limit=value)
        assert config.time_limit_s == value and config.node_limit == value
    # numpy integers count as node limits, as they do as iteration budgets
    assert BnbConfig(node_limit=np.int64(5)).node_limit == 5


def test_node_limit_interrupts_search():
    rng = np.random.default_rng(2)
    instance = None
    model = varmap = None
    full = None
    for _ in range(40):
        candidate = random_lossless_instance(rng)
        m, vm = build_milp1(candidate, tangent_steps=4)
        sol = solve_milp(m, vm, BnbConfig(gap=1e-9))
        if sol.status == OPTIMAL_WITHIN_GAP and sol.nodes_explored >= 2:
            instance, model, varmap, full = candidate, m, vm, sol
            break
    assert instance is not None, "no branching instance found in 40 draws"

    cut = solve_milp(model, varmap, BnbConfig(gap=1e-9, node_limit=1))
    assert cut.limit_hit
    assert cut.nodes_explored == 1
    if cut.has_incumbent:
        assert cut.status == FEASIBLE_TIME_LIMIT
        assert cut.objective >= full.objective - 1e-9
    else:
        assert cut.status == MILP_INFEASIBLE

    halted = solve_milp(model, varmap, BnbConfig(gap=1e-9, node_limit=0))
    assert halted.limit_hit and halted.nodes_explored == 0
    assert halted.node_log == ()


def test_limit_before_any_incumbent_is_infeasible_with_limit_hit():
    rng = np.random.default_rng(2)
    model, varmap = build_milp1(random_lossless_instance(rng), tangent_steps=4)
    assert solve_milp(model, varmap).status == OPTIMAL_WITHIN_GAP
    halted = solve_milp(model, varmap, BnbConfig(time_limit_s=0))
    assert halted.nodes_explored == 0
    assert halted.status == MILP_INFEASIBLE and halted.limit_hit
    assert not halted.has_incumbent


def test_heuristic_incumbent_never_beats_exact_optimum():
    rng = np.random.default_rng(13)
    for _ in range(6):
        instance = random_lossless_instance(rng, n_units=2, n_periods=2)
        model, varmap = build_milp1(instance, tangent_steps=2)
        best, _ = enumeration_milp_min(instance, model, varmap)
        for use_heuristic in (False, True):
            sol = solve_milp(model, varmap,
                             BnbConfig(gap=1e-9, use_heuristic=use_heuristic))
            assert sol.status == OPTIMAL_WITHIN_GAP
            assert sol.objective >= best - 1e-6
            assert sol.objective == pytest.approx(best, rel=1e-6, abs=1e-6)


def worst_row_shortfall(model, values, lazy):
    """Largest amount by which a >= row with the given lazy mark fails."""
    return max((con.rhs - sum(c * values[j] for j, c in con.coeffs)
                for con in model.constraints if con.lazy == lazy and con.sense == GE),
               default=0.0)


def test_incumbent_that_breaks_a_deferred_row_is_refused(monkeypatch):
    rng = np.random.default_rng(101)
    instance = random_lossless_instance(rng, n_units=2, n_periods=2)
    model, varmap = build_milp1(instance, tangent_steps=3)
    cuts = {}
    for con in model.constraints:
        if con.name.startswith("cut("):
            cuts.setdefault(con.coeffs[0][0], []).append(con)
    real_solve = PreparedLp.solve
    broken = []

    def under_priced(prep, *args, **kwargs):
        # claim optimal at a point whose segment costs only meet the
        # endpoint cuts, so interior (lazy) cuts fail and nothing else does
        sol = real_solve(prep, *args, **kwargs)
        if sol.status != LP_OPTIMAL:
            return sol
        values = np.array(sol.values)
        for z, rows in cuts.items():
            values[z] = max(-sum(c * values[j] for j, c in con.coeffs[1:])
                            for con in rows if not con.lazy)
        assert worst_row_shortfall(model, values, lazy=False) <= 1e-9
        broken.append(worst_row_shortfall(model, values, lazy=True) > 1e-3)
        return dataclasses.replace(sol, values=values)

    monkeypatch.setattr(PreparedLp, "solve", under_priced)
    sol = solve_milp(model, varmap, TIGHT)
    assert any(broken)
    if sol.has_incumbent:
        assert worst_row_shortfall(model, sol.values, lazy=True) <= 1e-6
    else:
        assert sol.limit_hit and sol.status == MILP_INFEASIBLE


# ----- optimum against HiGHS, at sizes past the enumeration oracles -----------

def assert_matches_highs(model, sol, gap):
    status, objective = highs_milp(model)
    assert sol.status == (OPTIMAL_WITHIN_GAP if status == "optimal" else MILP_INFEASIBLE)
    assert not sol.limit_hit
    if status == "optimal":
        assert abs(sol.objective - objective) <= gap * abs(objective) + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_milp1_and_one_milp2_pass_match_highs(seed):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(700 + seed)
    instance = random_lossy_instance(rng, n_units=int(rng.integers(4, 9)),
                                     n_periods=int(rng.integers(4, 9)))
    config = BnbConfig()
    model, varmap = build_milp1(instance)
    sol = solve_milp(model, varmap, config)
    assert_matches_highs(model, sol, config.gap)
    # one loss pass, anchored at the lossless schedule
    anchor = varmap.extract_schedule(sol.values).p
    model, varmap = build_milp2(instance, DEFAULT_TANGENT_STEPS, anchor)
    assert_matches_highs(model, solve_milp(model, varmap, config), config.gap)


# ----- node LPs reuse the kernel inverse of their parent's basis ------------

def solve_recorded(model, varmap, with_kernel):
    """``solve_milp`` with each LP's ``(status, pivots, iterations,
    objective)`` and the count of ``np.linalg.inv`` calls recorded; without
    the kernel, every basis an LP solve returns has it stubbed to None (the
    restarts inside a solve, after rows join, still reuse theirs)."""
    lp_solve, inv = PreparedLp.solve, np.linalg.inv
    lps, inversions = [], [0]

    def record(prep, *args, **kwargs):
        sol = lp_solve(prep, *args, **kwargs)
        lps.append((sol.status, sol.pivots, sol.iterations, sol.objective))
        if not with_kernel and sol.basis is not None:
            sol = dataclasses.replace(sol, basis=dataclasses.replace(sol.basis, kernel=None))
        return sol

    def count(a):
        inversions[0] += 1
        return inv(a)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(PreparedLp, "solve", record))
        stack.enter_context(mock.patch.object(np.linalg, "inv", count))
        sol = solve_milp(model, varmap, BnbConfig(gap=1e-6))
    return sol, lps, inversions[0]


def differential_models():
    rng = np.random.default_rng(1501)
    for k in range(9):  # small_batch-style: 1 to 3 units, 2 to 4 periods
        instance = random_lossless_instance(rng, n_units=1 + k % 3, n_periods=2 + k // 3)
        yield build_milp1(instance, tangent_steps=4)
    for _ in range(8):  # MILP-1 and one MILP-2 pass, lossy_refine-sized
        instance = random_lossy_instance(rng, n_units=int(rng.integers(5, 7)), n_periods=4)
        model, varmap = build_milp1(instance)
        yield model, varmap
        anchor = varmap.extract_schedule(solve_milp(model, varmap).values).p
        yield build_milp2(instance, DEFAULT_TANGENT_STEPS, anchor)


def test_kernel_reuse_keeps_the_answer_and_inverts_only_the_root():
    # a kernel read off an updated inverse is not bit for bit a fresh one,
    # so a search may take another path; it must reach the same answer
    branched = saved = 0
    for model, varmap in differential_models():
        a, a_lps, a_inv = solve_recorded(model, varmap, with_kernel=True)
        b, b_lps, b_inv = solve_recorded(model, varmap, with_kernel=False)
        assert a.status == b.status == OPTIMAL_WITHIN_GAP
        assert a.objective == pytest.approx(b.objective, rel=1e-9)
        assert all(lp[0] in (LP_OPTIMAL, LP_INFEASIBLE) for lp in a_lps + b_lps)
        assert a_inv == 1  # the root's crash basis; every other LP reuses a kernel
        assert b_inv == len(b_lps)
        branched += a.nodes_explored > 1
        saved += b_inv - a_inv
    assert branched >= 5 and saved >= 25


def test_root_basis_is_returned_with_its_inverse():
    rng = np.random.default_rng(1502)
    model, varmap = build_milp1(random_lossy_instance(rng))
    root = PreparedLp(lp_relaxation(model)).solve()
    prep = PreparedLp(lp_relaxation(model))
    sol = solve_milp(model, varmap, prepared=prep)
    assert sol.root_basis is not None
    np.testing.assert_array_equal(sol.root_basis.basic_idx, root.basis.basic_idx)
    # the inverse it carries is of the caller's prepared model, and inverts
    # the root basis over the rows it covers
    token, rows, cols, at, of, vals = sol.root_basis.kernel
    assert token is prep.token
    np.testing.assert_array_equal(cols, sol.root_basis.basic_idx[rows])
    n, k = prep.n_struct, rows.size
    full = np.zeros((prep.m, prep.ncols))
    full[prep.rows_nz, prep.cols_nz] = prep.vals_nz
    full[np.arange(prep.m), n + np.arange(prep.m)] = 1.0
    b_inv = np.zeros((k, k))
    b_inv[np.searchsorted(rows, at), np.searchsorted(rows, of)] = vals
    np.testing.assert_allclose(b_inv @ full[np.ix_(rows, cols)], np.eye(k), rtol=0.0, atol=1e-9)


def test_loss_off_layout_solves_like_milp1():
    # MILP-2 with no anchors is MILP-1 plus one fixed qloss column and one
    # qloss row per period: the search must not notice them
    rng = np.random.default_rng(1601)
    branched = 0
    for _ in range(5):
        instance = random_lossy_instance(rng)
        off, off_map = build_milp2(instance, 4, None)
        m1, vm1 = build_milp1(instance, 4)
        a, b = solve_milp(off, off_map), solve_milp(m1, vm1)
        assert a.status == b.status == OPTIMAL_WITHIN_GAP
        assert a.nodes_explored == b.nodes_explored
        assert a.objective == pytest.approx(b.objective, rel=1e-9)
        np.testing.assert_allclose(off_map.extract_schedule(a.values).p,
                                   vm1.extract_schedule(b.values).p, rtol=0, atol=1e-9)
        branched += a.nodes_explored > 1
    assert branched >= 1


def test_nodes_come_off_by_best_bound(monkeypatch):
    # a node's bound is the objective of the LP whose basis it starts from,
    # so in best-bound order the bounds of the warm-started LPs never fall;
    # this case has open nodes of bounds 974.2930 and 974.2954, and a
    # depth-first step that takes the second first breaks the order
    instance = load_instance(Path(__file__).parent / "fixtures"
                             / "small_batch_s101_seed100.json")
    model, varmap = build_milp1(instance, tangent_steps=4)
    objective_of = {}  # id of each basis an LP returned -> (basis, objective)
    bounds = []
    solve = PreparedLp.solve

    def spy(prep, *args, **kwargs):
        warm = kwargs.get("warm_start")
        if warm is not None:
            bounds.append(objective_of[id(warm)][1])
        sol = solve(prep, *args, **kwargs)
        if sol.basis is not None:
            objective_of[id(sol.basis)] = (sol.basis, sol.objective)
        return sol

    monkeypatch.setattr(PreparedLp, "solve", spy)
    sol = solve_milp(model, varmap, BnbConfig(gap=1e-4))
    assert sol.status == OPTIMAL_WITHIN_GAP
    assert sol.nodes_explored >= 4
    assert bounds == sorted(bounds)
