"""Branch-and-bound tests against exhaustive segment enumeration."""

import dataclasses
import io

import numpy as np
import pytest

from dedpoz import build_milp1, build_milp2, evaluate_cost, evaluate_violations, solve_milp
from dedpoz.bnb import (
    FEASIBLE_TIME_LIMIT,
    MILP_INFEASIBLE,
    OPTIMAL_WITHIN_GAP,
    BnbConfig,
    rounding_heuristic,
)
from dedpoz.milp import DEFAULT_TANGENT_STEPS, GE, tangent_gap_bound
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
