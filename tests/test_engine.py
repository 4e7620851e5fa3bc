"""End-to-end dispatch driver tests, lossless and lossy."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dedpoz import (
    IaConfig,
    InfeasibleError,
    LossModel,
    SystemInstance,
    ValidationError,
    duplicate_system,
    evaluate_cost,
    evaluate_violations,
    load_instance,
    midpoint_anchor,
    scaled_cpu_time,
    solve_ded_no_loss,
    solve_ded_with_loss,
)
from dedpoz import BnbConfig, build_milp1, build_milp2, engine, solve_milp
from dedpoz.milp import _reanchor, lp_relaxation, tangent_gap_bound
from dedpoz.oracle import dp_error_bound, dp_exact_dispatch
from dedpoz.simplex import OPTIMAL, PreparedLp, _Run
from support import (
    loop_cost,
    loop_loss_mw,
    make_unit,
    random_lossless_instance,
    random_lossy_instance,
    symmetric_three_unit,
)

FAST = IaConfig(gap=1e-6, tangent_steps=4)


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon must be > 0"):
        IaConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="iter_max must be >= 1"):
        IaConfig(iter_max=0)
    with pytest.raises(ValidationError, match="epsilon must be > 0"):
        IaConfig(epsilon=float("nan"))
    with pytest.raises(ValidationError, match="gap must be >= 0"):
        IaConfig(gap=-1.0)
    for bad in (float("nan"), -1.0):
        with pytest.raises(ValidationError, match="time_limit_s must be >= 0 or None"):
            IaConfig(time_limit_s=bad)
    assert IaConfig(time_limit_s=None).time_limit_s is None
    assert IaConfig(time_limit_s=0).time_limit_s == 0


@pytest.mark.parametrize("value", [-1, 2.0, True])
def test_config_rejects_a_node_limit_that_is_not_a_count(value):
    with pytest.raises(ValidationError, match="node_limit must be an int >= 0 or None"):
        IaConfig(node_limit=value)


@pytest.mark.parametrize("field", ["iter_max", "tangent_steps"])
@pytest.mark.parametrize("value", [0, 2.5, 3.0, True])
def test_config_counts_that_are_not_integers_fail_at_once(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be >= 1 and an integer"):
        IaConfig(**{field: value})


def test_config_counts_take_numpy_integers():
    config = IaConfig(iter_max=np.int64(3), tangent_steps=np.int32(4), node_limit=np.int64(5))
    assert config.iter_max == 3 and config.tangent_steps == 4 and config.node_limit == 5


@pytest.mark.parametrize("call", [
    lambda instance: dp_exact_dispatch(instance, float("nan")),
    lambda instance: dp_exact_dispatch(instance, float("inf")),
    lambda instance: scaled_cpu_time(float("nan"), 1.0, 2.0),
    lambda instance: scaled_cpu_time(2.0, float("inf"), 2.0),
    lambda instance: scaled_cpu_time(2.0, 1.0, float("nan")),
    lambda instance: scaled_cpu_time(2.0, 1.0, -1.0),
    lambda instance: solve_ded_with_loss(instance),
], ids=["dp-delta-nan", "dp-delta-inf", "cpu-speed-nan", "cpu-speed-inf", "cpu-time-nan",
        "cpu-time-negative", "lossy-driver-on-lossless"])
def test_public_helpers_reject_bad_input_with_a_validation_error(call):
    instance = random_lossless_instance(np.random.default_rng(3), n_units=2, n_periods=2)
    with pytest.raises(ValidationError):
        call(instance)


def test_midpoint_anchor():
    a = np.array([[10.0, 20.0]])
    b = np.array([[30.0, 10.0]])
    np.testing.assert_allclose(midpoint_anchor(a, b), [[20.0, 15.0]])
    np.testing.assert_allclose(midpoint_anchor(a, a), a)


def test_single_unit_output_is_forced_by_balance():
    instance = SystemInstance(
        units=(make_unit(alpha=4.0, beta=1.5, gamma=0.02, p_min=10, p_max=50),),
        demand=np.array([30.0, 40.0]), reserve=np.array([2.0, 2.0]))
    report = solve_ded_no_loss(instance, FAST)
    np.testing.assert_allclose(report.schedule.p, [[30.0], [40.0]], atol=1e-6)
    true = 2 * 4.0 + 1.5 * 70.0 + 0.02 * (900.0 + 1600.0)
    assert report.cost == pytest.approx(true, abs=1e-5)
    assert report.audit.feasible
    assert report.max_violation <= 1e-6
    np.testing.assert_allclose(report.losses, 0.0)
    assert report.terminated_by is None and report.chosen_k is None
    assert len(report.iterations) == 1
    assert report.iterations[0].k == 1 and report.iterations[0].anchor is None


def test_identical_units_share_demand_near_equally():
    # the equal split costs 148; the solver minimizes the tangent envelope,
    # whose optimal face spans one anchor spacing around the split, so the
    # realized cost may sit above 148 by at most the envelope error
    units = (make_unit(uid=1), make_unit(uid=2))
    instance = SystemInstance(units=units, demand=np.array([60.0]),
                              reserve=np.array([5.0]))
    report = solve_ded_no_loss(instance, FAST)
    p = report.schedule.p[0]
    assert p.sum() == pytest.approx(60.0, abs=1e-6)
    spacing = (50.0 - 10.0) / FAST.tangent_steps
    assert abs(p[0] - p[1]) <= spacing + 1e-6
    bound = tangent_gap_bound(instance, report.schedule, FAST.tangent_steps)
    assert 148.0 - 1e-6 <= report.cost <= 148.0 + bound + 1e-6
    assert report.schedule.sr.sum() >= 5.0 - 1e-6


def test_surrogate_sandwiches_true_cost():
    rng = np.random.default_rng(31)
    for _ in range(5):
        instance = random_lossless_instance(rng)
        report = solve_ded_no_loss(instance, FAST)
        gap = report.cost - report.surrogate_objective
        bound = tangent_gap_bound(instance, report.schedule, FAST.tangent_steps)
        assert -1e-6 <= gap <= bound + 1e-6


def test_matches_grid_dp_within_combined_tolerance():
    rng = np.random.default_rng(37)
    delta = 0.05
    for _ in range(6):
        instance = random_lossless_instance(rng)
        report = solve_ded_no_loss(instance, FAST)
        dp_cost, dp_sched = dp_exact_dispatch(instance, delta)
        slack = (dp_error_bound(instance, delta)
                 + tangent_gap_bound(instance, report.schedule,
                                     FAST.tangent_steps)
                 + FAST.gap * abs(report.cost) + 1e-6)
        assert report.cost <= dp_cost + slack
        assert dp_cost <= report.cost + slack
        assert report.audit.feasible


def test_infeasibility_is_diagnosed_before_solving():
    over = SystemInstance(units=(make_unit(p_min=10, p_max=50),),
                          demand=np.array([100.0]), reserve=np.zeros(1))
    with pytest.raises(InfeasibleError, match="period 1: total capacity"):
        solve_ded_no_loss(over)

    under = SystemInstance(units=(make_unit(uid=1), make_unit(uid=2)),
                           demand=np.array([30.0, 15.0]), reserve=np.zeros(2))
    with pytest.raises(InfeasibleError, match="period 2: total minimum output"):
        solve_ded_no_loss(under)

    thin = SystemInstance(units=(make_unit(p_min=10, p_max=50),),
                          demand=np.array([45.0]), reserve=np.array([20.0]))
    with pytest.raises(InfeasibleError, match="period 1: at most"):
        solve_ded_no_loss(thin)


def test_zone_locked_demand_raises_during_search():
    # passes the aggregate screen but every segment assignment fails balance
    instance = SystemInstance(units=(make_unit(p_min=10, p_max=40,
                                               zones=((20.0, 25.0),)),),
                              demand=np.array([22.0]), reserve=np.zeros(1))
    with pytest.raises(InfeasibleError, match="no feasible dispatch"):
        solve_ded_no_loss(instance)


def test_loss_model_is_required_for_lossy_driver():
    instance = random_lossless_instance(np.random.default_rng(1))
    with pytest.raises(ValueError, match="no loss model"):
        solve_ded_with_loss(instance)


def test_lossless_driver_ignores_attached_loss_model():
    rng = np.random.default_rng(41)
    instance = random_lossy_instance(rng)
    report = solve_ded_no_loss(instance, FAST)
    # audited without loss, the balance should close exactly
    assert report.max_violation <= 1e-6
    np.testing.assert_allclose(report.losses, 0.0)


def test_lossy_loop_converges_and_reports_iterations():
    rng = np.random.default_rng(43)
    for _ in range(3):
        instance = random_lossy_instance(rng)
        report = solve_ded_with_loss(instance, IaConfig(gap=1e-5))
        assert report.terminated_by == "epsilon"
        assert report.chosen_k is not None and report.chosen_k >= 3
        assert report.max_violation < 0.1
        assert report.audit.feasible
        assert (report.losses > 0).all()
        ks = [it.k for it in report.iterations]
        assert ks == list(range(1, len(ks) + 1))
        assert report.chosen_k == ks[-1]
        chosen = report.iterations[report.chosen_k - 1]
        assert report.max_violation == pytest.approx(chosen.max_balance_error,
                                                     abs=1e-9)
        assert report.iterations[0].anchor is None
        assert report.cost == pytest.approx(loop_cost(instance, report.schedule.p),
                                            rel=1e-9)


def test_anchor_policy_replays_exactly():
    # pass 2 linearizes around the lossless dispatch; pass 3 around the
    # midpoint of the pass-1 and pass-2 dispatches.  The solver stack is
    # deterministic, so replaying the first two passes by hand as the loop
    # runs them, on one prepared loss-off model that pass 2 edits, started
    # from pass 1's root basis, must reproduce the recorded anchors bit for
    # bit.
    rng = np.random.default_rng(47)
    instance = random_lossy_instance(rng)
    cfg = IaConfig(gap=1e-5)
    report = solve_ded_with_loss(instance, cfg)
    assert report.iterations[1].anchor.shape == (instance.n_periods,
                                                 instance.n_units)

    bnb = BnbConfig(gap=cfg.gap, time_limit_s=cfg.time_limit_s,
                    node_limit=cfg.node_limit)
    m1, vm = build_milp2(instance, cfg.tangent_steps, None)
    prep = PreparedLp(lp_relaxation(m1))
    s1 = solve_milp(m1, vm, bnb, prepared=prep)
    p1 = vm.extract_schedule(s1.values).p
    np.testing.assert_array_equal(report.iterations[1].anchor, p1)
    if len(report.iterations) >= 3:
        m2, rows = _reanchor(m1, vm, instance, p1)
        prep._edit(m2, rows, vm.loss_quad)
        s2 = solve_milp(m2, vm, bnb, prepared=prep, warm_start=s1.root_basis)
        p2 = vm.extract_schedule(s2.values).p
        np.testing.assert_array_equal(report.iterations[2].anchor,
                                      midpoint_anchor(p1, p2))


def test_carried_bases_give_the_cold_passes_answers(monkeypatch):
    rng = np.random.default_rng(71)
    instances = [random_lossy_instance(rng) for _ in range(4)]
    cfg = IaConfig(gap=1e-5)
    carried = [solve_ded_with_loss(inst, cfg) for inst in instances]
    started_warm = []

    def cold_solve(model, warm_start=None, **kwargs):
        started_warm.append(warm_start is not None)
        return solve_milp(model, **kwargs)

    monkeypatch.setattr(engine, "solve_milp", cold_solve)
    for inst, warm in zip(instances, carried):
        started_warm.clear()
        cold = solve_ded_with_loss(inst, cfg)
        # the loop hands every pass after the first its predecessor's basis
        assert started_warm == [False] + [True] * (len(cold.iterations) - 1)
        assert warm.terminated_by == cold.terminated_by
        assert warm.chosen_k == cold.chosen_k
        assert len(warm.iterations) == len(cold.iterations)
        for a, b in zip(warm.iterations[1:], cold.iterations[1:]):
            np.testing.assert_allclose(a.anchor, b.anchor, rtol=0, atol=1e-9)
        np.testing.assert_allclose(warm.schedule.p, cold.schedule.p, rtol=0, atol=1e-9)


def test_mapped_basis_fits_milp2_and_saves_pivots(monkeypatch):
    # the root basis of the loss-off layout, as it is, warm-starts the
    # MILP-2 linearized at that layout's dispatch
    instance = random_lossy_instance(np.random.default_rng(73))
    m1, vm1 = build_milp2(instance, 4)
    s1 = solve_milp(m1, vm1, BnbConfig(gap=1e-5))
    m2, _ = build_milp2(instance, 4, vm1.extract_schedule(s1.values).p)
    warm = s1.root_basis
    m, ncols = m2.n_constraints, m2.n_variables + m2.n_constraints
    assert warm.basic_idx.shape == (m,) and warm.status.shape == (ncols,)
    assert np.unique(warm.basic_idx).size == m
    assert np.all((warm.basic_idx >= 0) & (warm.basic_idx < ncols))

    cold = PreparedLp(lp_relaxation(m2)).solve()

    def no_cold(run, c):
        raise AssertionError("the carried basis fell back to a cold start")

    monkeypatch.setattr(_Run, "_cold", no_cold)
    carried = PreparedLp(lp_relaxation(m2)).solve(warm_start=warm)
    assert cold.status == carried.status == OPTIMAL
    assert carried.objective == pytest.approx(cold.objective, rel=1e-9)
    assert carried.pivots < cold.pivots


PREPARED_ARRAYS = ("rows_nz", "cols_nz", "vals_nz", "col_rows", "col_vals", "col_ptr",
                   "b", "row_scale", "lo_template", "hi_template", "c", "col_scale")


def assert_same_prepared(edited, fresh):
    for name in PREPARED_ARRAYS:
        a, b = getattr(edited, name), getattr(fresh, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def test_each_later_pass_edits_the_prepared_model_into_its_own(monkeypatch):
    # the loop prepares one model; each later pass's edit leaves it bit for
    # bit the prepared form of that pass's model, working rows aside
    edit = PreparedLp._edit
    checked = []

    def spy(prep, model, rows, cols):
        working = prep.active.copy()
        edit(prep, model, rows, cols)
        fresh = PreparedLp(lp_relaxation(model))
        assert_same_prepared(prep, fresh)
        np.testing.assert_array_equal(prep.active, working | fresh.active)
        checked.append(True)

    monkeypatch.setattr(PreparedLp, "_edit", spy)
    rng = np.random.default_rng(2102)
    for _ in range(4):
        report = solve_ded_with_loss(random_lossy_instance(rng), IaConfig(gap=1e-5))
        assert report.terminated_by == "epsilon"
    assert len(checked) >= 8


def test_a_lossy_solve_builds_and_prepares_one_model(monkeypatch):
    build, init = engine.build_milp2, PreparedLp.__init__
    built, prepared, searched = [], [], []

    def spy_build(*args):
        built.append(args)
        return build(*args)

    def spy_init(prep, model):
        prepared.append(prep)
        init(prep, model)

    def spy_solve(model, *args, prepared=None, **kwargs):
        searched.append(prepared)
        return solve_milp(model, *args, prepared=prepared, **kwargs)

    monkeypatch.setattr(engine, "build_milp2", spy_build)
    monkeypatch.setattr(PreparedLp, "__init__", spy_init)
    monkeypatch.setattr(engine, "solve_milp", spy_solve)
    report = solve_ded_with_loss(random_lossy_instance(np.random.default_rng(2103)),
                                 IaConfig(gap=1e-5))
    assert len(report.iterations) >= 3
    assert len(built) == 1 and built[0][2] is None  # the loss-off layout
    assert len(prepared) == 1
    assert searched == prepared * len(report.iterations)


def test_a_prepared_model_of_another_shape_is_refused():
    instance = random_lossy_instance(np.random.default_rng(2104))
    model, varmap = build_milp2(instance, 4, None)
    other, _ = build_milp1(instance, 4)
    with pytest.raises(ValidationError, match="prepared model"):
        solve_milp(model, varmap, prepared=PreparedLp(lp_relaxation(other)))
    prep = PreparedLp(lp_relaxation(model))
    with pytest.raises(ValidationError, match="another shape"):
        prep._edit(lp_relaxation(other), [0], [0])


def test_exhausted_iterations_fall_back_to_best_pass():
    rng = np.random.default_rng(53)
    instance = random_lossy_instance(rng)
    config = IaConfig(epsilon=1e-12, iter_max=5, gap=1e-5)
    report = solve_ded_with_loss(instance, config)
    assert report.terminated_by == "iter_max"
    assert len(report.iterations) == 5
    late_errors = {it.k: it.max_balance_error for it in report.iterations
                   if it.k >= 3}
    assert report.chosen_k in late_errors
    assert late_errors[report.chosen_k] == min(late_errors.values())
    assert report.max_violation == pytest.approx(late_errors[report.chosen_k],
                                                 abs=1e-9)


def test_iter_max_below_three_returns_second_pass():
    rng = np.random.default_rng(59)
    instance = random_lossy_instance(rng)
    report = solve_ded_with_loss(instance, IaConfig(iter_max=2, gap=1e-5))
    assert report.terminated_by == "iter_max"
    assert report.chosen_k == 2
    assert len(report.iterations) == 2


def test_zero_loss_model_degenerates_to_lossless():
    rng = np.random.default_rng(61)
    for _ in range(3):
        plain = random_lossless_instance(rng)
        zero = LossModel(b00=0.0, b0=np.zeros(plain.n_units),
                         b_matrix=np.zeros((plain.n_units, plain.n_units)))
        lossy = SystemInstance(units=plain.units, demand=plain.demand,
                               reserve=plain.reserve, loss_model=zero)
        tight = IaConfig(gap=1e-7)
        base = solve_ded_no_loss(plain, tight)
        looped = solve_ded_with_loss(lossy, tight)
        assert looped.cost == pytest.approx(base.cost, rel=1e-6)
        assert looped.terminated_by == "epsilon"
        np.testing.assert_allclose(looped.losses, 0.0, atol=1e-9)


def test_reported_losses_match_direct_evaluation():
    rng = np.random.default_rng(67)
    instance = random_lossy_instance(rng)
    report = solve_ded_with_loss(instance, IaConfig(gap=1e-5))
    for t in range(instance.n_periods):
        direct = loop_loss_mw(instance.loss_model, report.schedule.p[t])
        assert report.losses[t] == pytest.approx(direct, rel=1e-9, abs=1e-12)
    assert evaluate_cost(instance, report.schedule) == report.cost


def test_root_lp_drift_does_not_yield_a_false_optimum():
    # a 3x3 instance whose cold root LP once pivoted on a 1e-8 entry, drifted,
    # and came back "optimal" with p(0,1) 1.36 MW below its lower bound
    assert_agrees_with_grid_dp("small_batch_s167_seed107.json")


def test_near_zero_pivot_does_not_yield_a_false_infeasible():
    # a 1x4 instance whose root LP on the working rows once took a 1.8e-8
    # pivot in phase 1 (the entering column's largest entry was 1e5), made
    # the basis singular and ended phase 1 claiming infeasibility
    assert_agrees_with_grid_dp("small_batch_s177_seed112.json")


# HiGHS's MILP-1 optimum for the fixture: scipy.optimize.milp with
# mip_rel_gap=1e-9 (see tests/fixtures/README.md)
DED_10X24_HIGHS_OBJECTIVE = 24855.1472


def test_paper_scale_fixture_meets_the_highs_optimum():
    # 10 units over a 24-period day: its root LP runs one chain of over a
    # thousand inverse updates from the crash to the optimum
    instance = load_instance(Path(__file__).parent / "fixtures" / "ded_10x24_seed1.json")
    config = IaConfig()
    report = solve_ded_no_loss(instance, config)
    assert report.milp.status == "optimal_within_gap" and not report.milp.limit_hit
    assert evaluate_violations(instance, report.schedule, use_loss=False,
                               tol=1e-6).feasible
    assert (abs(report.surrogate_objective - DED_10X24_HIGHS_OBJECTIVE)
            <= config.gap * DED_10X24_HIGHS_OBJECTIVE)


# answers of the refinement loop on tests/fixtures/lossy_refine_l0_seed11.json
# with IaConfig(), recorded before pass 1 moved onto the loss-off MILP-2 layout
LOSSY_FIXTURE_COST = 2293.132028777939
LOSSY_FIXTURE_SURROGATE = 2293.1275727973543


def test_lossy_fixture_keeps_its_answers():
    instance = load_instance(Path(__file__).parent / "fixtures"
                             / "lossy_refine_l0_seed11.json")
    report = solve_ded_with_loss(instance, IaConfig())
    assert report.terminated_by == "epsilon"
    assert report.chosen_k == 3
    assert len(report.iterations) == 3
    assert report.cost == pytest.approx(LOSSY_FIXTURE_COST, rel=1e-6)
    assert report.surrogate_objective == pytest.approx(LOSSY_FIXTURE_SURROGATE, rel=1e-6)


# the refinement loop's answers on tests/fixtures/ded_10x24_lossy_seed1.json
# with IaConfig(), recorded when the fixture was written
DED_10X24_LOSSY_SURROGATE = 25366.256938318802


def test_paper_scale_lossy_fixture_keeps_its_answers():
    instance = load_instance(Path(__file__).parent / "fixtures"
                             / "ded_10x24_lossy_seed1.json")
    config = IaConfig()
    report = solve_ded_with_loss(instance, config)
    assert report.terminated_by == "epsilon"
    assert report.chosen_k == 3
    assert len(report.iterations) == 3
    assert (abs(report.surrogate_objective - DED_10X24_LOSSY_SURROGATE)
            <= 0.1 * config.gap * DED_10X24_LOSSY_SURROGATE)
    assert report.audit.feasible
    gap = report.cost - report.surrogate_objective
    bound = tangent_gap_bound(instance, report.schedule, config.tangent_steps)
    assert 0.0 <= gap <= bound + config.gap * report.cost


def assert_agrees_with_grid_dp(fixture):
    instance = load_instance(Path(__file__).parent / "fixtures" / fixture)
    config = IaConfig(gap=1e-4, tangent_steps=4)
    report = solve_ded_no_loss(instance, config)
    assert report.milp.status == "optimal_within_gap"
    assert evaluate_violations(instance, report.schedule, use_loss=False,
                               tol=1e-6).feasible
    delta = 0.05
    dp_cost = dp_exact_dispatch(instance, delta)[0]
    allowed = config.gap * report.cost + dp_error_bound(instance, delta)
    assert abs(report.cost - dp_cost) <= allowed


def eager_build(build):
    """A model builder whose rows carry no lazy marks."""
    def wrapped(*args, **kwargs):
        model, varmap = build(*args, **kwargs)
        rows = tuple(dataclasses.replace(con, lazy=False) for con in model.constraints)
        return dataclasses.replace(model, constraints=rows), varmap
    return wrapped


@pytest.mark.parametrize("case", ["s167_fixture", "ladder_u6"])
def test_deferred_cuts_give_the_eager_cost(case, monkeypatch):
    if case == "s167_fixture":
        instance = load_instance(Path(__file__).parent / "fixtures"
                                 / "small_batch_s167_seed107.json")
        config = IaConfig(gap=1e-4, tangent_steps=4)
    else:
        instance = duplicate_system(symmetric_three_unit(), 2)
        config = IaConfig(gap=1e-6, tangent_steps=10)
    deferred = solve_ded_no_loss(instance, config)
    monkeypatch.setattr(engine, "build_milp1", eager_build(engine.build_milp1))
    eager = solve_ded_no_loss(instance, config)
    for report in (deferred, eager):
        assert report.milp.status == "optimal_within_gap" and not report.milp.limit_hit
        assert report.audit.feasible
    assert deferred.cost == pytest.approx(eager.cost, rel=config.gap)
    assert deferred.surrogate_objective == pytest.approx(eager.surrogate_objective,
                                                         rel=config.gap)
