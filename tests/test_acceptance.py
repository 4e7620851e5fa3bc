"""Release checklist, end to end.

Each test here is one sign-off criterion and prints a single
``[acceptance] criterion N: PASS`` line on success (visible with ``-s``).
The criteria cover oracle agreement, the surrogate cost sandwich, the
loss-refinement loop, zero-loss degeneration, schedule audits including a
published 24-period reference schedule, branch-and-bound determinism,
duplication scaling, and (when the external dataset is supplied) the
published 6-unit numbers.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from dedpoz import (BnbConfig, GeneratingUnit, IaConfig, LossModel, Schedule,
                    SystemInstance, build_milp1, dp_exact_dispatch,
                    duplicate_system, evaluate_violations, load_instance,
                    solve_ded_no_loss, solve_ded_with_loss, solve_milp)
from dedpoz.oracle import dp_error_bound
from support import (loop_cost, random_lossless_instance, random_lossy_instance,
                     symmetric_three_unit)

DP_DELTA = 0.05


def _passline(n, text):
    print(f"\n[acceptance] criterion {n}: PASS ({text})")


@pytest.fixture(scope="module")
def lossless_batch():
    """100 seeded random lossless solves shared by criteria 1, 2 and 5."""
    rng = np.random.default_rng(20240501)
    cfg = IaConfig(gap=1e-4, tangent_steps=4)
    solves = []
    started = time.perf_counter()
    for _ in range(100):
        inst = random_lossless_instance(rng)
        solves.append((inst, solve_ded_no_loss(inst, cfg)))
    elapsed = time.perf_counter() - started
    return solves, elapsed, cfg


def test_criterion_1_grid_dp_agreement(lossless_batch):
    solves, elapsed, cfg = lossless_batch
    worst = -np.inf
    for inst, report in solves:
        dp_cost, _ = dp_exact_dispatch(inst, DP_DELTA)
        slack = cfg.gap * report.cost + dp_error_bound(inst, DP_DELTA)
        diff = abs(report.cost - dp_cost)
        worst = max(worst, diff - slack)
        assert diff <= slack, (
            f"solver cost {report.cost} vs grid DP {dp_cost} "
            f"differs by {diff}, allowed {slack}")
    assert elapsed < 60.0, f"criterion-1 solves took {elapsed:.1f}s"
    _passline(1, f"100 lossless instances agree with the grid DP, "
                 f"worst headroom {-worst:.3e}, solves in {elapsed:.1f}s")


def test_criterion_2_surrogate_sandwich(lossless_batch):
    solves, _, cfg = lossless_batch
    steps = cfg.tangent_steps
    for inst, report in solves:
        # independent envelope bound: widest segment of every unit, every
        # period, gamma * (w / L)^2 / 4 per term
        bound = inst.n_periods * sum(
            u.gamma * (max(s.width for s in u.segments()) / steps) ** 2 / 4.0
            for u in inst.units)
        excess = report.cost - report.surrogate_objective
        assert excess >= -1e-6
        assert excess <= bound + 1e-9
        # and the reported cost is the plain quadratic cost of the schedule
        assert report.cost == pytest.approx(
            loop_cost(inst, report.schedule.p), rel=1e-9)
    _passline(2, "exact cost sits inside the tangent envelope band "
                 "on all 100 solves")


def test_criterion_3_lossy_refinement_converges():
    rng = np.random.default_rng(909)
    cfg = IaConfig()  # epsilon 0.1 MW, 5 passes, 4 tangent cuts
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        inst = random_lossy_instance(rng)
        report = solve_ded_with_loss(inst, cfg)
        assert report.terminated_by == "epsilon"
        assert report.max_violation < 0.1
        assert len(report.iterations) <= cfg.iter_max
        assert np.all(report.losses > 0.0)
        worst = max(worst, report.max_violation)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion-3 solves took {elapsed:.1f}s"
    _passline(3, f"20 lossy instances converged below 0.1 MW "
                 f"(worst {worst:.4f} MW) in {elapsed:.1f}s")


def test_criterion_4_zero_loss_degeneration():
    rng = np.random.default_rng(4242)
    cfg = IaConfig(gap=1e-7, tangent_steps=4)
    for _ in range(20):
        base = random_lossless_instance(rng)
        zero = LossModel(b00=0.0, b0=np.zeros(base.n_units),
                         b_matrix=np.zeros((base.n_units, base.n_units)))
        lossy = SystemInstance(units=base.units, demand=base.demand,
                               reserve=base.reserve, loss_model=zero)
        plain = solve_ded_no_loss(base, cfg)
        looped = solve_ded_with_loss(lossy, cfg)
        assert looped.cost == pytest.approx(plain.cost, rel=1e-6)
        assert looped.terminated_by == "epsilon"
        assert np.all(looped.losses == 0.0)
    _passline(4, "zero-coefficient loss model reproduces the lossless "
                 "cost to 1e-6 relative on 20 instances")


# Published 24-period outputs for a 6-unit system, one row per hour.
TABLE_SCHEDULE = np.array([
    [383.75, 121.25, 210.00, 76.25, 113.75, 50.00],
    [380.00, 121.25, 208.25, 68.75, 113.75, 50.00],
    [380.00, 121.25, 205.00, 68.75, 110.00, 50.00],
    [380.00, 116.25, 205.00, 68.75, 110.00, 50.00],
    [380.00, 121.25, 205.00, 68.75, 110.00, 50.00],
    [391.75, 121.25, 210.00, 76.25, 113.75, 50.00],
    [395.00, 128.75, 210.00, 80.00, 125.25, 50.00],
    [395.00, 139.25, 210.00, 92.50, 136.25, 50.00],
    [425.00, 140.00, 247.50, 104.12, 150.00, 59.38],
    [425.00, 160.00, 247.50, 107.50, 150.62, 59.38],
    [425.00, 165.00, 262.50, 120.00, 156.63, 71.88],
    [440.00, 165.00, 262.50, 123.75, 168.75, 75.00],
    [425.00, 165.00, 251.88, 120.00, 156.25, 71.88],
    [455.00, 166.00, 262.50, 123.75, 168.75, 75.00],
    [455.00, 168.00, 262.50, 123.75, 168.75, 85.00],
    [455.00, 165.00, 262.50, 123.75, 168.75, 75.00],
    [429.75, 165.00, 262.50, 120.00, 168.75, 75.00],
    [425.00, 165.00, 262.50, 120.00, 157.63, 71.88],
    [425.00, 160.00, 247.50, 107.50, 156.25, 62.75],
    [425.00, 140.00, 240.00, 97.50, 139.50, 50.00],
    [395.00, 139.25, 210.00, 92.50, 136.25, 50.00],
    [395.00, 128.75, 210.00, 79.00, 121.25, 50.00],
    [395.00, 128.75, 210.00, 76.25, 115.00, 50.00],
    [388.75, 121.25, 210.00, 76.25, 113.75, 50.00],
])


def test_criterion_5_schedule_audits(lossless_batch):
    solves, _, _ = lossless_batch
    for inst, report in solves:
        audit = evaluate_violations(inst, report.schedule, tol=1e-6)
        assert audit.bounds_ok and audit.poz_ok
        assert audit.ramp_ok and audit.reserve_ok

    rng = np.random.default_rng(55)
    for _ in range(3):
        inst = random_lossy_instance(rng, n_max=3)
        report = solve_ded_with_loss(inst, IaConfig())
        audit = evaluate_violations(inst, report.schedule, tol=1e-6,
                                    use_loss=True)
        assert audit.bounds_ok and audit.poz_ok
        assert audit.ramp_ok and audit.reserve_ok

    # the published 24-period schedule balances its own row-sum demands
    # exactly when no losses are modeled
    lo = TABLE_SCHEDULE.min(axis=0)
    hi = TABLE_SCHEDULE.max(axis=0)
    units = tuple(
        GeneratingUnit(id=i + 1, alpha=0.0, beta=1.0, gamma=0.0,
                       p_min=lo[i] - 20.0, p_max=hi[i] + 20.0,
                       ramp_up=200.0, ramp_down=200.0)
        for i in range(6))
    wrapper = SystemInstance(units=units,
                             demand=TABLE_SCHEDULE.sum(axis=1),
                             reserve=np.zeros(24))
    sched = Schedule(p=TABLE_SCHEDULE.copy(),
                     sr=np.zeros_like(TABLE_SCHEDULE))
    audit = evaluate_violations(wrapper, sched, tol=1e-6)
    assert audit.feasible
    assert np.all(audit.balance_violation == 0.0)
    assert audit.max_violation == 0.0
    _passline(5, "all returned schedules audit clean at 1e-6 MW and the "
                 "published 24x6 schedule balances exactly")


def test_criterion_6_bnb_determinism_and_bounds():
    rng = np.random.default_rng(31)
    model = varmap = None
    for _ in range(60):
        inst = random_lossless_instance(rng, n_units=3, n_periods=4)
        cand, cvm = build_milp1(inst, tangent_steps=4)
        probe = solve_milp(cand, varmap=cvm, config=BnbConfig(gap=1e-9))
        if probe.nodes_explored >= 5:
            model, varmap = cand, cvm
            break
    assert model is not None, "no instance produced a tree of 5+ nodes"

    runs = [solve_milp(model, varmap=varmap, config=BnbConfig(gap=1e-9))
            for _ in range(3)]
    first = runs[0]
    for other in runs[1:]:
        assert other.nodes_explored == first.nodes_explored
        assert other.objective == first.objective
        assert other.node_log == first.node_log
        np.testing.assert_array_equal(other.values, first.values)
    for _nodes, _depth, bound, incumbent in first.node_log:
        if np.isfinite(incumbent):
            assert bound <= incumbent + 1e-9
    assert first.best_bound <= first.objective + 1e-9
    _passline(6, f"3 identical replays over {first.nodes_explored} nodes, "
                 f"bound below incumbent at every logged node")


def test_criterion_7_duplication_scaling():
    base = symmetric_three_unit()
    cfg = IaConfig(gap=1e-6, tangent_steps=10)
    base_cost = solve_ded_no_loss(base, cfg).cost

    # sanity: the symmetric equal split prices the base instance
    split = base.demand / 3.0
    analytic = sum(3 * (5.0 + 2.0 * p + 0.008 * p * p) for p in split)
    assert base_cost == pytest.approx(analytic, rel=5e-4)

    ratios = {}
    for factor in (2, 5):
        big = duplicate_system(base, factor)
        cost = solve_ded_no_loss(big, cfg).cost
        ratios[factor] = cost / (factor * base_cost)
        assert cost == pytest.approx(factor * base_cost, rel=1e-3)
    _passline(7, "duplication factors 2 and 5 scale cost linearly "
                 f"(ratios {ratios[2]:.6f}, {ratios[5]:.6f})")


SIXUNIT_FIXTURE = Path(__file__).parent / "fixtures" / "sixunit_instance.json"


@pytest.mark.skipif(not SIXUNIT_FIXTURE.exists(),
                    reason="external 6-unit dataset not provided; drop it at "
                           "tests/fixtures/sixunit_instance.json to enable")
def test_criterion_8_published_six_unit_numbers():
    inst = load_instance(SIXUNIT_FIXTURE)

    lossless = solve_ded_no_loss(inst, IaConfig(gap=1e-4, tangent_steps=4))
    assert lossless.cost == pytest.approx(310506.0, rel=1e-3)

    assert inst.loss_model is not None, \
        "the 6-unit dataset must include B-coefficients"
    lossy = solve_ded_with_loss(inst, IaConfig())
    total_violation = float(lossy.violations.sum())
    assert total_violation == pytest.approx(0.1090, abs=0.05)
    _passline(8, f"6-unit dataset reproduces cost {lossless.cost:.0f} $ and "
                 f"total violation {total_violation:.4f} MW")
