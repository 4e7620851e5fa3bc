"""Model construction tests: variables, rows, tangent cuts, relaxation."""

import dataclasses
import hashlib
import pickle
from pathlib import Path

import numpy as np
import pytest

from dedpoz import ValidationError, build_milp1, build_milp2, load_instance, lp_relaxation
from dedpoz.bnb import OPTIMAL_WITHIN_GAP, solve_milp
from dedpoz.milp import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    LE,
    Constraint,
    MilpModel,
    TangentPlan,
    Variable,
    _reanchor,
    dump_lp_text,
    make_tangent_plan,
    tangent_cut,
    tangent_gap_bound,
)
from dedpoz.system import Schedule, SystemInstance
from support import make_unit, random_lossy_instance

STEPS = 3


def _instance(p_initial=None):
    units = (make_unit(uid=1, gamma=0.01, p_min=10, p_max=40,
                       zones=((20.0, 25.0),), p_initial=p_initial),
             make_unit(uid=2, gamma=0.02, p_min=10, p_max=50))
    return SystemInstance(units=units, demand=np.array([45.0, 55.0]),
                          reserve=np.array([3.0, 3.0]))


def test_variable_layout_and_counts():
    instance = _instance()
    model, varmap = build_milp1(instance, tangent_steps=STEPS)
    model.validate()
    t_count, segs_total = 2, 3  # unit 1 has two segments, unit 2 one
    assert model.n_variables == 2 * 2 * t_count + 3 * t_count * segs_total
    assert model.n_binaries == t_count * segs_total
    kinds = [v.kind for v in model.variables]
    assert kinds.count(BINARY) == t_count * segs_total
    # p bounded by unit limits, selectors binary in [0, 1], sr by ramp_up
    p_var = model.variables[varmap.p_total[0][0]]
    assert (p_var.lb, p_var.ub) == (10.0, 40.0)
    for i, unit in enumerate(instance.units):
        for t in range(t_count):
            sr_var = model.variables[varmap.sr[i][t]]
            assert (sr_var.lb, sr_var.ub) == (0.0, unit.ramp_up)
            for j, seg in enumerate(instance.segments[i]):
                seg_var = model.variables[varmap.p_seg[i][t][j]]
                assert (seg_var.lb, seg_var.ub) == (0.0, seg.hi)
                pick = model.variables[varmap.u_seg[i][t][j]]
                assert pick.kind == BINARY and (pick.lb, pick.ub) == (0.0, 1.0)
    assert varmap.loss_quad is None
    covered = varmap.all_indices()
    assert sorted(covered) == list(range(model.n_variables))


def test_row_counts_by_sense():
    instance = _instance()
    model, _ = build_milp1(instance, tangent_steps=STEPS)
    t_count, n, segs_total = 2, 2, 3
    senses = [c.sense for c in model.constraints]
    # link + pick_one per unit-period, balance per period
    assert senses.count(EQ) == 2 * n * t_count + t_count
    # segment floors, one cut per tangent point, reserve per period,
    # downward ramps for t >= 1
    assert senses.count(GE) == (t_count * segs_total
                                + t_count * segs_total * (STEPS + 1)
                                + t_count
                                + n * (t_count - 1))
    # segment caps, upward ramps for t >= 1, headroom
    assert senses.count(LE) == (t_count * segs_total
                                + n * (t_count - 1)
                                + n * t_count)


def test_initial_ramp_rows_only_with_p_initial():
    without = build_milp1(_instance(), tangent_steps=STEPS)[0]
    with_init = build_milp1(_instance(p_initial=15.0), tangent_steps=STEPS)[0]
    assert with_init.n_constraints == without.n_constraints + 2
    names = {c.name for c in with_init.constraints}
    assert "ramp_up(0,0)" in names and "ramp_dn(0,0)" in names
    assert "ramp_up(1,0)" not in names


def test_objective_covers_segment_costs_only():
    instance = _instance()
    model, varmap = build_milp1(instance, tangent_steps=STEPS)
    cost_indices = sorted(
        idx for i in range(2) for t in range(2) for idx in varmap.cost_seg[i][t])
    assert sorted(j for j, _ in model.objective) == cost_indices
    assert all(c == 1.0 for _, c in model.objective)
    assert model.objective_constant == pytest.approx(
        2 * (instance.units[0].alpha + instance.units[1].alpha))
    assert varmap.constant_cost == model.objective_constant


def test_tangent_plan_points():
    instance = _instance()
    plan = make_tangent_plan(instance, steps=4)
    assert plan.steps == 4
    seg = instance.segments[0][1]  # unit 1, [25, 40]
    pts = plan.points[0][1]
    assert len(pts) == 5
    np.testing.assert_allclose(pts, np.linspace(seg.lo, seg.hi, 5))
    assert all(a < b for a, b in zip(pts, pts[1:]))
    with pytest.raises(ValidationError, match="tangent steps must be >= 1"):
        make_tangent_plan(instance, steps=0)
    with pytest.raises(ValidationError, match="tangent steps must be >= 1"):
        TangentPlan(steps=0, points=())


@pytest.mark.parametrize("steps", [0, -2, 2.5, 3.0, True, "4"])
def test_tangent_steps_that_are_not_a_count_fail_at_once(steps):
    instance = _instance()
    lossy = random_lossy_instance(np.random.default_rng(4))
    for build in (lambda: build_milp1(instance, steps), lambda: build_milp2(lossy, steps),
                  lambda: make_tangent_plan(instance, steps),
                  lambda: TangentPlan(steps=steps, points=())):
        with pytest.raises(ValidationError, match="tangent steps must be >= 1 and an integer"):
            build()


def test_numpy_integer_tangent_steps_build_the_same_model():
    instance = _instance()
    assert build_milp1(instance, np.int64(3))[0] == build_milp1(instance, 3)[0]
    assert make_tangent_plan(instance, np.int32(2)) == make_tangent_plan(instance, 2)


def test_tangent_cut_is_supporting_line():
    beta, gamma = 1.7, 0.03
    rng = np.random.default_rng(3)
    for p_bar in rng.uniform(5.0, 80.0, 6):
        coef_p, coef_u = tangent_cut(beta, gamma, p_bar)
        assert coef_p == pytest.approx(2 * gamma * p_bar + beta)
        assert coef_u == pytest.approx(-gamma * p_bar * p_bar)
        # exact at the anchor, below the curve elsewhere, zero at p = u = 0
        at_anchor = coef_p * p_bar + coef_u
        assert at_anchor == pytest.approx(beta * p_bar + gamma * p_bar ** 2)
        for p in np.linspace(0.0, 100.0, 41):
            assert coef_p * p + coef_u <= beta * p + gamma * p * p + 1e-9


def test_tangent_envelope_error_bound():
    # the max gap between the curve and its tangent envelope on one segment
    # is gamma * (w / steps)^2 / 4, reached midway between anchors
    beta, gamma, lo, hi, steps = 2.0, 0.05, 10.0, 22.0, 3
    anchors = np.linspace(lo, hi, steps + 1)
    worst = 0.0
    for p in np.linspace(lo, hi, 601):
        envelope = max(tangent_cut(beta, gamma, a)[0] * p
                       + tangent_cut(beta, gamma, a)[1] for a in anchors)
        worst = max(worst, beta * p + gamma * p * p - envelope)
    bound = gamma * ((hi - lo) / steps) ** 2 / 4.0
    assert worst <= bound + 1e-12
    assert worst == pytest.approx(bound, rel=1e-3)  # bound is tight


def test_tangent_gap_bound_uses_active_segment():
    instance = _instance()
    sched = Schedule(p=np.array([[15.0, 30.0], [30.0, 30.0]]),
                     sr=np.zeros((2, 2)))
    got = tangent_gap_bound(instance, sched, STEPS)
    # unit 1: p=15 sits in [10,20] (w=10), p=30 in [25,40] (w=15)
    # unit 2: both periods in the single [10,50] segment (w=40)
    expect = (0.01 * (10 / STEPS) ** 2 / 4 + 0.01 * (15 / STEPS) ** 2 / 4
              + 2 * 0.02 * (40 / STEPS) ** 2 / 4)
    assert got == pytest.approx(expect)


@pytest.mark.parametrize("shape", [(2, 1), (2, 3), (3, 2)])
def test_tangent_gap_bound_rejects_a_schedule_of_another_shape(shape):
    # a schedule with fewer units than the fleet raised IndexError, and one
    # with more units or periods was read only in part
    instance = _instance()
    sched = Schedule(p=np.full(shape, 30.0), sr=np.zeros(shape))
    with pytest.raises(ValidationError, match="does not match instance"):
        tangent_gap_bound(instance, sched, STEPS)


@pytest.mark.parametrize("steps", [0, -1, 2.5, True])
def test_tangent_gap_bound_rejects_a_step_count_that_is_not_positive(steps):
    # 0 divided by zero and -1 gave the one-step bound
    instance = _instance()
    sched = Schedule(p=np.array([[15.0, 30.0], [30.0, 30.0]]), sr=np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="tangent steps must be >= 1 and an integer"):
        tangent_gap_bound(instance, sched, steps)


def test_balance_row_lossless():
    instance = _instance()
    model, varmap = build_milp1(instance, tangent_steps=STEPS)
    balance = [c for c in model.constraints if c.name.startswith("balance")]
    assert len(balance) == 2
    for t, row in enumerate(balance):
        assert row.sense == EQ and row.rhs == instance.demand[t]
        assert dict(row.coeffs) == {varmap.p_total[i][t]: 1.0 for i in range(2)}


def test_build_milp2_rows_and_validation():
    base = _instance()
    with pytest.raises(ValidationError, match="no loss model"):
        build_milp2(base, STEPS, np.zeros((2, 2)))

    from dedpoz.system import LossModel
    lm = LossModel(b00=2e-4, b0=np.array([0.01, 0.02]),
                   b_matrix=np.array([[3e-3, 1e-3], [1e-3, 4e-3]]),
                   base_mva=100.0)
    instance = SystemInstance(units=base.units, demand=base.demand,
                              reserve=base.reserve, loss_model=lm)
    with pytest.raises(ValidationError, match="anchors shape"):
        build_milp2(instance, STEPS, np.zeros((3, 2)))
    with pytest.raises(ValidationError, match="non-finite"):
        build_milp2(instance, STEPS, np.full((2, 2), np.nan))

    anchors = np.array([[20.0, 25.0], [30.0, 26.0]])
    model, varmap = build_milp2(instance, STEPS, anchors)
    model.validate()
    assert varmap.loss_quad is not None and len(varmap.loss_quad) == 2
    rows = {c.name: c for c in model.constraints}
    b_mw = lm.b_matrix / lm.base_mva
    for t in range(2):
        cut = rows[f"loss_cut({t})"]
        grad = 2.0 * b_mw @ anchors[t]
        assert cut.sense == GE
        assert cut.rhs == pytest.approx(-anchors[t] @ b_mw @ anchors[t])
        coeffs = dict(cut.coeffs)
        assert coeffs[varmap.loss_quad[t]] == 1.0
        for i in range(2):
            assert coeffs[varmap.p_total[i][t]] == pytest.approx(-grad[i])
        balance = rows[f"balance({t})"]
        assert balance.rhs == pytest.approx(instance.demand[t] + lm.b00 * 100.0)
        bal = dict(balance.coeffs)
        for i in range(2):
            assert bal[varmap.p_total[i][t]] == pytest.approx(1.0 - lm.b0[i])
        assert bal[varmap.loss_quad[t]] == -1.0

    # no anchors: the same layout with the loss terms switched off
    off, off_map = build_milp2(instance, STEPS)
    assert ([(v.name, v.kind) for v in off.variables]
            == [(v.name, v.kind) for v in model.variables])
    assert ([(c.name, c.sense) for c in off.constraints]
            == [(c.name, c.sense) for c in model.constraints])
    off_rows = {c.name: c for c in off.constraints}
    for t in range(2):
        q = off_map.loss_quad[t]
        assert (off.variables[q].lb, off.variables[q].ub) == (0.0, 0.0)
        cut = off_rows[f"loss_cut({t})"]
        assert dict(cut.coeffs) == {q: 1.0} and cut.rhs == 0.0
        balance = off_rows[f"balance({t})"]
        assert dict(balance.coeffs) == {off_map.p_total[0][t]: 1.0,
                                        off_map.p_total[1][t]: 1.0, q: -1.0}
        assert balance.rhs == instance.demand[t]


def test_reanchor_rebuilds_only_the_loss_rows():
    rng = np.random.default_rng(2101)
    instance = random_lossy_instance(rng)
    shape = (instance.n_periods, instance.n_units)
    model, varmap = build_milp2(instance, STEPS, None)
    t_count = instance.n_periods
    names = ([f"loss_cut({t})" for t in range(t_count)]
             + [f"balance({t})" for t in range(t_count)])
    # zero anchors give a zero gradient, so loss_cut(t) loses its p terms
    for anchors in (rng.uniform(10.0, 40.0, shape), np.zeros(shape),
                    rng.uniform(10.0, 40.0, shape), None):
        new, rows = _reanchor(model, varmap, instance, anchors)
        assert new == build_milp2(instance, STEPS, anchors)[0]
        assert [new.constraints[r].name for r in rows] == names
        kept = np.setdiff1d(np.arange(model.n_constraints), rows)
        assert all(new.constraints[r] is model.constraints[r] for r in kept)
        model = new
    with pytest.raises(ValidationError, match="anchors shape"):
        _reanchor(model, varmap, instance, np.zeros((1, 1)))


def test_lp_relaxation_drops_binaries():
    model, _ = build_milp1(_instance(), tangent_steps=STEPS)
    relaxed = lp_relaxation(model)
    assert relaxed.n_binaries == 0
    assert all(v.kind == CONTINUOUS for v in relaxed.variables)
    assert relaxed.constraints is model.constraints
    assert relaxed.objective == model.objective
    again = lp_relaxation(relaxed)
    assert again.variables == relaxed.variables


def test_model_validate_rejects_bad_pieces():
    ok_var = Variable("x", CONTINUOUS, 0.0, 1.0)
    with pytest.raises(ValidationError, match="unknown kind"):
        MilpModel((Variable("x", "int", 0, 1),), (), ()).validate()
    for lb, ub in ((2.0, 1.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValidationError, match="lb"):
            MilpModel((Variable("x", CONTINUOUS, lb, ub),), (), ()).validate()
    with pytest.raises(ValidationError, match="bounds within"):
        MilpModel((Variable("x", BINARY, 0.0, 2.0),), (), ()).validate()
    with pytest.raises(ValidationError, match="out of range"):
        MilpModel((ok_var,), (), ((3, 1.0),)).validate()
    with pytest.raises(ValidationError, match="unknown sense"):
        MilpModel((ok_var,), (Constraint("r", ((0, 1.0),), "<", 0.0),), ()).validate()
    with pytest.raises(ValidationError, match="rhs not finite"):
        MilpModel((ok_var,), (Constraint("r", ((0, 1.0),), LE, np.inf),), ()).validate()
    with pytest.raises(ValidationError, match="row r: coefficient not finite"):
        MilpModel((ok_var,), (Constraint("r", ((0, np.nan),), LE, 0.0),), ()).validate()
    with pytest.raises(ValidationError, match="objective coefficient for variable 0 not finite"):
        MilpModel((ok_var,), (), ((0, -np.inf),)).validate()
    with pytest.raises(ValidationError, match="variable 5 out of range"):
        MilpModel((ok_var,), (Constraint("r", ((5, 1.0),), LE, 0.0),), ()).validate()


def test_dump_lp_text_sections():
    model, _ = build_milp1(_instance(), tangent_steps=1)
    text = dump_lp_text(model)
    for section in ("minimize", "bounds", "subject to", "binaries"):
        assert section in text
    assert "pick(0,0,1)" in text
    assert "balance(0):" in text
    assert text.count("<=") >= model.n_variables  # every bounds line has two


# sha256 of dump_lp_text for models built by the per-row builder this
# module's array builder replaced; the two must agree byte for byte
FIXTURES = Path(__file__).parent / "fixtures"
DUMP_SHA256 = {
    "small m1": "21faceb4ebd4ba5235ea254e1e96fddbd986e21fae997fced97eaeb868da6525",
    "lossy m1": "1028608db0d8ffd58a64be675a2703d735cd18ea42cd48526754fbec24dfe0d9",
    "lossy m2 off": "05d5c6148730531af983ff6bfdbf0acfd0d10429af090fbcd5a9530d32fded8e",
    "lossy m2 mid": "b69c7b894ef3c01b88cfee91323f376031225c78ec29db2030204958b6fdda75",
    "p_initial m1": "7616f6d1aa6b31d103ff040403311437efd3c3f0371a0a762e64cbfa95f3e12c",
}


def _midpoint_anchors(instance):
    """Every period at each unit's mid-range output."""
    mid = [(u.p_min + u.p_max) / 2 for u in instance.units]
    return np.tile(mid, (instance.n_periods, 1))


def test_dump_lp_text_matches_the_per_row_builder():
    small = load_instance(FIXTURES / "small_batch_s167_seed107.json")
    lossy = load_instance(FIXTURES / "lossy_refine_l0_seed11.json")
    models = {
        "small m1": build_milp1(small)[0],
        "lossy m1": build_milp1(lossy)[0],
        "lossy m2 off": build_milp2(lossy, 4, None)[0],
        "lossy m2 mid": build_milp2(lossy, 4, _midpoint_anchors(lossy))[0],
        "p_initial m1": build_milp1(_instance(p_initial=30.0), tangent_steps=STEPS)[0],
    }
    for key, model in models.items():
        assert hashlib.sha256(dump_lp_text(model).encode()).hexdigest() == DUMP_SHA256[key], key


def _from_tuples(model):
    return dataclasses.replace(model, variables=tuple(model.variables),
                               constraints=tuple(model.constraints))


def test_views_and_arrays_describe_one_model():
    lossy = load_instance(FIXTURES / "lossy_refine_l0_seed11.json")
    for model in (build_milp1(_instance(p_initial=30.0), tangent_steps=STEPS)[0],
                  build_milp2(lossy, 4, _midpoint_anchors(lossy))[0]):
        again = _from_tuples(model)
        assert "arrays" not in vars(again)  # derived when first read
        a, b = model.arrays, again.arrays
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
            assert not x.flags.writeable
        assert again == model
        assert pickle.loads(pickle.dumps(model)) == model
        assert (model.n_variables, model.n_constraints) == (len(again.variables),
                                                            len(again.constraints))
        assert model.n_binaries == sum(v.kind == BINARY for v in again.variables)


def test_a_solve_leaves_the_views_unmaterialized():
    model, varmap = build_milp1(_instance(), tangent_steps=STEPS)
    relaxed = lp_relaxation(model)
    sol = solve_milp(model, varmap)
    assert sol.status == OPTIMAL_WITHIN_GAP
    for m in (model, relaxed):
        assert not {"variables", "constraints", "objective"} & vars(m).keys()
    # reading one view materializes all three, from the arrays
    assert relaxed.constraints is model.constraints
    assert {"variables", "constraints", "objective"} <= vars(model).keys()


def test_validate_reports_the_first_offender_in_order():
    ok_var = Variable("x", CONTINUOUS, 0.0, 1.0)
    bad_row = Constraint("r", ((0, np.nan),), LE, 0.0)
    with pytest.raises(ValidationError, match="variable y: lb"):
        MilpModel((ok_var, Variable("y", CONTINUOUS, 1.0, 0.0)), (bad_row,),
                  ((0, np.inf),)).validate()
    with pytest.raises(ValidationError, match="objective coefficient"):
        MilpModel((ok_var,), (bad_row,), ((0, np.inf),)).validate()
    with pytest.raises(ValidationError, match="row s: unknown sense"):
        MilpModel((ok_var,), (Constraint("q", ((0, 1.0),), LE, 0.0),
                              Constraint("s", ((0, np.nan),), "<", 0.0), bad_row),
                  ()).validate()
    with pytest.raises(ValidationError, match="row s: variable 3 out of range"):
        MilpModel((ok_var,), (Constraint("s", ((0, 1.0), (3, np.nan)), LE, 0.0),),
                  ()).validate()


def per_row_build(instance, steps, anchors, lossy):
    """The dispatch model row by row, one ``Constraint`` at a time: the
    reference the array builder must reproduce bit for bit.  Returns
    ``(variables, constraints, objective, constant, (p_total, p_seg, u_seg,
    cost_seg, sr, loss_quad))``."""
    plan = make_tangent_plan(instance, steps)
    n, t_count = instance.n_units, instance.n_periods
    variables, rows = [], []

    def var(name, kind, lb, ub):
        variables.append(Variable(name, kind, float(lb), float(ub)))
        return len(variables) - 1

    def row(name, coeffs, sense, rhs, lazy=False):
        rows.append(Constraint(name, tuple((int(j), float(c)) for j, c in coeffs), sense,
                               float(rhs), lazy))

    units, segments = instance.units, instance.segments
    p_total = tuple(tuple(var(f"p({i},{t})", CONTINUOUS, u.p_min, u.p_max)
                          for t in range(t_count)) for i, u in enumerate(units))
    slot_vars = {}
    for what, kind in (("seg", CONTINUOUS), ("pick", BINARY), ("segcost", CONTINUOUS)):
        slot_vars[what] = tuple(
            tuple(tuple(var(f"{what}({i},{t},{s.index})", kind,
                            *{"seg": (0.0, s.hi), "pick": (0.0, 1.0),
                              "segcost": (-np.inf, np.inf)}[what])
                        for s in segments[i]) for t in range(t_count)) for i in range(n))
    p_seg, u_seg, cost_seg = slot_vars["seg"], slot_vars["pick"], slot_vars["segcost"]
    sr = tuple(tuple(var(f"sr({i},{t})", CONTINUOUS, 0.0, u.ramp_up)
                     for t in range(t_count)) for i, u in enumerate(units))
    loss_quad = None
    if lossy:
        bounds = (-np.inf, np.inf) if anchors is not None else (0.0, 0.0)
        loss_quad = tuple(var(f"qloss({t})", CONTINUOUS, *bounds) for t in range(t_count))
    for i in range(n):
        for t in range(t_count):
            for j, seg in enumerate(segments[i]):
                row(f"poz_lo({i},{t},{seg.index})",
                    [(p_seg[i][t][j], 1.0), (u_seg[i][t][j], -seg.lo)], GE, 0.0)
                row(f"poz_hi({i},{t},{seg.index})",
                    [(p_seg[i][t][j], 1.0), (u_seg[i][t][j], -seg.hi)], LE, 0.0)
    for i in range(n):
        for t in range(t_count):
            row(f"link({i},{t})",
                [(idx, 1.0) for idx in p_seg[i][t]] + [(p_total[i][t], -1.0)], EQ, 0.0)
    for i in range(n):
        for t in range(t_count):
            row(f"pick_one({i},{t})", [(idx, 1.0) for idx in u_seg[i][t]], EQ, 1.0)
    for i, unit in enumerate(units):
        for t in range(t_count):
            for j, seg in enumerate(segments[i]):
                for ell, p_bar in enumerate(plan.points[i][j]):
                    coef_p, coef_u = tangent_cut(unit.beta, unit.gamma, p_bar)
                    row(f"cut({i},{t},{seg.index},{ell})",
                        [(cost_seg[i][t][j], 1.0), (p_seg[i][t][j], -coef_p),
                         (u_seg[i][t][j], -coef_u)], GE, 0.0, lazy=0 < ell < steps)
    if lossy:
        on = anchors is not None
        lm = instance.loss_model
        b_mw = lm.b_matrix / lm.base_mva
        b0 = np.asarray(lm.b0) if on else np.zeros(n)
        b00_mw = lm.b00 * lm.base_mva if on else 0.0
        for t in range(t_count):
            coeffs, rhs = [(loss_quad[t], 1.0)], 0.0
            if on:
                grad = 2.0 * (b_mw @ anchors[t])
                coeffs += [(p_total[i][t], -grad[i]) for i in range(n) if grad[i] != 0.0]
                rhs = -float(anchors[t] @ b_mw @ anchors[t])
            row(f"loss_cut({t})", coeffs, GE, rhs)
        for t in range(t_count):
            row(f"balance({t})", [(p_total[i][t], 1.0 - b0[i]) for i in range(n)]
                + [(loss_quad[t], -1.0)], EQ, instance.demand[t] + b00_mw)
    else:
        for t in range(t_count):
            row(f"balance({t})", [(p_total[i][t], 1.0) for i in range(n)], EQ,
                instance.demand[t])
    for i, unit in enumerate(units):
        for t in range(t_count):
            if t == 0:
                if unit.p_initial is None:
                    continue
                row(f"ramp_up({i},{t})", [(p_total[i][t], 1.0)], LE,
                    unit.p_initial + unit.ramp_up)
                row(f"ramp_dn({i},{t})", [(p_total[i][t], 1.0)], GE,
                    unit.p_initial - unit.ramp_down)
            else:
                pair = [(p_total[i][t], 1.0), (p_total[i][t - 1], -1.0)]
                row(f"ramp_up({i},{t})", pair, LE, unit.ramp_up)
                row(f"ramp_dn({i},{t})", pair, GE, -unit.ramp_down)
    for i, unit in enumerate(units):
        for t in range(t_count):
            row(f"headroom({i},{t})", [(sr[i][t], 1.0), (p_total[i][t], 1.0)], LE, unit.p_max)
    for t in range(t_count):
        row(f"reserve({t})", [(sr[i][t], 1.0) for i in range(n)], GE, instance.reserve[t])
    objective = tuple((idx, 1.0) for i in range(n) for t in range(t_count)
                      for idx in cost_seg[i][t])
    return (tuple(variables), tuple(rows), objective,
            float(t_count * instance.alphas.sum()),
            (p_total, p_seg, u_seg, cost_seg, sr, loss_quad))


def _exact(value):
    """``value`` with every float spelled out to the bit, and its type kept."""
    if isinstance(value, (tuple, list)):
        return tuple(_exact(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + _exact(dataclasses.astuple(value))
    return (type(value).__name__, value.hex() if isinstance(value, float) else value)


def test_array_builder_matches_the_per_row_reference_bit_for_bit():
    rng = np.random.default_rng(2111)
    cases = []
    for k in range(6):
        instance = random_lossy_instance(rng)
        if k % 2:  # p_initial on every other unit
            units = tuple(dataclasses.replace(u, p_initial=(u.p_min + u.p_max) / 2)
                          if i % 2 == 0 else u for i, u in enumerate(instance.units))
            instance = dataclasses.replace(instance, units=units)
        anchors = rng.uniform(10.0, 40.0, (instance.n_periods, instance.n_units))
        anchors[:, 0] = 0.0  # a zero gradient drops the p term of unit 0 only
        cases += [(instance, 1 + k % 4, None, False), (instance, 3, None, True),
                  (instance, 2, anchors, True)]
    for instance, steps, anchors, lossy in cases:
        model, varmap = (build_milp2(instance, steps, anchors) if lossy
                         else build_milp1(instance, steps))
        variables, rows, objective, constant, maps = per_row_build(instance, steps, anchors,
                                                                   lossy)
        assert _exact(model.variables) == _exact(variables)
        assert _exact(model.constraints) == _exact(rows)
        assert _exact(model.objective) == _exact(objective)
        assert _exact(model.objective_constant) == _exact(constant)
        assert _exact((varmap.p_total, varmap.p_seg, varmap.u_seg, varmap.cost_seg,
                       varmap.sr, varmap.loss_quad)) == _exact(maps)
        assert varmap.constant_cost == constant
