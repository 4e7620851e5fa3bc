"""LP solver tests against exhaustive vertex enumeration and hand cases."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedpoz import ValidationError, build_milp1, duplicate_system, simplex
from dedpoz.milp import BINARY, CONTINUOUS, EQ, GE, LE, Constraint, MilpModel, Variable, lp_relaxation
from dedpoz.simplex import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    DEFAULT_MAX_ITERS,
    FREE_ZERO,
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    Basis,
    PreparedLp,
    _default_status,
    _Run,
    solve_lp,
)
from support import (enumeration_milp_min, random_lossless_instance,
                     symmetric_three_unit, vertex_enumeration_min)


def lp(bounds, rows, objective, constant=0.0, lazy=()):
    variables = tuple(Variable(f"x{j}", CONTINUOUS, lo, hi)
                      for j, (lo, hi) in enumerate(bounds))
    cons = tuple(Constraint(f"r{k}", tuple(coeffs), sense, rhs, k in lazy)
                 for k, (coeffs, sense, rhs) in enumerate(rows))
    return MilpModel(variables, cons, tuple(objective), constant).validate()


def unmarked(model):
    """The same model with every row solved eagerly."""
    return dataclasses.replace(model, constraints=tuple(
        dataclasses.replace(con, lazy=False) for con in model.constraints))


def random_boxed_lp(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    bounds = []
    for _ in range(n):
        lo = float(np.round(rng.uniform(-5.0, 0.0), 1))
        bounds.append((lo, lo + float(np.round(rng.uniform(0.5, 5.0), 1))))
    rows = []
    for _ in range(m):
        coeffs = [(j, float(np.round(rng.uniform(-3.0, 3.0), 1)))
                  for j in range(n) if rng.random() < 0.8]
        if not coeffs:
            coeffs = [(0, 1.0)]
        rows.append((coeffs, (LE, EQ, GE)[int(rng.integers(3))],
                     float(np.round(rng.uniform(-6.0, 6.0), 1))))
    objective = [(j, float(np.round(rng.uniform(-3.0, 3.0), 1))) for j in range(n)]
    return lp(bounds, rows, objective, constant=float(np.round(rng.uniform(-2, 2), 1)))


def _check_primal_feasible(model, values, tol=1e-6):
    for j, v in enumerate(model.variables):
        assert v.lb - tol <= values[j] <= v.ub + tol
    for con in model.constraints:
        lhs = sum(c * values[j] for j, c in con.coeffs)
        if con.sense == LE:
            assert lhs <= con.rhs + tol
        elif con.sense == GE:
            assert lhs >= con.rhs - tol
        else:
            assert lhs == pytest.approx(con.rhs, abs=tol)


def test_matches_vertex_enumeration_on_random_lps():
    rng = np.random.default_rng(42)
    optimal_seen = infeasible_seen = 0
    for _ in range(24):
        model = random_boxed_lp(rng)
        status, best, _ = vertex_enumeration_min(model)
        sol = solve_lp(model)
        if status == "infeasible":
            infeasible_seen += 1
            assert sol.status == INFEASIBLE
            assert sol.objective == np.inf
        else:
            optimal_seen += 1
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(best, rel=1e-6, abs=1e-6)
            assert sol.residual <= 1e-6
            _check_primal_feasible(model, sol.values)
    # the seed must exercise both outcomes for this test to mean anything
    assert optimal_seen >= 8 and infeasible_seen >= 3


def test_equality_with_free_variable():
    model = lp([(-np.inf, np.inf), (0.0, 3.0)],
               [([(0, 1.0), (1, 1.0)], EQ, 2.0)],
               [(0, 1.0)])
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.0)
    np.testing.assert_allclose(sol.values, [-1.0, 3.0], atol=1e-8)


def test_objective_constant_carried_through():
    model = lp([(0.0, 4.0)], [([(0, 1.0)], GE, 1.0)], [(0, 2.0)], constant=7.5)
    sol = solve_lp(model)
    assert sol.objective == pytest.approx(2.0 + 7.5)


def test_infeasible_row():
    model = lp([(0.0, 1.0)], [([(0, 1.0)], GE, 2.0)], [(0, 1.0)])
    sol = solve_lp(model)
    assert sol.status == INFEASIBLE
    assert not sol.is_optimal
    assert sol.objective == np.inf


def test_unbounded_below():
    model = lp([(-np.inf, 0.0), (0.0, 1.0)],
               [([(0, 1.0), (1, 1.0)], LE, 5.0)],
               [(0, 1.0)])
    sol = solve_lp(model)
    assert sol.status == UNBOUNDED
    assert sol.objective == -np.inf


def test_crossed_bound_override_is_infeasible():
    model = lp([(0.0, 4.0)], [([(0, 1.0)], LE, 3.0)], [(0, 1.0)])
    prep = PreparedLp(model)
    sol = prep.solve(lower=np.array([2.0]), upper=np.array([1.0]))
    assert sol.status == INFEASIBLE
    # read-only, as on every other solution
    assert not sol.values.flags.writeable and not sol.dual_values.flags.writeable


def test_binaries_must_be_relaxed_first():
    model = MilpModel((Variable("b", BINARY, 0.0, 1.0),), (), ((0, 1.0),))
    with pytest.raises(ValidationError, match="relax them first"):
        PreparedLp(model)
    assert solve_lp(lp_relaxation(model)).status == OPTIMAL


def test_iteration_limit_status():
    model = lp([(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)],
               [([(0, 1.0), (1, 1.0)], EQ, 6.0),
                ([(1, 1.0), (2, 1.0)], EQ, 7.0),
                ([(0, 1.0), (2, 1.0)], EQ, 5.0)],
               [(0, 1.0), (1, 2.0), (2, 3.0)])
    sol = PreparedLp(model).solve(max_iters=1)
    assert sol.status == ITERATION_LIMIT
    full = solve_lp(model)
    assert full.status == OPTIMAL
    np.testing.assert_allclose(full.values, [2.0, 4.0, 3.0], atol=1e-8)


def test_warm_restart_needs_no_pivots():
    rng = np.random.default_rng(5)
    model = build_milp1(random_lossless_instance(rng), tangent_steps=2)[0]
    prep = PreparedLp(lp_relaxation(model))
    first = prep.solve()
    assert first.status == OPTIMAL
    again = prep.solve(warm_start=first.basis)
    assert again.status == OPTIMAL
    assert again.pivots == 0
    assert again.objective == pytest.approx(first.objective, rel=1e-12)


def test_warm_start_after_bound_change_matches_cold():
    rng = np.random.default_rng(6)
    instance = random_lossless_instance(rng, n_units=2, n_periods=3)
    model, varmap = build_milp1(instance, tangent_steps=3)
    prep = PreparedLp(lp_relaxation(model))
    base = prep.solve()
    assert base.status == OPTIMAL
    lo = np.array([v.lb for v in model.variables])
    hi = np.array([v.ub for v in model.variables])
    # fix one selector the way branch and bound would
    j = varmap.u_seg[0][0][0]
    for val in (0.0, 1.0):
        lo2, hi2 = lo.copy(), hi.copy()
        lo2[j] = hi2[j] = val
        warm = prep.solve(lower=lo2, upper=hi2, warm_start=base.basis)
        cold = prep.solve(lower=lo2, upper=hi2)
        assert warm.status == cold.status
        if warm.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            assert warm.residual <= 1e-6


def test_dual_value_prices_binding_row():
    def build(rhs):
        return lp([(0.0, 10.0)], [([(0, 1.0)], GE, rhs)], [(0, 2.0)])

    sol = solve_lp(build(3.0))
    assert sol.status == OPTIMAL and sol.objective == pytest.approx(6.0)
    bumped = solve_lp(build(3.5))
    sensitivity = (bumped.objective - sol.objective) / 0.5
    assert sol.dual_values[0] == pytest.approx(sensitivity, abs=1e-7)


def test_dispatch_relaxation_is_a_lower_bound():
    rng = np.random.default_rng(9)
    for _ in range(3):
        instance = random_lossless_instance(rng, n_units=2, n_periods=2)
        model, varmap = build_milp1(instance, tangent_steps=3)
        sol = solve_lp(lp_relaxation(model))
        assert sol.status == OPTIMAL
        assert sol.residual <= 1e-6
        # relaxing binaries can only lower the optimum
        best, _ = enumeration_milp_min(instance, model, varmap)
        assert sol.objective <= best + 1e-7


# ----- basis kernel factorization and the sparse inverse update -------------

def dense_basis(prep, basic):
    """Basis matrix built from the coordinate arrays, independently of the
    solver's own column builder."""
    n, m = prep.n_struct, prep.m
    full = np.zeros((m, prep.ncols))
    full[prep.rows_nz, prep.cols_nz] = prep.vals_nz
    full[np.arange(m), n + np.arange(m)] = 1.0
    return full[:, basic]


def factored(prep, basic):
    run = _Run(prep, None, None, None, DEFAULT_MAX_ITERS)
    run.basic = np.asarray(basic, dtype=np.int64)
    return run, run._factor()


def ladder_root_model(copies):
    return build_milp1(duplicate_system(symmetric_three_unit(), copies),
                       tangent_steps=10)[0]


def ladder_root_lp(copies):
    return PreparedLp(lp_relaxation(ladder_root_model(copies)))


def test_kernel_factor_inverts_final_ladder_basis():
    prep = ladder_root_lp(2)
    sol = prep.solve()
    assert sol.status == OPTIMAL
    basic = sol.basis.basic_idx
    assert 0 < np.count_nonzero(basic < prep.n_struct) < prep.m
    run, ok = factored(prep, basic)
    assert ok
    np.testing.assert_allclose(run.b_inv @ dense_basis(prep, basic),
                               np.eye(prep.m), rtol=0.0, atol=1e-9)


def test_kernel_factor_inverts_random_unit_and_structural_mixes():
    rng = np.random.default_rng(3)
    n, m = 7, 9
    rows = [([(j, float(rng.normal())) for j in range(n)], LE, 1.0)
            for _ in range(m)]
    prep = PreparedLp(lp([(0.0, 1.0)] * n, rows, [(0, 1.0)]))
    for k in range(n + 1):
        structural = rng.choice(n, size=k, replace=False)
        covered = rng.choice(m, size=m - k, replace=False)
        basic = rng.permutation(np.concatenate([structural, n + covered]))
        run, ok = factored(prep, basic)
        assert ok
        np.testing.assert_allclose(run.b_inv @ dense_basis(prep, basic),
                                   np.eye(m), rtol=0.0, atol=1e-9)


def test_kernel_factor_rejects_row_covered_twice():
    prep = ladder_root_lp(1)
    n, m = prep.n_struct, prep.m
    basic = n + np.arange(m)
    assert factored(prep, basic)[1]
    basic[5] = n + 3  # row 3's slack twice, row 5's not at all
    assert not factored(prep, basic)[1]


def test_sparse_update_matches_dense_formula(monkeypatch):
    sparse_update = _Run._update_b_inv
    checked = []

    def compare(run, w, r):
        row = run.b_inv[r] / w[r]
        expected = run.b_inv - np.outer(w, row)
        expected[r] = row
        sparse_update(run, w, r)
        checked.append(np.array_equal(run.b_inv, expected))

    monkeypatch.setattr(_Run, "_update_b_inv", compare)
    ladder_root_lp(1).solve(max_iters=60)
    assert len(checked) >= 45 and all(checked)


# ----- every optimal exit meets its rows and bounds -------------------------

HALVES = st.integers(-12, 12).map(lambda v: v / 2.0)


@st.composite
def bounded_lps(draw, min_lazy=0):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    bounds = []
    for _ in range(n):
        lo = draw(HALVES)
        bounds.append((lo, lo + draw(st.integers(0, 12)) / 2.0))
    rows = []
    for _ in range(m):
        coeffs = [(j, c) for j in range(n) if (c := draw(HALVES)) != 0.0]
        rows.append((coeffs or [(0, 1.0)], draw(st.sampled_from((LE, EQ, GE))),
                     draw(HALVES)))
    objective = [(j, draw(HALVES)) for j in range(n)]
    lazy = draw(st.sets(st.integers(0, m - 1), min_size=min(min_lazy, m)))
    return lp(bounds, rows, objective, lazy=lazy)


@settings(max_examples=300, deadline=None)
@given(bounded_lps())
def test_every_optimal_meets_rows_and_bounds(model):
    # lazy rows included: the check reads the model, not the solver's residual
    sol = PreparedLp(model).solve()
    # a 3-pivot refactor window, so the window refactorization runs on
    # models this small too, gives the same answer
    with mock.patch.object(simplex, "REFACTOR_EVERY", 3):
        short = PreparedLp(model).solve()
    assert short.status == sol.status
    if sol.status == OPTIMAL:
        assert short.objective == pytest.approx(sol.objective, rel=1e-7, abs=1e-9)
        for found in (sol, short):
            _check_primal_feasible(model, found.values, tol=1e-6)


@settings(max_examples=300, deadline=None)
@given(bounded_lps(min_lazy=1))
def test_lazy_rows_change_neither_status_nor_optimum(model):
    deferred = PreparedLp(model).solve()
    eager = PreparedLp(unmarked(model)).solve()
    assert deferred.status == eager.status
    if eager.status == OPTIMAL:
        assert deferred.objective == pytest.approx(eager.objective, rel=1e-7, abs=1e-9)


def test_optimal_exit_that_breaks_a_bound_is_repaired_or_withheld(monkeypatch):
    rng = np.random.default_rng(6)
    instance = random_lossless_instance(rng, n_units=2, n_periods=3)
    model, varmap = build_milp1(instance, tangent_steps=3)
    prep = PreparedLp(lp_relaxation(model))
    base = prep.solve()
    lo = np.array([v.lb for v in model.variables])
    hi = np.array([v.ub for v in model.variables])
    j = varmap.u_seg[0][0][0]
    assert base.values[j] == pytest.approx(1.0)
    lo[j] = hi[j] = 0.0
    cold = prep.solve(lower=lo, upper=hi)
    assert cold.status == OPTIMAL

    # a dual phase that claims optimality without pivoting leaves the warm
    # basis primal infeasible under the new bounds, as drift would
    dual = _Run._dual
    calls = []

    def stale_first(run, c):
        calls.append(c)
        return OPTIMAL if len(calls) == 1 else dual(run, c)

    monkeypatch.setattr(_Run, "_dual", stale_first)
    warm = prep.solve(lower=lo, upper=hi, warm_start=base.basis)
    assert len(calls) == 2
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)

    monkeypatch.setattr(_Run, "_dual", lambda run, c: OPTIMAL)
    stuck = prep.solve(lower=lo, upper=hi, warm_start=base.basis)
    assert stuck.status == ITERATION_LIMIT


# ----- a basis that fails to factor ends the solve --------------------------

FACTOR, JOIN_BROKEN = _Run._factor, _Run._join_broken


def solve_with_failed_factor(monkeypatch, model, fail_at=None):
    """Solve ``model`` recording each call of ``_Run._factor`` as
    ``(since_refactor, just_joined)``; call number ``fail_at`` returns False
    and changes nothing, as on a singular basis."""
    calls, joined = [], []

    def flaky(run):
        calls.append((run.since_refactor, bool(joined)))
        joined.clear()
        return False if len(calls) - 1 == fail_at else FACTOR(run)

    def spy_join(run):
        grown = JOIN_BROKEN(run)
        joined.extend([True] if grown else [])
        return grown

    monkeypatch.setattr(_Run, "_factor", flaky)
    monkeypatch.setattr(_Run, "_join_broken", spy_join)
    return PreparedLp(lp_relaxation(model)).solve(), calls


@pytest.mark.parametrize("which", ["exit", "join", "window"])
def test_a_failed_factorization_is_never_reported_optimal(monkeypatch, which):
    model = ladder_root_model(1)
    if which == "window":
        monkeypatch.setattr(simplex, "REFACTOR_EVERY", 2)
    if which != "join":
        model = unmarked(model)  # no row joins, so the exit refactorization is last
    clean, calls = solve_with_failed_factor(monkeypatch, model)
    assert clean.status == OPTIMAL
    if which == "exit":
        at = len(calls) - 1
        assert calls[at][0] > 0 and not calls[at][1]
    elif which == "join":
        at = [joined for _, joined in calls].index(True)
    else:
        at = 1  # the crash, then the first window
        assert calls[at] == (2, False)
    sol, _ = solve_with_failed_factor(monkeypatch, model, fail_at=at)
    assert sol.status == ITERATION_LIMIT
    # its basis carries no kernel inverse for a warm start to reuse (the
    # window stub keeps the old inverse, so the exit factors the basis anew)
    assert clean.basis.kernel is not None
    assert (sol.basis.kernel is None) == (which != "window")


# ----- warm starts from another model's basis; the dual start --------------

@st.composite
def perturbed_pairs(draw):
    """A random bounded LP and a copy with changed row coefficients and rhs."""
    model = draw(bounded_lps())
    rows = []
    for con in model.constraints:
        coeffs = tuple((j, c) for j, _ in con.coeffs if (c := draw(HALVES)) != 0.0)
        rows.append(dataclasses.replace(con, coeffs=coeffs or ((0, 1.0),),
                                        rhs=draw(HALVES)))
    return model, dataclasses.replace(model, constraints=tuple(rows))


@settings(max_examples=300, deadline=None)
@given(perturbed_pairs())
def test_warm_start_from_a_perturbed_copys_basis_matches_cold(pair):
    model, perturbed = pair
    donor = PreparedLp(perturbed).solve()
    warm = PreparedLp(model).solve(warm_start=donor.basis)
    cold = PreparedLp(model).solve()
    assert warm.status == cold.status
    if cold.status == OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, rel=1e-7, abs=1e-9)
        for sol in (warm, cold):
            _check_primal_feasible(model, sol.values, tol=1e-6)


def test_warm_basis_that_does_not_fit_starts_cold():
    # on the model with lazy rows and on its copy where every row is active
    model = lp_relaxation(ladder_root_model(1))
    for relaxed in (model, unmarked(model)):
        cold = PreparedLp(relaxed).solve()
        assert cold.status == OPTIMAL
        n, m = len(relaxed.variables), len(relaxed.constraints)
        basic, status = cold.basis.basic_idx, cold.basis.status
        repeated, too_big, negative = basic.copy(), basic.copy(), basic.copy()
        repeated[1] = repeated[0]
        too_big[0] = n + m
        negative[0] = -1
        old_layout = np.concatenate([status, np.full(m, AT_LOWER, dtype=np.int8)])
        for bad in (Basis(basic, old_layout), Basis(repeated, status),
                    Basis(too_big, status), Basis(negative, status)):
            sol = PreparedLp(relaxed).solve(warm_start=bad)
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(cold.objective, rel=1e-9)


def _spied_warm_start(monkeypatch, repriced, basis):
    """Warm-solve ``repriced`` from ``basis`` with _cold forbidden; returns
    the solution and, per _dual call, whether its costs were shifted and
    the status of column 1 on entry."""
    dual = _Run._dual
    calls = []

    def spy(run, c):
        calls.append((not np.array_equal(c, run.prep.c), int(run.status[1])))
        return dual(run, c)

    def no_cold(run, c):
        raise AssertionError("the warm start fell back to a cold start")

    monkeypatch.setattr(_Run, "_dual", spy)
    monkeypatch.setattr(_Run, "_cold", no_cold)
    return solve_lp(repriced, warm_start=basis), calls


def test_dual_infeasible_warm_basis_is_shifted_not_restarted(monkeypatch):
    # x1 has no upper bound, so it cannot flip and its cost is shifted
    bounds = [(0.0, 5.0), (0.0, np.inf)]
    rows = [([(0, 1.0), (1, 1.0)], GE, 2.0)]
    # optimal basis: x0 basic at 2, x1 at its lower bound; under the new
    # costs x1 prices at 1 - 3 < 0, so the basis is dual infeasible
    basis = solve_lp(lp(bounds, rows, [(0, 1.0), (1, 3.0)])).basis
    repriced = lp(bounds, rows, [(0, 3.0), (1, 1.0)])
    cold = solve_lp(repriced)
    warm, calls = _spied_warm_start(monkeypatch, repriced, basis)
    assert calls == [(True, AT_LOWER)]
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    np.testing.assert_allclose(warm.values, [0.0, 2.0], atol=1e-12)


def test_dual_infeasible_boxed_column_flips_instead_of_shifting(monkeypatch):
    bounds = [(0.0, 5.0), (0.0, 5.0)]
    rows = [([(0, 1.0), (1, 1.0)], GE, 2.0)]
    basis = solve_lp(lp(bounds, rows, [(0, 1.0), (1, 3.0)])).basis
    repriced = lp(bounds, rows, [(0, 3.0), (1, 1.0)])
    cold = solve_lp(repriced)
    warm, calls = _spied_warm_start(monkeypatch, repriced, basis)
    # x1 moved to its upper bound, where its negative reduced cost is right
    assert calls == [(False, AT_UPPER)]
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    np.testing.assert_allclose(warm.values, [0.0, 2.0], atol=1e-12)


def test_dual_infeasible_exit_is_rechecked(monkeypatch):
    # the cold crash keeps every inequality row's slack basic, here out of
    # bounds, so dual simplex pivots several times; the stub hides every
    # entering column from the first row scan after a pivot, on a feasible LP
    model = lp([(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)],
               [([(0, 1.0), (1, 1.0)], GE, 6.0),
                ([(1, 1.0), (2, 1.0)], GE, 7.0),
                ([(0, 1.0), (2, 1.0)], GE, 5.0)],
               [(0, 2.0), (1, 2.0), (2, 3.0)])
    alpha_row = _Run._alpha_row
    hidden = []

    def blind_once(run, binv_r):
        alpha = alpha_row(run, binv_r)
        if run.since_refactor > 0 and not hidden:
            hidden.append(run.since_refactor)
            alpha[:] = 0.0
        return alpha

    monkeypatch.setattr(_Run, "_alpha_row", blind_once)
    sol = solve_lp(model)
    assert hidden == [1]
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.values, [2.0, 4.0, 3.0], atol=1e-8)


@settings(max_examples=300, deadline=None)
@given(bounded_lps())
def test_every_returned_basis_is_m_distinct_columns(model):
    prep = PreparedLp(model)
    sol = prep.solve()
    n, m = prep.n_struct, prep.m
    basic = sol.basis.basic_idx
    assert basic.shape == (m,) and np.unique(basic).size == m
    assert np.all((basic >= 0) & (basic < n + m))
    assert sol.basis.status.shape == (n + m,)


# ----- status and optimum against HiGHS -------------------------------------

@st.composite
def open_lps(draw):
    """A random bounded LP with some bounds removed: free, one-sided and
    boxed columns together, so unbounded LPs occur as well."""
    model = draw(bounded_lps())
    variables = tuple(
        dataclasses.replace(v, lb=-np.inf if draw(st.booleans()) else v.lb,
                            ub=np.inf if draw(st.booleans()) else v.ub)
        if draw(st.integers(0, 2)) == 0 else v
        for v in model.variables)
    return dataclasses.replace(model, variables=variables)


def highs_status(model):
    """Status and objective of ``model`` from scipy's HiGHS."""
    from scipy.optimize import linprog

    n = len(model.variables)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in model.constraints:
        row = np.zeros(n)
        for j, coef in con.coeffs:
            row[j] += coef
        if con.sense == EQ:
            a_eq.append(row)
            b_eq.append(con.rhs)
        else:
            sign = 1.0 if con.sense == LE else -1.0
            a_ub.append(sign * row)
            b_ub.append(sign * con.rhs)
    bounds = [(v.lb if np.isfinite(v.lb) else None, v.ub if np.isfinite(v.ub) else None)
              for v in model.variables]

    def run(cost):
        return linprog(cost, A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
                       A_eq=np.array(a_eq) if a_eq else None, b_eq=b_eq or None,
                       bounds=bounds, method="highs")

    cost = np.zeros(n)
    for j, coef in model.objective:
        cost[j] += coef
    res = run(cost)
    if res.status == 0:
        return OPTIMAL, res.fun + model.objective_constant
    assert res.status in (2, 3) or "unbounded or infeasible" in res.message, res.message
    # with no objective an LP cannot be unbounded, so a zero-objective solve
    # decides feasibility; it also catches HiGHS calling a feasible,
    # unbounded LP infeasible, which its presolve does on some draws
    return (UNBOUNDED if run(np.zeros(n)).status == 0 else INFEASIBLE), None


@settings(max_examples=300, deadline=None)
@given(open_lps())
def test_status_and_optimum_match_highs(model):
    pytest.importorskip("scipy")
    status, objective = highs_status(model)
    sol = solve_lp(model)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective == pytest.approx(objective, rel=1e-7, abs=1e-9)


# ----- working rows: lazy rows join only when the optimum breaks them -------

def test_rows_left_out_keep_their_model_shape():
    model = ladder_root_model(2)
    lazy = np.array([con.lazy for con in model.constraints])
    assert lazy.sum() == 6 * 3 * 2 * 9  # units x periods x segments x interior cuts
    prep = PreparedLp(lp_relaxation(model))
    sol = prep.solve()
    eager = PreparedLp(lp_relaxation(unmarked(model))).solve()
    assert sol.status == eager.status == OPTIMAL
    assert sol.objective == pytest.approx(eager.objective, rel=1e-9)
    _check_primal_feasible(model, sol.values)
    # a 3-pivot refactor window, so the window refactorization runs on this
    # LP too, gives the same optimum
    with mock.patch.object(simplex, "REFACTOR_EVERY", 3):
        short = PreparedLp(lp_relaxation(model)).solve()
    assert short.status == OPTIMAL and short.pivots > 3
    assert short.objective == pytest.approx(sol.objective, rel=1e-7)
    _check_primal_feasible(model, short.values)
    # some cuts were added back, others were never needed
    added = prep.active & lazy
    assert 0 < added.sum() < lazy.sum()
    left_out = np.flatnonzero(~prep.active)
    n, m = prep.n_struct, prep.m
    assert m == len(model.constraints)
    assert sol.basis.basic_idx.shape == (m,)
    assert sol.basis.status.shape == (n + m,)
    np.testing.assert_array_equal(sol.basis.basic_idx[left_out], n + left_out)
    assert np.all(sol.basis.status[n + left_out] == BASIC)
    assert sol.dual_values.shape == (m,)
    assert np.all(sol.dual_values[left_out] == 0.0)
    # complementary slackness, read from the model: a priced row binds
    for con, y in zip(model.constraints, sol.dual_values):
        if abs(y) > 1e-9:
            lhs = sum(c * sol.values[j] for j, c in con.coeffs)
            assert lhs == pytest.approx(con.rhs, abs=1e-6)
    assert sol.residual <= 1e-6
    # a warm re-solve of the final basis on the final rows takes no pivots
    again = prep.solve(warm_start=sol.basis)
    assert again.pivots == 0 and again.objective == pytest.approx(sol.objective, rel=1e-12)
    # on a fresh prepared model the basis brings back the lazy rows whose
    # slack it holds nonbasic, and no others
    fresh = PreparedLp(lp_relaxation(model))
    again = fresh.solve(warm_start=sol.basis)
    assert again.pivots == 0 and again.objective == pytest.approx(sol.objective, rel=1e-12)
    slack_basic = np.zeros(m, dtype=bool)
    slack_basic[sol.basis.basic_idx[(sol.basis.basic_idx >= n)
                                    & (sol.basis.basic_idx < n + m)] - n] = True
    np.testing.assert_array_equal(fresh.active, ~lazy | ~slack_basic)


def test_warm_start_from_a_basis_saved_before_rows_were_added(monkeypatch):
    model, relaxed, children = ladder_children()
    prep = PreparedLp(relaxed)
    saved = prep.solve(*children[0])
    assert saved.status == OPTIMAL
    rows_then = prep.active.copy()
    for clo, chi in children[1:]:
        prep.solve(clo, chi)
    assert np.all(prep.active >= rows_then)
    # rows joined ahead of some kernel row, so its working position moved
    joined = np.flatnonzero(prep.active & ~rows_then)
    assert joined.size and joined.min() < saved.basis.kernel[2].max()
    eager = PreparedLp(unmarked(relaxed))
    loads = spy_warm_loads(monkeypatch)
    for clo, chi in children:
        warm = prep.solve(clo, chi, warm_start=saved.basis)
        assert loads[-1] == (0, True)  # the saved kernel inverse, reused
        cold = eager.solve(clo, chi)
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
            _check_primal_feasible(model, warm.values, tol=1e-6)


def test_working_rows_that_are_unbounded_or_infeasible():
    # x free; only the lazy row bounds it
    bounded_by_lazy = lp([(-np.inf, np.inf), (0.0, 1.0)],
                         [([(0, 1.0)], GE, -5.0), ([(0, 1.0), (1, 1.0)], LE, 9.0)],
                         [(0, 1.0), (1, -1.0)], lazy={0})
    sol = solve_lp(bounded_by_lazy)
    assert sol.status == OPTIMAL and sol.objective == pytest.approx(-6.0)
    unbounded = lp([(-np.inf, np.inf)], [([(0, 1.0)], LE, 3.0)], [(0, 1.0)], lazy={0})
    assert solve_lp(unbounded).status == UNBOUNDED
    # the rows kept already conflict, so every row together does too
    infeasible = lp([(0.0, 4.0)], [([(0, 1.0)], GE, 5.0), ([(0, 1.0)], LE, 9.0)],
                    [(0, 1.0)], lazy={1})
    assert solve_lp(infeasible).status == INFEASIBLE


def test_iteration_budget_is_shared_by_all_rounds():
    relaxed = lp_relaxation(ladder_root_model(2))
    unlimited = PreparedLp(relaxed).solve()
    assert unlimited.status == OPTIMAL
    # one iteration short of what all rounds take together: the first
    # round finishes and adds rows, a later one runs out
    prep = PreparedLp(relaxed)
    rows_before = prep.active.sum()
    short = prep.solve(max_iters=unlimited.iterations - 1)
    assert short.status == ITERATION_LIMIT
    assert short.iterations == unlimited.iterations - 1
    assert prep.active.sum() > rows_before


def test_rows_join_inside_one_run_at_one_factorization_a_round(monkeypatch):
    model = ladder_root_model(1)
    prep = PreparedLp(lp_relaxation(model))
    runs, events = [], []
    init, factor, join = _Run.__init__, _Run._factor, _Run._join_broken

    def spy_init(run, *args):
        runs.append(run)
        init(run, *args)

    def spy_factor(run):
        events.append(("factor", run.pivots))
        return factor(run)

    def spy_join(run):
        grown = join(run)
        if grown:
            events.append(("join", run.pivots))
        return grown

    monkeypatch.setattr(_Run, "__init__", spy_init)
    monkeypatch.setattr(_Run, "_factor", spy_factor)
    monkeypatch.setattr(_Run, "_join_broken", spy_join)
    sol = prep.solve()
    assert len(runs) == 1
    joins = [k for k, (kind, _) in enumerate(events) if kind == "join"]
    assert joins
    for k in joins:
        # no exit refactorization before the rows join, one after
        at = events[k][1]
        assert [kind for kind, p in events if p == at] == ["join", "factor"]
    eager = PreparedLp(lp_relaxation(unmarked(model))).solve()
    assert sol.status == eager.status == OPTIMAL
    assert sol.objective == pytest.approx(eager.objective, rel=1e-9)


def test_rows_broken_only_at_the_recomputed_iterate_still_join(monkeypatch):
    # the stub hides every broken row from the checks on the updated
    # iterate, so only the check after the exit refactorization sees them
    model = ladder_root_model(1)
    join = _Run._join_broken
    hidden = []

    def hide_before_exit(run):
        if run.since_refactor > 0:
            hidden.append(run.pivots)
            return False
        return join(run)

    monkeypatch.setattr(_Run, "_join_broken", hide_before_exit)
    prep = PreparedLp(lp_relaxation(model))
    sol = prep.solve()
    assert hidden
    eager = PreparedLp(lp_relaxation(unmarked(model))).solve()
    assert sol.status == eager.status == OPTIMAL
    assert sol.objective == pytest.approx(eager.objective, rel=1e-9)
    _check_primal_feasible(model, sol.values)


# ----- the vectorized start paths keep the per-column rules -----------------

def reference_default_status(lo, hi):
    if np.isfinite(lo) and (not np.isfinite(hi) or abs(lo) <= abs(hi)):
        return AT_LOWER
    if np.isfinite(hi):
        return AT_UPPER
    return FREE_ZERO


BOUND_VALUES = (-np.inf, -3.0, -1.0, 0.0, 1.0, 3.0, np.inf)


def test_default_status_matches_the_per_column_rule():
    pairs = [(lo, hi) for lo in BOUND_VALUES for hi in BOUND_VALUES]
    lo = np.array([p[0] for p in pairs])
    hi = np.array([p[1] for p in pairs])
    expected = [reference_default_status(a, b) for a, b in pairs]
    np.testing.assert_array_equal(_default_status(lo, hi), expected)


def test_warm_statuses_match_the_per_column_rule():
    rng = np.random.default_rng(12)
    pairs = [(lo, hi) for lo in BOUND_VALUES for hi in BOUND_VALUES if lo <= hi]
    n = len(pairs)
    model = lp(pairs, [([(0, 1.0)], LE, 1.0)], [(0, 1.0)])
    prep = PreparedLp(model)
    for _ in range(20):
        status = rng.integers(0, 4, size=prep.ncols).astype(np.int8)
        basic = np.array([int(rng.integers(n))])
        run = _Run(prep, None, None, Basis(basic, status), DEFAULT_MAX_ITERS)
        run._load_warm()
        expected = status.copy()
        for j in range(prep.ncols):
            st_j, lo, hi = status[j], run.lo[j], run.hi[j]
            if j in basic:
                st_j = BASIC
            elif st_j == AT_LOWER and not np.isfinite(lo):
                st_j = AT_UPPER if np.isfinite(hi) else FREE_ZERO
            elif st_j == AT_UPPER and not np.isfinite(hi):
                st_j = AT_LOWER if np.isfinite(lo) else FREE_ZERO
            elif st_j == FREE_ZERO:
                if lo > 0.0:
                    st_j = AT_LOWER
                elif hi < 0.0:
                    st_j = AT_UPPER
            elif st_j == BASIC:
                st_j = reference_default_status(lo, hi)
            expected[j] = st_j
        np.testing.assert_array_equal(run.status, expected)


def test_crash_holds_every_free_column_on_a_triangular_basis():
    rng = np.random.default_rng(21)
    models = [lp_relaxation(ladder_root_model(1)), lp_relaxation(ladder_root_model(3))]
    for _ in range(10):
        model = random_boxed_lp(rng)
        models.append(dataclasses.replace(model, variables=tuple(
            dataclasses.replace(v, lb=-np.inf, ub=np.inf) if rng.random() < 0.5 else v
            for v in model.variables)))
    for k, model in enumerate(models):
        prep = PreparedLp(model)
        n, m = prep.n_struct, prep.m
        run = _Run(prep, None, None, None, DEFAULT_MAX_ITERS)
        assert run._crash()  # factors on the first try
        basic = run.basic
        assert basic.shape == (m,) and np.all((basic >= 0) & (basic < n + m))
        free = np.flatnonzero(np.isinf(prep.lo_template[:n]) & np.isinf(prep.hi_template[:n]))
        if k < 2:  # the ladders' segcost columns
            assert free.size > 0 and np.all(np.isin(free, basic))
        on_struct = basic < n
        fixed = prep.lo_template[n:n + m] == prep.hi_template[n:n + m]
        # a structural sits on a row with a free slack only if it is free
        assert np.all(np.isin(basic[on_struct & ~fixed], free))
        # an equality row keeps its slack only if a pick touched it first
        touched = (dense_basis(prep, basic[on_struct]) != 0.0).any(axis=1)
        assert np.all(on_struct | ~fixed | touched)
        if k < 2:
            assert np.count_nonzero(on_struct & fixed) > 0
        assert np.all(run.status[basic] == BASIC)
        np.testing.assert_allclose(run.b_inv @ dense_basis(prep, basic), np.eye(m),
                                   rtol=0.0, atol=1e-9)


def test_crash_seats_the_ladder_equality_rows():
    model = lp_relaxation(ladder_root_model(1))
    work = PreparedLp(model)._working()
    run = _Run(work, None, None, None, DEFAULT_MAX_ITERS)
    assert run._crash()
    kinds = np.array([model.constraints[r].name.split("(")[0] for r in work.rows])
    seated = run.basic < work.n_struct
    assert np.count_nonzero(kinds == "link") == np.count_nonzero(kinds == "pick_one") == 9
    assert np.all(seated[(kinds == "link") | (kinds == "pick_one")])
    # each balance row sums the unit outputs the link rows took, so it
    # keeps its slack: a pick there would break triangularity
    balance = kinds == "balance"
    assert np.count_nonzero(balance) == 3 and not seated[balance].any()
    assert np.all((dense_basis(work, run.basic[seated])[balance] != 0.0).any(axis=1))


def test_structural_columns_match_the_coordinate_arrays():
    prep = ladder_root_lp(1)
    cols = np.array([5, 0, prep.n_struct - 1, 17, 3])
    full = np.zeros((prep.m, prep.n_struct))
    full[prep.rows_nz, prep.cols_nz] = prep.vals_nz
    np.testing.assert_array_equal(prep.structural_columns(cols), full[:, cols])


# ----- a warm start reuses the kernel inverse its basis came with -----------

def spy_warm_loads(monkeypatch):
    """Per warm load, ``(np.linalg.inv calls, whether b_inv inverts the
    loaded basis)``."""
    load, inv = _Run._load_warm, np.linalg.inv
    inversions, loads = [0], []

    def count(a):
        inversions[0] += 1
        return inv(a)

    def spy(run):
        before = inversions[0]
        ok = load(run)
        exact = ok and np.allclose(run.b_inv @ dense_basis(run.prep, run.basic),
                                   np.eye(run.prep.m), rtol=0.0, atol=1e-9)
        loads.append((inversions[0] - before, exact))
        return ok

    monkeypatch.setattr(np.linalg, "inv", count)
    monkeypatch.setattr(_Run, "_load_warm", spy)
    return loads


def ladder_children():
    """The ladder's relaxed root LP and the bounds of children that each fix
    one selector of unit 0, period 0 or unit 3, period 1 at 1."""
    model, varmap = build_milp1(duplicate_system(symmetric_three_unit(), 2),
                                tangent_steps=10)
    lo = np.array([v.lb for v in model.variables])
    hi = np.array([v.ub for v in model.variables])
    children = []
    for i, t in ((0, 0), (3, 1)):
        for j in varmap.u_seg[i][t]:
            clo, chi = lo.copy(), hi.copy()
            clo[j] = chi[j] = 1.0
            children.append((clo, chi))
    return model, lp_relaxation(model), children


def test_child_warm_start_reuses_its_parents_kernel_inverse(monkeypatch):
    model, relaxed, children = ladder_children()
    prep = PreparedLp(relaxed)
    parent = prep.solve()
    assert parent.status == OPTIMAL and parent.basis.kernel is not None
    eager = PreparedLp(unmarked(relaxed))
    loads = spy_warm_loads(monkeypatch)
    for clo, chi in children:
        child = prep.solve(clo, chi, warm_start=parent.basis)
        assert loads[-1] == (0, True)
        cold = eager.solve(clo, chi)
        assert child.status == cold.status
        if cold.status == OPTIMAL:
            assert child.objective == pytest.approx(cold.objective, rel=1e-9)
            _check_primal_feasible(model, child.values, tol=1e-6)
    assert len(loads) == len(children)


def first_that_factors(prep, basic, swaps):
    """``basic`` after the first swap ``(position, column)`` that leaves a
    basis that factors."""
    for p, j in swaps:
        trial = basic.copy()
        trial[p] = j
        if factored(prep, trial)[1]:
            return trial
    raise AssertionError("no swap leaves a basis that factors")


def test_kernel_is_not_reused_off_its_own_model_and_basis(monkeypatch):
    _, relaxed, children = ladder_children()
    relaxed = unmarked(relaxed)  # so both prepared copies hold every row
    prep = PreparedLp(relaxed)
    parent = prep.solve()
    child = prep.solve(*children[0], warm_start=parent.basis)
    assert child.pivots > 0
    basis = parent.basis
    # the same structural columns over other rows (a kernel row's slack
    # replaces another slack), and another structural column over the
    # same rows
    n, basic = prep.n_struct, basis.basic_idx
    off_rows = first_that_factors(prep, basic, [(p, n + basis.kernel[2][0])
                                                for p in np.flatnonzero(basic >= n)])
    off_cols = first_that_factors(prep, basic, [(np.flatnonzero(basic < n)[0], j)
                                                for j in np.setdiff1d(np.arange(n), basic)])
    loads = spy_warm_loads(monkeypatch)
    # a kernel from another prepared copy of the same model
    other = PreparedLp(relaxed).solve(*children[0], warm_start=basis)
    # a basis rebuilt by hand, and the parent's kernel on other bases
    rebuilt = prep.solve(*children[0], warm_start=Basis(basis.basic_idx, basis.status))
    swapped = prep.solve(warm_start=Basis(child.basis.basic_idx, child.basis.status,
                                          basis.kernel))
    off = [prep.solve(warm_start=Basis(b, basis.status, basis.kernel))
           for b in (off_rows, off_cols)]
    assert loads == [(1, True)] * 5
    for sol, want in ((other, child), (rebuilt, child), (swapped, parent),
                      (off[0], parent), (off[1], parent)):
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(want.objective, rel=1e-9)
