"""LP solver tests against exhaustive vertex enumeration and hand cases."""

import dataclasses
import time
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedpoz import (ValidationError, build_milp1, build_milp2, duplicate_system,
                    load_instance, simplex)
from dedpoz.milp import (BINARY, CONTINUOUS, EQ, GE, LE, Constraint, MilpModel, Variable,
                         _reanchor, lp_relaxation)
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
    _Inverse,
    _Run,
    _WorkingRows,
    solve_lp,
)
from support import (enumeration_milp_min, random_lossless_instance, random_lossy_instance,
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


# the default, and steepest edge with the long step from the first pivot
STEEP_MODES = (simplex.STEEP_AFTER, 0)


def solves_both_ways(model):
    """``solve_lp(model)`` in each of the STEEP_MODES."""
    for steep in STEEP_MODES:
        with mock.patch.object(simplex, "STEEP_AFTER", steep):
            yield solve_lp(model)


def test_matches_vertex_enumeration_on_random_lps():
    rng = np.random.default_rng(42)
    optimal_seen = infeasible_seen = 0
    for _ in range(24):
        model = random_boxed_lp(rng)
        status, best, _ = vertex_enumeration_min(model)
        for sol in solves_both_ways(model):
            if status == "infeasible":
                assert sol.status == INFEASIBLE
                assert sol.objective == np.inf
            else:
                assert sol.status == OPTIMAL
                assert sol.objective == pytest.approx(best, rel=1e-6, abs=1e-6)
                assert sol.residual <= 1e-6
                _check_primal_feasible(model, sol.values)
        infeasible_seen += status == "infeasible"
        optimal_seen += status != "infeasible"
    # the seed must exercise both outcomes for this test to mean anything
    assert optimal_seen >= 8 and infeasible_seen >= 3


@pytest.mark.parametrize("rhs, status", [(2.5, OPTIMAL), (4.5, INFEASIBLE)])
def test_long_step_passes_boxed_breakpoints(rhs, status):
    # x0 + ... + x3 >= rhs over [0, 1]^4 at costs 1..4: the crash slack is
    # rhs below its bound and each breakpoint passed cuts that by 1, so the
    # first dual pivot moves x0 and x1 to 1 and makes x2 basic at 0.5; at
    # 4.5 every breakpoint can be passed, which proves infeasibility
    model = lp([(0.0, 1.0)] * 4, [([(j, 1.0) for j in range(4)], GE, rhs)],
               [(j, float(j + 1)) for j in range(4)])
    expected, best, _ = vertex_enumeration_min(model)
    assert expected == status
    with mock.patch.object(simplex, "STEEP_AFTER", 0):
        sol = solve_lp(model)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.pivots == 1 and sol.iterations - sol.pivots >= 2
        assert sol.objective == pytest.approx(best, abs=1e-9)
        np.testing.assert_allclose(sol.values, [1.0, 1.0, 0.5, 0.0], atol=1e-12)


def test_long_step_does_not_pass_a_breakpoint_that_closes_the_row():
    # the crash makes the fixed x1 basic on 2 x0 - 2.5 x1 = 0.5 at 0.2,
    # 0.8 below its bound; x0's breakpoint cuts that by 0.8 (2 / 2.5 over a
    # span of 1), to within round-off of zero.  Passing it would claim
    # infeasibility; the row is met with x0 at 1.5
    model = lp([(0.5, 1.5), (1.0, 1.0)], [([(0, 2.0), (1, -2.5)], EQ, 0.5)],
               [(0, 0.0), (1, 0.0)])
    for sol in solves_both_ways(model):
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.values, [1.5, 1.0], atol=1e-9)


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


def three_equalities():
    return lp([(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)],
              [([(0, 1.0), (1, 1.0)], EQ, 6.0),
               ([(1, 1.0), (2, 1.0)], EQ, 7.0),
               ([(0, 1.0), (2, 1.0)], EQ, 5.0)],
              [(0, 1.0), (1, 2.0), (2, 3.0)])


def test_iteration_limit_status():
    model = three_equalities()
    sol = PreparedLp(model).solve(max_iters=1)
    assert sol.status == ITERATION_LIMIT
    full = solve_lp(model)
    assert full.status == OPTIMAL
    np.testing.assert_allclose(full.values, [2.0, 4.0, 3.0], atol=1e-8)


def test_a_passed_deadline_ends_the_solve_before_its_first_pivot():
    model = three_equalities()
    sol = PreparedLp(model).solve(deadline=time.perf_counter())
    assert sol.status == ITERATION_LIMIT and sol.iterations == 0
    later = PreparedLp(model).solve(deadline=time.perf_counter() + 60.0)
    assert later.status == OPTIMAL
    np.testing.assert_allclose(later.values, [2.0, 4.0, 3.0], atol=1e-8)


@pytest.mark.parametrize("bad", [
    {"lower": np.zeros(2)},
    {"upper": np.full((3, 1), 10.0)},
    {"lower": [0.0, np.nan, 0.0]},
    {"upper": [10.0, 10.0, np.nan]},
    {"max_iters": np.nan},
    {"max_iters": 2.5},
    {"max_iters": True},
    {"max_iters": "10"},
    {"max_iters": -1},
], ids=["lower-short", "upper-2d", "lower-nan", "upper-nan", "iters-nan",
        "iters-float", "iters-bool", "iters-str", "iters-negative"])
def test_bad_solve_input_is_a_validation_error(bad):
    model = three_equalities()
    with pytest.raises(ValidationError):
        PreparedLp(model).solve(**bad)
    if "max_iters" in bad:
        with pytest.raises(ValidationError):
            solve_lp(model, **bad)


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
    solver's own column builder; no column outside the basis is made."""
    n = prep.n_struct
    pos = np.full(prep.ncols, -1)  # each column's basis position
    pos[basic] = np.arange(len(basic))
    out = np.zeros((prep.m, len(basic)))
    on = pos[prep.cols_nz] >= 0
    out[prep.rows_nz[on], pos[prep.cols_nz[on]]] = prep.vals_nz[on]
    slack = np.flatnonzero(pos[n:] >= 0)
    out[slack, pos[n + slack]] = 1.0
    return out


def all_rows(prep):
    """The working-rows form of ``prep`` that holds every row."""
    return _WorkingRows(prep, np.ones(prep.m, dtype=bool))


def factored(prep, basic):
    inv = _Inverse()
    return inv, inv.factor(all_rows(prep), np.asarray(basic, dtype=np.int64))


def times_basis(inv, prep, basic):
    """The inverse held times the basis ``dense_basis`` builds, one FTRAN
    per basis column."""
    return np.column_stack([inv.ftran(a) for a in dense_basis(prep, basic).T])


def held_rows(inv, m):
    """The m x m inverse held, read one row at a time."""
    return np.array([inv.row(i) for i in range(m)])


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
    inv, ok = factored(prep, basic)
    assert ok
    np.testing.assert_allclose(times_basis(inv, prep, basic),
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
        inv, ok = factored(prep, basic)
        assert ok
        np.testing.assert_allclose(times_basis(inv, prep, basic),
                                   np.eye(m), rtol=0.0, atol=1e-9)


def test_kernel_factor_rejects_row_covered_twice():
    prep = ladder_root_lp(1)
    n, m = prep.n_struct, prep.m
    basic = n + np.arange(m)
    assert factored(prep, basic)[1]
    basic[5] = n + 3  # row 3's slack twice, row 5's not at all
    assert not factored(prep, basic)[1]


def test_sparse_update_matches_dense_formula(monkeypatch):
    sparse_update = _Inverse.update
    checked = []

    def compare(inv, w, r, rows):
        # entries of w and rho at or below ZERO_TOL are round-off: the
        # update reads them as zero and nothing else
        np.testing.assert_array_equal(rows, np.flatnonzero(np.abs(w) > simplex.ZERO_TOL))
        before = held_rows(inv, w.size)
        row = before[r] / w[r]
        w_on = np.where(np.abs(w) > simplex.ZERO_TOL, w, 0.0)
        rho = np.where(np.abs(row) > simplex.ZERO_TOL, row, 0.0)
        expected = before - np.outer(w_on, rho)
        expected[r] = row
        kept = inv.steep
        if kept:
            beta = inv.weights - 2.0 * w_on * (before @ rho) + w_on * w_on * (rho @ rho)
            beta[r] = rho @ rho
        sparse_update(inv, w, r, rows)
        if kept:
            np.testing.assert_allclose(inv.weights, beta, rtol=1e-10, atol=0.0)
        checked.append((np.array_equal(held_rows(inv, w.size), expected), kept))

    monkeypatch.setattr(_Inverse, "update", compare)
    for steep in STEEP_MODES:
        checked.clear()
        with mock.patch.object(simplex, "STEEP_AFTER", steep):
            ladder_root_lp(1).solve(max_iters=80)
        assert len(checked) >= 45 and all(same for same, _ in checked)
        # the default mode keeps no weights before STEEP_AFTER pivots
        assert [kept for _, kept in checked] == [i >= steep for i in range(len(checked))]


def test_kept_weights_are_the_row_norms_of_the_inverse(monkeypatch):
    update = _Inverse.update
    gaps = []

    def spy(inv, w, r, rows):
        update(inv, w, r, rows)
        b_inv = held_rows(inv, w.size)
        exact = np.einsum("ij,ij->i", b_inv, b_inv)
        gaps.append(float(np.max(np.abs(inv.weights - exact) / exact)))

    monkeypatch.setattr(_Inverse, "update", spy)
    monkeypatch.setattr(simplex, "STEEP_AFTER", 0)
    sol = ladder_root_lp(2).solve()
    assert sol.status == OPTIMAL and sol.iterations > sol.pivots
    assert len(gaps) == sol.pivots >= 100
    assert max(gaps) <= 1e-9


def test_carried_inverse_holds_no_round_off_and_inverts_the_basis():
    prep = ladder_root_lp(3)
    sol = prep.solve()
    assert sol.status == OPTIMAL
    _, rows, cols, at, of, vals = sol.basis.kernel
    assert np.all(np.abs(vals) > simplex.ZERO_TOL)
    # the round-off fill the rank-1 updates leave is not carried
    assert vals.size < 10_000
    work = _WorkingRows(prep, np.isin(np.arange(prep.m), rows))
    b_inv = np.zeros((rows.size, rows.size))
    b_inv[np.searchsorted(rows, at), np.searchsorted(rows, of)] = vals
    np.testing.assert_allclose(b_inv @ dense_basis(work, work.from_full[cols]),
                               np.eye(rows.size), rtol=0.0, atol=1e-9)


def test_a_chain_of_over_a_thousand_updates_still_inverts_its_basis(monkeypatch):
    # the cold root LP of a 24-period day: the crash is its only inversion,
    # and every pivot after it is a rank-1 update on the same chain
    instance = load_instance(Path(__file__).parent / "fixtures" / "ded_10x24_seed1.json")
    prep = PreparedLp(lp_relaxation(build_milp1(instance, tangent_steps=4)[0]))
    inv, update = np.linalg.inv, _Inverse.update
    chains = []

    def count(a):
        chains.append(0)
        return inv(a)

    def spy(held, w, r, rows):
        chains[-1] += 1
        update(held, w, r, rows)

    monkeypatch.setattr(np.linalg, "inv", count)
    monkeypatch.setattr(_Inverse, "update", spy)
    sol = prep.solve()
    assert sol.status == OPTIMAL
    assert len(chains) == 1 and max(chains) >= 1000
    _, rows, cols, at, of, vals = sol.basis.kernel
    work = _WorkingRows(prep, np.isin(np.arange(prep.m), rows))
    b_inv = np.zeros((rows.size, rows.size))
    b_inv[np.searchsorted(rows, at), np.searchsorted(rows, of)] = vals
    basis = dense_basis(work, work.from_full[cols])
    for s in range(0, rows.size, 512):  # B^-1 B - I by row blocks: k x k is 83 MB here
        block = b_inv[s:s + 512] @ basis
        block[:, s:s + 512] -= np.eye(block.shape[0])
        assert np.abs(block).max() <= 1e-9


def test_a_pivot_read_two_ways_that_disagree_refactors_before_the_next(monkeypatch):
    # after the first pivot, the stub scales the entering column's w_r once
    # the pivot row has been read: w_r then lies away from alpha_q, and the
    # inverse updated with it is wrong
    model = unmarked(ladder_root_model(1))
    clean = PreparedLp(lp_relaxation(model)).solve()
    exchange = _Run._exchange
    scaled = []

    def scale_once(run, r, q, w, alpha, step, to_lower):
        if run.pivots == 1 and not scaled:
            scaled.append(run.pivots)
            w = w.copy()
            w[r] *= 1.0 + 1e-6
        exchange(run, r, q, w, alpha, step, to_lower)

    monkeypatch.setattr(_Run, "_exchange", scale_once)
    sol, calls = solve_with_failed_factor(monkeypatch, model)
    assert scaled == [1]
    # the crash, then a fresh factorization right after the second pivot
    assert calls[:2] == [(0, False), (2, False)]
    assert sol.status == clean.status == OPTIMAL
    assert sol.objective == pytest.approx(clean.objective, rel=1e-9)
    _check_primal_feasible(model, sol.values)


# ----- the inverse's operations against dense solves ------------------------

def check_inverse(inv, prep, basic, rng):
    """Each product of ``inv``, held for ``basic`` on ``prep``, against
    np.linalg.solve on the basis ``dense_basis`` builds; and the inverse its
    ``carried`` nonzeros rebuild gives the same products."""
    m, solve = prep.m, np.linalg.solve
    basis = dense_basis(prep, basic)

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9)

    v = rng.normal(size=m)
    close(inv.ftran(v), solve(basis, v))
    close(inv.btran(v), solve(basis.T, v))
    rows = np.sort(rng.choice(m, size=min(m, 6), replace=False))
    close(inv.ftran(v[rows], rows), solve(basis, np.where(np.isin(np.arange(m), rows), v, 0.0)))
    for r in rng.choice(m, size=min(m, 4), replace=False):
        close(inv.row(r), solve(basis.T, np.eye(m)[r]))
    nonbasic = np.setdiff1d(np.arange(prep.ncols), basic)
    for q in np.concatenate([rng.choice(nonbasic, size=4, replace=False), basic[:2]]):
        close(inv.column(q), solve(basis, dense_basis(prep, [q])[:, 0]))
    again = _Inverse()
    assert again.factor(prep, basic, inv.carried)
    close(again.ftran(v), inv.ftran(v))
    close(again.btran(v), inv.btran(v))


def test_the_inverse_agrees_with_dense_solves_in_every_state(monkeypatch):
    # after rank-1 updates, a border of joined rows, a reload of a carried
    # inverse and a Woodbury correction after an edit
    rng = np.random.default_rng(7)
    model_basis, load, inv = PreparedLp._model_basis, _Run._load_warm, np.linalg.inv
    states, inversions = [], [0]

    def count(a):
        inversions[0] += 1
        return inv(a)

    def spy_basis(prep, run):
        if run.pivots and run.inv.held:
            check_inverse(run.inv, run.prep, run.basic, rng)
            states.append("updates")
        return model_basis(prep, run)

    def spy_load(run):
        before = inversions[0]
        ok = load(run)
        if ok and inversions[0] == before:
            check_inverse(run.inv, run.prep, run.basic, rng)
            token, rows = run.warm.kernel[:2]
            # a restart after rows joined borders the last run's inverse
            states.append("woodbury" if token is not run.prep.token
                          else "border" if rows.size < run.prep.m else "reload")
        return ok

    monkeypatch.setattr(np.linalg, "inv", count)
    monkeypatch.setattr(PreparedLp, "_model_basis", spy_basis)
    monkeypatch.setattr(_Run, "_load_warm", spy_load)
    _, relaxed, children = ladder_children()
    prep = PreparedLp(relaxed)
    parent = prep.solve()
    for clo, chi in children[:2]:
        prep.solve(clo, chi, warm_start=parent.basis)
    instance = random_lossy_instance(np.random.default_rng(2105), n_units=4, n_periods=3)
    model, varmap = build_milp2(instance, 4, None)
    lossy = PreparedLp(lp_relaxation(model))
    root = lossy.solve()
    model, rows = _reanchor(model, varmap, instance, varmap.extract_schedule(root.values).p)
    lossy._edit(model, rows, varmap.loss_quad)
    assert lossy.solve(warm_start=root.basis).status == OPTIMAL
    assert {"updates", "border", "reload", "woodbury"} <= set(states)


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
    for steep in STEEP_MODES:
        with mock.patch.object(simplex, "STEEP_AFTER", steep):
            sol = PreparedLp(model).solve()
            # every pivot read as drifted, so the drift refactorization runs
            # on models this small too, gives the same answer
            with mock.patch.object(simplex, "DRIFT_TOL", -1.0):
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
    # basis primal infeasible under the new bounds, as drift would; the
    # claim fails its certificate, and the dual start from a fresh
    # factorization repairs it
    dual, factor = _Run._dual, _Run._factor
    calls, factored = [], []

    def stale_first(run, c):
        calls.append(c)
        return OPTIMAL if len(calls) == 1 else dual(run, c)

    def spy_factor(run, known=None):
        factored.append(known is not None)
        return factor(run, known)

    monkeypatch.setattr(_Run, "_dual", stale_first)
    monkeypatch.setattr(_Run, "_factor", spy_factor)
    warm = prep.solve(lower=lo, upper=hi, warm_start=base.basis)
    assert len(calls) == 2  # the stale claim, then the run after the recheck
    assert factored == [True, False]  # the warm load, then the recheck
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)

    # a claim that never checks is withheld after RECHECKS fresh factorizations
    factored.clear()
    monkeypatch.setattr(_Run, "_dual", lambda run, c: OPTIMAL)
    stuck = prep.solve(lower=lo, upper=hi, warm_start=base.basis)
    assert stuck.status == ITERATION_LIMIT
    assert factored == [True] + [False] * simplex.RECHECKS


# ----- a basis that fails to factor is never reported optimal ---------------

FACTOR = _Run._factor


def solve_with_failed_factor(monkeypatch, model, fail_at=None):
    """Solve ``model`` recording each call of ``_Run._factor`` as
    ``(pivots, from a known kernel)``; call number ``fail_at`` factors a
    singular basis instead, which leaves no inverse held, and returns False."""
    calls = []

    def flaky(run, known=None):
        calls.append((run.pivots, known is not None))
        if len(calls) - 1 == fail_at:
            twice = np.full(run.prep.m, run.prep.n_struct)  # row 0's slack everywhere
            assert not run.inv.factor(run.prep, twice) and not run.inv.held
            return False
        return FACTOR(run, known)

    monkeypatch.setattr(_Run, "_factor", flaky)
    return PreparedLp(lp_relaxation(model)).solve(), calls


@pytest.mark.parametrize("which", ["exit", "join", "drift"])
def test_a_failed_factorization_is_never_reported_optimal(monkeypatch, which):
    model = ladder_root_model(1)
    if which == "drift":
        monkeypatch.setattr(simplex, "DRIFT_TOL", -1.0)  # every pivot drifts
    if which != "join":
        model = unmarked(model)  # no row joins
    rejected = []
    if which == "exit":
        # the first verdict of a solve fails its certificate, so the basis
        # is factored afresh before the run goes on
        certified = _Run._certified

        def reject_first(run, status):
            rejected.append(status)
            return len(rejected) > 1 and certified(run, status)

        monkeypatch.setattr(_Run, "_certified", reject_first)
    clean, calls = solve_with_failed_factor(monkeypatch, model)
    assert clean.status == OPTIMAL
    if which == "exit":
        at = 1  # the crash, then the recheck
        assert len(calls) == 2 and calls[at][0] > 0 and not calls[at][1]
    elif which == "join":
        at = [known for _, known in calls].index(True)  # the first restart's
    else:
        at = 1  # the crash, then the refactorization after the first pivot
        assert calls[at] == (1, False)
    rejected.clear()
    sol, calls = solve_with_failed_factor(monkeypatch, model, fail_at=at)
    assert clean.basis.kernel is not None
    if which == "join":
        # the grown basis that fails to load starts the restart cold, as
        # every warm start whose basis fails to factor does
        assert calls[at + 1] == (calls[at][0], False)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(clean.objective, rel=1e-9)
    else:
        assert sol.status == ITERATION_LIMIT
        # its basis carries no kernel inverse for a warm start to reuse
        assert sol.basis.kernel is None


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


def test_warm_start_that_alternated_between_two_bases_ends_infeasible():
    # r0's left side is at most -20.5 over the bounds, so the LP is
    # infeasible.  From the perturbed copy's basis, a rule that reads each
    # infeasible verdict again through the dual start moves boxed columns to
    # their other bound, and the dual phase pivots back to the other of two
    # bases, until max_iters; the proving row certifies the first verdict
    bounds = [(-3.0, 0.0), (-1.5, -1.5), (-6.0, -5.0), (-5.0, 0.5)]
    objective = [(0, -0.5), (1, 3.0), (2, -3.0), (3, -0.5)]
    model = lp(bounds, [([(0, 5.0), (1, -4.5), (2, 5.5), (3, 0.5)], GE, -6.0),
                        ([(0, -2.5), (2, -4.5), (3, -5.5)], LE, -0.5)], objective)
    perturbed = lp(bounds, [([(0, -2.5), (1, -2.0), (2, 5.5), (3, 1.5)], GE, 4.5),
                            ([(0, 0.5), (2, 1.0), (3, 3.0)], LE, -0.5)], objective)
    donor = solve_lp(perturbed)
    assert solve_lp(model).status == INFEASIBLE
    warm = solve_lp(model, warm_start=donor.basis)
    assert warm.status == INFEASIBLE
    assert warm.iterations <= 5


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
    # one dual phase on shifted costs; its verdict checks, so no other runs
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
    # x1 moved to its upper bound, where its negative reduced cost is right;
    # it enters the basis, and the verdict checks with no other dual phase
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
    row, update = _Inverse.row, _Inverse.update
    pivots, hidden = [0], []

    def count(inv, w, r, rows):
        pivots[0] += 1
        update(inv, w, r, rows)

    def blind_once(inv, r):
        if pivots[0] > 0 and not hidden:
            hidden.append(pivots[0])
            return np.zeros_like(row(inv, r))  # a zero tableau row
        return row(inv, r)

    monkeypatch.setattr(_Inverse, "update", count)
    monkeypatch.setattr(_Inverse, "row", blind_once)
    sol = solve_lp(model)
    assert hidden == [1]
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.values, [2.0, 4.0, 3.0], atol=1e-8)


def test_optimal_claim_after_pivots_is_read_again(monkeypatch):
    # x0 prices below zero at its lower bound with no upper bound, so the
    # dual phase shifts its cost; the violated x1 >= 1 makes it pivot.  The
    # stub claims the dual phase's point optimal for the true costs
    model = lp([(0.0, np.inf), (0.0, np.inf)],
               [([(0, 1.0), (1, 1.0)], LE, 4.0), ([(1, 1.0)], GE, 1.0)],
               [(0, -1.0), (1, 1.0)])
    primal = _Run._primal
    claims = []

    def optimal_once(run, c):
        if not claims:
            claims.append(run.pivots)
            return OPTIMAL
        return primal(run, c)

    monkeypatch.setattr(_Run, "_primal", optimal_once)
    sol = solve_lp(model)
    assert claims[0] > 0
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-2.0, abs=1e-12)
    np.testing.assert_allclose(sol.values, [3.0, 1.0], atol=1e-12)


# ----- a verdict stands only on a certificate -------------------------------

# x0 + x1 >= 6 and x0 - x1 <= 100 over [0, 10]^2: feasible, with its optimum
# at (6, 0).  The crash basis holds both slacks, so B^-1 is the identity;
# each held inverse below replaces it on the first factorization only, as
# a carried inverse of the same basis that the inverse reloads
CERTIFIED_LP = lp([(0.0, 10.0), (0.0, 10.0)],
                  [([(0, 1.0), (1, 1.0)], GE, 6.0), ([(0, 1.0), (1, -1.0)], LE, 100.0)],
                  [(0, 2.0), (1, 3.0)])


@pytest.mark.parametrize("claim, held", [
    # the slacks read -6 and 100, both within bounds, and price at zero:
    # "optimal" at (0, 0), which breaks the first row
    (OPTIMAL, [[-1.0, 0.0], [0.0, 1.0]]),
    # the first slack reads 94 > 0, and its row of the held inverse,
    # y = (-1, 1), gives y^T A = (0, -2), so no column can lower it:
    # "infeasible", though y^T b = 94 lies inside the range of y^T A x
    (INFEASIBLE, [[-1.0, 1.0], [0.0, 1.0]]),
])
def test_a_verdict_the_inverse_held_cannot_back_is_rejected(monkeypatch, claim, held):
    cold = solve_lp(CERTIFIED_LP)
    assert cold.status == OPTIMAL and cold.objective == pytest.approx(12.0)
    factor, certified = _Run._factor, _Run._certified
    verdicts = []

    def drifted_once(run, known=None):
        ok = factor(run, known)
        if not verdicts:
            token, rows, cols = run.inv.carried[:3]
            at, of = np.nonzero(held)
            wrong = (token, rows, cols, rows[at], rows[of], np.array(held)[at, of])
            assert run.inv.factor(run.prep, run.basic, wrong)
        return ok

    def spy(run, status):
        ok = certified(run, status)
        verdicts.append((status, ok))
        return ok

    monkeypatch.setattr(_Run, "_factor", drifted_once)
    monkeypatch.setattr(_Run, "_certified", spy)
    sol = solve_lp(CERTIFIED_LP)
    assert verdicts == [(claim, False), (OPTIMAL, True)]
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(cold.objective, abs=1e-12)
    np.testing.assert_allclose(sol.values, cold.values, atol=1e-12)


def test_a_verdict_that_never_checks_ends_in_an_iteration_limit(monkeypatch):
    # every verdict fails: the run factors afresh RECHECKS times, then stops
    factor = _Run._factor
    fresh = []

    def spy(run, known=None):
        fresh.append(known is None)
        return factor(run, known)

    monkeypatch.setattr(_Run, "_factor", spy)
    monkeypatch.setattr(_Run, "_certified", lambda run, status: False)
    for model in (CERTIFIED_LP, lp_relaxation(ladder_root_model(1))):
        fresh.clear()
        sol = solve_lp(model)
        assert sol.status == ITERATION_LIMIT
        assert fresh == [True] * (1 + simplex.RECHECKS)  # the crash and the rechecks
        assert sol.iterations < 1000 < DEFAULT_MAX_ITERS


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


def assert_matches_highs(model, solutions):
    status, objective = highs_status(model)
    for sol in solutions:
        assert sol.status == status
        if status == OPTIMAL:
            assert sol.objective == pytest.approx(objective, rel=1e-7, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(open_lps())
def test_status_and_optimum_match_highs(model):
    pytest.importorskip("scipy")
    assert_matches_highs(model, solves_both_ways(model))


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
    # every pivot read as drifted, so the drift refactorization runs on
    # this LP too, gives the same optimum
    with mock.patch.object(simplex, "DRIFT_TOL", -1.0):
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
    # rows joined ahead of some row the carried inverse covers, so its
    # working position moved
    joined = np.flatnonzero(prep.active & ~rows_then)
    assert joined.size and joined.min() < saved.basis.kernel[1].max()
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


def test_working_rows_that_are_unbounded_or_infeasible(monkeypatch):
    runs = []  # per run, (working rows, its status)
    run_solve = _Run.solve

    def spy_solve(run):
        status = run_solve(run)
        runs.append((run.prep.m, status))
        return status

    monkeypatch.setattr(_Run, "solve", spy_solve)
    # x free; only the lazy row bounds it, and it joins the unbounded
    # working LP, whose basis the same solve restarts from
    bounded_by_lazy = lp([(-np.inf, np.inf), (0.0, 1.0)],
                         [([(0, 1.0)], GE, -5.0), ([(0, 1.0), (1, 1.0)], LE, 9.0)],
                         [(0, 1.0), (1, -1.0)], lazy={0})
    prep = PreparedLp(bounded_by_lazy)
    sol = prep.solve()
    assert sol.status == OPTIMAL and sol.objective == pytest.approx(-6.0)
    assert runs == [(1, UNBOUNDED), (2, OPTIMAL)] and prep.active.all()
    np.testing.assert_allclose(sol.values, [-5.0, 1.0], atol=1e-9)
    runs.clear()
    unbounded = lp([(-np.inf, np.inf)], [([(0, 1.0)], LE, 3.0)], [(0, 1.0)], lazy={0})
    assert solve_lp(unbounded).status == UNBOUNDED
    assert runs == [(0, UNBOUNDED), (1, UNBOUNDED)]
    runs.clear()
    # the rows kept already conflict, so every row together does too
    infeasible = lp([(0.0, 4.0)], [([(0, 1.0)], GE, 5.0), ([(0, 1.0)], LE, 9.0)],
                    [(0, 1.0)], lazy={1})
    assert solve_lp(infeasible).status == INFEASIBLE
    assert runs == [(1, INFEASIBLE)]


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


def test_rows_join_by_a_warm_restart_at_one_factorization_a_round(monkeypatch):
    model = ladder_root_model(1)
    prep = PreparedLp(lp_relaxation(model))
    runs = []  # per run, (working rows, pivots taken before it, its factorizations)
    init, factor = _Run.__init__, _Run._factor

    def spy_init(run, *args):
        init(run, *args)
        runs.append((run.prep.m, run.pivots, []))

    def spy_factor(run, known=None):
        runs[-1][2].append("factor" if known is None else "kernel")
        return factor(run, known)

    monkeypatch.setattr(_Run, "__init__", spy_init)
    monkeypatch.setattr(_Run, "_factor", spy_factor)
    sol = prep.solve()
    assert len(runs) > 1
    assert runs[0][:2] == (prep.m - np.count_nonzero(model.arrays.lazy), 0)
    assert runs[0][2] == ["factor"]  # the crash
    for (rows, pivots, _), (grown, carried, factors) in zip(runs, runs[1:]):
        # each round's rows join by a restart that goes on counting pivots,
        # with one factorization, from the kernel the grown basis shares
        # with the last run's, and no other
        assert grown > rows and carried > pivots
        assert factors == ["kernel"]
    assert runs[-1][0] == prep.active.sum()
    eager = PreparedLp(lp_relaxation(unmarked(model))).solve()
    assert sol.status == eager.status == OPTIMAL
    assert sol.objective == pytest.approx(eager.objective, rel=1e-9)


def test_each_run_reads_the_rows_left_out_once(monkeypatch):
    # the broken rows a run's optimum shows and the solution's residual come
    # from one row_violation call per run
    calls, runs = [0], [0]
    violation, run_solve = PreparedLp.row_violation, _Run.solve

    def count_violation(prep, values):
        calls[0] += 1
        return violation(prep, values)

    def count_runs(run):
        runs[0] += 1
        return run_solve(run)

    monkeypatch.setattr(PreparedLp, "row_violation", count_violation)
    monkeypatch.setattr(_Run, "solve", count_runs)
    assert ladder_root_lp(1).solve().status == OPTIMAL
    assert runs[0] > 1 and calls[0] == runs[0]


def test_rows_broken_only_at_the_recomputed_iterate_still_join(monkeypatch):
    # the stub moves the updated iterate of each optimal claim to where no
    # tangent cut is broken (every segment cost far up), so only the iterate
    # the certificate recomputes from the basis shows the broken rows; like
    # every write to x, it clears the mark that x was just recomputed
    model = ladder_root_model(1)
    prep = PreparedLp(lp_relaxation(model))
    free = np.flatnonzero(np.isinf(prep.lo_template[:prep.n_struct]))
    assert free.size
    primal = _Run._primal
    hidden = []

    def hide_broken_rows(run, c):
        status = primal(run, c)
        if status == OPTIMAL:
            hidden.append(run.pivots)
            run.x[free] = 1e9
            run.fresh = None
        return status

    monkeypatch.setattr(_Run, "_primal", hide_broken_rows)
    sol = prep.solve()
    assert len(hidden) > 1  # a claim per round of joined rows
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
        run = _Run(all_rows(prep), None, None, Basis(basic, status), DEFAULT_MAX_ITERS)
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
        run = _Run(all_rows(prep), None, None, None, DEFAULT_MAX_ITERS)
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
        np.testing.assert_allclose(times_basis(run.inv, prep, basic), np.eye(m),
                                   rtol=0.0, atol=1e-9)


def reference_crash_basis(prep, lo, hi):
    """The crash's picks, one numpy scan per column and per row: the largest
    entry on a row no earlier pick touches, the first of equal ones."""
    n, m = prep.n_struct, prep.m
    basic = n + np.arange(m)
    touched = np.zeros(m, dtype=bool)
    picked = np.zeros(n, dtype=bool)

    def pick(j, r):
        basic[r] = j
        picked[j] = True
        touched[prep.col_rows[prep.col_ptr[j]:prep.col_ptr[j + 1]]] = True

    for j in np.flatnonzero(np.isneginf(lo[:n]) & np.isposinf(hi[:n])):
        s, e = prep.col_ptr[j], prep.col_ptr[j + 1]
        rows, mag = prep.col_rows[s:e], np.abs(prep.col_vals[s:e])
        open_rows = ~touched[rows] & (mag > 0.0)
        if open_rows.any():
            pick(j, rows[open_rows][np.argmax(mag[open_rows])])
    row_ptr = np.searchsorted(prep.rows_nz, np.arange(m + 1))
    for r in np.flatnonzero(lo[n:] == hi[n:]):
        if touched[r]:
            continue
        s, e = row_ptr[r], row_ptr[r + 1]
        mag = np.where(picked[prep.cols_nz[s:e]], 0.0, np.abs(prep.vals_nz[s:e]))
        if mag.size and mag.max() > 0.0:
            pick(prep.cols_nz[s + np.argmax(mag)], r)
    return basic


def test_crash_picks_the_largest_entry_first_of_equals():
    rng = np.random.default_rng(23)
    models = [lp_relaxation(ladder_root_model(1)), lp_relaxation(ladder_root_model(4))]
    for _ in range(30):
        model = random_boxed_lp(rng)
        models.append(dataclasses.replace(model, variables=tuple(
            dataclasses.replace(v, lb=-np.inf, ub=np.inf) if rng.random() < 0.5 else v
            for v in model.variables)))
    for model in models:
        for work in (PreparedLp(model)._working(), all_rows(PreparedLp(model))):
            run = _Run(work, None, None, None, DEFAULT_MAX_ITERS)
            run._crash()
            np.testing.assert_array_equal(run.basic, reference_crash_basis(work, run.lo, run.hi))


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


def kernel_formula(prep, basic):
    """B^-1 by the dense kernel formula: with S the structural basic
    positions, U the slack ones, ru the rows U covers and K the rest,
    A[K,S]^-1 on (S,K), -A[ru,S] A[K,S]^-1 on (U,K), the identity on
    (U,ru) and zero elsewhere."""
    n, m = prep.n_struct, prep.m
    s_pos, u_pos = np.flatnonzero(basic < n), np.flatnonzero(basic >= n)
    ru = basic[u_pos] - n
    k_rows = np.setdiff1d(np.arange(m), ru)
    cols = dense_basis(prep, basic)[:, s_pos]
    kernel_inv = np.linalg.inv(cols[k_rows])
    out = np.zeros((m, m))
    out[np.ix_(s_pos, k_rows)] = kernel_inv
    out[np.ix_(u_pos, k_rows)] = -(cols[ru] @ kernel_inv)
    out[u_pos, ru] = 1.0
    return out


def test_a_fresh_factor_matches_the_dense_kernel_formula(monkeypatch):
    work = PreparedLp(lp_relaxation(ladder_root_model(1)))._working()
    n, m = work.n_struct, work.m
    run = _Run(work, None, None, None, DEFAULT_MAX_ITERS)
    assert run._crash()
    crash = run.basic.copy()
    np.testing.assert_allclose(held_rows(run.inv, m), kernel_formula(work, crash),
                               rtol=0.0, atol=1e-12)
    # a permuted basis is reordered in place: each slack to its own row's
    # position, the structural columns in their order onto the rest
    basic = np.random.default_rng(5).permutation(crash)
    before = basic.copy()
    inv = _Inverse()
    assert inv.factor(work, basic)
    slack = np.flatnonzero(basic >= n)
    np.testing.assert_array_equal(basic[slack], n + slack)
    np.testing.assert_array_equal(basic[basic < n], before[before < n])
    at = np.empty(work.ncols, dtype=np.int64)
    at[before] = np.arange(m)  # each column's position before the reorder
    np.testing.assert_allclose(held_rows(inv, m), kernel_formula(work, before)[at[basic]],
                               rtol=0.0, atol=1e-12)

    # a recheck in the middle of a solve reorders the basis it factors and
    # leaves the iterate, the statuses and the verdict as they were
    certified, seen = _Run._certified, []

    def recheck_first(run, status):
        verdict = certified(run, status)
        if not seen:
            x, statuses, order = run.x.copy(), run.status.copy(), run.basic.copy()
            assert run._factor()
            assert not np.array_equal(run.basic, order)
            np.testing.assert_allclose(held_rows(run.inv, run.prep.m),
                                       kernel_formula(run.prep, run.basic),
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(np.sort(run.basic), np.sort(order))
            run._refresh(run.prep.c)
            np.testing.assert_allclose(run.x, x, rtol=0.0, atol=1e-9)
            np.testing.assert_array_equal(run.status, statuses)
            slack = np.flatnonzero(run.basic >= run.prep.n_struct)
            np.testing.assert_array_equal(run.basic[slack], run.prep.n_struct + slack)
            seen.append((status, verdict, certified(run, status)))
        return verdict

    monkeypatch.setattr(_Run, "_certified", recheck_first)
    sol = ladder_root_lp(1).solve()
    assert sol.status == OPTIMAL
    assert seen == [(OPTIMAL, True, True)]


@settings(max_examples=100, deadline=None)
@given(bounded_lps())
def test_coordinate_entries_are_in_row_order(model):
    # the crash's row pointer is a searchsorted over rows_nz
    prep = PreparedLp(model)
    assert np.all(np.diff(prep.rows_nz) >= 0)
    row_ptr = np.searchsorted(prep.rows_nz, np.arange(prep.m + 1))
    assert row_ptr[0] == 0 and row_ptr[-1] == prep.rows_nz.size
    for r, con in enumerate(model.constraints):
        span = slice(row_ptr[r], row_ptr[r + 1])
        np.testing.assert_array_equal(prep.rows_nz[span], r)
        assert sorted(prep.cols_nz[span]) == sorted(j for j, _ in con.coeffs)


# ----- a warm start reuses the kernel inverse its basis came with -----------

def spy_warm_loads(monkeypatch):
    """Per warm load, ``(np.linalg.inv calls, whether the inverse held
    inverts the loaded basis)``."""
    load, inv = _Run._load_warm, np.linalg.inv
    inversions, loads = [0], []

    def count(a):
        inversions[0] += 1
        return inv(a)

    def spy(run):
        before = inversions[0]
        ok = load(run)
        exact = ok and np.allclose(times_basis(run.inv, run.prep, run.basic),
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


def test_inverse_carried_across_one_edit_is_corrected_not_redone(monkeypatch):
    # the next lossy pass starts from the last root's inverse, corrected for
    # the rows the edit rewrote; one two edits old is refused
    instance = random_lossy_instance(np.random.default_rng(2105), n_units=4, n_periods=3)
    model, varmap = build_milp2(instance, 4, None)
    prep = PreparedLp(lp_relaxation(model))
    root = prep.solve()
    assert root.status == OPTIMAL
    anchors = [varmap.extract_schedule(root.values).p]
    anchors.append(0.9 * anchors[0] + 0.1 * instance.p_maxs)
    loads, starts = spy_warm_loads(monkeypatch), []
    bases = [root.basis]
    for anchor in anchors:
        model, rows = _reanchor(model, varmap, instance, anchor)
        prep._edit(model, rows, varmap.loss_quad)
        cold = PreparedLp(lp_relaxation(model)).solve()
        for basis in bases:
            first = len(loads)
            warm = prep.solve(warm_start=basis)
            assert warm.status == cold.status == OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
            starts.append(loads[first])
        bases = [basis, warm.basis]
    # the warm load each solve starts with (the cold solves' restarts load
    # too): the root's inverse is reused after the first edit and refused
    # after the second; the basis solved between the edits is reused
    assert starts == [(0, True), (1, True), (0, True)]


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
    _, marked, children = ladder_children()
    relaxed = unmarked(marked)  # so both prepared copies hold every row
    prep = PreparedLp(relaxed)
    parent = prep.solve()
    child = prep.solve(*children[0], warm_start=parent.basis)
    assert child.pivots > 0
    basis = parent.basis
    # the same structural columns over other rows (the slack of a row no
    # slack covers replaces another slack), and another structural column
    # over the same rows
    n, m, basic = prep.n_struct, prep.m, basis.basic_idx
    uncovered = np.setdiff1d(np.arange(m), basic[basic >= n] - n)
    off_rows = first_that_factors(prep, basic, [(p, n + uncovered[0])
                                                for p in np.flatnonzero(basic >= n)])
    off_cols = first_that_factors(prep, basic, [(np.flatnonzero(basic < n)[0], j)
                                                for j in np.setdiff1d(np.arange(n), basic)])
    # a copy that leaves some rows out, handed the inverse over every row
    # under its own token, so that only the rows differ
    lazy = PreparedLp(marked)
    loads = spy_warm_loads(monkeypatch)
    # a kernel from another prepared copy of the same model
    other = PreparedLp(relaxed).solve(*children[0], warm_start=basis)
    # a basis rebuilt by hand, and the parent's kernel on other bases
    rebuilt = prep.solve(*children[0], warm_start=Basis(basis.basic_idx, basis.status))
    swapped = prep.solve(warm_start=Basis(child.basis.basic_idx, child.basis.status,
                                          basis.kernel))
    off = [prep.solve(warm_start=Basis(b, basis.status, basis.kernel))
           for b in (off_rows, off_cols)]
    assert not lazy.active.all()
    over = lazy.solve(warm_start=Basis(basis.basic_idx, basis.status,
                                       (lazy.token,) + basis.kernel[1:]))
    assert loads == [(1, True)] * 6
    for sol, want in ((other, child), (rebuilt, child), (swapped, parent),
                      (off[0], parent), (off[1], parent), (over, parent)):
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(want.objective, rel=1e-9)


# ----- one prepare path, from the model's arrays ----------------------------

PREPARED_ARRAYS = ("rows_nz", "cols_nz", "vals_nz", "b", "row_scale", "col_scale",
                   "lo_template", "hi_template", "c", "active", "col_rows", "col_vals",
                   "col_ptr")


def assert_same_prepared(a, b):
    for name in PREPARED_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def from_tuples(model):
    return dataclasses.replace(model, variables=tuple(model.variables),
                               constraints=tuple(model.constraints))


def test_prepared_model_is_the_same_from_arrays_and_from_tuples():
    fixtures = Path(__file__).parent / "fixtures"
    small = load_instance(fixtures / "small_batch_s167_seed107.json")
    lossy = load_instance(fixtures / "lossy_refine_l0_seed11.json")
    mid = np.tile([(u.p_min + u.p_max) / 2 for u in lossy.units], (lossy.n_periods, 1))
    m2, varmap = build_milp2(lossy, 4, None)
    models = [build_milp1(small)[0], build_milp1(lossy)[0], m2,
              build_milp2(lossy, 4, mid)[0]]
    for model in models:
        relaxed = lp_relaxation(model)
        assert_same_prepared(PreparedLp(relaxed), PreparedLp(from_tuples(relaxed)))
    # a re-anchored model, and a prepared model edited into it, are the
    # model built at those anchors
    prep = PreparedLp(lp_relaxation(m2))
    for anchors in (mid, 0.5 * mid, None):
        m2, rows = _reanchor(m2, varmap, lossy, anchors)
        built = PreparedLp(lp_relaxation(build_milp2(lossy, 4, anchors)[0]))
        assert_same_prepared(PreparedLp(lp_relaxation(m2)), built)
        prep._edit(lp_relaxation(m2), rows, varmap.loss_quad)
        assert_same_prepared(prep, built)


def test_a_replaced_model_is_prepared_from_its_own_rows():
    model = lp_relaxation(build_milp1(random_lossless_instance(np.random.default_rng(7)),
                                      tangent_steps=3)[0])
    before = PreparedLp(model)
    r = next(r for r, con in enumerate(model.constraints) if con.name.startswith("poz_hi"))
    con = model.constraints[r]
    changed = dataclasses.replace(con, coeffs=(con.coeffs[0], (con.coeffs[1][0], -1e3)))
    edited = dataclasses.replace(
        model, constraints=model.constraints[:r] + (changed,) + model.constraints[r + 1:])
    assert "arrays" not in vars(edited)
    after = PreparedLp(edited)
    assert_same_prepared(after, PreparedLp(MilpModel(
        tuple(edited.variables), tuple(edited.constraints), edited.objective,
        edited.objective_constant)))
    on = before.rows_nz == r
    assert not np.array_equal(after.vals_nz[on], before.vals_nz[on])
    np.testing.assert_array_equal(after.vals_nz[~on], before.vals_nz[~on])


def test_duplicate_entries_are_summed_into_one_cell():
    bounds = ((0.0, 4.0), (0.0, 4.0), (0.0, 4.0))
    split = lp(bounds, [([(2, 1.0), (0, 0.5), (2, 2.0), (0, 0.25)], LE, 3.0),
                        ([(1, -1.0), (1, -0.5)], GE, -6.0)], [(0, 1.0), (0, 1.0)])
    summed = lp(bounds, [([(0, 0.75), (2, 3.0)], LE, 3.0), ([(1, -1.5)], GE, -6.0)],
                [(0, 2.0)])
    assert_same_prepared(PreparedLp(split), PreparedLp(summed))


def test_a_certificate_reads_a_fresh_iterate_without_recomputing_it(monkeypatch):
    # x and d recomputed on the true costs with no pivot, flip or
    # factorization since are what a recompute would give
    refresh, certified = _Run._refresh, _Run._certified
    seen = []  # per optimal or unbounded certificate: (fresh, refreshes inside)
    refreshes = [0]

    def count(run, c):
        refreshes[0] += 1
        return refresh(run, c)

    def spy(run, status):
        fresh = run.fresh is not None and run.fresh[0] is run.prep.c
        before, x = refreshes[0], run.x.copy()
        ok = certified(run, status)
        if status != INFEASIBLE:
            seen.append((fresh, refreshes[0] - before))
            if fresh:
                np.testing.assert_array_equal(run.x, x)
                np.testing.assert_array_equal(run.x, run._compute_x())
        return ok

    monkeypatch.setattr(_Run, "_refresh", count)
    monkeypatch.setattr(_Run, "_certified", spy)
    rng = np.random.default_rng(29)
    for prep in [ladder_root_lp(1), ladder_root_lp(2)] + [
            PreparedLp(random_boxed_lp(rng)) for _ in range(40)]:
        prep.solve()
    assert any(fresh for fresh, _ in seen) and any(not fresh for fresh, _ in seen)
    assert all(n == (0 if fresh else 1) for fresh, n in seen)


def test_a_dropped_prepared_model_is_freed_without_the_cycle_collector():
    prep = ladder_root_lp(1)
    assert prep.solve().status == OPTIMAL
    gone = weakref.ref(prep)
    del prep
    assert gone() is None
