"""Shared test helpers.

Seeded random instance factories plus slow reference implementations
(pure-python cost/loss loops, vertex enumeration for tiny LPs, exhaustive
segment enumeration for tiny MILPs).  The reference code deliberately avoids
the vectorized paths used by the package so that agreement between the two
is meaningful.
"""

import itertools

import numpy as np

from dedpoz.milp import BINARY, EQ, GE, LE, lp_relaxation
from dedpoz.oracle import enumerate_assignments
from dedpoz.simplex import OPTIMAL, PreparedLp
from dedpoz.system import GeneratingUnit, LossModel, SystemInstance


def make_unit(uid=1, alpha=5.0, beta=2.0, gamma=0.01, p_min=10.0, p_max=50.0,
              ramp_up=None, ramp_down=None, zones=(), p_initial=None):
    """GeneratingUnit with friendly defaults; ramps default to full width."""
    width = p_max - p_min
    return GeneratingUnit(
        id=uid, alpha=alpha, beta=beta, gamma=gamma,
        p_min=p_min, p_max=p_max,
        ramp_up=width if ramp_up is None else ramp_up,
        ramp_down=width if ramp_down is None else ramp_down,
        prohibited_zones=tuple(tuple(z) for z in zones),
        p_initial=p_initial)


def symmetric_three_unit():
    """Three identical units with one prohibited zone each; the optimum is
    the equal split of demand."""
    units = tuple(
        GeneratingUnit(id=i + 1, alpha=5.0, beta=2.0, gamma=0.008,
                       p_min=10.0, p_max=50.0, ramp_up=40.0, ramp_down=40.0,
                       prohibited_zones=((15.0, 20.0),))
        for i in range(3))
    demand = np.array([90.0, 105.0, 120.0])
    return SystemInstance(units=units, demand=demand,
                          reserve=0.05 * demand)


def loop_cost(instance, p):
    """Quadratic production cost summed with plain python loops."""
    total = 0.0
    for t in range(len(p)):
        for i, unit in enumerate(instance.units):
            x = float(p[t][i])
            total += unit.alpha + unit.beta * x + unit.gamma * x * x
    return total


def loop_loss_mw(loss_model, p_row):
    """Network loss of one period in MW, written as the raw double sum."""
    base = loss_model.base_mva
    q = [float(v) / base for v in p_row]
    acc = float(loss_model.b00)
    for i in range(len(q)):
        acc += float(loss_model.b0[i]) * q[i]
        for j in range(len(q)):
            acc += q[i] * float(loss_model.b_matrix[i, j]) * q[j]
    return acc * base


def _carve_zones(rng, p_min, width, n_zones):
    """Split [p_min, p_min+width] into alternating allowed/forbidden bands.

    Allowed bands keep at least 0.4 MW of room and forbidden ones at least
    0.3 MW, which always fits because width >= 2 covers 0.4 * (k+1) + 0.3 * k
    for k <= 2.
    """
    if n_zones == 0:
        return []
    mins = [0.4 if j % 2 == 0 else 0.3 for j in range(2 * n_zones + 1)]
    slack = width - sum(mins)
    parts = rng.random(2 * n_zones + 1)
    parts = parts / parts.sum() * slack
    widths = [m + e for m, e in zip(mins, parts)]
    edges = p_min + np.cumsum([0.0] + widths)
    return [(float(edges[2 * j + 1]), float(edges[2 * j + 2]))
            for j in range(n_zones)]


def _sample_feasible_point(rng, unit):
    """A power level strictly inside one of the unit's allowed segments."""
    segs = unit.segments()
    seg = segs[int(rng.integers(len(segs)))]
    frac = rng.uniform(0.05, 0.95)
    return float(seg.lo + frac * seg.width)


def random_lossless_instance(rng, n_units=None, n_periods=None):
    """Small random instance that the grid DP can certify.

    Units are narrow (2 to 4 MW wide) so the DP grid stays dense relative to
    the decision space, ramps cover the whole width (so period coupling never
    binds), and demand is built as a sum of sampled feasible points, which
    makes the instance feasible by construction.
    """
    n = int(rng.integers(1, 4)) if n_units is None else n_units
    t_count = int(rng.integers(2, 5)) if n_periods is None else n_periods
    units = []
    for i in range(n):
        p_min = float(rng.uniform(5.0, 40.0))
        width = float(rng.uniform(2.0, 4.0))
        zones = _carve_zones(rng, p_min, width, int(rng.integers(0, 3)))
        ramp = width * float(rng.uniform(1.0, 1.5))
        units.append(GeneratingUnit(
            id=i + 1,
            alpha=float(rng.uniform(0.0, 20.0)),
            beta=float(rng.uniform(0.5, 5.0)),
            gamma=float(rng.uniform(0.01, 0.2)),
            p_min=p_min, p_max=p_min + width,
            ramp_up=ramp, ramp_down=ramp,
            prohibited_zones=tuple(zones)))
    instance = SystemInstance(units=tuple(units),
                              demand=np.ones(t_count),
                              reserve=np.zeros(t_count))
    demand = np.empty(t_count)
    reserve = np.empty(t_count)
    frac = float(rng.uniform(0.02, 0.10))
    for t in range(t_count):
        point = np.array([_sample_feasible_point(rng, u) for u in units])
        demand[t] = point.sum()
        headroom = np.minimum(instance.p_maxs - point, instance.ramp_ups).sum()
        reserve[t] = min(frac * demand[t], 0.8 * headroom)
    return SystemInstance(units=tuple(units), demand=demand, reserve=reserve,
                          loss_model=None)


def random_lossy_instance(rng, n_max=4, n_units=None, n_periods=None):
    """Random instance with a positive semidefinite loss matrix.

    Demand is set to (total sampled generation) - (exact loss at that point)
    so the sampled dispatch balances exactly, guaranteeing feasibility, and
    the loss coefficients are scaled so total losses stay below about 2.5%
    of demand.  The sizes default to 2 to ``n_max`` units and 2 or 3 periods.
    """
    n = int(rng.integers(2, n_max + 1)) if n_units is None else n_units
    t_count = int(rng.integers(2, 4)) if n_periods is None else n_periods
    units = []
    for i in range(n):
        p_min = float(rng.uniform(10.0, 30.0))
        width = float(rng.uniform(20.0, 40.0))
        n_zones = 0 if i == 0 else int(rng.integers(0, 3))
        zones = _carve_zones(rng, p_min, width, n_zones)
        units.append(GeneratingUnit(
            id=i + 1,
            alpha=float(rng.uniform(0.0, 20.0)),
            beta=float(rng.uniform(0.5, 5.0)),
            gamma=float(rng.uniform(0.005, 0.05)),
            p_min=p_min, p_max=p_min + width,
            ramp_up=width, ramp_down=width,
            prohibited_zones=tuple(zones)))
    probe = SystemInstance(units=tuple(units),
                           demand=np.ones(t_count),
                           reserve=np.zeros(t_count))
    points = np.empty((t_count, n))
    for t in range(t_count):
        for i, unit in enumerate(units):
            segs = unit.segments()
            seg = segs[int(rng.integers(len(segs)))]
            points[t, i] = seg.lo + rng.uniform(0.1, 0.5) * seg.width
    approx_demand = points.sum(axis=1).mean()

    w = rng.normal(size=(n, n))
    m = w @ w.T / n
    m = (m + m.T) / 2.0
    base = 100.0
    q = points / base
    mean_quad_mw = float(np.mean([q[t] @ m @ q[t] for t in range(t_count)])) * base
    m *= 0.015 * approx_demand / max(mean_quad_mw, 1e-12)
    m = (m + m.T) / 2.0
    b0 = rng.uniform(0.001, 0.003, size=n)
    b00 = float(rng.uniform(1e-4, 3e-4))
    loss_model = LossModel(b00=b00, b0=b0, b_matrix=m, base_mva=base)

    demand = np.empty(t_count)
    reserve = np.empty(t_count)
    for t in range(t_count):
        demand[t] = points[t].sum() - loop_loss_mw(loss_model, points[t])
        headroom = np.minimum(probe.p_maxs - points[t], probe.ramp_ups).sum()
        reserve[t] = min(0.03 * demand[t], 0.5 * headroom)
    return SystemInstance(units=tuple(units), demand=demand, reserve=reserve,
                          loss_model=loss_model)


def vertex_enumeration_min(model, tol=1e-7):
    """Exhaustive minimum of a tiny boxed LP.

    Adds one slack per row, then checks every basic solution: every choice
    of m basic columns with the nonbasic ones pinned to a finite bound.  For
    models whose structural variables are all boxed the optimum of a feasible
    bounded LP is one of these points.  Returns (status, objective, x).
    """
    variables = model.variables
    cons = model.constraints
    n = len(variables)
    m = len(cons)
    lo = np.empty(n + m)
    hi = np.empty(n + m)
    a = np.zeros((m, n + m))
    b = np.zeros(m)
    c = np.zeros(n + m)
    for j, v in enumerate(variables):
        lo[j], hi[j] = v.lb, v.ub
    for j, coef in model.objective:
        c[j] += coef
    for r, con in enumerate(cons):
        for j, coef in con.coeffs:
            a[r, j] += coef
        a[r, n + r] = 1.0
        b[r] = con.rhs
        if con.sense == LE:
            lo[n + r], hi[n + r] = 0.0, np.inf
        elif con.sense == GE:
            lo[n + r], hi[n + r] = -np.inf, 0.0
        else:
            assert con.sense == EQ
            lo[n + r], hi[n + r] = 0.0, 0.0
    best = np.inf
    best_x = None
    columns = range(n + m)
    for basic in itertools.combinations(columns, m):
        nonbasic = [j for j in columns if j not in basic]
        choice_sets = []
        ok = True
        for j in nonbasic:
            opts = sorted({v for v in (lo[j], hi[j]) if np.isfinite(v)})
            if not opts:
                ok = False
                break
            choice_sets.append(opts)
        if not ok:
            continue
        bmat = a[:, list(basic)]
        for assignment in itertools.product(*choice_sets):
            rhs = b - a[:, nonbasic] @ np.asarray(assignment)
            try:
                xb = np.linalg.solve(bmat, rhs)
            except np.linalg.LinAlgError:
                break
            if not np.allclose(bmat @ xb, rhs, atol=1e-6 * (1.0 + np.abs(b).max())):
                break
            x = np.zeros(n + m)
            x[nonbasic] = assignment
            x[list(basic)] = xb
            if np.any(x < lo - tol) or np.any(x > hi + tol):
                continue
            val = float(c @ x)
            if val < best:
                best = val
                best_x = x[:n].copy()
    if best_x is None:
        return "infeasible", np.inf, None
    return "optimal", best + model.objective_constant, best_x


def enumeration_milp_min(instance, model, varmap):
    """Exact MILP optimum for small dispatch models.

    Fixes the segment selectors to every admissible one-hot pattern in turn
    and keeps the best LP value, which sidesteps the branch and bound search
    entirely.  Returns (objective, values).
    """
    prep = PreparedLp(lp_relaxation(model))
    lo0 = np.array([v.lb for v in model.variables], dtype=float)
    hi0 = np.array([v.ub for v in model.variables], dtype=float)
    best = np.inf
    best_vals = None
    for assign in enumerate_assignments(instance):
        lo = lo0.copy()
        hi = hi0.copy()
        for i in range(varmap.n_units):
            for t in range(varmap.n_periods):
                for j, idx in enumerate(varmap.u_seg[i][t]):
                    pick = 1.0 if j == assign[t, i] else 0.0
                    lo[idx] = pick
                    hi[idx] = pick
        sol = prep.solve(lower=lo, upper=hi)
        if sol.status == OPTIMAL and sol.objective < best:
            best = sol.objective
            best_vals = np.array(sol.values)
    return best, best_vals


def highs_milp(model, rel_gap=1e-9):
    """Status and objective of a dispatch MILP from scipy's HiGHS, an
    independent solver: ``("optimal", objective)`` or ``("infeasible",
    None)``.  Call only where scipy is installed."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    n, m = model.n_variables, model.n_constraints
    rows, cols, vals = [], [], []
    row_lo, row_hi = np.full(m, -np.inf), np.full(m, np.inf)
    for r, con in enumerate(model.constraints):
        for j, coef in con.coeffs:
            rows.append(r)
            cols.append(j)
            vals.append(coef)
        if con.sense in (EQ, GE):
            row_lo[r] = con.rhs
        if con.sense in (EQ, LE):
            row_hi[r] = con.rhs
    a = coo_array((vals, (rows, cols)), shape=(m, n)).tocsr()  # sums repeated cells
    cost = np.zeros(n)
    for j, coef in model.objective:
        cost[j] += coef
    res = milp(cost,
               integrality=[v.kind == BINARY for v in model.variables],
               bounds=Bounds([v.lb for v in model.variables],
                             [v.ub for v in model.variables]),
               constraints=LinearConstraint(a, row_lo, row_hi),
               options={"mip_rel_gap": rel_gap})
    if res.status == 0:
        return "optimal", float(res.fun) + model.objective_constant
    assert res.status == 2, res.message
    return "infeasible", None
