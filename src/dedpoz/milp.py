"""Mixed-integer linear model representation and dispatch formulation builders.

Two formulations are built from a :class:`~dedpoz.system.SystemInstance`:

* ``build_milp1``: lossless dispatch.  Each unit's output is split across its
  allowed segments with one binary selector per segment; the quadratic fuel
  cost is underestimated per segment by a family of tangent cuts on an
  epigraph variable, scaled by the selector so inactive segments contribute
  nothing.  Only each segment's two endpoint cuts are needed to keep the
  epigraph bounded; the interior ones are marked ``lazy``, so the LP solver
  adds them back only where its optimum breaks them.
* ``build_milp2``: lossy dispatch.  The power balance carries the constant
  and linear loss terms explicitly plus one free variable per period for the
  quadratic part, bounded below by a single tangent-plane cut anchored at a
  caller-supplied schedule.  With no schedule the loss terms are switched
  off: the same variables and rows, with the quadratic part fixed at 0.

All rows are expressed in MW; per-unit loss coefficients are folded into the
row coefficients at build time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .system import Schedule, SystemInstance

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="

DEFAULT_TANGENT_STEPS = 4


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lb: float
    ub: float


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple  # ((var_index, coefficient), ...)
    sense: str
    rhs: float
    lazy: bool = False  # a solver may leave the row out until a point breaks it


@dataclass(frozen=True)
class MilpModel:
    """A minimization MILP: variables, sparse linear rows, linear objective."""

    variables: tuple
    constraints: tuple
    objective: tuple  # ((var_index, coefficient), ...)
    objective_constant: float = 0.0

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @property
    def n_binaries(self) -> int:
        return sum(1 for v in self.variables if v.kind == BINARY)

    def validate(self):
        n = self.n_variables
        for v in self.variables:
            if v.kind not in (CONTINUOUS, BINARY):
                raise ValidationError(f"variable {v.name}: unknown kind {v.kind!r}")
            if not v.lb <= v.ub:  # NaN too
                raise ValidationError(f"variable {v.name}: lb {v.lb} > ub {v.ub}")
            if v.kind == BINARY and (v.lb < 0 or v.ub > 1):
                raise ValidationError(f"binary {v.name} must have bounds within [0, 1]")
        for idx, coef in self.objective:
            if not 0 <= idx < n:
                raise ValidationError(f"objective references variable {idx} out of range")
            if not math.isfinite(coef):
                raise ValidationError(f"objective coefficient for variable {idx} not finite")
        for con in self.constraints:
            if con.sense not in (LE, EQ, GE):
                raise ValidationError(f"row {con.name}: unknown sense {con.sense!r}")
            if not math.isfinite(con.rhs):
                raise ValidationError(f"row {con.name}: rhs not finite")
            for idx, coef in con.coeffs:
                if not 0 <= idx < n:
                    raise ValidationError(f"row {con.name}: variable {idx} out of range")
                if not math.isfinite(coef):
                    raise ValidationError(f"row {con.name}: coefficient not finite")
        return self


class _ModelBuilder:
    def __init__(self):
        self.variables = []
        self.constraints = []
        self.objective = []
        self.constant = 0.0

    def var(self, name, kind, lb, ub) -> int:
        self.variables.append(Variable(name, kind, float(lb), float(ub)))
        return len(self.variables) - 1

    def row(self, name, coeffs, sense, rhs, lazy=False):
        self.constraints.append(
            Constraint(name, tuple((int(j), float(c)) for j, c in coeffs), sense,
                       float(rhs), lazy))

    def build(self) -> MilpModel:
        return MilpModel(tuple(self.variables), tuple(self.constraints),
                         tuple(self.objective), self.constant).validate()


@dataclass(frozen=True)
class VarMap:
    """Variable-index lookup for a built dispatch model.

    Index nesting is ``[unit][period]`` and, where applicable,
    ``[unit][period][segment]``.  ``loss_quad`` is per period and only
    present for the lossy formulation.  ``constant_cost`` is the fixed cost
    folded into the objective constant.
    """

    p_total: tuple
    p_seg: tuple
    u_seg: tuple
    cost_seg: tuple
    sr: tuple
    loss_quad: tuple | None
    constant_cost: float

    @property
    def n_units(self) -> int:
        return len(self.p_total)

    @property
    def n_periods(self) -> int:
        return len(self.p_total[0])

    def all_indices(self):
        out = []
        for i in range(self.n_units):
            for t in range(self.n_periods):
                out.append(self.p_total[i][t])
                out.extend(self.p_seg[i][t])
                out.extend(self.u_seg[i][t])
                out.extend(self.cost_seg[i][t])
                out.append(self.sr[i][t])
        if self.loss_quad is not None:
            out.extend(self.loss_quad)
        return out

    def extract_schedule(self, values) -> Schedule:
        values = np.asarray(values, dtype=float)
        t_count, n = self.n_periods, self.n_units
        p = np.empty((t_count, n))
        sr = np.empty((t_count, n))
        for i in range(n):
            for t in range(t_count):
                p[t, i] = values[self.p_total[i][t]]
                sr[t, i] = max(values[self.sr[i][t]], 0.0)
        return Schedule(p=p, sr=sr)


@dataclass(frozen=True)
class TangentPlan:
    """Evenly spaced tangent points per unit segment, endpoints included.

    ``points[i][j]`` holds ``steps + 1`` ascending abscissas spanning segment
    ``j`` of unit ``i``.
    """

    steps: int
    points: tuple

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError(f"tangent steps must be >= 1, got {self.steps}")


def make_tangent_plan(instance: SystemInstance, steps: int = DEFAULT_TANGENT_STEPS) -> TangentPlan:
    if steps < 1:
        raise ValidationError(f"tangent steps must be >= 1, got {steps}")
    pts = tuple(
        tuple(tuple(seg.lo + ell * seg.width / steps for ell in range(steps + 1))
              for seg in segs)
        for segs in instance.segments)
    return TangentPlan(steps=steps, points=pts)


def tangent_cut(beta: float, gamma: float, p_bar: float) -> tuple:
    """Coefficients of the tangent to ``beta*p + gamma*p**2`` at ``p_bar``.

    Returns ``(coef_p, coef_u)`` such that the epigraph cut reads
    ``z >= coef_p * p + coef_u * u``; the cut is exact at ``p = p_bar`` when
    ``u = 1`` and degenerates to ``z >= 0`` when ``p = u = 0``.
    """
    return 2.0 * gamma * p_bar + beta, -gamma * p_bar * p_bar


def _build(instance: SystemInstance, steps: int, anchors, lossy: bool) -> tuple:
    plan = make_tangent_plan(instance, steps)
    n, t_count = instance.n_units, instance.n_periods
    b = _ModelBuilder()

    p_total = tuple(
        tuple(b.var(f"p({i},{t})", CONTINUOUS, u.p_min, u.p_max) for t in range(t_count))
        for i, u in enumerate(instance.units))
    p_seg = tuple(
        tuple(tuple(b.var(f"seg({i},{t},{s.index})", CONTINUOUS, 0.0, s.hi)
                    for s in instance.segments[i])
              for t in range(t_count))
        for i in range(n))
    u_seg = tuple(
        tuple(tuple(b.var(f"pick({i},{t},{s.index})", BINARY, 0.0, 1.0)
                    for s in instance.segments[i])
              for t in range(t_count))
        for i in range(n))
    cost_seg = tuple(
        tuple(tuple(b.var(f"segcost({i},{t},{s.index})", CONTINUOUS, -np.inf, np.inf)
                    for s in instance.segments[i])
              for t in range(t_count))
        for i in range(n))
    sr = tuple(
        tuple(b.var(f"sr({i},{t})", CONTINUOUS, 0.0, u.ramp_up) for t in range(t_count))
        for i, u in enumerate(instance.units))

    loss_quad = None
    if lossy:
        loss_quad = tuple(b.var(f"qloss({t})", CONTINUOUS, *_qloss_bounds(anchors))
                          for t in range(t_count))

    # rows, in dump order: POZ, linking, selection, cuts, balance, ramp, reserve
    for i in range(n):
        for t in range(t_count):
            for j, seg in enumerate(instance.segments[i]):
                b.row(f"poz_lo({i},{t},{seg.index})",
                      [(p_seg[i][t][j], 1.0), (u_seg[i][t][j], -seg.lo)], GE, 0.0)
                b.row(f"poz_hi({i},{t},{seg.index})",
                      [(p_seg[i][t][j], 1.0), (u_seg[i][t][j], -seg.hi)], LE, 0.0)
    for i in range(n):
        for t in range(t_count):
            coeffs = [(idx, 1.0) for idx in p_seg[i][t]] + [(p_total[i][t], -1.0)]
            b.row(f"link({i},{t})", coeffs, EQ, 0.0)
    for i in range(n):
        for t in range(t_count):
            b.row(f"pick_one({i},{t})", [(idx, 1.0) for idx in u_seg[i][t]], EQ, 1.0)
    for i, unit in enumerate(instance.units):
        for t in range(t_count):
            for j, seg in enumerate(instance.segments[i]):
                for ell, p_bar in enumerate(plan.points[i][j]):
                    coef_p, coef_u = tangent_cut(unit.beta, unit.gamma, p_bar)
                    # the endpoint cuts alone keep segcost bounded below
                    b.row(f"cut({i},{t},{seg.index},{ell})",
                          [(cost_seg[i][t][j], 1.0), (p_seg[i][t][j], -coef_p),
                           (u_seg[i][t][j], -coef_u)], GE, 0.0,
                          lazy=0 < ell < plan.steps)
    if lossy:
        for row in _loss_rows(instance, p_total, loss_quad, anchors):
            b.row(*row)
    else:
        for t in range(t_count):
            b.row(f"balance({t})", [(p_total[i][t], 1.0) for i in range(n)],
                  EQ, instance.demand[t])
    for i, unit in enumerate(instance.units):
        for t in range(t_count):
            if t == 0:
                if unit.p_initial is None:
                    continue
                b.row(f"ramp_up({i},{t})", [(p_total[i][t], 1.0)], LE,
                      unit.p_initial + unit.ramp_up)
                b.row(f"ramp_dn({i},{t})", [(p_total[i][t], 1.0)], GE,
                      unit.p_initial - unit.ramp_down)
            else:
                pair = [(p_total[i][t], 1.0), (p_total[i][t - 1], -1.0)]
                b.row(f"ramp_up({i},{t})", pair, LE, unit.ramp_up)
                b.row(f"ramp_dn({i},{t})", pair, GE, -unit.ramp_down)
    for i, unit in enumerate(instance.units):
        for t in range(t_count):
            b.row(f"headroom({i},{t})", [(sr[i][t], 1.0), (p_total[i][t], 1.0)],
                  LE, unit.p_max)
    for t in range(t_count):
        b.row(f"reserve({t})", [(sr[i][t], 1.0) for i in range(n)], GE,
              instance.reserve[t])

    for i in range(n):
        for t in range(t_count):
            b.objective.extend((idx, 1.0) for idx in cost_seg[i][t])
    b.constant = float(t_count * instance.alphas.sum())

    varmap = VarMap(p_total=p_total, p_seg=p_seg, u_seg=u_seg, cost_seg=cost_seg,
                    sr=sr, loss_quad=loss_quad, constant_cost=b.constant)
    return b.build(), varmap


def _qloss_bounds(anchors) -> tuple:
    """Bounds of each ``qloss(t)``: free, or fixed at 0 with the loss off."""
    return (-np.inf, np.inf) if anchors is not None else (0.0, 0.0)


def _loss_rows(instance: SystemInstance, p_total, loss_quad, anchors) -> list:
    """MILP-2's ``loss_cut(t)`` rows, then its ``balance(t)`` rows, as
    ``(name, coeffs, sense, rhs)``: the loss linearized at ``anchors``, or
    switched off when they are None."""
    n, t_count = instance.n_units, instance.n_periods
    on = anchors is not None
    lm = instance.loss_model
    b_mw = lm.b_matrix / lm.base_mva  # quadratic loss coefficients in 1/MW
    b0 = np.asarray(lm.b0) if on else np.zeros(n)  # dimensionless in the MW balance
    b00_mw = lm.b00 * lm.base_mva if on else 0.0
    rows = []
    for t in range(t_count):
        coeffs, rhs = [(loss_quad[t], 1.0)], 0.0
        if on:
            a_t = anchors[t]
            grad = 2.0 * (b_mw @ a_t)
            coeffs += [(p_total[i][t], -grad[i]) for i in range(n) if grad[i] != 0.0]
            rhs = -float(a_t @ b_mw @ a_t)
        rows.append((f"loss_cut({t})", coeffs, GE, rhs))
    for t in range(t_count):
        coeffs = [(p_total[i][t], 1.0 - b0[i]) for i in range(n)]
        coeffs.append((loss_quad[t], -1.0))
        rows.append((f"balance({t})", coeffs, EQ, instance.demand[t] + b00_mw))
    return rows


def build_milp1(instance: SystemInstance, tangent_steps: int = DEFAULT_TANGENT_STEPS) -> tuple:
    """Lossless dispatch MILP.  Returns ``(model, varmap)``."""
    return _build(instance, tangent_steps, None, lossy=False)


def build_milp2(instance: SystemInstance, tangent_steps: int, anchors=None) -> tuple:
    """Lossy dispatch MILP with one tangent-plane loss cut per period.

    ``anchors`` is a T x N matrix of outputs (MW) at which the quadratic loss
    term is linearized.  None switches the loss terms off: ``qloss(t)`` is
    fixed at 0, ``loss_cut(t)`` reads ``qloss(t) >= 0`` and ``balance(t)``
    has no ``b0`` or ``b00`` terms, so the model solves MILP-1 in MILP-2's
    layout.  Returns ``(model, varmap)``.
    """
    if instance.loss_model is None:
        raise ValidationError("instance has no loss model; use build_milp1 instead")
    return _build(instance, tangent_steps, _checked_anchors(instance, anchors), lossy=True)


def _checked_anchors(instance: SystemInstance, anchors):
    if anchors is None:
        return None
    anchors = np.asarray(anchors, dtype=float)
    if anchors.shape != (instance.n_periods, instance.n_units):
        raise ValidationError(
            f"anchors shape {anchors.shape} does not match "
            f"({instance.n_periods}, {instance.n_units})")
    if not np.all(np.isfinite(anchors)):
        raise ValidationError("anchors contain non-finite entries")
    return anchors


def _reanchor(model: MilpModel, varmap: VarMap, instance: SystemInstance, anchors) -> tuple:
    """The ``build_milp2`` model of ``instance`` at ``anchors``, made from
    ``model``, one built by ``build_milp2`` with ``varmap``, by rebuilding
    only its ``loss_cut(t)`` and ``balance(t)`` rows and ``qloss(t)``
    bounds.  Returns ``(model, rows)``, ``rows`` the indices of the rebuilt
    rows."""
    anchors = _checked_anchors(instance, anchors)
    b = _ModelBuilder()
    for row in _loss_rows(instance, varmap.p_total, varmap.loss_quad, anchors):
        b.row(*row)
    first = next(r for r, con in enumerate(model.constraints) if con.name == "loss_cut(0)")
    rows = np.arange(first, first + len(b.constraints))
    constraints = list(model.constraints)
    constraints[first:first + rows.size] = b.constraints
    variables = list(model.variables)
    for j in varmap.loss_quad:
        variables[j] = Variable(variables[j].name, CONTINUOUS, *_qloss_bounds(anchors))
    return MilpModel(tuple(variables), tuple(constraints), model.objective,
                     model.objective_constant), rows


def lp_relaxation(model: MilpModel) -> MilpModel:
    """The same model with every binary relaxed to a continuous in [0, 1]."""
    relaxed = tuple(
        Variable(v.name, CONTINUOUS, v.lb, v.ub) if v.kind == BINARY else v
        for v in model.variables)
    return MilpModel(relaxed, model.constraints, model.objective, model.objective_constant)


def tangent_gap_bound(instance: SystemInstance, schedule: Schedule, steps: int) -> float:
    """Worst-case total underestimation of the fuel cost by the tangent
    envelope, given each output's active segment: gamma * (w / steps)**2 / 4
    summed over all unit-periods, with w the active segment's width."""
    total = 0.0
    for i, unit in enumerate(instance.units):
        segs = instance.segments[i]
        for t in range(schedule.n_periods):
            p = schedule.p[t, i]
            seg = max(segs, key=lambda s: min(p - s.lo, s.hi - p))
            total += unit.gamma * (seg.width / steps) ** 2 / 4.0
    return total


def dump_lp_text(model: MilpModel) -> str:
    """Human-readable dump: objective, variable bounds, rows in build order."""
    def term(j, c):
        return f"{c:+.12g} {model.variables[j].name}"

    lines = ["minimize"]
    obj = " ".join(term(j, c) for j, c in model.objective)
    if model.objective_constant:
        obj += f" {model.objective_constant:+.12g}"
    lines.append(f"  {obj}")
    lines.append("bounds")
    for v in model.variables:
        lines.append(f"  {v.lb:.12g} <= {v.name} <= {v.ub:.12g}")
    lines.append("subject to")
    for con in model.constraints:
        expr = " ".join(term(j, c) for j, c in con.coeffs)
        lines.append(f"  {con.name}: {expr} {con.sense} {con.rhs:.12g}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("binaries")
        lines.append("  " + " ".join(binaries))
    return "\n".join(lines) + "\n"
