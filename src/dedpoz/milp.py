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

A model has two forms.  Its arrays (``MilpModel.arrays``, a
``ModelArrays``) hold the bounds and kind of each column, the sense, rhs
and lazy mark of each row, the coefficients as coordinate arrays in row
order, and the objective; the builders emit them one row block at a time
with numpy, and validation, ``lp_relaxation``, ``_reanchor``, the LP
preparation and branch and bound read only them.  Its tuples
(``variables``, ``constraints``, ``objective``) of ``Variable`` and
``Constraint`` records are views: a built model materializes them, names
and all, only when something reads one of them (``dump_lp_text``, a test,
equality, ``dataclasses.replace``).  A model made from tuples derives its
arrays from them once, when they are first read, and a model made by
``dataclasses.replace`` is one made from tuples, so it never keeps the
arrays of the model it came from.
"""

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .system import Schedule, SystemInstance, _check_dims

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


@dataclass(frozen=True, eq=False)
class ModelArrays:
    """A model as arrays: per column ``lb``, ``ub`` and ``kind``
    (CONTINUOUS or BINARY); per row ``sense`` (LE, EQ or GE), ``rhs`` and
    ``lazy``; the coefficients as entries ``(rows, cols, vals)``, in row
    order and in each row's own order; the objective as ``(obj_cols,
    obj_vals)``.  ``kind`` and ``sense`` hold the strings themselves.  The
    arrays are read-only, so models may share them."""

    lb: np.ndarray
    ub: np.ndarray
    kind: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    lazy: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    obj_cols: np.ndarray
    obj_vals: np.ndarray

    def __post_init__(self):
        for array in vars(self).values():
            array.setflags(write=False)


@dataclass(frozen=True)
class MilpModel:
    """A minimization MILP: variables, sparse linear rows, linear objective.

    See the module docstring for its two forms: ``arrays`` and the tuple
    views ``variables``, ``constraints`` and ``objective``."""

    variables: tuple
    constraints: tuple
    objective: tuple  # ((var_index, coefficient), ...)
    objective_constant: float = 0.0

    def __getattr__(self, name):
        # only for attributes not set yet: the arrays of a model made from
        # tuples, or the tuple views of a model made from arrays
        if name == "arrays":
            object.__setattr__(self, name, _arrays_of(self))
        elif name in ("variables", "constraints", "objective") and "_views" in self.__dict__:
            for key, value in zip(("variables", "constraints", "objective"), self._views()):
                object.__setattr__(self, key, value)
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def __reduce__(self):
        return MilpModel, (self.variables, self.constraints, self.objective,
                           self.objective_constant)

    @property
    def n_variables(self) -> int:
        return self.arrays.lb.size

    @property
    def n_constraints(self) -> int:
        return self.arrays.rhs.size

    @property
    def n_binaries(self) -> int:
        return int(np.count_nonzero(self.arrays.kind == BINARY))

    def validate(self):
        """Check the arrays; the first offender (variables first, then the
        objective, then rows) is reported from its tuple view."""
        a = self.arrays
        n = a.lb.size
        binary = a.kind == BINARY
        bad = (~(binary | (a.kind == CONTINUOUS)) | ~(a.lb <= a.ub)
               | binary & ((a.lb < 0) | (a.ub > 1)))
        if bad.any():
            _check_variable(self.variables[int(bad.argmax())])
        bad = (a.obj_cols < 0) | (a.obj_cols >= n) | ~np.isfinite(a.obj_vals)
        if bad.any():
            _check_objective_entry(*self.objective[int(bad.argmax())], n)
        bad = ~((a.sense == LE) | (a.sense == EQ) | (a.sense == GE)) | ~np.isfinite(a.rhs)
        bad[a.rows[(a.cols < 0) | (a.cols >= n) | ~np.isfinite(a.vals)]] = True
        if bad.any():
            _check_row(self.constraints[int(bad.argmax())], n)
        return self


def _check_variable(v):
    if v.kind not in (CONTINUOUS, BINARY):
        raise ValidationError(f"variable {v.name}: unknown kind {v.kind!r}")
    if not v.lb <= v.ub:  # NaN too
        raise ValidationError(f"variable {v.name}: lb {v.lb} > ub {v.ub}")
    if v.kind == BINARY and (v.lb < 0 or v.ub > 1):
        raise ValidationError(f"binary {v.name} must have bounds within [0, 1]")


def _check_objective_entry(idx, coef, n):
    if not 0 <= idx < n:
        raise ValidationError(f"objective references variable {idx} out of range")
    if not math.isfinite(coef):
        raise ValidationError(f"objective coefficient for variable {idx} not finite")


def _check_row(con, n):
    if con.sense not in (LE, EQ, GE):
        raise ValidationError(f"row {con.name}: unknown sense {con.sense!r}")
    if not math.isfinite(con.rhs):
        raise ValidationError(f"row {con.name}: rhs not finite")
    for idx, coef in con.coeffs:
        if not 0 <= idx < n:
            raise ValidationError(f"row {con.name}: variable {idx} out of range")
        if not math.isfinite(coef):
            raise ValidationError(f"row {con.name}: coefficient not finite")


def _arrays_of(model: MilpModel) -> ModelArrays:
    """The arrays of a model made from tuples."""
    variables, constraints = model.variables, model.constraints
    entries = [e for con in constraints for e in con.coeffs]
    return ModelArrays(
        lb=np.array([v.lb for v in variables], dtype=float),
        ub=np.array([v.ub for v in variables], dtype=float),
        kind=np.array([v.kind for v in variables], dtype=str),
        sense=np.array([con.sense for con in constraints], dtype=str),
        rhs=np.array([con.rhs for con in constraints], dtype=float),
        lazy=np.array([con.lazy for con in constraints], dtype=bool),
        rows=np.repeat(np.arange(len(constraints)),
                       [len(con.coeffs) for con in constraints]).astype(np.int64),
        cols=np.array([j for j, _ in entries], dtype=np.int64),
        vals=np.array([c for _, c in entries], dtype=float),
        obj_cols=np.array([j for j, _ in model.objective], dtype=np.int64),
        obj_vals=np.array([c for _, c in model.objective], dtype=float))


def _from_arrays(arrays: ModelArrays, objective_constant: float, views) -> MilpModel:
    """A model made from ``arrays``; ``views()`` returns its
    ``(variables, constraints, objective)`` when one is first read."""
    model = object.__new__(MilpModel)
    object.__setattr__(model, "arrays", arrays)
    object.__setattr__(model, "objective_constant", objective_constant)
    object.__setattr__(model, "_views", views)
    return model


def _constraints(arrays: ModelArrays, names, start: int, stop: int) -> tuple:
    """``Constraint`` records of the rows ``start`` to ``stop`` of
    ``arrays``, named ``names``."""
    at = np.searchsorted(arrays.rows, [start, stop]).tolist()
    cols = arrays.cols[at[0]:at[1]].tolist()
    vals = arrays.vals[at[0]:at[1]].tolist()
    ends = np.cumsum(np.bincount(arrays.rows[at[0]:at[1]] - start,
                                 minlength=stop - start)).tolist()
    return tuple(Constraint(name, tuple(zip(cols[s:e], vals[s:e])), sense, rhs, lazy)
                 for name, s, e, sense, rhs, lazy in zip(
                     names, [0] + ends[:-1], ends, arrays.sense[start:stop].tolist(),
                     arrays.rhs[start:stop].tolist(), arrays.lazy[start:stop].tolist()))


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
        _check_count(self.steps, "tangent steps")


def _is_count(value, least=1) -> bool:
    """Whether ``value`` is an int or numpy integer >= ``least``, not a bool."""
    return (not isinstance(value, bool) and isinstance(value, (int, np.integer))
            and value >= least)


def _check_count(value, what):
    """Raise ValidationError unless ``value`` is an int or numpy integer >= 1."""
    if not _is_count(value):
        raise ValidationError(f"{what} must be >= 1 and an integer, got {value!r}")


def make_tangent_plan(instance: SystemInstance, steps: int = DEFAULT_TANGENT_STEPS) -> TangentPlan:
    _check_count(steps, "tangent steps")
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


def _assemble(blocks) -> tuple:
    """Row blocks, each ``(cols, vals, sense, rhs, keep)`` with row r of a
    block holding the entries ``cols[r]`` with ``vals[r]`` that ``keep[r]``
    marks (``vals`` and ``keep`` broadcast to ``cols``; ``sense`` and
    ``rhs`` one per row or one for all), as ``(rows, cols, vals, sense,
    rhs)``: the entries in row order, then one per row."""
    m = sum(len(block[0]) for block in blocks)
    width = max(block[0].shape[1] for block in blocks)
    cols = np.zeros((m, width), dtype=np.int64)
    vals = np.zeros((m, width))
    keep = np.zeros((m, width), dtype=bool)
    sense = np.empty(m, dtype=np.array((LE, EQ, GE)).dtype)  # wide enough for each
    rhs = np.empty(m)
    at = 0
    for c, v, s, r, k in blocks:
        here, w = slice(at, at + len(c)), c.shape[1]
        cols[here, :w], vals[here, :w], keep[here, :w] = c, v, k
        sense[here], rhs[here] = s, r
        at += len(c)
    return keep.nonzero()[0], cols[keep], vals[keep], sense, rhs


def _build(instance: SystemInstance, steps: int, anchors, lossy: bool) -> tuple:
    _check_count(steps, "tangent steps")
    n, t_count = instance.n_units, instance.n_periods
    n_it = n * t_count
    # one slot per (unit, period, segment), in that order; row g of
    # ``grid`` holds the slots of the g-th (unit, period) by segment, where
    # ``in_group`` marks them
    sizes = [len(unit_segs) for unit_segs in instance.segments for _ in range(t_count)]
    starts = [0, *itertools.accumulate(sizes)]
    n_slots = starts.pop()
    grid = np.array(starts)[:, None] + np.arange(max(sizes))
    in_group = grid < np.array(starts[1:] + [n_slots])[:, None]
    unit = in_group.nonzero()[0] // t_count
    slot_segs = [s for unit_segs in instance.segments for s in unit_segs * t_count]
    seg_lo = np.array([s.lo for s in slot_segs])
    seg_hi = np.array([s.hi for s in slot_segs])

    # columns: p | seg | pick | segcost | sr | qloss, each in slot or
    # (unit, period) order; unit i's p in period t is i * t_count + t
    seg_at, pick_at, cost_at, sr_at = (n_it + k * n_slots for k in range(4))
    q_at = sr_at + n_it
    p_total = np.arange(n_it)
    slots = np.arange(n_slots)
    lb = np.zeros(q_at + t_count if lossy else q_at)
    ub = np.ones(lb.size)
    p_max = instance.p_maxs.repeat(t_count)
    lb[:n_it], ub[:n_it] = instance.p_mins.repeat(t_count), p_max
    ub[seg_at:pick_at] = seg_hi
    lb[cost_at:sr_at], ub[cost_at:sr_at] = -np.inf, np.inf
    ub[sr_at:q_at] = instance.ramp_ups.repeat(t_count)
    lb[q_at:], ub[q_at:] = _qloss_bounds(anchors)
    kind = np.full(lb.size, CONTINUOUS)
    kind[pick_at:cost_at] = BINARY

    ell = np.arange(steps + 1)
    points = seg_lo[:, None] + ell * (seg_hi - seg_lo)[:, None] / steps
    coef_p, coef_u = tangent_cut(instance.betas[unit][:, None],
                                 instance.gammas[unit][:, None], points)
    cut_vals = np.empty(points.shape + (3,))
    cut_vals[..., 0], cut_vals[..., 1], cut_vals[..., 2] = 1.0, -coef_p, -coef_u
    poz_vals = np.ones((2 * n_slots, 2))
    poz_vals[0::2, 1], poz_vals[1::2, 1] = -seg_lo, -seg_hi
    by_unit = p_total.reshape(n, t_count)
    q_cols = np.arange(q_at, lb.size)
    # rows, in dump order: POZ, linking, selection, cuts, balance, ramp,
    # headroom, reserve
    rows, cols, vals, sense, rhs = _assemble([
        (seg_at + slots.repeat(2)[:, None] + [0, n_slots], poz_vals,
         [GE, LE] * n_slots, 0.0, True),
        (np.concatenate([seg_at + grid, p_total[:, None]], axis=1),
         [1.0] * grid.shape[1] + [-1.0], EQ, 0.0,
         np.concatenate([in_group, np.ones((n_it, 1), dtype=bool)], axis=1)),
        (pick_at + grid, 1.0, EQ, 1.0, in_group),
        (slots.repeat(steps + 1)[:, None] + [cost_at, seg_at, pick_at],
         cut_vals.reshape(-1, 3), GE, 0.0, True),
        _loss_rows(instance, by_unit, q_cols, anchors) if lossy
        else (by_unit.T, 1.0, EQ, instance.demand, True),
        _ramp_rows(instance, by_unit),
        (p_total[:, None] + [sr_at, 0], 1.0, LE, p_max, True),
        (sr_at + by_unit.T, 1.0, GE, instance.reserve, True),
    ])
    # the cuts follow the 2 * n_slots POZ rows and n_it link and pick rows;
    # the endpoint cuts alone keep segcost bounded below
    lazy = np.zeros(rhs.size, dtype=bool)
    cuts = 2 * (n_slots + n_it)
    lazy[cuts:cuts + points.size].reshape(points.shape)[:, 1:-1] = True
    constant = float(t_count * instance.alphas.sum())
    arrays = ModelArrays(lb=lb, ub=ub, kind=kind, sense=sense, rhs=rhs, lazy=lazy,
                         rows=rows, cols=cols, vals=vals, obj_cols=cost_at + slots,
                         obj_vals=np.ones(n_slots))

    def views():
        var_names, row_names = _names(instance, steps, lossy)
        variables = tuple(map(Variable, var_names, kind.tolist(), lb.tolist(), ub.tolist()))
        return (variables, _constraints(arrays, row_names, 0, rhs.size),
                tuple(zip(arrays.obj_cols.tolist(), [1.0] * n_slots)))

    def nested(first):  # [unit][period][segment] of the slot columns from ``first``
        out = [tuple(range(first + s, first + s + k)) for s, k in zip(starts, sizes)]
        return tuple(tuple(out[i:i + t_count]) for i in range(0, n_it, t_count))

    varmap = VarMap(p_total=tuple(map(tuple, by_unit.tolist())), p_seg=nested(seg_at),
                    u_seg=nested(pick_at), cost_seg=nested(cost_at),
                    sr=tuple(map(tuple, (sr_at + by_unit).tolist())),
                    loss_quad=tuple(q_cols.tolist()) if lossy else None,
                    constant_cost=constant)
    return _from_arrays(arrays, constant, views).validate(), varmap


def _ramp_rows(instance: SystemInstance, by_unit) -> tuple:
    """The ``ramp_up(i,t)`` and ``ramp_dn(i,t)`` rows, unit by unit and
    period by period, as a row block (see ``_assemble``): against the
    previous period, or against ``p_initial`` in period 0, where a unit
    without it has none."""
    rhs = np.empty(by_unit.shape + (2,))
    rhs[..., 0], rhs[..., 1] = instance.ramp_ups[:, None], -instance.ramp_downs[:, None]
    p_init = np.array([np.nan if u.p_initial is None else u.p_initial
                       for u in instance.units])
    rhs[:, 0, 0], rhs[:, 0, 1] = p_init + instance.ramp_ups, p_init - instance.ramp_downs
    kept = ~np.isnan(rhs[..., 0].ravel())  # NaN where a unit has no p_initial
    cols = by_unit[..., None] - [0, 1]
    keep = np.ones(cols.shape, dtype=bool)
    keep[:, 0, 1] = False
    return (cols.reshape(-1, 2)[kept].repeat(2, axis=0), [1.0, -1.0],
            [LE, GE] * int(kept.sum()), rhs.reshape(-1, 2)[kept].ravel(),
            keep.reshape(-1, 2)[kept].repeat(2, axis=0))


def _names(instance: SystemInstance, steps: int, lossy: bool) -> tuple:
    """``(column names, row names)`` of the ``_build`` layout."""
    n, t_count = instance.n_units, instance.n_periods
    it = [(i, t) for i in range(n) for t in range(t_count)]
    slots = [(i, t, s.index) for i, t in it for s in instance.segments[i]]
    cols = [f"p({i},{t})" for i, t in it]
    for what in ("seg", "pick", "segcost"):
        cols += [f"{what}({i},{t},{j})" for i, t, j in slots]
    cols += [f"sr({i},{t})" for i, t in it]
    rows = [f"poz_{end}({i},{t},{j})" for i, t, j in slots for end in ("lo", "hi")]
    rows += [f"link({i},{t})" for i, t in it]
    rows += [f"pick_one({i},{t})" for i, t in it]
    rows += [f"cut({i},{t},{j},{ell})" for i, t, j in slots for ell in range(steps + 1)]
    if lossy:
        cols += [f"qloss({t})" for t in range(t_count)]
        rows += [f"loss_cut({t})" for t in range(t_count)]
    rows += [f"balance({t})" for t in range(t_count)]
    rows += [f"ramp_{way}({i},{t})" for i, t in it
             if t > 0 or instance.units[i].p_initial is not None for way in ("up", "dn")]
    rows += [f"headroom({i},{t})" for i, t in it]
    rows += [f"reserve({t})" for t in range(t_count)]
    return cols, rows


def _qloss_bounds(anchors) -> tuple:
    """Bounds of each ``qloss(t)``: free, or fixed at 0 with the loss off."""
    return (-np.inf, np.inf) if anchors is not None else (0.0, 0.0)


def _loss_rows(instance: SystemInstance, p_total, loss_quad, anchors) -> tuple:
    """MILP-2's ``loss_cut(t)`` rows, then its ``balance(t)`` rows, as one
    row block (see ``_assemble``): the loss linearized at ``anchors``, or
    switched off when they are None.  ``p_total`` is [unit][period],
    ``loss_quad`` per period."""
    n, t_count = instance.n_units, instance.n_periods
    p_total, loss_quad = np.asarray(p_total), np.asarray(loss_quad)
    on = anchors is not None
    lm = instance.loss_model
    b_mw = lm.b_matrix / lm.base_mva  # quadratic loss coefficients in 1/MW
    b0 = np.asarray(lm.b0) if on else np.zeros(n)  # dimensionless in the MW balance
    b00_mw = lm.b00 * lm.base_mva if on else 0.0
    grad, cut_rhs = np.zeros((t_count, n)), np.zeros(t_count)
    if on:
        for t in range(t_count):
            a_t = anchors[t]
            grad[t] = 2.0 * (b_mw @ a_t)
            cut_rhs[t] = -float(a_t @ b_mw @ a_t)
    # each row holds n + 1 entries: the cut's qloss term and p terms where
    # the gradient is not 0, the balance's p terms and qloss term
    cols = np.concatenate([np.concatenate([loss_quad[:, None], p_total.T], axis=1),
                           np.concatenate([p_total.T, loss_quad[:, None]], axis=1)])
    vals = np.concatenate([np.concatenate([np.ones((t_count, 1)), -grad], axis=1),
                           np.concatenate([np.broadcast_to(1.0 - b0, (t_count, n)),
                                           np.full((t_count, 1), -1.0)], axis=1)])
    keep = np.ones(cols.shape, dtype=bool)
    keep[:t_count, 1:] = grad != 0.0
    return (cols, vals, [GE] * t_count + [EQ] * t_count,
            np.concatenate([cut_rhs, instance.demand + b00_mw]), keep)


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
    rows.  Its views share every other record with those of the model
    ``model`` was first built as."""
    anchors = _checked_anchors(instance, anchors)
    a = model.arrays
    rows, cols, vals, _, rhs = _assemble(
        [_loss_rows(instance, varmap.p_total, varmap.loss_quad, anchors)])
    first = int(a.rows[np.argmax(a.cols == varmap.loss_quad[0])])  # loss_cut(0)
    stop = first + rhs.size
    at = np.searchsorted(a.rows, [first, stop])
    q = list(varmap.loss_quad)
    lb, ub, new_rhs = a.lb.copy(), a.ub.copy(), a.rhs.copy()
    lb[q], ub[q] = _qloss_bounds(anchors)
    new_rhs[first:stop] = rhs
    arrays = dataclasses.replace(
        a, lb=lb, ub=ub, rhs=new_rhs,
        rows=np.concatenate([a.rows[:at[0]], first + rows, a.rows[at[1]:]]),
        cols=np.concatenate([a.cols[:at[0]], cols, a.cols[at[1]:]]),
        vals=np.concatenate([a.vals[:at[0]], vals, a.vals[at[1]:]]))
    base = model.__dict__.get("_base", model)

    def views():
        variables = list(base.variables)
        for j in q:
            variables[j] = Variable(variables[j].name, CONTINUOUS, *_qloss_bounds(anchors))
        kept = base.constraints
        names = [con.name for con in kept[first:stop]]
        return (tuple(variables),
                kept[:first] + _constraints(arrays, names, first, stop) + kept[stop:],
                base.objective)

    new = _from_arrays(arrays, model.objective_constant, views)
    object.__setattr__(new, "_base", base)
    return new, np.arange(first, stop)


def lp_relaxation(model: MilpModel) -> MilpModel:
    """The same model with every binary relaxed to a continuous in [0, 1]."""
    a = model.arrays
    relaxed = dataclasses.replace(a, kind=np.where(a.kind == BINARY, CONTINUOUS, a.kind))

    def views():
        return (tuple(Variable(v.name, CONTINUOUS, v.lb, v.ub) if v.kind == BINARY else v
                      for v in model.variables), model.constraints, model.objective)

    return _from_arrays(relaxed, model.objective_constant, views)


def tangent_gap_bound(instance: SystemInstance, schedule: Schedule, steps: int) -> float:
    """Worst-case total underestimation of the fuel cost by the tangent
    envelope, given each output's active segment: gamma * (w / steps)**2 / 4
    summed over all unit-periods, with w the active segment's width."""
    _check_count(steps, "tangent steps")
    _check_dims(instance, schedule)
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
    lines += [f"  {obj}", "bounds"]
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
