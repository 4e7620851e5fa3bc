"""Bounded-variable linear programming by primal and dual simplex.

Revised simplex with an explicit basis inverse.  Design points:

* columns are laid out as [structural | one slack per row]; equality rows
  get a slack fixed at zero, so every row is handled natively without
  splitting;
* the constraint matrix lives in coordinate/column index arrays (dispatch
  models carry only a few nonzeros per row), and every full-matrix product
  runs over the nonzeros only;
* one pass of geometric-mean row equilibration before solving;
* each solve runs on a working row set: every row except the ones the model
  marks lazy (the interior tangent cuts), cut out of the full scaled arrays
  with masks.  A run solves the LP on fixed working rows.  At its optimum
  the rows left out are checked against the point; every broken one joins
  the set, and the same solve restarts from the run's basis, each new row
  holding its own slack basic, by the warm start a branch-and-bound child
  takes: the carried inverse is bordered with the new rows, whose slacks
  cost nothing, so an optimal basis stays dual feasible and the dual start
  picks up from it, within one pivot and iteration budget.  A
  working LP that is unbounded joins every row left out the same way.  The
  set only grows and is shared by all solves of a prepared model, so
  branch-and-bound nodes start from the root's rows.  Bases, duals and
  ``m`` keep the shape of the whole model; a row left out holds its own
  slack basic at its own position;
* every solve starts by dual simplex, then finishes by primal simplex.  A
  cold start factors a crash basis (Bixby 1992): every row's slack, except
  that each free structural column (the segment cost epigraphs) takes the
  row where its entry is largest, and then each equality row takes the
  nonbasic structural column with its largest entry, both only on rows no
  earlier pick touches, which keeps the basis triangular.  A warm start
  factors the supplied basis, which may come from a model whose bounds,
  coefficients or rhs differ (a branch-and-bound child, the next pass of
  the loss loop); re-solving an already-optimal basis costs zero pivots.
  A returned basis carries the inverse the run ended with, by its
  nonzeros.  A warm start on the same prepared model (a branch-and-bound
  child, the rounding heuristic) rebuilds it from them, and after one
  edit of the prepared model (the next loss pass) it takes a rank-|R|
  Sherman-Morrison-Woodbury update for the |R| rows the edit rewrote.
  Either way, a boxed nonbasic column that prices with the wrong sign
  moves to its other bound, and any other one has its cost shifted by
  minus its reduced cost for the dual phase (cost shifting); the primal
  phase runs on the true costs;
* primal pricing takes the largest reduced cost scaled by column norm;
* dual pricing takes the row with the largest infeasibility (Dantzig's
  rule) until the run has made ``STEEP_AFTER`` pivots, then the largest
  viol_i^2 / beta_i, beta_i = |e_i^T B^-1|^2 (dual steepest edge, Forrest &
  Goldfarb 1992): the weights are read off B^-1 at the switch and at every
  factorization, and take an exact update at each pivot from the block the
  inverse update gathers;
* both ratio tests are Harris two-pass: the first pass bounds the step with
  every bound (or reduced cost) relaxed by ``HARRIS_TOL``, the second takes
  the largest pivot among the rows (columns) that block within it, so a
  near-zero pivot is not taken while a sound one blocks almost as early.
  The dual one runs over the columns where the pivot row is nonzero.  Once
  the weights are kept it takes a long step (Koberstein 2005, ch. 3): while
  the leaving row's infeasibility outlasts the boxed breakpoints in ratio
  order, it passes them, each column moving to its other bound (a bound
  flip, counted as an iteration), and runs Harris over the rest; a row that
  outlasts every breakpoint proves infeasibility;
* B^-1 lives in one object, ``_Inverse``, the only code that knows it is
  a dense m x m array: it factors a basis, updates across an exchange, and
  gives products (a column, FTRAN, a row, BTRAN) and the nonzeros a
  returned basis carries.  Every inverse is assembled one way: the rows
  known are scattered from their nonzeros, and every other row holds its
  own slack and is bordered as e_j - A[j,B] B^-1.  A fresh factorization
  (the crash, a recheck, a drifted pivot) moves each basic slack to its
  own row, so the rows known are the kernel's, inverted densely;
* between factorizations the inverse takes a rank-1 update per pivot, on
  the nonzeros of the entering column and of the pivot row, along however
  long a chain of warm starts reuses a carried inverse.  A pivot refactors
  when its element read from the column, w_r, and from the row, alpha_q,
  differ by more than ``DRIFT_TOL`` relative to w_r (Maros 2003).  With an
  explicit inverse both are one dot product summed in two orders, so the
  check sees only summation round-off; it becomes a real one once FTRAN
  and BTRAN run through separate factors;
* a product with the inverse is nonzero where it exceeds ``ZERO_TOL`` in
  magnitude (the entering column, the pivot row, a carried inverse, the
  Woodbury factors): exact cancellations leave round-off near 1e-16 that
  later updates multiply again (1e-31, 1e-48, ...), which read as support
  made most of each update.  The inverse held keeps those entries;
* the iterate and reduced costs are updated per pivot, on the nonzeros of
  the entering column and of the pivot row, and recomputed from scratch
  at every refactorization;
* one rule reads every verdict (optimal, infeasible, unbounded): it stands
  once it checks against the working rows at the inverse the run holds.
  An optimum's recomputed iterate meets its bounds and rows and its
  recomputed reduced costs have the right sign; an infeasible verdict's
  row of B^-1 is a Farkas certificate; an unbounded one's ray is
  unblocked.  A verdict that fails its check has the basis factored
  afresh and goes back through the dual start, ``RECHECKS`` times at
  most before ``iteration_limit``.  ``iteration_limit`` is never checked,
  and a basis that fails to factor ends the solve with it;
* against cycling: Harris ratio tests and dual steepest edge choose the
  pivots, a verdict stands only once its certificate checks, and
  ``max_iters`` ends a run that cycles;
* a solve given a ``deadline`` (a ``time.perf_counter`` reading) ends
  with ``iteration_limit`` at the first pivot past it.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .milp import BINARY, GE, LE, MilpModel, _is_count

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

FEAS_TOL = 1e-7
DUAL_TOL = 1e-8
PIVOT_TOL = 1e-9
ZERO_TOL = 1e-14
HARRIS_TOL = 1e-9
DRIFT_TOL = 1e-9
STEEP_AFTER = 30
RECHECKS = 2
DEFAULT_MAX_ITERS = 50_000

BASIC, AT_LOWER, AT_UPPER, FREE_ZERO = 0, 1, 2, 3


@dataclass(frozen=True)
class Basis:
    """Restart information: basic column indices plus a status code per column.

    ``kernel`` is the inverse the run ended with, by its nonzeros in model
    coordinates: ``(model token, model rows it covers, model column basic
    at each of their positions, model row of each nonzero's basis position,
    model row of each nonzero's column, nonzero values)``.  None if the run
    ended with no inverse."""

    basic_idx: np.ndarray
    status: np.ndarray
    kernel: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: np.ndarray        # structural variables
    objective: float
    dual_values: np.ndarray   # one per model row; meaningful when optimal
    basis: Basis | None
    pivots: int               # basis changes
    iterations: int           # pivots plus bound flips
    residual: float           # max row residual after scaling

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


class _Form:
    """An LP in computational form: scaled rows as coordinate and column
    arrays, rhs, costs and bound templates over the columns [structural |
    one slack per row].  Entries of the coordinate arrays are in row
    order."""

    def ax(self, x: np.ndarray) -> np.ndarray:
        n, m = self.n_struct, self.m
        out = (np.bincount(self.rows_nz, weights=self.vals_nz * x[self.cols_nz],
                           minlength=m)
               if self.rows_nz.size else np.zeros(m))
        out += x[n:]
        return out

    def aty(self, y: np.ndarray) -> np.ndarray:
        n, m = self.n_struct, self.m
        out = np.empty(self.ncols)
        out[:n] = (np.bincount(self.cols_nz, weights=self.vals_nz * y[self.rows_nz],
                               minlength=n)
                   if self.rows_nz.size else 0.0)
        out[n:] = y
        return out


class _WorkingRows(_Form):
    """The rows of a prepared model picked by ``keep``, cut out with masks:
    the form every simplex run works on.  ``rows`` lists the model rows it
    holds, ``full_col`` maps each of its columns to the model column and
    ``from_full`` maps back (-1 for the slacks of rows left out)."""

    def __init__(self, prep, keep):
        n = prep.n_struct
        self.token, self.edited = prep.token, prep.edited
        self.rows = np.flatnonzero(keep)
        self.n_struct, self.m = n, self.rows.size
        self.ncols = n + self.m
        pos = np.cumsum(keep) - 1
        on = keep[prep.rows_nz]
        self.rows_nz = pos[prep.rows_nz[on]]
        self.cols_nz = prep.cols_nz[on]
        self.vals_nz = prep.vals_nz[on]
        on = keep[prep.col_rows]
        self.col_rows = pos[prep.col_rows[on]]
        self.col_vals = prep.col_vals[on]
        col_of = np.repeat(np.arange(n), np.diff(prep.col_ptr))
        self.col_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(col_of[on], minlength=n))]).astype(np.int64)
        self.b = prep.b[self.rows]
        self.row_scale = prep.row_scale[self.rows]
        self.full_col = np.concatenate([np.arange(n), n + self.rows])
        self.from_full = np.full(prep.ncols, -1, dtype=np.int64)
        self.from_full[self.full_col] = np.arange(self.ncols)
        self.lo_template = prep.lo_template[self.full_col]
        self.hi_template = prep.hi_template[self.full_col]
        self.c = prep.c[self.full_col]
        self.col_scale = prep.col_scale[self.full_col]
        self.constant = prep.constant


class PreparedLp(_Form):
    """A model converted to computational form, reusable across many solves
    with different variable bounds and warm-start bases.

    It holds the whole scaled model; solves run on its working rows, a
    ``_WorkingRows``: every row except the lazy ones not yet found broken.
    That set only grows, and it is shared by all solves.
    """

    def __init__(self, model: MilpModel):
        a = model.arrays
        if (a.kind == BINARY).any():
            raise ValidationError("model contains binaries; relax them first "
                                  "(see lp_relaxation)")
        n, m = a.lb.size, a.rhs.size
        self.n_struct = n
        self.m = m
        self.ncols = n + m
        self.lo_template = np.concatenate([a.lb, np.where(a.sense == GE, -np.inf, 0.0)])
        self.hi_template = np.concatenate([a.ub, np.where(a.sense == LE, np.inf, 0.0)])
        self._load_rows(model)
        self.c = np.zeros(self.ncols)
        self.c[:n] = np.bincount(a.obj_cols, weights=a.obj_vals, minlength=n)
        self.constant = model.objective_constant
        self.active = ~a.lazy
        self._work = None
        self.token = object()  # names this model's scaled matrix in a carried inverse
        self.edited = None  # (old token, rows rewritten, their old scaled entries)

    def _load_rows(self, model: MilpModel):
        """Take the coefficients and rhs of every row from ``model``,
        coalesce and scale them, and index them by row and by column."""
        n, m = self.n_struct, self.m
        a = model.arrays
        # coalesce duplicate (row, col) entries so downstream scatter
        # operations see one coefficient per cell, each cell's entries
        # summed in their order; sorted cells leave the entries in row order
        keys = a.rows * n + a.cols
        order = keys.argsort(kind="stable")
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        vals = np.bincount(first.cumsum() - 1, weights=a.vals[order])
        rows, cols = np.divmod(keys[first], n)
        mag = np.abs(vals)
        starts = rows.searchsorted(np.arange(m + 1))
        nonempty = starts[1:] > starts[:-1]
        row_max, row_min = np.ones(m), np.ones(m)
        row_max[nonempty] = np.maximum.reduceat(mag, starts[:-1][nonempty])
        row_min[nonempty] = np.minimum.reduceat(mag, starts[:-1][nonempty])
        self.row_scale = np.sqrt(row_max * row_min).clip(1e-8, 1e8)
        self.b = a.rhs / self.row_scale
        vals = vals / self.row_scale[rows]
        # the entries are in row order and each cell appears once, so a
        # stable sort by column leaves each column's entries in row order
        csc = cols.argsort(kind="stable")
        self.col_rows = rows[csc]
        self.col_vals = vals[csc]
        self.col_ptr = cols[csc].searchsorted(np.arange(n + 1))
        self.rows_nz = rows
        self.cols_nz = cols
        self.vals_nz = vals
        self.col_scale = np.concatenate(
            [1.0 + np.sqrt(np.bincount(cols, weights=vals * vals, minlength=n)),
             np.full(m, 2.0)])

    def _edit(self, model: MilpModel, rows, cols):
        """Take the rows and the bounds of the columns ``cols`` from
        ``model``, a model of this one's shape that differs from it only in
        the coefficients and rhs of the rows ``rows`` and those bounds, as a
        fresh ``PreparedLp(model)`` would; the working rows stay.  The old
        token and the rows' old entries are kept, so that an inverse carried
        from just before the edit can be corrected rather than redone."""
        a = model.arrays
        if (a.lb.size, a.rhs.size) != (self.n_struct, self.m):
            raise ValidationError("the edit's model has another shape")
        cols = np.asarray(cols, dtype=np.int64)
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        old = np.isin(self.rows_nz, rows)
        self.edited = (self.token, rows, self.rows_nz[old], self.cols_nz[old], self.vals_nz[old])
        self._load_rows(model)
        self.lo_template[cols] = a.lb[cols]
        self.hi_template[cols] = a.ub[cols]
        self._work = None
        self.token = object()

    def row_violation(self, values: np.ndarray) -> np.ndarray:
        """How far each model row is from holding at the structural point
        ``values``, in scaled units; 0 where it holds."""
        n, m = self.n_struct, self.m
        x = np.zeros(self.ncols)
        x[:n] = values
        need = self.b - self.ax(x)   # the slack each row would need
        return np.maximum(np.maximum(self.lo_template[n:n + m] - need,
                                     need - self.hi_template[n:n + m]), 0.0)

    def solve(self, lower=None, upper=None, warm_start=None,
              max_iters=DEFAULT_MAX_ITERS, deadline=None) -> LpSolution:
        """Solve on the working rows.  When rows left out join, those the
        optimum breaks or all of them if the working LP is unbounded, the
        solve restarts warm from the last run's basis on the grown rows;
        ``max_iters``, ``deadline`` and ``RECHECKS`` bound all its runs
        together.  ``lower`` and ``upper`` are structural bounds of shape
        (n,), no NaN; ``max_iters`` is an int >= 0."""
        n = self.n_struct
        if not _is_count(max_iters, least=0):
            raise ValidationError(f"max_iters must be an int >= 0, got {max_iters!r}")
        lo = self.lo_template[:n] if lower is None else _bounds(lower, n, "lower")
        hi = self.hi_template[:n] if upper is None else _bounds(upper, n, "upper")
        if not np.all(lo <= hi + 1e-12):  # crossed, or a NaN
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise ValidationError("lower and upper bounds must not be NaN")
            values, duals = np.zeros(n), np.zeros(self.m)
            values.setflags(write=False)
            duals.setflags(write=False)
            return LpSolution(INFEASIBLE, values, np.inf, duals, None, 0, 0, 0.0)
        work, warm = self._start(warm_start)
        run = _Run(work, lo, hi, warm, max_iters, deadline)
        while True:
            status = run.solve()
            violation = self.row_violation(run.x[:n])
            joins = (violation > FEAS_TOL if status == OPTIMAL
                     else ~self.active if status == UNBOUNDED else None)
            if joins is None or not self._activate(joins):
                return self._solution(run, status, violation)
            work, warm = self._start(self._model_basis(run))
            run = _Run(work, lo, hi, warm, max_iters, deadline,
                       (run.pivots, run.iters, run.rechecks))

    # ----- working rows ----------------------------------------------------

    def _activate(self, rows) -> bool:
        """Add ``rows`` to the working rows; False if all are in already."""
        if not np.any(rows & ~self.active):
            return False
        self.active |= rows
        self._work = None
        return True

    def _working(self) -> _WorkingRows:
        if self._work is None:
            self._work = _WorkingRows(self, self.active)
        return self._work

    def _start(self, warm):
        """The working rows and ``warm`` mapped onto them, or None in place
        of a ``warm`` that does not fit the model: m distinct columns in
        range and one status per column.  A row left out must hold its own
        slack basic; a row whose slack the basis holds nonbasic joins the
        working rows first."""
        if warm is None:
            return self._working(), None
        n, m = self.n_struct, self.m
        basic = np.asarray(warm.basic_idx)
        status = np.asarray(warm.status)
        if (basic.shape != (m,) or status.shape != (self.ncols,)
                or np.any((basic < 0) | (basic >= self.ncols))):
            return self._working(), None
        held = np.zeros(self.ncols, dtype=bool)
        held[basic] = True
        if np.count_nonzero(held) != m:  # a column basic twice
            return self._working(), None
        self._activate(~held[n:])
        work = self._working()
        basic = work.from_full[basic]  # -1 for the slack of a row left out
        return work, Basis(basic[basic >= 0], status[work.full_col], warm.kernel)

    def _model_basis(self, run) -> Basis:
        """The run's basis in model shape, with its inverse: a row left out
        holds its slack basic at its own position."""
        work = run.prep
        n, m = self.n_struct, self.m
        basic = n + np.arange(m)
        basic[work.rows] = work.full_col[run.basic]
        status = np.full(self.ncols, AT_LOWER, dtype=np.int8)
        status[n:n + m] = BASIC
        status[work.full_col] = run.status
        return Basis(basic, status, run.inv.carried)

    def _solution(self, run, status, violation) -> LpSolution:
        """The outcome of the last run; ``violation`` is ``row_violation``
        at its point."""
        work, x = run.prep, run.x
        values = x[:self.n_struct].copy()
        values.setflags(write=False)
        resid = max(float(np.abs(work.ax(x) - work.b).max(initial=0.0)),
                    float(violation[~self.active].max(initial=0.0)))
        duals = np.zeros(self.m)
        if run.fresh is not None and run.fresh[0] is work.c:
            duals[work.rows] = run.fresh[1] / work.row_scale
        elif run.inv.held:
            duals[work.rows] = run.inv.btran(work.c[run.basic]) / work.row_scale
        duals.setflags(write=False)
        objective = float(work.c @ x + work.constant)
        if status == INFEASIBLE:
            objective = np.inf
        elif status == UNBOUNDED:
            objective = -np.inf
        return LpSolution(status, values, objective, duals, self._model_basis(run),
                          run.pivots, run.iters, resid)


def solve_lp(model: MilpModel, warm_start: Basis | None = None,
             max_iters: int = DEFAULT_MAX_ITERS) -> LpSolution:
    """One-shot solve of a continuous model."""
    return PreparedLp(model).solve(warm_start=warm_start, max_iters=max_iters)


def _bounds(value, n, what):
    """``value`` as a float array of shape (n,)."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (n,):
        raise ValidationError(f"{what} must be {n} numbers, got {value!r}")
    return arr


def _row_norms(a) -> np.ndarray:
    """Squared Euclidean norm of each row of ``a``."""
    return np.einsum("ij,ij->i", a, a)


def _default_status(lo, hi) -> np.ndarray:
    """Per column: at the finite bound nearer zero, else free at zero."""
    fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
    status = np.full(lo.shape, FREE_ZERO, dtype=np.int8)
    status[fin_hi] = AT_UPPER
    status[fin_lo & (~fin_hi | (np.abs(lo) <= np.abs(hi)))] = AT_LOWER
    return status


class _Inverse:
    """The basis inverse B^-1 a run holds, as a dense m x m array, and once
    ``steepen`` is called the dual steepest-edge weights beta_i =
    |e_i^T B^-1|^2.  It was last factored for the basis ``basic`` of the
    working rows ``prep``, which a fresh factorization reorders in place
    and the run's exchanges write."""

    def __init__(self):
        self.b_inv = None  # None while no basis is factored
        self.weights = None
        self.prep = self.basic = None

    @property
    def held(self) -> bool:
        return self.b_inv is not None

    @property
    def steep(self) -> bool:
        return self.weights is not None

    def steepen(self):
        """Keep the weights from now on, read off B^-1 here."""
        self.weights = _row_norms(self.b_inv)

    def steepest(self, viol, rows) -> int:
        """Of ``rows``, the one with the largest viol_i^2 / beta_i."""
        return int(rows[(viol[rows] ** 2 / self.weights[rows]).argmax()])

    def column(self, q) -> np.ndarray:
        """B^-1 a_q, for column q of the working rows."""
        prep = self.prep
        if q >= prep.n_struct:
            return self.b_inv[:, q - prep.n_struct].copy()
        s, e = prep.col_ptr[q], prep.col_ptr[q + 1]
        return self.ftran(prep.col_vals[s:e], prep.col_rows[s:e])

    def ftran(self, v, rows=None) -> np.ndarray:
        """B^-1 v; given ``rows``, v holds only its entries on those rows."""
        return self.b_inv @ v if rows is None else self.b_inv[:, rows] @ v

    def row(self, r) -> np.ndarray:
        """e_r^T B^-1, as a view that must not be written."""
        return self.b_inv[r]

    def btran(self, v) -> np.ndarray:
        """v^T B^-1."""
        return self.b_inv.T @ v

    def factor(self, prep, basic, known=None) -> bool:
        """Invert the basis ``basic`` of the working rows ``prep``; False,
        with no inverse held, if it is singular.  A ``known`` inverse (see
        ``Basis``) that fits is rebuilt from its nonzeros (``_reload``).
        Otherwise ``basic`` is reordered in place: each basic slack moves to
        its own row's position, and the structural columns S, in their
        order, fill those of the rows K no slack covers; the kernel A[K,S]
        is inverted densely, giving B^-1 on (K,K), and ``_border`` adds the
        slack rows."""
        self.prep, self.basic = prep, basic
        self.b_inv = None  # freed before the new inverse is made
        b_inv = None if known is None else self._reload(known)
        if b_inv is None:
            n, m = prep.n_struct, prep.m
            unit = basic >= n
            covered = np.zeros(m, dtype=bool)
            covered[basic[unit] - n] = True
            if np.count_nonzero(covered) != np.count_nonzero(unit):
                return False  # a row covered twice
            new, k_rows = covered.nonzero()[0], (~covered).nonzero()[0]
            basic[k_rows] = basic[~unit]
            basic[new] = n + new
            pos_of = np.full(prep.ncols, -1, dtype=np.int64)
            pos_of[basic] = np.arange(m)
            pos = pos_of[prep.cols_nz]
            slot = np.cumsum(~covered) - 1  # kernel index of each row in K
            e = ~covered[prep.rows_nz] & (pos >= 0)
            kernel = np.zeros((k_rows.size, k_rows.size))
            kernel[slot[prep.rows_nz[e]], slot[pos[e]]] = prep.vals_nz[e]
            try:
                kernel_inv = np.linalg.inv(kernel)
            except np.linalg.LinAlgError:
                return False
            if not np.all(np.isfinite(kernel_inv)):
                return False
            at, of = kernel_inv.nonzero()
            vals = kernel_inv[at, of]
            del kernel_inv  # a recheck's may be dense: one k^2 array at a time
            at = k_rows[at]
            of = k_rows[of]
            b_inv = self._border(at, of, vals, covered, pos)
        self.b_inv = b_inv
        if self.weights is not None:
            self.weights = _row_norms(b_inv)
        return True

    def _border(self, at, of, vals, is_new, pos):
        """B^-1 from the nonzeros (``at``, ``of``, ``vals``: working rows, in
        order) of its rows at the positions ``is_new`` leaves unmarked.  Each
        position it marks holds its own row's slack, so its row is
        e_j - A[j,B] B^-1, from the nonzeros of the rows its entries select;
        ``pos`` is the basis position of each coordinate entry's column, or -1."""
        prep, m = self.prep, self.prep.m
        b_inv = np.zeros((m, m))
        flat = b_inv.ravel()  # a view of the new, contiguous array
        flat[at * m + of] = vals
        new = is_new.nonzero()[0]
        if new.size:
            flat[new * (m + 1)] = 1.0
            e = is_new[prep.rows_nz] & (pos >= 0)
            key = pos[e]
            first = np.searchsorted(at, key)
            count = np.searchsorted(at, key, side="right") - first
            nz = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
            np.add.at(flat, np.repeat(prep.rows_nz[e] * m, count) + of[nz],
                      np.repeat(-prep.vals_nz[e], count) * vals[nz])
        return b_inv

    def _reload(self, known):
        """B^-1 rebuilt from a carried inverse (see ``Basis``) by
        ``_border``; None if it does not fit: another model (apart from the
        one edit ``PreparedLp._edit`` recorded), rows that are not a subset
        of the working rows, another basic column at one of its positions,
        or a row it does not cover that does not hold its own slack.  Rows
        the edit rewrote then take a rank-|R| Sherman-Morrison-Woodbury
        update; None if its |R| x |R| system is singular or not finite."""
        prep = self.prep
        n, m = prep.n_struct, prep.m
        token, rows, cols, at, of, vals = known
        edit = None if token is prep.token else prep.edited
        if token is not prep.token and (edit is None or edit[0] is not token):
            return None
        old = prep.from_full[n + rows] - n  # working row of each row covered
        if np.any(old < 0):
            return None
        want = n + prep.rows  # each row's own slack, unless it is covered
        want[old] = cols
        if not np.array_equal(prep.full_col[self.basic], want):
            return None
        is_new = np.ones(m, dtype=bool)
        is_new[old] = False
        pos_of = np.full(prep.ncols, -1, dtype=np.int64)
        pos_of[self.basic] = np.arange(m)
        b_inv = self._border(prep.from_full[n + at] - n, prep.from_full[n + of] - n, vals,
                             is_new, pos_of[prep.cols_nz])
        if edit is not None:
            rewritten = edit[1][np.isin(edit[1], rows)]
            if rewritten.size and not self._woodbury(b_inv, rewritten, edit[2:], pos_of):
                return None
        return b_inv

    def _woodbury(self, b_inv, rewritten, old, pos_of) -> bool:
        """Correct B^-1 in place for the model rows ``rewritten``, whose
        entries were ``old`` (model rows, columns, values) and are now the
        working form's: B' = B + E_R Delta, so B'^-1 = B^-1 - C S^-1 D with
        C = B^-1 E_R, D = Delta B^-1 and S = I + D E_R.  C S^-1 D is
        subtracted over its nonzero rows and columns, a block of rows at a
        time, so no m x m temporary is made; False if S is singular."""
        prep = self.prep
        n, m, k = prep.n_struct, prep.m, rewritten.size
        old_rows, old_cols, old_vals = old
        r_w = prep.from_full[n + rewritten] - n
        slot = np.full(prep.from_full.size - n, -1, dtype=np.int64)  # by model row
        slot[rewritten] = np.arange(k)
        new_slot, old_slot = slot[prep.rows[prep.rows_nz]], slot[old_rows]
        new_on = (new_slot >= 0) & (pos_of[prep.cols_nz] >= 0)
        old_on = (old_slot >= 0) & (pos_of[old_cols] >= 0)
        keys = np.concatenate([new_slot[new_on] * m + pos_of[prep.cols_nz[new_on]],
                               old_slot[old_on] * m + pos_of[old_cols[old_on]]])
        delta = np.bincount(keys, weights=np.concatenate([prep.vals_nz[new_on],
                                                          -old_vals[old_on]]),
                            minlength=k * m).reshape(k, m)
        touched = np.flatnonzero(delta.any(axis=0))
        d = delta[:, touched] @ b_inv[touched]
        c = b_inv[:, r_w]
        try:
            z = np.linalg.solve(np.eye(k) + d[:, r_w], d)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(z)):
            return False
        on_c = np.flatnonzero((np.abs(c) > ZERO_TOL).any(axis=1))
        on_z = np.flatnonzero((np.abs(z) > ZERO_TOL).any(axis=0))
        z = z[:, on_z]
        step = max(1, (1 << 18) // max(on_z.size, 1))  # blocks of 2 MB at most
        for s in range(0, on_c.size, step):
            block = on_c[s:s + step]
            b_inv[np.ix_(block, on_z)] -= c[block] @ z
        return True

    @property
    def carried(self):
        """The inverse held, as a ``Basis`` carries it, or None while no
        basis is factored."""
        if self.b_inv is None:
            return None
        prep, m = self.prep, self.prep.m
        flat = self.b_inv.ravel()
        nz = (flat != 0).nonzero()[0]  # far cheaper than flatnonzero on floats
        vals = flat[nz]
        real = np.abs(vals) > ZERO_TOL  # on the few nonzeros, not on all m^2
        nz, vals = nz[real], vals[real]
        at = nz // m
        return (prep.token, prep.rows, prep.full_col[self.basic], prep.rows[at],
                prep.rows[nz - at * m], vals)

    def update(self, w, r, rows):
        """Rank-1 update of B^-1 for the exchange at position r, with
        w = B^-1 a_q above ZERO_TOL on ``rows``, over the columns where rho
        is; the entries skipped are round-off.  Row i becomes rho_i - w_i
        rho, rho = rho_r / w_r, so a kept weight beta_i = |rho_i|^2 takes
        -2 w_i (rho_i . rho) + w_i^2 |rho|^2, read off the block the update
        gathers anyway."""
        b_inv, beta = self.b_inv, self.weights
        row = b_inv[r] / w[r]
        cols = (np.abs(row) > ZERO_TOL).nonzero()[0]
        rho, w_on = row[cols], w[rows]
        # one flat index is cheaper than a 2-D gather; _border makes every
        # inverse C-contiguous, so the flat view's writes reach b_inv
        flat = b_inv.ravel()
        cells = rows[:, None] * b_inv.shape[1] + cols
        block = flat[cells]
        if beta is not None:
            dots = block @ rho
        block -= w_on[:, None] * rho
        flat[cells] = block
        b_inv[r] = row
        if beta is not None:
            norm = rho @ rho
            beta[rows] += w_on * (w_on * norm - 2.0 * dots)
            beta[r] = norm
            drifted = rows[beta[rows] <= 0.0]
            if drifted.size:
                beta[drifted] = _row_norms(b_inv[drifted])


class _Run:
    """One run of the simplex on fixed working rows.  ``spent`` holds the
    pivots, iterations and rechecks the solve's earlier runs took, so that
    the budgets hold across its restarts; ``deadline`` is the solve's."""

    def __init__(self, prep, lower, upper, warm_start, max_iters, deadline=None,
                 spent=(0, 0, 0)):
        self.prep = prep
        self.max_iters = max_iters
        self.deadline = deadline
        self.lo = prep.lo_template.copy()
        self.hi = prep.hi_template.copy()
        n = prep.n_struct
        if lower is not None:
            self.lo[:n] = lower
        if upper is not None:
            self.hi[:n] = upper
        self.warm = warm_start
        self.status = np.empty(prep.ncols, dtype=np.int8)
        self.basic = np.empty(prep.m, dtype=np.int64)
        self.inv = _Inverse()
        self.drifted = False  # set by a pivot whose two readings of w_r disagree
        # (costs, y = B^-T c_B) of the last refresh, None once a pivot, flip
        # or factorization has come since: x and y need no recomputing
        self.fresh = None
        self.dirn = None  # per column, the way the dual ratio test may move it (see _dual)
        self.proof = None  # what the last infeasible or unbounded verdict rests on
        self.x = np.zeros(prep.ncols)
        self.d = np.zeros(prep.ncols)
        self.pivots, self.iters, self.rechecks = spent

    # ----- state helpers ---------------------------------------------------

    def _out_of_budget(self) -> bool:
        """Whether the iteration budget or the deadline has run out."""
        return self.iters >= self.max_iters or (
            self.deadline is not None and time.perf_counter() >= self.deadline)

    def _factor(self, known=None) -> bool:
        """Factor the basis (``_Inverse.factor``); False if it is singular."""
        self.fresh = None
        self.drifted = False
        return self.inv.factor(self.prep, self.basic, known)

    def _compute_x(self) -> np.ndarray:
        x = np.zeros(self.prep.ncols)
        at_lo = self.status == AT_LOWER
        at_hi = self.status == AT_UPPER
        x[at_lo] = self.lo[at_lo]
        x[at_hi] = self.hi[at_hi]
        x[self.basic] = self.inv.ftran(self.prep.b - self.prep.ax(x))
        return x

    def _refresh(self, c):
        """Recompute the iterate and reduced costs for the current basis."""
        self.x = self._compute_x()
        y = self.inv.btran(c[self.basic])
        self.d = c - self.prep.aty(y)
        self.d[self.basic] = 0.0
        self.fresh = (c, y)

    def _refactor(self, c) -> bool:
        """Factor the basis and refresh from it; False if it is singular."""
        if not self._factor():
            return False
        self._refresh(c)
        return True

    def _entering(self, d, movable):
        """The columns that reduced costs ``d`` let improve the objective,
        by increasing and by decreasing; basic columns are never among them."""
        status = self.status
        return (movable & (d < -DUAL_TOL) & ((status == AT_LOWER) | (status == FREE_ZERO)),
                movable & (d > DUAL_TOL) & ((status == AT_UPPER) | (status == FREE_ZERO)))

    def _exchange(self, r, q, w, alpha, step, to_lower):
        """Basis exchange at position r: q enters, moved by ``step``, with
        w = B^-1 a_q and ``alpha`` the old tableau row r; the leaving column
        goes to its lower or upper bound.  The iterate moves on the rows of w
        above ZERO_TOL and the reduced costs along alpha: the leaving column
        picks up -d_q / w_r and the basic columns stay at zero.  w_r and
        alpha_q are the same pivot element read from the column and from the
        row; the run is marked ``drifted`` when they disagree beyond
        DRIFT_TOL."""
        leaving = int(self.basic[r])
        self.fresh = None
        if abs(w[r] - alpha[q]) > DRIFT_TOL * abs(w[r]):
            self.drifted = True
        rows = (np.abs(w) > ZERO_TOL).nonzero()[0]
        self.x[self.basic[rows]] -= step * w[rows]
        self.x[q] += step
        self.x[leaving] = self.lo[leaving] if to_lower else self.hi[leaving]
        self.basic[r] = q
        self.status[q] = BASIC
        self.status[leaving] = AT_LOWER if to_lower else AT_UPPER
        dq = self.d[q]
        if dq != 0.0:
            self.d -= (dq / w[r]) * alpha
        self.d[self.basic] = 0.0
        self.dirn[q] = 0.0
        self.dirn[leaving] = (0.0 if self.lo[leaving] == self.hi[leaving]
                              else 1.0 if to_lower else -1.0)
        self.inv.update(w, r, rows)
        self.pivots += 1

    # ----- start paths -----------------------------------------------------

    def _crash(self) -> bool:
        """All-slack basis, then structural picks, each made basic on a row
        no earlier pick touches: first every free column (the segment cost
        epigraphs), on the row where its entry is largest; then, on each
        row whose slack is fixed (an equality row), the nonbasic column
        whose entry there is largest.  Each pick's row is zero in the
        columns picked before it, so the basis is triangular.  Ties go to
        a column's first row and a row's first column.  The scans run over
        the coordinate arrays taken once as lists."""
        prep = self.prep
        n, m = prep.n_struct, prep.m
        self.status = _default_status(self.lo, self.hi)
        basic = list(range(n, n + m))
        col_ptr, col_rows = prep.col_ptr.tolist(), prep.col_rows.tolist()
        col_vals = prep.col_vals.tolist()
        touched = [False] * m
        picked = [False] * n

        def pick(j, r):
            basic[r] = j
            picked[j] = True
            for i in col_rows[col_ptr[j]:col_ptr[j + 1]]:
                touched[i] = True

        free = np.flatnonzero(np.isneginf(self.lo[:n]) & np.isposinf(self.hi[:n])).tolist()
        for j in free:
            best, at = 0.0, -1
            for k in range(col_ptr[j], col_ptr[j + 1]):
                if abs(col_vals[k]) > best and not touched[col_rows[k]]:
                    best, at = abs(col_vals[k]), col_rows[k]
            if at >= 0:
                pick(j, at)
        # the entries are in row order
        row_ptr = np.searchsorted(prep.rows_nz, np.arange(m + 1)).tolist()
        cols_nz, vals_nz = prep.cols_nz.tolist(), prep.vals_nz.tolist()
        for r in np.flatnonzero(self.lo[n:n + m] == self.hi[n:n + m]).tolist():
            if touched[r]:
                continue
            best, at = 0.0, -1
            for k in range(row_ptr[r], row_ptr[r + 1]):
                if abs(vals_nz[k]) > best and not picked[cols_nz[k]]:
                    best, at = abs(vals_nz[k]), cols_nz[k]
            if at >= 0:
                pick(at, r)
        self.basic = np.array(basic, dtype=np.int64)
        self.status[self.basic] = BASIC
        return self._factor()

    def _cold(self, c) -> str:
        return self._dual_start(c) if self._crash() else ITERATION_LIMIT

    def _load_warm(self) -> bool:
        warm = self.warm
        prep = self.prep
        self.basic = warm.basic_idx.astype(np.int64).copy()
        self.status = warm.status.astype(np.int8).copy()
        in_basis = np.zeros(prep.ncols, dtype=bool)
        in_basis[self.basic] = True
        # a nonbasic status must name a finite bound; a stale BASIC mark
        # falls back to the default
        old, lo, hi = self.status.copy(), self.lo, self.hi
        fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
        new = self.status
        fix = (old == AT_LOWER) & ~fin_lo
        new[fix] = np.where(fin_hi[fix], AT_UPPER, FREE_ZERO)
        fix = (old == AT_UPPER) & ~fin_hi
        new[fix] = np.where(fin_lo[fix], AT_LOWER, FREE_ZERO)
        free = old == FREE_ZERO
        new[free & (hi < 0.0)] = AT_UPPER
        new[free & (lo > 0.0)] = AT_LOWER
        fix = old == BASIC
        new[fix] = _default_status(lo[fix], hi[fix])
        new[in_basis] = BASIC
        return self._factor(warm.kernel)

    def _warm(self, c) -> str:
        if not self._load_warm():
            return self._cold(c)
        return self._dual_start(c)

    def _dual_start(self, c) -> str:
        """From a factored basis: make it dual feasible, run dual simplex to
        primal feasibility, then primal simplex on the true costs.

        A boxed nonbasic column that prices with the wrong sign moves to its
        other bound.  Any other one has its cost shifted by minus its
        reduced cost for the dual phase; y depends only on basic costs, so
        that zeroes its reduced cost and nothing else's."""
        d = c - self.prep.aty(self.inv.btran(c[self.basic]))
        movable = (self.lo < self.hi) & (self.status != BASIC)
        up = movable & ((self.status == AT_LOWER) | (self.status == FREE_ZERO)) & (d < -1e-6)
        down = movable & ((self.status == AT_UPPER) | (self.status == FREE_ZERO)) & (d > 1e-6)
        boxed = np.isfinite(self.lo) & np.isfinite(self.hi)
        self.status[up & boxed] = AT_UPPER
        self.status[down & boxed] = AT_LOWER
        shifted = (up | down) & ~boxed
        pivots = self.pivots
        status = self._dual(c + np.where(shifted, -d, 0.0))
        if status != OPTIMAL:
            return status  # a row that proves infeasibility does so at any costs
        if self.pivots > pivots or shifted.any():
            # back to the true costs; otherwise the dual phase read x and d
            # on them and has not pivoted since
            self._refresh(c)
        return self._primal(c)

    # ----- primal simplex --------------------------------------------------

    def _primal(self, c) -> str:
        prep = self.prep
        m = prep.m
        movable = self.lo < self.hi
        while True:
            if self._out_of_budget():
                return ITERATION_LIMIT
            if self.drifted and not self._refactor(c):
                return ITERATION_LIMIT
            x, d = self.x, self.d
            elig_inc, elig_dec = self._entering(d, movable)
            elig = elig_inc | elig_dec
            if not elig.any():
                return OPTIMAL
            score = np.where(elig, np.abs(d) / prep.col_scale, -1.0)
            q = int(np.argmax(score))
            s = 1.0 if elig_inc[q] else -1.0
            w = self.inv.column(q)
            delta = s * w
            xb = x[self.basic]
            lb = self.lo[self.basic]
            ub = self.hi[self.basic]
            with np.errstate(divide="ignore", invalid="ignore"):
                r_lo = np.where(delta > PIVOT_TOL, (xb - lb) / delta, np.inf)
                r_hi = np.where(delta < -PIVOT_TOL, (xb - ub) / delta, np.inf)
            ratios = np.maximum(np.minimum(r_lo, r_hi), 0.0)
            theta_basic = float(ratios.min()) if m else np.inf
            span = self.hi[q] - self.lo[q]
            if not np.isfinite(min(theta_basic, span)):
                self.proof = (q, s)
                return UNBOUNDED
            self.iters += 1
            if span <= theta_basic:
                # the entering variable runs to its other bound: a bound flip
                x[self.basic] = xb - span * delta
                self.fresh = None
                up = s > 0
                x[q] = self.hi[q] if up else self.lo[q]
                self.status[q] = AT_UPPER if up else AT_LOWER
                continue
            # Harris: ``cap`` is the step with every bound relaxed by
            # HARRIS_TOL; the largest pivot blocking within it leaves
            with np.errstate(divide="ignore"):
                cap = float((np.minimum(r_lo, r_hi) + HARRIS_TOL / np.abs(delta)).min())
            cands = np.flatnonzero(ratios <= max(theta_basic + 1e-12, min(cap, span)))
            r = int(cands[np.argmax(np.abs(delta[cands]))])
            alpha = prep.aty(self.inv.row(r))
            self._exchange(r, q, w, alpha, s * float(ratios[r]), delta[r] > 0)

    # ----- dual simplex ----------------------------------------------------

    def _dual(self, c) -> str:
        """Dual simplex to primal feasibility, with the pricing and the
        long step the module docstring describes.

        ``dirn`` is +1 on the columns that may only rise, -1 on those that
        may only fall and 0 on basic and fixed ones, so the ratio test's
        candidates are where alpha * dirn has the leaving row's sign and
        exceeds PIVOT_TOL; the free nonbasic columns, which may move either
        way, are taken apart."""
        prep, inv = self.prep, self.inv
        movable = self.lo < self.hi
        status = self.status
        self.dirn = ((movable & (status == AT_LOWER)).astype(float)
                     - (movable & (status == AT_UPPER)))
        free = np.flatnonzero(movable & (status == FREE_ZERO))
        self._refresh(c)
        while True:
            if self._out_of_budget():
                return ITERATION_LIMIT
            if self.drifted and not self._refactor(c):
                return ITERATION_LIMIT
            if not inv.steep and self.pivots >= STEEP_AFTER:
                inv.steepen()
            d = self.d
            xb = self.x[self.basic]
            below = self.lo[self.basic] - xb
            above = xb - self.hi[self.basic]
            viol = np.maximum(below, above)
            if inv.steep:
                worst = (viol > FEAS_TOL).nonzero()[0]
                if worst.size == 0:
                    return OPTIMAL
                r = inv.steepest(viol, worst)
            else:
                r = int(viol.argmax()) if viol.size else -1
                if r < 0 or not viol[r] > FEAS_TOL:
                    return OPTIMAL
            is_below = below[r] >= above[r]
            alpha = prep.aty(inv.row(r))
            signed = alpha * self.dirn
            cand = (signed < -PIVOT_TOL if is_below else signed > PIVOT_TOL).nonzero()[0]
            if free.size:
                free = free[self.status[free] == FREE_ZERO]
                cand = np.union1d(cand, free[np.abs(alpha[free]) > PIVOT_TOL])
            if cand.size == 0:
                self.proof = r
                return INFEASIBLE
            denom = -alpha[cand] if is_below else alpha[cand]
            mag = np.abs(denom)
            raw = d[cand] / denom
            ratios = np.maximum(raw, 0.0)
            if inv.steep:
                # each breakpoint passed cuts the row's infeasibility by
                # |alpha_j| (u_j - l_j); a free column cannot be passed, nor
                # one that leaves the row within FEAS_TOL of its bound
                gain = mag * np.where(self.dirn[cand] == 0.0, np.inf,
                                      self.hi[cand] - self.lo[cand])
                outlasts = viol[r] - FEAS_TOL
                if gain[ratios.argmin()] < outlasts:
                    order = np.argsort(ratios, kind="stable")
                    passed = int(np.count_nonzero(np.cumsum(gain[order]) < outlasts))
                    if passed == cand.size:
                        self.proof = r
                        return INFEASIBLE
                    self._flip(cand[order[:passed]])
                    rest = order[passed:]
                    cand, mag, raw, ratios = cand[rest], mag[rest], raw[rest], ratios[rest]
            # Harris, as in the primal, with the reduced costs relaxed
            cap = float((raw + HARRIS_TOL / mag).min())
            near = (ratios <= max(float(ratios.min()) + 1e-12, cap)).nonzero()[0]
            q = int(cand[near[mag[near].argmax()]])
            w = inv.column(q)
            leaving = self.basic[r]
            target = self.lo[leaving] if is_below else self.hi[leaving]
            self.iters += 1
            self._exchange(r, q, w, alpha, (self.x[leaving] - target) / w[r], is_below)

    def _flip(self, cols):
        """Move the nonbasic columns ``cols``, each at a finite bound, to
        their other bounds, and the basic variables with them:
        x_B -= B^-1 sum_j a_j delta_j, over the rows where that sum is
        nonzero.  Each move counts as an iteration."""
        up = self.status[cols] == AT_LOWER
        to = np.where(up, self.hi[cols], self.lo[cols])
        delta = np.zeros(self.prep.ncols)
        delta[cols] = to - self.x[cols]
        moved = self.prep.ax(delta)
        on = np.flatnonzero(moved)
        self.x[self.basic] -= self.inv.ftran(moved[on], on)
        self.x[cols] = to
        self.fresh = None
        self.status[cols] = np.where(up, AT_UPPER, AT_LOWER)
        self.dirn[cols] = -self.dirn[cols]
        self.iters += cols.size

    # ----- driver ----------------------------------------------------------

    def solve(self) -> str:
        """Run to a final status.  A verdict stands once it checks against
        the working rows at the inverse held (``_certified``), but an
        unbounded one returns unchecked while rows are left out, which may
        bound it.  A verdict that fails its check has the basis factored
        afresh and goes back through the dual start, ``RECHECKS`` times at
        most per solve.  ITERATION_LIMIT is final, and a recheck's basis
        that fails to factor ends the run at once with it."""
        prep = self.prep
        status = (self._warm if self.warm is not None else self._cold)(prep.c)
        while status != ITERATION_LIMIT:
            if ((status == UNBOUNDED and prep.ncols < prep.from_full.size)
                    or self._certified(status)):
                return status
            if self.rechecks == RECHECKS or not self._factor():
                return ITERATION_LIMIT
            self.rechecks += 1
            status = self._dual_start(prep.c)
        if self.inv.held and self.fresh is None:
            self.x = self._compute_x()
        return status

    def _certified(self, status) -> bool:
        """Whether a verdict checks against the working rows at the inverse
        held, whatever drift the rank-1 updates left in it.

        Optimal and unbounded: the recomputed iterate meets its bounds and
        rows within FEAS_TOL.  Optimal: no reduced cost d = c - A^T B^-T c_B
        lets a column improve the objective.  Unbounded: the entering
        column still improves it, and the ray along B^-1 a_q meets no finite
        bound and no row.  Infeasible: the proving row y = e_r^T B^-1 is a
        Farkas certificate, with y^T b outside the range of y^T A x over
        the bounds by more than FEAS_TOL (Neumaier & Shcherbina 2004),
        which holds for any y.
        That range leaves out entries |y^T a_j| <= PIVOT_TOL on columns with
        an infinite bound: the dual ratio test never takes them, and their
        round-off on a basic free column would make every range infinite."""
        prep, c = self.prep, self.prep.c
        if status == INFEASIBLE:
            y = self.inv.row(self.proof)
            alpha = prep.aty(y)
            alpha[(np.abs(alpha) <= PIVOT_TOL) & np.isinf(self.hi - self.lo)] = 0.0
            pos, neg = alpha > 0.0, alpha < 0.0
            low = alpha[pos] @ self.lo[pos] + alpha[neg] @ self.hi[neg]
            high = alpha[pos] @ self.hi[pos] + alpha[neg] @ self.lo[neg]
            beta = y @ prep.b
            return bool(beta < low - FEAS_TOL or beta > high + FEAS_TOL)
        if self.fresh is None or self.fresh[0] is not c:
            self._refresh(c)  # otherwise x and d were recomputed on c and still hold
        x = self.x
        if not (np.all(x >= self.lo - FEAS_TOL) and np.all(x <= self.hi + FEAS_TOL)
                and np.abs(prep.ax(x) - prep.b).max(initial=0.0) <= FEAS_TOL):
            return False
        movable = self.lo < self.hi
        if status == OPTIMAL:
            inc, dec = self._entering(self.d, movable)
            return not (inc.any() or dec.any())
        q, s = self.proof
        ray = np.zeros(prep.ncols)
        ray[self.basic] = -s * self.inv.column(q)
        ray[q] = s
        blocked = (ray > PIVOT_TOL) & np.isfinite(self.hi) | (ray < -PIVOT_TOL) & np.isfinite(self.lo)
        return bool(c @ ray < -DUAL_TOL and not blocked.any()
                    and np.abs(prep.ax(ray)).max() <= FEAS_TOL)
