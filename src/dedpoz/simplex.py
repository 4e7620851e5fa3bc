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
  with masks.  At an optimum the rows left out are checked against the
  point; every broken one joins the set inside the same run, with its
  slack basic, and after one factorization of the grown basis the run
  resumes by dual simplex, since a new row's basic slack keeps the basis
  dual feasible.  "None broken" is read again at the iterate recomputed
  for the exit check.  The set only grows and is shared by all solves of a
  prepared model, so branch-and-bound nodes start from the root's rows.
  Bases, duals and ``m`` keep the shape of the whole model; a row left out
  holds its own slack basic at its own position;
* every solve starts by dual simplex, then finishes by primal simplex.  A
  cold start factors a crash basis (Bixby 1992): every row's slack, except
  that each free structural column (the segment cost epigraphs) takes the
  row where its entry is largest, and then each equality row takes the
  nonbasic structural column with its largest entry, both only on rows no
  earlier pick touches, which keeps the basis triangular.  A warm start
  factors the supplied basis, which may come from a model whose bounds,
  coefficients or rhs differ (a branch-and-bound child, the next pass of
  the loss loop); re-solving an already-optimal basis costs zero pivots.
  A basis returned by a run that ended on a fresh factorization carries
  its kernel inverse, and a warm start on the same prepared model (a
  branch-and-bound child, the rounding heuristic) builds its inverse from
  that kernel without inverting it again.
  Either way, a boxed nonbasic column that prices with the wrong sign
  moves to its other bound, and any other one has its cost shifted by
  minus its reduced cost for the dual phase (cost shifting); the primal
  phase runs on the true costs;
* dual simplex reports "infeasible" only from a row read on a fresh
  factorization: a row with no entering column after pivots is read again
  after a refactorization;
* pricing takes the largest reduced cost scaled by column norm, with a
  switch to Bland's rule after 1,000 degenerate steps;
* both ratio tests are Harris two-pass: the first pass bounds the step with
  every bound (or reduced cost) relaxed by ``HARRIS_TOL``, the second takes
  the largest pivot among the rows (columns) that block within it, so a
  near-zero pivot is not taken while a sound one blocks almost as early;
* most basic columns are slacks, i.e. unit vectors, so a
  refactorization inverts only the kernel: the structural basic columns
  restricted to the rows no unit column covers.  The rest of the inverse
  follows from the kernel inverse by block elimination;
* between refactorizations the inverse takes a rank-1 update per pivot,
  applied only where the entering column and the pivot row are nonzero
  (both are sparse on dispatch models);
* the iterate and reduced costs are updated per pivot and recomputed from
  scratch at every refactorization, at the latest ``REFACTOR_EVERY``
  pivots after the last one;
* an optimal exit is trusted only after the iterate, recomputed from a
  fresh factorization, meets its bounds; otherwise dual then primal simplex
  repair it, and a basis that cannot be repaired is not reported optimal;
* a basis that fails to factor ends the solve as ``iteration_limit``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .milp import BINARY, EQ, GE, LE, MilpModel

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

FEAS_TOL = 1e-7
DUAL_TOL = 1e-8
PIVOT_TOL = 1e-9
HARRIS_TOL = 1e-9
DEGEN_STEP = 1e-10
BLAND_AFTER = 1000
REFACTOR_EVERY = 400
DEFAULT_MAX_ITERS = 50_000

BASIC, AT_LOWER, AT_UPPER, FREE_ZERO = 0, 1, 2, 3


@dataclass(frozen=True)
class Basis:
    """Restart information: basic column indices plus a status code per column.

    ``kernel`` is ``(model token, structural basic columns in position
    order, kernel model rows, kernel inverse)`` when the run that returned
    the basis ended on a fresh factorization."""

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
    one slack per row].  The simplex runs on any form: a whole prepared
    model or its working rows.  Entries of the coordinate arrays are in row
    order.  ``rows`` lists the model rows the form holds, ``full_col`` maps
    each of its columns to the model column and ``from_full`` maps back (-1
    for the slacks of rows left out)."""

    model = None  # the prepared model whose rows left out may join

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

    def structural_columns(self, cols: np.ndarray) -> np.ndarray:
        """Dense m x len(cols) block of the given structural columns."""
        starts = self.col_ptr[cols]
        counts = self.col_ptr[cols + 1] - starts
        which = np.repeat(np.arange(len(cols)), counts)  # output column per entry
        entries = starts[which] + np.arange(which.size) - (np.cumsum(counts) - counts)[which]
        out = np.zeros((self.m, len(cols)))
        out[self.col_rows[entries], which] = self.col_vals[entries]
        return out


class _WorkingRows(_Form):
    """The rows of a prepared model picked by ``keep``, cut out with masks."""

    def __init__(self, prep, keep):
        n = prep.n_struct
        self.model, self.token = prep, prep.token
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

    Solves run on the working rows: every row except the lazy ones not yet
    found broken.  That set only grows, and it is shared by all solves.
    """

    def __init__(self, model: MilpModel):
        if any(v.kind == BINARY for v in model.variables):
            raise ValidationError("model contains binaries; relax them first "
                                  "(see lp_relaxation)")
        n = len(model.variables)
        m = len(model.constraints)
        rows, cols, vals = [], [], []
        b = np.zeros(m)
        senses = []
        for r, con in enumerate(model.constraints):
            for j, coef in con.coeffs:
                rows.append(r)
                cols.append(j)
                vals.append(coef)
            b[r] = con.rhs
            senses.append(con.sense)
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=float)
        if rows.size:
            # coalesce duplicate (row, col) entries so downstream scatter
            # operations see one coefficient per cell
            keys = rows * n + cols
            uniq, inverse = np.unique(keys, return_inverse=True)
            vals = np.bincount(inverse, weights=vals, minlength=uniq.size)
            rows = (uniq // n).astype(np.int64)
            cols = (uniq % n).astype(np.int64)

        scale = np.ones(m)
        if rows.size:
            order = np.argsort(rows, kind="stable")
            r_sorted = rows[order]
            mag = np.abs(vals[order])
            starts = np.searchsorted(r_sorted, np.arange(m))
            ends = np.searchsorted(r_sorted, np.arange(m) + 1)
            nonempty = ends > starts
            row_max = np.ones(m)
            row_min = np.ones(m)
            row_max[nonempty] = np.maximum.reduceat(mag, starts[nonempty])
            row_min[nonempty] = np.minimum.reduceat(mag, starts[nonempty])
            scale = np.clip(np.sqrt(row_max * row_min), 1e-8, 1e8)
            vals = vals / scale[rows]
        b /= scale

        csc = np.lexsort((rows, cols))
        self.col_rows = rows[csc]
        self.col_vals = vals[csc]
        self.col_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(cols, minlength=n))]).astype(np.int64)
        self.rows_nz = rows
        self.cols_nz = cols
        self.vals_nz = vals

        self.b = b
        self.row_scale = scale
        self.n_struct = n
        self.m = m
        self.ncols = n + m
        self.rows = np.arange(m)
        self.full_col = self.from_full = np.arange(self.ncols)

        lo = np.empty(self.ncols)
        hi = np.empty(self.ncols)
        lo[:n] = [v.lb for v in model.variables]
        hi[:n] = [v.ub for v in model.variables]
        for r, sense in enumerate(senses):
            if sense == LE:
                lo[n + r], hi[n + r] = 0.0, np.inf
            elif sense == GE:
                lo[n + r], hi[n + r] = -np.inf, 0.0
            else:
                lo[n + r], hi[n + r] = 0.0, 0.0
        self.lo_template = lo
        self.hi_template = hi

        c = np.zeros(self.ncols)
        for j, coef in model.objective:
            c[j] += coef
        self.c = c
        self.constant = model.objective_constant
        norm_sq = (np.bincount(cols, weights=vals * vals, minlength=n)
                   if rows.size else np.zeros(n))
        self.col_scale = np.empty(self.ncols)
        self.col_scale[:n] = 1.0 + np.sqrt(norm_sq)
        self.col_scale[n:] = 2.0
        self.active = np.array([not con.lazy for con in model.constraints], dtype=bool)
        self._work = None
        self.token = object()  # names this model's scaled matrix in a basis kernel

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
              max_iters=DEFAULT_MAX_ITERS) -> LpSolution:
        """Solve on the working rows; every row left out that the optimum
        breaks joins them inside the same run, which resumes from its
        basis.  An unbounded working LP is solved again cold with all rows,
        which may bound it.  ``max_iters`` bounds both runs together."""
        n = self.n_struct
        lo = self.lo_template[:n] if lower is None else np.asarray(lower, dtype=float)
        hi = self.hi_template[:n] if upper is None else np.asarray(upper, dtype=float)
        if np.any(lo > hi + 1e-12):
            values, duals = np.zeros(n), np.zeros(self.m)
            values.setflags(write=False)
            duals.setflags(write=False)
            return LpSolution(INFEASIBLE, values, np.inf, duals, None, 0, 0, 0.0)
        work, warm = self._start(warm_start)
        run = _Run(work, lower, upper, warm, max_iters)
        status = run.solve()
        pivots, iters = run.pivots, run.iters
        if status == UNBOUNDED and run.prep is not self:
            self._activate(~self.active)
            run = _Run(self, lower, upper, None, max_iters - iters)
            status = run.solve()
            pivots += run.pivots
            iters += run.iters
        return self._solution(run, status, pivots, iters)

    # ----- working rows ----------------------------------------------------

    def _grow(self, values):
        """The working rows after every row left out that the structural
        point ``values`` breaks has joined them; None if none is broken."""
        broken = ~self.active & (self.row_violation(values) > FEAS_TOL)
        if not broken.any():
            return None
        self._activate(broken)
        return self._working()

    def _activate(self, rows):
        if np.any(rows & ~self.active):
            self.active |= rows
            self._work = None

    def _working(self) -> _Form:
        if self.active.all():
            return self
        if self._work is None:
            self._work = _WorkingRows(self, self.active)
        return self._work

    def _start(self, warm):
        """The working rows and ``warm`` mapped onto them, or None in place
        of a ``warm`` that does not fit the model.  A row left out must hold
        its own slack basic; a row whose slack the basis holds nonbasic
        joins the working rows first."""
        if warm is None:
            return self._working(), None
        n, m = self.n_struct, self.m
        basic = np.asarray(warm.basic_idx)
        status = np.asarray(warm.status)
        if (basic.shape != (m,) or status.shape != (self.ncols,)
                or np.any((basic < 0) | (basic >= self.ncols))):
            return self._working(), None
        if self.active.all():
            return self, warm
        held = np.zeros(m, dtype=bool)
        held[basic[basic >= n] - n] = True
        self._activate(~held)
        work = self._working()
        if work is self:
            return self, warm
        basic = work.from_full[basic]  # -1 for the slack of a row left out
        return work, Basis(basic[basic >= 0], status[work.full_col], warm.kernel)

    def _model_basis(self, run) -> Basis:
        """The run's basis in model shape: a row left out holds its slack
        basic at its own position.  Only a fresh factorization's kernel
        comes along."""
        work = run.prep
        n, m = self.n_struct, self.m
        basic = n + np.arange(m)
        basic[work.rows] = work.full_col[run.basic]
        status = np.full(self.ncols, AT_LOWER, dtype=np.int8)
        status[n:n + m] = BASIC
        status[work.full_col] = run.status
        fresh = run.b_inv is not None and run.since_refactor == 0
        return Basis(basic, status, run.kernel if fresh else None)

    def _solution(self, run, status, pivots, iters) -> LpSolution:
        work, x = run.prep, run.x
        values = x[:self.n_struct].copy()
        values.setflags(write=False)
        resid = float(np.abs(work.ax(x) - work.b).max(initial=0.0))
        duals = np.zeros(self.m)
        if run.b_inv is not None:
            duals[work.rows] = (run.b_inv.T @ work.c[run.basic]) / work.row_scale
        if work is not self:
            resid = max(resid, float(
                self.row_violation(values)[~self.active].max(initial=0.0)))
        duals.setflags(write=False)
        objective = float(work.c @ x + work.constant)
        if status == INFEASIBLE:
            objective = np.inf
        elif status == UNBOUNDED:
            objective = -np.inf
        return LpSolution(status, values, objective, duals, self._model_basis(run),
                          pivots, iters, resid)


def solve_lp(model: MilpModel, warm_start: Basis | None = None,
             max_iters: int = DEFAULT_MAX_ITERS) -> LpSolution:
    """One-shot solve of a continuous model."""
    return PreparedLp(model).solve(warm_start=warm_start, max_iters=max_iters)


def _default_status(lo, hi) -> np.ndarray:
    """Per column: at the finite bound nearer zero, else free at zero."""
    fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
    status = np.full(lo.shape, FREE_ZERO, dtype=np.int8)
    status[fin_hi] = AT_UPPER
    status[fin_lo & (~fin_hi | (np.abs(lo) <= np.abs(hi)))] = AT_LOWER
    return status


class _Run:
    def __init__(self, prep, lower, upper, warm_start, max_iters):
        self.prep = prep
        self.max_iters = max_iters
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
        self.b_inv = self.kernel = None  # None while the basis is not factored
        self.x = np.zeros(prep.ncols)
        self.d = np.zeros(prep.ncols)
        self.pivots = 0
        self.iters = 0
        self.since_refactor = 0
        self.degen = 0
        self.bland = False

    # ----- state helpers ---------------------------------------------------

    def _factor(self, known=None) -> bool:
        """Invert the basis through its structural kernel; False, with no
        inverse held, if the basis is singular.

        With S the structural basic positions, U the slack ones (unit
        columns), ``ru`` the rows U covers and K the rest, the inverse is
        A[K,S]^-1 on (S,K), -A[ru,S] A[K,S]^-1 on (U,K), the identity on
        (U,ru) and zero elsewhere.  A ``known`` kernel (see ``Basis``) of
        this model, the same columns and the same rows is A[K,S]^-1
        already: a model's scaled matrix never changes.
        """
        prep = self.prep
        n, m = prep.n_struct, prep.m
        self.b_inv = self.kernel = None  # hold one inverse at a time, not two
        unit = self.basic >= n
        s_pos = np.flatnonzero(~unit)
        u_pos = np.flatnonzero(unit)
        ru = self.basic[u_pos] - n
        covered = np.zeros(m, dtype=bool)
        covered[ru] = True
        if np.count_nonzero(covered) != ru.size:
            return False  # a row covered twice: the basis is singular
        k_rows = np.flatnonzero(~covered)
        s_cols, k_model = self.basic[s_pos], prep.rows[k_rows]
        cols = prep.structural_columns(s_cols)
        if (known is not None and known[0] is prep.token
                and np.array_equal(known[1], s_cols) and np.array_equal(known[2], k_model)):
            kernel_inv = known[3]
        else:
            try:
                kernel_inv = np.linalg.inv(cols[k_rows])
            except np.linalg.LinAlgError:
                return False
            if not np.all(np.isfinite(kernel_inv)):
                return False
        block = np.empty((m, k_rows.size))  # the columns of B^-1 on K
        block[s_pos] = kernel_inv
        block[u_pos] = -(cols[ru] @ kernel_inv)
        b_inv = np.zeros((m, m))
        b_inv[:, k_rows] = block
        b_inv[u_pos, ru] = 1.0
        self.b_inv = b_inv
        self.kernel = (prep.token, s_cols, k_model, kernel_inv)
        self.since_refactor = 0
        return True

    def _update_b_inv(self, w, r):
        # the entries skipped here would subtract an exact zero
        row = self.b_inv[r] / w[r]
        rows = np.flatnonzero(w)
        cols = np.flatnonzero(row)
        self.b_inv[np.ix_(rows, cols)] -= np.multiply.outer(w[rows], row[cols])
        self.b_inv[r] = row
        self.since_refactor += 1

    def _compute_x(self) -> np.ndarray:
        x = np.zeros(self.prep.ncols)
        at_lo = self.status == AT_LOWER
        at_hi = self.status == AT_UPPER
        x[at_lo] = self.lo[at_lo]
        x[at_hi] = self.hi[at_hi]
        x[self.basic] = self.b_inv @ (self.prep.b - self.prep.ax(x))
        return x

    def _refresh(self, c):
        """Recompute the iterate and reduced costs for the current basis."""
        self.x = self._compute_x()
        y = self.b_inv.T @ c[self.basic]
        self.d = c - self.prep.aty(y)
        self.d[self.basic] = 0.0

    def _refactor(self, c) -> bool:
        """Factor the basis and refresh from it; False if it is singular."""
        if not self._factor():
            return False
        self._refresh(c)
        return True

    def _w_col(self, q) -> np.ndarray:
        """Basis-transformed column B^-1 a_q."""
        prep = self.prep
        n = prep.n_struct
        if q < n:
            s, e = prep.col_ptr[q], prep.col_ptr[q + 1]
            return self.b_inv[:, prep.col_rows[s:e]] @ prep.col_vals[s:e]
        return self.b_inv[:, q - n].copy()

    def _alpha_row(self, binv_r) -> np.ndarray:
        """One tableau row: (B^-1 A)[r] across all columns."""
        prep = self.prep
        n = prep.n_struct
        alpha = np.empty(prep.ncols)
        alpha[:n] = (np.bincount(prep.cols_nz,
                                 weights=prep.vals_nz * binv_r[prep.rows_nz],
                                 minlength=n)
                     if prep.rows_nz.size else 0.0)
        alpha[n:] = binv_r
        return alpha

    def _pivot_d_update(self, alpha, q, piv):
        """Reduced costs after a basis exchange, from the old tableau row.

        Exact for every column: entering q goes to zero, columns basic both
        before and after stay zero, and the leaving column picks up -d_q/piv.
        Call after ``self.basic`` has been updated.
        """
        dq = self.d[q]
        if dq != 0.0:
            self.d -= (dq / piv) * alpha
        self.d[self.basic] = 0.0
        self.d[q] = 0.0

    def _exchange(self, r, q, w, alpha, step, to_lower, theta):
        """Basis exchange at position r: q enters, moved by ``step``, with
        w = B^-1 a_q and ``alpha`` the old tableau row r; the leaving column
        goes to its lower or upper bound.  A ratio-test step ``theta`` of
        about zero counts toward the switch to Bland's rule."""
        leaving = int(self.basic[r])
        self.x[self.basic] -= step * w
        self.x[q] += step
        self.x[leaving] = self.lo[leaving] if to_lower else self.hi[leaving]
        self.basic[r] = q
        self.status[q] = BASIC
        self.status[leaving] = AT_LOWER if to_lower else AT_UPPER
        self._pivot_d_update(alpha, q, w[r])
        self._update_b_inv(w, r)
        self.pivots += 1
        if theta <= DEGEN_STEP:
            self.degen += 1
            if self.degen >= BLAND_AFTER:
                self.bland = True

    # ----- start paths -----------------------------------------------------

    def _crash(self) -> bool:
        """All-slack basis, then structural picks, each made basic on a row
        no earlier pick touches: first every free column (the segment cost
        epigraphs), on the row where its entry is largest; then, on each
        row whose slack is fixed (an equality row), the nonbasic column
        whose entry there is largest.  Each pick's row is zero in the
        columns picked before it, so the basis is triangular."""
        prep = self.prep
        n, m = prep.n_struct, prep.m
        self.status = _default_status(self.lo, self.hi)
        self.basic = n + np.arange(m)
        touched = np.zeros(m, dtype=bool)
        picked = np.zeros(n, dtype=bool)

        def pick(j, r):
            self.basic[r] = j
            picked[j] = True
            touched[prep.col_rows[prep.col_ptr[j]:prep.col_ptr[j + 1]]] = True

        for j in np.flatnonzero(np.isneginf(self.lo[:n]) & np.isposinf(self.hi[:n])):
            s, e = prep.col_ptr[j], prep.col_ptr[j + 1]
            rows, mag = prep.col_rows[s:e], np.abs(prep.col_vals[s:e])
            open_rows = ~touched[rows] & (mag > 0.0)
            if open_rows.any():
                pick(j, rows[open_rows][np.argmax(mag[open_rows])])
        row_ptr = np.searchsorted(prep.rows_nz, np.arange(m + 1))  # entries are in row order
        for r in np.flatnonzero(self.lo[n:n + m] == self.hi[n:n + m]):
            if touched[r]:
                continue
            s, e = row_ptr[r], row_ptr[r + 1]
            mag = np.where(picked[prep.cols_nz[s:e]], 0.0, np.abs(prep.vals_nz[s:e]))
            if mag.size and mag.max() > 0.0:
                pick(prep.cols_nz[s + np.argmax(mag)], r)
        self.status[self.basic] = BASIC
        return self._factor()

    def _cold(self, c) -> str:
        return self._dual_start(c) if self._crash() else ITERATION_LIMIT

    def _load_warm(self) -> bool:
        warm = self.warm
        prep = self.prep
        if (warm.basic_idx.shape != (prep.m,) or warm.status.shape != (prep.ncols,)
                or len(np.unique(warm.basic_idx)) != prep.m):
            return False
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
        y = self.b_inv.T @ c[self.basic]
        d = c - self.prep.aty(y)
        movable = (self.lo < self.hi) & (self.status != BASIC)
        up = movable & ((self.status == AT_LOWER) | (self.status == FREE_ZERO)) & (d < -1e-6)
        down = movable & ((self.status == AT_UPPER) | (self.status == FREE_ZERO)) & (d > 1e-6)
        boxed = np.isfinite(self.lo) & np.isfinite(self.hi)
        self.status[up & boxed] = AT_UPPER
        self.status[down & boxed] = AT_LOWER
        status = self._dual(c + np.where((up | down) & ~boxed, -d, 0.0))
        if status != OPTIMAL:
            return status  # a row that proves infeasibility does so at any costs
        return self._primal(c)  # back to the true costs

    # ----- primal simplex --------------------------------------------------

    def _primal(self, c) -> str:
        prep = self.prep
        m = prep.m
        movable = self.lo < self.hi
        self._refresh(c)
        while True:
            if self.iters >= self.max_iters:
                return ITERATION_LIMIT
            if self.since_refactor >= REFACTOR_EVERY and not self._refactor(c):
                return ITERATION_LIMIT
            x, d = self.x, self.d
            nb = self.status != BASIC
            elig_inc = (nb & movable & (d < -DUAL_TOL)
                        & ((self.status == AT_LOWER) | (self.status == FREE_ZERO)))
            elig_dec = (nb & movable & (d > DUAL_TOL)
                        & ((self.status == AT_UPPER) | (self.status == FREE_ZERO)))
            elig = elig_inc | elig_dec
            if not elig.any():
                return OPTIMAL
            if self.bland:
                q = int(np.flatnonzero(elig)[0])
            else:
                score = np.where(elig, np.abs(d) / prep.col_scale, -1.0)
                q = int(np.argmax(score))
            s = 1.0 if elig_inc[q] else -1.0
            w = self._w_col(q)
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
                return UNBOUNDED
            self.iters += 1
            if span <= theta_basic:
                # the entering variable runs to its other bound: a bound flip
                x[self.basic] = xb - span * delta
                up = s > 0
                x[q] = self.hi[q] if up else self.lo[q]
                self.status[q] = AT_UPPER if up else AT_LOWER
                continue
            if self.bland:
                cands = np.flatnonzero(ratios <= theta_basic + 1e-12)
                r = int(cands[np.argmin(self.basic[cands])])
            else:
                # Harris: ``cap`` is the step with every bound relaxed by
                # HARRIS_TOL; the largest pivot blocking within it leaves
                with np.errstate(divide="ignore"):
                    cap = float((np.minimum(r_lo, r_hi) + HARRIS_TOL / np.abs(delta)).min())
                cands = np.flatnonzero(ratios <= max(theta_basic + 1e-12, min(cap, span)))
                r = int(cands[np.argmax(np.abs(delta[cands]))])
                theta_basic = float(ratios[r])
            alpha = self._alpha_row(self.b_inv[r].copy())
            self._exchange(r, q, w, alpha, s * theta_basic, delta[r] > 0, theta_basic)

    # ----- dual simplex ----------------------------------------------------

    def _dual(self, c) -> str:
        prep = self.prep
        movable = self.lo < self.hi
        self._refresh(c)
        while True:
            if self.iters >= self.max_iters:
                return ITERATION_LIMIT
            if self.since_refactor >= REFACTOR_EVERY and not self._refactor(c):
                return ITERATION_LIMIT
            x, d = self.x, self.d
            xb = x[self.basic]
            below = self.lo[self.basic] - xb
            above = xb - self.hi[self.basic]
            viol = np.maximum(below, above)
            worst = np.flatnonzero(viol > FEAS_TOL)
            if worst.size == 0:
                return OPTIMAL
            if self.bland:
                r = int(worst[np.argmin(self.basic[worst])])
            else:
                r = int(np.argmax(viol))
            is_below = below[r] >= above[r]
            alpha = self._alpha_row(self.b_inv[r].copy())
            nb = self.status != BASIC
            if is_below:
                elig = nb & movable & (
                    ((self.status == AT_LOWER) & (alpha < -PIVOT_TOL))
                    | ((self.status == AT_UPPER) & (alpha > PIVOT_TOL))
                    | ((self.status == FREE_ZERO) & (np.abs(alpha) > PIVOT_TOL)))
                denom = -alpha
            else:
                elig = nb & movable & (
                    ((self.status == AT_LOWER) & (alpha > PIVOT_TOL))
                    | ((self.status == AT_UPPER) & (alpha < -PIVOT_TOL))
                    | ((self.status == FREE_ZERO) & (np.abs(alpha) > PIVOT_TOL)))
                denom = alpha
            if not elig.any():
                if self.since_refactor == 0:
                    return INFEASIBLE
                # this row decides infeasibility: read it again from a
                # fresh factorization before trusting it
                if not self._refactor(c):
                    return ITERATION_LIMIT
                continue
            ratios = np.full(prep.ncols, np.inf)
            ratios[elig] = np.maximum(d[elig] / denom[elig], 0.0)
            theta = float(ratios.min())
            if self.bland:
                q = int(np.flatnonzero(ratios <= theta + 1e-12)[0])
            else:
                # Harris, as in the primal, with the reduced costs relaxed
                cap = float((d[elig] / denom[elig] + HARRIS_TOL / np.abs(alpha[elig])).min())
                cands = np.flatnonzero(ratios <= max(theta + 1e-12, cap))
                q = int(cands[np.argmax(np.abs(alpha[cands]))])
            w = self._w_col(q)
            leaving = self.basic[r]
            target = self.lo[leaving] if is_below else self.hi[leaving]
            self.iters += 1
            self._exchange(r, q, w, alpha, (xb[r] - target) / w[r], is_below, theta)

    # ----- driver ----------------------------------------------------------

    def solve(self) -> str:
        """Run to a final status; ``x`` then holds the iterate recomputed
        from a fresh factorization of the final basis.  A basis that fails
        to factor ends the run at once as ITERATION_LIMIT.

        An optimum that breaks rows the working rows leave out is not
        final: those rows join, and dual then primal simplex resume.  They
        are checked at the optimal iterate and once more at the recomputed
        one, so "none broken" is read from a fresh factorization."""
        if self.warm is not None:
            status = self._warm(self.prep.c)
        else:
            status = self._cold(self.prep.c)
        repairs = 0
        while self.b_inv is not None:
            if status == OPTIMAL and self._join_broken():
                status = self._resume() if self._factor() else ITERATION_LIMIT
                continue
            if self.since_refactor > 0 and not self._factor():
                break
            self.x = self._compute_x()
            if status != OPTIMAL:
                return status
            # the updated iterate can drift from the one the basis defines;
            # check the recomputed one before calling it optimal
            xb = self.x[self.basic]
            if np.all((xb >= self.lo[self.basic] - FEAS_TOL)
                      & (xb <= self.hi[self.basic] + FEAS_TOL)):
                if not self._join_broken():
                    return status
                status = self._resume() if self._factor() else ITERATION_LIMIT
                continue
            if repairs == 2:
                return ITERATION_LIMIT
            repairs += 1
            status = self._resume()
        return ITERATION_LIMIT

    def _resume(self) -> str:
        status = self._dual(self.prep.c)
        return self._primal(self.prep.c) if status == OPTIMAL else status

    def _join_broken(self) -> bool:
        """Move onto the working rows grown by every row left out that the
        iterate breaks, each new row holding its own slack basic; False if
        none is broken.  The grown basis still needs its factorization.

        The new slacks have zero cost, so the duals of the old rows stay
        and the new rows price at zero: an optimal basis stays dual
        feasible and dual simplex picks up from it."""
        old = self.prep
        if old.model is None:
            return False
        new = old.model._grow(self.x[:old.n_struct])
        if new is None:
            return False
        n = old.n_struct
        to_new = new.from_full[old.full_col]
        lo, hi = new.lo_template.copy(), new.hi_template.copy()
        lo[to_new], hi[to_new] = self.lo, self.hi
        status = _default_status(lo, hi)
        status[to_new] = self.status
        basic = n + np.arange(new.m)
        basic[new.from_full[n + old.rows] - n] = to_new[self.basic]
        status[basic] = BASIC
        x = np.zeros(new.ncols)
        x[to_new] = self.x  # the last iterate, if the grown basis fails to factor
        self.prep, self.lo, self.hi, self.basic, self.status = new, lo, hi, basic, status
        self.x = x
        self.b_inv = None  # the old inverse has the old shape
        return True
