"""Branch and bound over binary segment selectors with warm-started node LPs.

Node selection is best-bound alone: every node comes off one heap ordered
by its parent's LP bound, ties to the node made first.  Branching fixes the
single most fractional binary (ties broken by lowest variable index, which
the model builders lay out in unit, period, segment order).  Child LPs
restart from the parent's basis via dual simplex, reusing the basis inverse
it was returned with, rank-1 updates and all, and the root LP from the
caller's basis when one is given; the root LP's final basis comes back on
the solution with its inverse.  The caller may also hand in the prepared
LP, so that a sequence of searches on edited copies of one model keeps the
working rows the earlier ones found, and the next search's root reuses
this root's inverse across the edit.  A point becomes the incumbent only if
it meets every model row and bound, rows the LP left out of its working
set included; rows an LP optimum breaks join by a warm restart of the same
``PreparedLp.solve``, within one pivot and iteration budget.  The time
limit binds inside each node LP too.  The search is deterministic:
identical inputs explore identical trees.
"""

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .milp import BINARY, MilpModel, VarMap, _is_count, lp_relaxation
from .simplex import INFEASIBLE as LP_INFEASIBLE
from .simplex import OPTIMAL as LP_OPTIMAL
from .simplex import PreparedLp

OPTIMAL_WITHIN_GAP = "optimal_within_gap"
FEASIBLE_TIME_LIMIT = "feasible_time_limit"
MILP_INFEASIBLE = "infeasible"

PRUNE_EPS = 1e-9
INCUMBENT_TOL = 1e-6


@dataclass(frozen=True)
class BnbConfig:
    gap: float = 1e-4
    time_limit_s: float | None = 300.0
    node_limit: int | None = None
    int_tol: float = 1e-6
    use_heuristic: bool = True
    log_stream: object = None

    def __post_init__(self):
        for name in ("gap", "int_tol"):
            if not getattr(self, name) >= 0:  # NaN too
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.time_limit_s is not None and not self.time_limit_s >= 0:
            raise ValidationError(f"time_limit_s must be >= 0 or None, got {self.time_limit_s}")
        if self.node_limit is not None and not _is_count(self.node_limit, least=0):
            raise ValidationError(f"node_limit must be an int >= 0 or None, "
                                  f"got {self.node_limit!r}")


@dataclass(frozen=True)
class MilpSolution:
    """Outcome of a branch-and-bound search.

    ``status`` is ``infeasible`` whenever the search ends with no incumbent,
    including when a time or node limit stops it first; ``limit_hit`` tells
    that case apart from a proof of infeasibility.
    """

    status: str
    values: np.ndarray | None
    objective: float
    best_bound: float
    rel_gap: float
    nodes_explored: int
    wall_time_s: float
    limit_hit: bool
    node_log: tuple
    root_basis: object = field(default=None, repr=False, compare=False)

    @property
    def has_incumbent(self) -> bool:
        return self.values is not None


@dataclass
class _Node:
    seq: int
    depth: int
    bound: float
    lower: np.ndarray
    upper: np.ndarray
    basis: object = None

    def __lt__(self, other):
        return (self.bound, self.seq) < (other.bound, other.seq)


def rounding_heuristic(lp_values, varmap: VarMap) -> dict:
    """Segment fixing suggested by a fractional LP point: for every unit and
    period pick the selector with the largest value (ties to the lowest
    segment).  Returns ``{binary var index: 0 or 1}``."""
    values = np.asarray(lp_values, dtype=float)
    plan = {}
    for i in range(varmap.n_units):
        for t in range(varmap.n_periods):
            idxs = varmap.u_seg[i][t]
            best = int(np.argmax([values[j] for j in idxs]))
            for j, idx in enumerate(idxs):
                plan[idx] = 1 if j == best else 0
    return plan


def _meets_model(prep, values, lo0, hi0) -> bool:
    """Whether an LP point meets every model row (scaled, rows the LP left
    out of its working set included) and every variable bound."""
    return bool(prep.row_violation(values).max(initial=0.0) <= INCUMBENT_TOL
                and np.all(values >= lo0 - INCUMBENT_TOL)
                and np.all(values <= hi0 + INCUMBENT_TOL))


def solve_milp(model: MilpModel, varmap: VarMap | None = None,
               config: BnbConfig | None = None, warm_start=None, *,
               prepared: PreparedLp | None = None) -> MilpSolution:
    """Minimize a MILP with binary variables by LP-based branch and bound.

    ``varmap`` enables the segment-rounding incumbent heuristic; pass None
    for a generic model.  ``warm_start`` is a model-shape ``Basis`` for the
    root LP; the root LP's optimal basis is returned as ``root_basis``, with
    the inverse it carries (see ``simplex.Basis``), which a root LP of the
    caller's prepared model, edited once since, reuses.
    ``prepared`` is ``PreparedLp(lp_relaxation(model))``, or one edited to
    match it, made by the caller so that its working rows carry over from
    one search to the next; None prepares the model here.

    A search that a limit stops before any incumbent returns status
    ``infeasible`` with ``limit_hit`` True; only ``limit_hit`` False makes
    ``infeasible`` a proof.

    Otherwise the status is ``optimal_within_gap`` when the search closed
    its gap on the incumbent it found.  ``objective`` and ``rel_gap`` are
    read after the incumbent's binaries are snapped to exact integers,
    which may re-solve the LP at a slightly higher cost, so ``rel_gap`` can
    exceed the configured gap under that status.
    """
    config = config or BnbConfig()
    start = time.perf_counter()
    deadline = None if config.time_limit_s is None else start + config.time_limit_s
    a = model.arrays
    bin_idx = np.flatnonzero(a.kind == BINARY)
    if prepared is None:
        prep = PreparedLp(lp_relaxation(model))
    elif (prepared.n_struct, prepared.m) != (model.n_variables, model.n_constraints):
        raise ValidationError(
            f"prepared model has {prepared.n_struct} columns and {prepared.m} rows, "
            f"the model {model.n_variables} and {model.n_constraints}")
    else:
        prep = prepared
    lo0, hi0 = a.lb, a.ub

    incumbent_vals = None
    incumbent_obj = np.inf
    best_bound = -np.inf
    nodes = 0
    node_log = []
    heap = []
    seq_counter = 0
    limit_hit = False
    root_basis = None

    def log_node(depth):
        entry = (nodes, depth, best_bound, incumbent_obj)
        node_log.append(entry)
        if config.log_stream is not None:
            config.log_stream.write(
                f"node {entry[0]} depth {entry[1]} bound {entry[2]:.6f} "
                f"incumbent {entry[3]:.6f}\n")

    def open_bound_floor():
        return heap[0].bound if heap else np.inf

    root = _Node(seq=seq_counter, depth=0, bound=-np.inf, lower=lo0, upper=hi0,
                 basis=warm_start)
    seq_counter += 1
    heapq.heappush(heap, root)

    while heap:
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - PRUNE_EPS:
            continue
        if deadline is not None and time.perf_counter() >= deadline:
            limit_hit = True
            break
        if config.node_limit is not None and nodes >= config.node_limit:
            limit_hit = True
            break

        sol = prep.solve(lower=node.lower, upper=node.upper, warm_start=node.basis,
                         deadline=deadline)
        nodes += 1
        if sol.status == LP_INFEASIBLE:
            best_bound = min(max(best_bound, open_bound_floor()), incumbent_obj)
            log_node(node.depth)
            continue
        if sol.status != LP_OPTIMAL:
            # could not resolve the node; treat like hitting a limit
            limit_hit = True
            log_node(node.depth)
            break

        if nodes == 1:
            root_basis = sol.basis
        obj = sol.objective
        if obj < incumbent_obj - PRUNE_EPS:
            vals = sol.values[bin_idx] if bin_idx.size else np.array([])
            frac = np.abs(vals - np.round(vals))
            if bin_idx.size == 0 or frac.max(initial=0.0) <= config.int_tol:
                if not _meets_model(prep, sol.values, lo0, hi0):
                    # an "optimal" point that breaks the model resolves nothing
                    limit_hit = True
                    log_node(node.depth)
                    break
                incumbent_vals = np.asarray(sol.values, dtype=float).copy()
                incumbent_obj = obj
            else:
                if nodes == 1 and config.use_heuristic and varmap is not None:
                    plan = rounding_heuristic(sol.values, varmap)
                    h_lo = node.lower.copy()
                    h_hi = node.upper.copy()
                    for idx, val in plan.items():
                        h_lo[idx] = h_hi[idx] = float(val)
                    h_sol = prep.solve(lower=h_lo, upper=h_hi, warm_start=sol.basis,
                                       deadline=deadline)
                    if (h_sol.status == LP_OPTIMAL
                            and h_sol.objective < incumbent_obj - PRUNE_EPS
                            and _meets_model(prep, h_sol.values, lo0, hi0)):
                        incumbent_vals = np.asarray(h_sol.values, dtype=float).copy()
                        incumbent_obj = h_sol.objective
                # branch on the most fractional binary
                dist = np.minimum(vals, 1.0 - vals)
                b = int(np.argmax(dist))
                var = int(bin_idx[b])
                for fix in (0.0, 1.0):
                    child_lo = node.lower.copy()
                    child_hi = node.upper.copy()
                    child_lo[var] = child_hi[var] = fix
                    heapq.heappush(heap, _Node(seq=seq_counter, depth=node.depth + 1, bound=obj,
                                               lower=child_lo, upper=child_hi, basis=sol.basis))
                    seq_counter += 1

        best_bound = min(max(best_bound, open_bound_floor()), incumbent_obj)
        log_node(node.depth)

        if np.isfinite(incumbent_obj):
            rel = abs(incumbent_obj - best_bound) / max(1e-10, abs(incumbent_obj))
            if rel <= config.gap:
                break

    if not heap and not limit_hit:
        best_bound = incumbent_obj

    wall = time.perf_counter() - start
    if incumbent_vals is None:
        status = MILP_INFEASIBLE
        objective = np.inf
        rel_gap = np.inf
    else:
        # the search's own gap decides the status; the snap's cost shows
        # only in the objective and gap reported
        searched = abs(incumbent_obj - best_bound) / max(1e-10, abs(incumbent_obj))
        status = OPTIMAL_WITHIN_GAP if searched <= config.gap else FEASIBLE_TIME_LIMIT
        incumbent_vals, objective = _snap_binaries(
            prep, bin_idx, lo0, hi0, incumbent_vals, incumbent_obj)
        rel_gap = abs(objective - best_bound) / max(1e-10, abs(objective))
        incumbent_vals.setflags(write=False)
    best_bound = min(best_bound, objective)
    return MilpSolution(status=status, values=incumbent_vals, objective=objective,
                        best_bound=best_bound, rel_gap=rel_gap, nodes_explored=nodes,
                        wall_time_s=wall, limit_hit=limit_hit, node_log=tuple(node_log),
                        root_basis=root_basis)


def _snap_binaries(prep, bin_idx, lo0, hi0, values, objective):
    """Re-solve with the incumbent's binaries pinned at exact integers when
    they are only integral to tolerance, so downstream audits see clean
    selector values."""
    if bin_idx.size == 0:
        return values, objective
    rounded = np.round(values[bin_idx])
    if np.abs(values[bin_idx] - rounded).max(initial=0.0) <= 1e-9:
        values[bin_idx] = rounded
        return values, objective
    lo = lo0.copy()
    hi = hi0.copy()
    lo[bin_idx] = hi[bin_idx] = rounded
    sol = prep.solve(lower=lo, upper=hi)
    if sol.status == LP_OPTIMAL and _meets_model(prep, sol.values, lo0, hi0):
        return np.asarray(sol.values, dtype=float).copy(), sol.objective
    return values, objective
