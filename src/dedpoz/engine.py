"""Dispatch drivers tying the model builders to the branch-and-bound core.

Two entry points: a single-shot solve for lossless systems, and an
anchor-refinement loop for systems with a quadratic network-loss model.  The
loop alternates between solving a linearized problem and re-anchoring the
loss cut at a blend of the last two dispatches until the power balance checks
out against the true loss at every period.  Every pass is one model in
MILP-2's layout, with the loss terms switched off in pass 1: it is built and
prepared once, and each later pass rewrites the prepared LP's loss-cut and
balance rows and loss bounds in place, so the LP rows found in earlier
passes stay.  Each pass's root LP starts from the previous pass's root
basis as it is, and only the first pass starts cold.
"""

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .bnb import MILP_INFEASIBLE, BnbConfig, MilpSolution, solve_milp
from .milp import _check_count, _reanchor, build_milp1, build_milp2, lp_relaxation
from .simplex import PreparedLp
from .system import (FeasibilityReport, Schedule, SystemInstance,
                     evaluate_cost, evaluate_violations)
from .errors import InfeasibleError, SolveLimitError, ValidationError


@dataclass(frozen=True)
class IaConfig:
    """Knobs for the dispatch drivers."""
    epsilon: float = 0.1
    iter_max: int = 5
    tangent_steps: int = 4
    gap: float = 1e-4
    time_limit_s: float | None = 300.0  # None: no limit
    node_limit: int | None = None

    def __post_init__(self):
        if not self.epsilon > 0:  # NaN too
            raise ValidationError(f"epsilon must be > 0, got {self.epsilon}")
        _check_count(self.iter_max, "iter_max")
        _check_count(self.tangent_steps, "tangent_steps")
        self._bnb()  # validates gap, time_limit_s and node_limit

    def _bnb(self) -> BnbConfig:
        """The branch-and-bound settings of every MILP solve."""
        return BnbConfig(gap=self.gap, time_limit_s=self.time_limit_s,
                         node_limit=self.node_limit)


@dataclass(frozen=True)
class IaIteration:
    """One pass of the refinement loop."""
    k: int
    anchor: np.ndarray | None
    objective: float
    max_balance_error: float
    balance_error: np.ndarray
    solve_time_s: float
    nodes: int


@dataclass(frozen=True)
class DispatchReport:
    schedule: Schedule
    cost: float
    surrogate_objective: float
    losses: np.ndarray
    audit: FeasibilityReport
    milp: MilpSolution
    iterations: list[IaIteration] = field(default_factory=list)
    terminated_by: str | None = None
    chosen_k: int | None = None

    @property
    def violations(self) -> np.ndarray:
        """Per-period balance mismatch of the returned schedule."""
        return self.audit.balance_violation

    @property
    def max_violation(self) -> float:
        return self.audit.max_violation


def midpoint_anchor(p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    return 0.5 * (np.asarray(p_a, dtype=float) + np.asarray(p_b, dtype=float))


def _diagnose_infeasibility(instance: SystemInstance) -> str | None:
    """Cheap necessary-condition screen; names the first failing period."""
    cap = instance.p_maxs.sum()
    floor = instance.p_mins.sum()
    ramp_room = instance.ramp_ups.sum()
    for t in range(instance.n_periods):
        d = instance.demand[t]
        if cap < d - 1e-9:
            return f"period {t + 1}: total capacity {cap:g} MW cannot meet demand {d:g} MW"
        if floor > d + 1e-9:
            return f"period {t + 1}: total minimum output {floor:g} MW exceeds demand {d:g} MW"
        room = min(cap - d, ramp_room)
        if room < instance.reserve[t] - 1e-9:
            return (f"period {t + 1}: at most {room:g} MW of reserve is "
                    f"available but {instance.reserve[t]:g} MW is required")
    return None


def _run_milp(model, varmap, config: IaConfig, what: str, warm_start=None, prepared=None):
    """Solve one MILP.  Returns ``(solution, root basis, seconds)``; the
    solution does not keep the basis, so reports do not either."""
    started = time.perf_counter()
    sol = solve_milp(model, varmap=varmap, warm_start=warm_start, config=config._bnb(),
                     prepared=prepared)
    elapsed = time.perf_counter() - started
    if sol.status == MILP_INFEASIBLE:
        if sol.limit_hit:
            raise SolveLimitError(
                f"{what}: a limit stopped the search before any feasible dispatch")
        raise InfeasibleError(f"{what}: no feasible dispatch exists")
    return dataclasses.replace(sol, root_basis=None), sol.root_basis, elapsed


def solve_ded_no_loss(instance: SystemInstance,
                      config: IaConfig | None = None) -> DispatchReport:
    """Minimum-cost schedule for a lossless system."""
    config = config or IaConfig()
    reason = _diagnose_infeasibility(instance)
    if reason is not None:
        raise InfeasibleError(reason)
    model, varmap = build_milp1(instance, tangent_steps=config.tangent_steps)
    sol, _, elapsed = _run_milp(model, varmap, config, "lossless dispatch")
    schedule = varmap.extract_schedule(sol.values)
    audit = evaluate_violations(instance, schedule, use_loss=False)
    cost = evaluate_cost(instance, schedule)
    it = IaIteration(k=1, anchor=None, objective=sol.objective,
                     max_balance_error=audit.balance_violation.max(initial=0.0),
                     balance_error=audit.balance_violation,
                     solve_time_s=elapsed, nodes=sol.nodes_explored)
    return DispatchReport(schedule=schedule, cost=cost,
                          surrogate_objective=sol.objective,
                          losses=np.zeros(instance.n_periods),
                          audit=audit, milp=sol, iterations=[it])


def solve_ded_with_loss(instance: SystemInstance,
                        config: IaConfig | None = None) -> DispatchReport:
    """Anchor-refinement dispatch for a system with a quadratic loss model.

    Pass 1 switches the loss terms off to get a starting dispatch; pass 2
    linearizes the loss around it.  Each later pass re-anchors at the
    midpoint of the two previous dispatches and stops once every period's
    generation matches demand plus the true loss to within
    ``config.epsilon`` MW.  If the iteration budget runs out, the best
    pass-3-or-later dispatch (smallest worst-period mismatch) is returned.
    """
    config = config or IaConfig()
    if instance.loss_model is None:
        raise ValidationError("instance has no loss model; use solve_ded_no_loss")
    reason = _diagnose_infeasibility(instance)
    if reason is not None:
        raise InfeasibleError(reason)

    iterations: list[IaIteration] = []
    passes = []  # (k, schedule, MILP solution, audit) per pass
    model, varmap = build_milp2(instance, config.tangent_steps, None)
    prep = PreparedLp(lp_relaxation(model))
    basis = None

    def run_pass(k, anchor):
        nonlocal model, basis
        if anchor is not None:
            model, rows = _reanchor(model, varmap, instance, anchor)
            prep._edit(model, rows, varmap.loss_quad)
        sol, basis, elapsed = _run_milp(
            model, varmap, config, f"pass {k}" if k > 1 else "pass 1 (lossless)", basis, prep)
        sched = varmap.extract_schedule(sol.values)
        audit = evaluate_violations(instance, sched, use_loss=True)
        iterations.append(IaIteration(
            k=k, anchor=None if anchor is None else np.array(anchor, copy=True),
            objective=sol.objective, max_balance_error=audit.max_violation,
            balance_error=audit.balance_violation, solve_time_s=elapsed,
            nodes=sol.nodes_explored))
        passes.append((k, sched, sol, audit))
        return sched.p

    p_prev2 = run_pass(1, None)
    p_prev1 = run_pass(2, p_prev2)
    terminated_by = "iter_max"
    for k in range(3, config.iter_max + 1):
        p = run_pass(k, midpoint_anchor(p_prev2, p_prev1))
        if iterations[-1].max_balance_error < config.epsilon:
            terminated_by = "epsilon"
            break
        p_prev2, p_prev1 = p_prev1, p

    if terminated_by == "epsilon" or len(passes) == 2:
        # iter_max < 3 leaves only the pass-2 dispatch to fall back on
        chosen = passes[-1]
    else:
        chosen = min(passes[2:], key=lambda c: iterations[c[0] - 1].max_balance_error)

    chosen_k, schedule, milp_sol, audit = chosen
    cost = evaluate_cost(instance, schedule)
    return DispatchReport(schedule=schedule, cost=cost,
                          surrogate_objective=milp_sol.objective,
                          losses=audit.losses, audit=audit, milp=milp_sol,
                          iterations=iterations, terminated_by=terminated_by,
                          chosen_k=chosen_k)
