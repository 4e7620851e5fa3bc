"""Correctness checks on every solve, run after the timed window.

The functions are bound at import, before any tracing patch is applied, so
checks never show up in the traced spans.  Each check returns a list of
problems; an empty list means the solve is correct.  Comparisons are
written so that a NaN fails them.
"""

from dedpoz import dp_exact_dispatch, evaluate_violations, tangent_gap_bound
from dedpoz.oracle import dp_error_bound

from workloads import LOSSY, equal_split_cost

AUDIT_TOL = 1e-6
DP_DELTA = 0.05
LADDER_REL = 1e-3
SPLIT_REL = 5e-4
SANDWICH_TOL = 1e-6  # absorbs rounding in the objective sum; no model slack


def audit_problems(case, report) -> list:
    """Solver status and the schedule audit against the generated data."""
    problems = []
    milp = report.milp
    if milp.status != "optimal_within_gap" or milp.limit_hit:
        problems.append(f"milp status {milp.status}, limit hit {milp.limit_hit}")
    audit = evaluate_violations(case.instance, report.schedule,
                                use_loss=case.mode == LOSSY, tol=AUDIT_TOL)
    if not audit.feasible:
        problems.append("schedule fails the audit at 1e-6")
    return problems


class DpOracle:
    """Grid-DP optimum per instance, computed once however often it is solved."""

    def __init__(self):
        self._cost = {}

    def problems(self, case, report) -> list:
        if case.label not in self._cost:
            self._cost[case.label] = dp_exact_dispatch(case.instance, DP_DELTA)[0]
        dp_cost = self._cost[case.label]
        slack = case.config.gap * report.cost + dp_error_bound(case.instance, DP_DELTA)
        if not abs(report.cost - dp_cost) <= slack:
            return [f"cost {report.cost} vs grid DP {dp_cost}, allowed {slack}"]
        return []


def ladder_problems(case, report, base_cost) -> list:
    expected = case.copies * base_cost
    if not abs(report.cost - expected) <= LADDER_REL * abs(expected):
        return [f"cost {report.cost} is not {case.copies} x base {base_cost}"]
    return []


def base_problems(base, base_cost) -> list:
    analytic = equal_split_cost(base)
    if not abs(base_cost - analytic) <= SPLIT_REL * abs(analytic):
        return [f"base cost {base_cost} is not the equal split {analytic}"]
    return []


def lossy_problems(case, report) -> list:
    cfg = case.config
    excess = report.cost - report.surrogate_objective
    bound = (tangent_gap_bound(case.instance, report.schedule, cfg.tangent_steps)
             + cfg.gap * report.cost)
    problems = []
    if not -SANDWICH_TOL * abs(report.cost) <= excess <= bound:
        problems.append(f"cost - surrogate {excess} outside [0, {bound}]")
    if report.terminated_by == "epsilon" and not report.max_violation < cfg.epsilon:
        problems.append(f"converged with violation {report.max_violation}")
    return problems


def failed_samples(workload, samples, ladder_base_cost) -> dict:
    """Problems found, keyed by the index of the failed sample."""
    oracle = DpOracle()
    failures = {}
    for k, sample in enumerate(samples):
        if sample.error is not None:
            failures[k] = [sample.error]
            continue
        case, report = sample.case, sample.report
        problems = audit_problems(case, report)
        if workload == "small_batch":
            problems += oracle.problems(case, report)
        elif workload == "fleet_ladder":
            problems += ladder_problems(case, report, ladder_base_cost)
        else:
            problems += lossy_problems(case, report)
        if problems:
            failures[k] = problems
    return failures
