"""Command-line front end.

Exit codes: 0 solved or audited, 2 problem infeasible, 3 bad input,
4 limits hit before the balance tolerance was met or before any feasible
dispatch was found.
"""

import argparse
import json
import sys

from .bnb import FEASIBLE_TIME_LIMIT
from .engine import IaConfig, solve_ded_no_loss, solve_ded_with_loss
from .errors import InfeasibleError, SolveLimitError, ValidationError
from .io import (CSV_AUDIT_TOL, audit_checks, duplicate_system,
                 feasibility_to_dict, load_instance, read_schedule_csv,
                 write_report_json, write_schedule_csv)
from .system import evaluate_violations

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_LIMITS = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dedpoz",
        description="Dynamic economic dispatch with prohibited operating zones.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance and emit the schedule")
    solve.add_argument("--instance", required=True, help="instance JSON file")
    solve.add_argument("--mode", choices=["milp1", "milp-ia"], default="milp1",
                       help="milp1 ignores losses; milp-ia runs the "
                            "loss-refinement loop (default: milp1)")
    solve.add_argument("--epsilon", type=float, default=0.1,
                       help="per-period balance tolerance in MW (default 0.1)")
    solve.add_argument("--max-iter", type=int, default=5,
                       help="refinement pass budget (default 5)")
    solve.add_argument("--tangents", type=int, default=4,
                       help="tangent cuts per segment (default 4)")
    solve.add_argument("--gap", type=float, default=1e-4,
                       help="relative optimality gap (default 1e-4)")
    solve.add_argument("--time-limit", type=float, default=300.0,
                       help="seconds per MILP solve (default 300)")
    solve.add_argument("--schedule-out", help="write the schedule CSV here")
    solve.add_argument("--report-out", help="write the solve report JSON here")
    solve.add_argument("--seed", type=int, default=None,
                       help="accepted for interface stability; the solver "
                            "has no randomized tie-breaks")
    solve.set_defaults(func=_cmd_solve)

    validate = sub.add_parser("validate", help="parse and lint an instance file")
    validate.add_argument("--instance", required=True)
    validate.set_defaults(func=_cmd_validate)

    audit = sub.add_parser("audit",
                           help="check a schedule CSV against an instance")
    audit.add_argument("--instance", required=True)
    audit.add_argument("--schedule", required=True, help="schedule CSV file")
    audit.set_defaults(func=_cmd_audit)

    bench = sub.add_parser("bench",
                           help="solve duplicated copies of an instance")
    bench.add_argument("--instance", required=True)
    bench.add_argument("--duplicate-factors", default="2,5",
                       help="comma-separated integers (default 2,5)")
    bench.add_argument("--gap", type=float, default=1e-4)
    bench.add_argument("--time-limit", type=float, default=300.0)
    bench.add_argument("--tangents", type=int, default=4)
    bench.set_defaults(func=_cmd_bench)
    return parser


def _ia_config(args) -> IaConfig:
    return IaConfig(epsilon=args.epsilon, iter_max=args.max_iter,
                    tangent_steps=args.tangents, gap=args.gap,
                    time_limit_s=args.time_limit)


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    config = _ia_config(args)
    if args.mode == "milp-ia":
        if instance.loss_model is None:
            print("error: --mode milp-ia needs an instance with a loss model",
                  file=sys.stderr)
            return EXIT_INPUT
        report = solve_ded_with_loss(instance, config)
    else:
        report = solve_ded_no_loss(instance, config)

    print(f"cost: {report.cost:.4f} $")
    print(f"surrogate objective: {report.surrogate_objective:.4f} $")
    print(f"max balance violation: {report.max_violation:.6f} MW")
    failed = [name for name, ok in audit_checks(report.audit).items() if not ok]
    print(f"audit: FAILED ({', '.join(failed)})" if failed else "audit: feasible")
    if report.terminated_by is not None:
        print(f"terminated by: {report.terminated_by} "
              f"(pass {report.chosen_k} of {len(report.iterations)})")
    print(f"milp status: {report.milp.status}, "
          f"nodes {report.milp.nodes_explored}, "
          f"gap {report.milp.rel_gap:.2e}")
    if args.schedule_out:
        write_schedule_csv(args.schedule_out, instance, report.schedule)
        print(f"schedule written to {args.schedule_out}")
    if args.report_out:
        write_report_json(report, args.report_out)
        print(f"report written to {args.report_out}")

    hit_limits = (report.milp.status == FEASIBLE_TIME_LIMIT
                  or report.milp.limit_hit
                  or report.terminated_by == "iter_max")
    return EXIT_LIMITS if hit_limits else EXIT_OK


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    n_segments = sum(len(s) for s in instance.segments)
    loss = "with" if instance.loss_model is not None else "without"
    print(f"ok: {instance.n_units} units, {instance.n_periods} periods, "
          f"{n_segments} operating segments, {loss} loss model")
    return EXIT_OK


def _cmd_audit(args) -> int:
    instance = load_instance(args.instance)
    schedule = read_schedule_csv(args.schedule, instance)
    audit = evaluate_violations(instance, schedule, tol=CSV_AUDIT_TOL)
    print(json.dumps(feasibility_to_dict(audit), indent=2))
    return EXIT_OK


def _cmd_bench(args) -> int:
    import time

    instance = load_instance(args.instance)
    try:
        factors = [int(v) for v in args.duplicate_factors.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(
            f"--duplicate-factors must be comma-separated integers, "
            f"got {args.duplicate_factors!r}")
    if not factors or any(f < 1 for f in factors):
        raise ValidationError("--duplicate-factors needs integers >= 1")

    config = IaConfig(tangent_steps=args.tangents, gap=args.gap,
                      time_limit_s=args.time_limit)
    print(f"{'factor':>6} {'units':>6} {'cost':>14} {'nodes':>7} {'time_s':>8}")
    base_cost = None
    for factor in [1] + factors:
        work = duplicate_system(instance, factor)
        started = time.perf_counter()
        report = solve_ded_no_loss(work, config)
        elapsed = time.perf_counter() - started
        note = ""
        if factor == 1:
            base_cost = report.cost
        elif base_cost:
            note = f"  ({report.cost / (factor * base_cost):.6f} x scaled base)"
        print(f"{factor:>6} {work.n_units:>6} {report.cost:>14.4f} "
              f"{report.milp.nodes_explored:>7} {elapsed:>8.3f}{note}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report those as input errors
        code = exc.code or 0
        return EXIT_INPUT if code != 0 else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolveLimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMITS


if __name__ == "__main__":
    sys.exit(main())
