"""Dynamic economic dispatch with prohibited operating zones.

Schedules generator outputs over a horizon at minimum quadratic fuel cost,
honoring forbidden output bands, ramp limits, and spinning reserve, with an
optional quadratic network-loss model handled by successive linearization.
Everything runs on a built-in bounded-variable simplex and branch-and-bound
core; the only runtime dependency is numpy.
"""

from .bnb import BnbConfig, MilpSolution, rounding_heuristic, solve_milp
from .engine import (DispatchReport, IaConfig, IaIteration, midpoint_anchor,
                     solve_ded_no_loss, solve_ded_with_loss)
from .errors import (EnumerationCapError, InfeasibleError, SolveLimitError,
                     ValidationError)
from .io import (duplicate_system, load_instance, parse_instance,
                 read_schedule_csv, save_instance, scaled_cpu_time,
                 write_report_json, write_schedule_csv)
from .milp import (MilpModel, TangentPlan, VarMap, build_milp1, build_milp2,
                   lp_relaxation, tangent_cut, tangent_gap_bound)
from .oracle import dp_exact_dispatch, enumerate_assignments
from .simplex import LpSolution, PreparedLp, solve_lp
from .system import (FeasibilityReport, GeneratingUnit, LossModel,
                     OperatingSegment, Schedule, SystemInstance,
                     derive_segments, evaluate_cost, evaluate_loss_mw,
                     evaluate_violations)

__version__ = "0.1.0"

__all__ = [
    "BnbConfig", "DispatchReport", "EnumerationCapError", "FeasibilityReport",
    "GeneratingUnit", "IaConfig", "IaIteration", "InfeasibleError",
    "LossModel", "LpSolution", "MilpModel", "MilpSolution",
    "OperatingSegment", "PreparedLp", "Schedule", "SolveLimitError",
    "SystemInstance",
    "TangentPlan", "ValidationError", "VarMap", "build_milp1", "build_milp2",
    "derive_segments", "dp_exact_dispatch", "duplicate_system",
    "enumerate_assignments", "evaluate_cost", "evaluate_loss_mw",
    "evaluate_violations", "load_instance", "lp_relaxation",
    "midpoint_anchor", "parse_instance", "read_schedule_csv",
    "rounding_heuristic", "save_instance", "scaled_cpu_time", "solve_lp",
    "solve_milp", "solve_ded_no_loss", "solve_ded_with_loss", "tangent_cut",
    "tangent_gap_bound", "write_report_json", "write_schedule_csv",
]
