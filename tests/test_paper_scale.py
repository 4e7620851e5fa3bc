"""MILP-1 and one MILP-2 pass at the paper's day-ahead horizon, against HiGHS.

The instances are the benchmark's ``lossy_instance`` recipe
(``perfbench/workloads.py``) at 10 to 20 units and 24 periods, where MILP-1
has 4 252 to 10 136 rows and each root LP joins lazy tangent cuts across
thousands of pivots.  Together they take most of a minute on two cores,
with HiGHS, so they are marked ``paper_scale``:
the default run deselects them (``addopts`` in ``pyproject.toml``) and
``pytest -m paper_scale`` runs them.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dedpoz import BnbConfig, build_milp1, build_milp2, evaluate_violations, solve_milp
from dedpoz.bnb import OPTIMAL_WITHIN_GAP
from dedpoz.milp import DEFAULT_TANGENT_STEPS
from support import highs_milp

pytestmark = pytest.mark.paper_scale

PERIODS = 24
CASES = [(10, 1), (10, 3), (15, 5), (20, 7), (20, 8)]  # (units, seed)


def lossy_instance(seed, n_units):
    """``workloads.lossy_instance`` at ``seed``, read from the benchmark's
    own file so that the recipe cannot drift from it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("paper_scale_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.lossy_instance(np.random.default_rng(seed), n_units, PERIODS)


def check_against_highs(model, varmap, instance, config, *, lossless):
    """Solve ``model``: the status must match HiGHS's, the surrogate lie
    within the gap of its optimum, and the schedule pass the audit (the
    balance too for MILP-1, whose rows are the lossless balance itself).
    Returns the schedule."""
    sol = solve_milp(model, varmap, config)
    status, objective = highs_milp(model)
    assert status == "optimal"  # feasible by construction
    assert sol.status == OPTIMAL_WITHIN_GAP and not sol.limit_hit
    assert abs(sol.objective - objective) <= config.gap * abs(objective) + 1e-9
    schedule = varmap.extract_schedule(sol.values)
    audit = evaluate_violations(instance, schedule, use_loss=not lossless)
    assert audit.feasible
    if lossless:
        assert audit.max_violation <= audit.tol
    return schedule


@pytest.mark.parametrize("n_units, seed", CASES, ids=[f"{n}x24-seed{s}" for n, s in CASES])
def test_milp1_and_one_milp2_pass_match_highs_at_paper_scale(n_units, seed):
    pytest.importorskip("scipy")
    instance = lossy_instance(seed, n_units)
    config = BnbConfig()
    model, varmap = build_milp1(instance)
    schedule = check_against_highs(model, varmap, instance, config, lossless=True)
    # one loss pass, anchored at the MILP-1 schedule
    model, varmap = build_milp2(instance, DEFAULT_TANGENT_STEPS, schedule.p)
    check_against_highs(model, varmap, instance, config, lossless=False)
