"""Fixed-work digest scan: one line per benchmark case, with a hash of
everything a change that claims to keep every bit must leave the same.

Run from the root of a checkout:

    python3 tools/fixed_work_scan.py > after.txt
    python3 tools/fixed_work_scan.py --seeds 1      # the first seed of each workload

The cases are the benchmark's own (``perfbench/workloads.py``):
``small_batch`` seeds 100-119, ``fleet_ladder`` seeds 1-15 and
``lossy_refine`` seeds 1-15, each case solved once.  A line reads
``workload seed label digest``, the digest a SHA-256 over every LP the
solve ran (status, pivots, iterations, objective bits), every MILP's node
log, the schedule's bytes, the cost and surrogate objective bits,
``terminated_by``, ``chosen_k`` and the number of passes.  Two checkouts
do the same work exactly when ``cmp`` finds their outputs equal, on the
same machine and numpy build.  BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` is set, so that thread timing cannot change a
sum's order.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from dedpoz import engine, simplex, solve_ded_no_loss, solve_ded_with_loss  # noqa: E402

import workloads  # noqa: E402

SEEDS = {"small_batch": range(100, 120), "fleet_ladder": range(1, 16),
         "lossy_refine": range(1, 16)}


def cases(workload, seed) -> list:
    rng = np.random.default_rng(seed)
    if workload == "fleet_ladder":
        return workloads.fleet_ladder(rng)[1]
    return getattr(workloads, workload)(rng)


class Recorder:
    """Wraps ``PreparedLp.solve`` and the engine's ``solve_milp`` to feed
    every LP's outcome and every node log into one hash per case."""

    def __init__(self):
        self.hash = hashlib.sha256()
        lp_solve, milp_solve = simplex.PreparedLp.solve, engine.solve_milp

        def solve(prep, *args, **kwargs):
            sol = lp_solve(prep, *args, **kwargs)
            self.add("lp", sol.status, sol.pivots, sol.iterations, float(sol.objective).hex())
            return sol

        def solve_milp(*args, **kwargs):
            sol = milp_solve(*args, **kwargs)
            self.add("nodes", *(float(v).hex() for entry in sol.node_log for v in entry))
            return sol

        simplex.PreparedLp.solve = solve
        engine.solve_milp = solve_milp

    def add(self, *fields):
        self.hash.update(repr(fields).encode())

    def digest(self, case) -> str:
        solve = solve_ded_with_loss if case.mode == workloads.LOSSY else solve_ded_no_loss
        self.hash = hashlib.sha256()
        report = solve(case.instance, case.config)
        schedule = report.schedule
        self.hash.update(np.ascontiguousarray(schedule.p).tobytes())
        self.hash.update(np.ascontiguousarray(schedule.sr).tobytes())
        self.add(float(report.cost).hex(), float(report.surrogate_objective).hex(),
                 report.terminated_by, report.chosen_k, len(report.iterations))
        return self.hash.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=None,
                        help="scan only the first this many seeds of each workload")
    args = parser.parse_args(argv)
    recorder = Recorder()
    for workload, seeds in SEEDS.items():
        for seed in list(seeds)[:args.seeds]:
            for case in cases(workload, seed):
                print(workload, seed, case.label, recorder.digest(case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
