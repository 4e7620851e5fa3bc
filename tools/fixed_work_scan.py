"""Fixed-work digest scan: one line per benchmark case, with a hash of
everything a change that claims to keep every bit must leave the same, or
with the answers a change that moves bits must keep.

Run from the root of a checkout:

    python3 tools/fixed_work_scan.py > after.txt
    python3 tools/fixed_work_scan.py --seeds 1      # the first seed of each workload
    python3 tools/fixed_work_scan.py --answers > after.txt
    python3 tools/fixed_work_scan.py --compare before.txt after.txt

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

With ``--answers`` a line reads ``workload seed label`` and then
``key=value`` fields: the last MILP's ``status``, ``terminated_by``,
``chosen_k``, the number of ``passes``, the ``nodes`` of each pass, the
``cost``, the ``surrogate`` objective and the case's relative ``gap``.
``--compare`` reads two such files and prints, per workload, the worst
|cost or surrogate difference| / (gap * |value|), then every case whose
other fields differ or that one file lacks; it exits 1 if there is any.
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
        self.hash = hashlib.sha256()
        report = solve(case)
        schedule = report.schedule
        self.hash.update(np.ascontiguousarray(schedule.p).tobytes())
        self.hash.update(np.ascontiguousarray(schedule.sr).tobytes())
        self.add(float(report.cost).hex(), float(report.surrogate_objective).hex(),
                 report.terminated_by, report.chosen_k, len(report.iterations))
        return self.hash.hexdigest()


def solve(case):
    driver = solve_ded_with_loss if case.mode == workloads.LOSSY else solve_ded_no_loss
    return driver(case.instance, case.config)


def answers(case) -> str:
    report = solve(case)
    nodes = ",".join(str(it.nodes) for it in report.iterations)
    return (f"status={report.milp.status} terminated_by={report.terminated_by} "
            f"chosen_k={report.chosen_k} passes={len(report.iterations)} nodes={nodes} "
            f"cost={report.cost!r} surrogate={report.surrogate_objective!r} "
            f"gap={case.config.gap!r}")


DISCRETE = ("status", "terminated_by", "chosen_k", "passes", "nodes")
VALUES = ("cost", "surrogate")


def read_answers(path) -> dict:
    out = {}
    with open(path) as lines:
        for line in lines:
            workload, seed, label, *fields = line.split()
            out[workload, int(seed), label] = dict(f.split("=", 1) for f in fields)
    return out


def compare(path_a, path_b) -> int:
    a, b = read_answers(path_a), read_answers(path_b)
    worst, count, differ = {}, {}, []
    for key in sorted(a.keys() & b.keys()):
        was, now = a[key], b[key]
        count[key[0]] = count.get(key[0], 0) + 1
        rel = worst.setdefault(key[0], 0.0)
        for name in VALUES:
            old, new = float(was[name]), float(now[name])
            if old != new:
                rel = max(rel, abs(new - old) / (float(was["gap"]) * max(abs(old), abs(new))))
        worst[key[0]] = rel
        changed = [f"{name} {was[name]} -> {now[name]}" for name in DISCRETE
                   if was[name] != now[name]]
        if changed:
            differ.append(f"differ {' '.join(map(str, key))}: {'; '.join(changed)}")
    for workload in worst:
        print(f"{workload}: {count[workload]} cases, worst |delta| / (gap * |value|) "
              f"{worst[workload]:.3g}")
    missing = [f"only in {path} {' '.join(map(str, key))}"
               for path, keys in ((path_a, a.keys() - b.keys()), (path_b, b.keys() - a.keys()))
               for key in sorted(keys)]
    for line in differ + missing:
        print(line)
    return 1 if differ or missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=None,
                        help="scan only the first this many seeds of each workload")
    parser.add_argument("--answers", action="store_true",
                        help="print each case's answers instead of its digest")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --answers outputs instead of scanning")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    line = answers if args.answers else Recorder().digest
    for workload, seeds in SEEDS.items():
        for seed in list(seeds)[:args.seeds]:
            for case in cases(workload, seed):
                print(workload, seed, case.label, line(case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
