"""Benchmark for the dedpoz solver, driven through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet_ladder --seed 1 --seconds 20 --trace 0

Workloads are ``fleet_ladder``, ``small_batch`` and ``lossy_refine`` (see
``workloads.py``).  A run makes its inputs from ``--seed``, warms up, then
solves the workload's instances in full passes, in one closed loop, until
``--seconds`` have passed and the workload's minimum number of passes is
done.  Every solve is checked afterwards.  With
``--trace 1`` the same passes are replayed with spans around the calls into
each module, and the per-layer figures replace the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment and the figures that belong to one workload only
(per-rung times, the lossy-to-lossless time ratio, the failure rate).  The
same record, and the spans of a traced run, are written to
``perfbench/out/``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
WORKLOADS = ("fleet_ladder", "small_batch", "lossy_refine")


@dataclass
class Sample:
    """One solve of one case: its latency and what the checks need."""

    case: object
    latency_s: float
    solve_s: float | None = None
    reference_s: float | None = None
    report: object = None
    error: str | None = None


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure_setup() -> float:
    """Median, over fresh interpreters started one at a time, of the time
    from start to the end of the warm-up solve."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run([sys.executable, str(HERE / "probe.py")], check=True,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]) - started)
    return statistics.median(times)


class Solver:
    """Runs one case the way a user of the package would: the instance goes
    through a file, is solved, written out and audited."""

    def __init__(self, dedpoz, workdir, tracer=None):
        self.dp = dedpoz
        self.workdir = workdir
        self.tracer = tracer

    def __call__(self, case) -> Sample:
        dp = self.dp
        lossy = case.mode == "lossy"
        sample = Sample(case, 0.0)
        if lossy:
            # the lossless solve of the same instance is the yardstick for
            # the refinement loop, not part of the workload's own solves
            quiet = self.tracer.suspended() if self.tracer else contextlib.nullcontext()
            try:
                with quiet:
                    started = time.perf_counter()
                    dp.solve_ded_no_loss(case.instance, case.config)
                    sample.reference_s = time.perf_counter() - started
            except Exception as exc:  # recorded as a failed solve
                sample.error = f"lossless reference: {exc!r}"
        started = time.perf_counter()
        try:
            path = self.workdir / "instance.json"
            dp.save_instance(case.instance, path)
            instance = dp.load_instance(path)
            solve = dp.solve_ded_with_loss if lossy else dp.solve_ded_no_loss
            solve_started = time.perf_counter()
            report = solve(instance, case.config)
            sample.solve_s = time.perf_counter() - solve_started
            dp.write_report_json(report, self.workdir / "report.json")
            dp.write_schedule_csv(self.workdir / "schedule.csv", instance, report.schedule)
            dp.evaluate_violations(instance, report.schedule, use_loss=lossy, tol=1e-6)
            sample.report = report
        except Exception as exc:  # recorded as a failed solve
            sample.error = sample.error or repr(exc)
        sample.latency_s = time.perf_counter() - started
        return sample


def run_passes(cases, solve, seconds, min_passes):
    """Full passes over ``cases`` until ``seconds`` have passed and at least
    ``min_passes`` are done.  Returns ``(samples, passes done, wall seconds)``."""
    samples = []
    done = 0
    started = time.perf_counter()
    while True:
        samples.extend(solve(case) for case in cases)
        done += 1
        wall = time.perf_counter() - started
        if done >= min_passes and wall >= seconds:
            return samples, done, wall


def quantile(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def best_of_passes(samples) -> dict:
    """Fastest sample of each case, by label, in first-seen order.

    Other tenants of a shared machine slow it down for tens of seconds at a
    time; the fastest of a case's passes is the one least affected, so it
    varies far less from run to run than the mean does."""
    best = {}
    for s in samples:
        if s.case.label not in best or s.latency_s < best[s.case.label].latency_s:
            best[s.case.label] = s
    return best


def end_to_end(best, n_failed, setup_s) -> dict:
    latencies = [s.latency_s for s in best.values()]
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": ((len(latencies) - n_failed) / sum(latencies), "1/s"),
        "solve_s_p50": (statistics.median(latencies), "s"),
        "solve_s_p90": (quantile(latencies, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def workload_detail(workload, samples, best, attempted, failed) -> dict:
    """Figures that only one workload can give; printed, not gated."""
    detail = {"fail_rate": (failed / attempted, "1")}
    if workload == "fleet_ladder":
        for label, s in best.items():
            detail[f"rung_{label}_s"] = (s.latency_s, "s")
    if workload == "lossy_refine":
        lossy, lossless = {}, {}
        for s in samples:
            label = s.case.label
            if s.solve_s is not None:
                lossy[label] = min(lossy.get(label, s.solve_s), s.solve_s)
            if s.reference_s is not None:
                lossless[label] = min(lossless.get(label, s.reference_s), s.reference_s)
        both = lossy.keys() & lossless.keys()
        detail["lossy_to_lossless_time"] = (
            sum(lossy[k] for k in both) / sum(lossless[k] for k in both), "1")
    return detail


def as_metrics(pairs) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dedpoz" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dedpoz sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))

    import numpy as np

    import checks  # binds the package's functions before any tracing patch
    import dedpoz
    import workloads
    from tracing import Tracer

    env = environment()
    setup_s = measure_setup() if not args.trace else None
    dedpoz.solve_ded_no_loss(workloads.symmetric_fleet(), workloads.LADDER_CONFIG)

    rng = np.random.default_rng(args.seed)
    attempted = 0
    base_cost = None
    problems = []
    if args.workload == "fleet_ladder":
        base, cases = workloads.fleet_ladder(rng)
        attempted += 1
        try:
            base_cost = dedpoz.solve_ded_no_loss(base, workloads.LADDER_CONFIG).cost
            problems += checks.base_problems(base, base_cost)
        except Exception as exc:  # recorded as a failed solve
            problems.append(f"base fleet: {exc!r}")
            base_cost = float("nan")
    elif args.workload == "small_batch":
        cases = workloads.small_batch(rng)
    else:
        cases = workloads.lossy_refine(rng)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"io-{os.getpid()}"
    workdir.mkdir()
    try:
        samples, passes, wall = run_passes(cases, Solver(dedpoz, workdir), args.seconds,
                                           workloads.MIN_PASSES[args.workload])
        all_samples = list(samples)
        layer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, _, traced_wall = run_passes(
                    cases, Solver(dedpoz, workdir, tracer), 0.0, passes)
            finally:
                tracer.uninstall()
            all_samples += traced
            layer = tracer.layer_metrics(sum(s.latency_s for s in traced), traced_wall, wall)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = checks.failed_samples(args.workload, all_samples, base_cost)
    attempted += len(all_samples) + sum(s.case.mode == "lossy" for s in all_samples)
    failed = len(problems) + len(failures)
    for k, found in failures.items():
        problems += [f"{all_samples[k].case.label}: {p}" for p in found]
    for line in list(dict.fromkeys(problems))[:20]:
        print(f"perfbench: failed check: {line}", file=sys.stderr)

    best = best_of_passes(samples)
    if args.trace:
        metrics = as_metrics(layer)
    else:
        failed_cases = {all_samples[k].case.label for k in failures}
        metrics = as_metrics(end_to_end(best, len(failed_cases), setup_s))
    detail = as_metrics(workload_detail(args.workload, samples, best, attempted, failed))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": passes, "solves": len(samples),
              "window_s": wall, "environment": env, "workload_metrics": detail}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
