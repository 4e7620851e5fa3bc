"""Spans around the calls into each dedpoz module, recorded from outside.

``Tracer.install`` replaces public functions with timing wrappers at the
names where the package looks them up (``dedpoz.engine.solve_milp``,
``dedpoz.simplex.PreparedLp.solve`` and so on) and ``uninstall`` puts the
originals back.  Spans stay in memory, each with a name, start, end and
parent id, until ``write`` saves them as JSON lines.  The layer of a span
is the part of its name before the dot.
"""

import contextlib
import functools
import json
import time
import weakref

import dedpoz
from dedpoz import bnb, engine, simplex

LAYERS = ("io", "milp", "simplex", "bnb", "engine", "system")
PER_SOLVE_S = "s/solve"
PER_SOLVE = "1/solve"


def _lp_attrs(tracer, span, args, kwargs, sol):
    prep = args[0]
    warm = kwargs.get("warm_start", args[3] if len(args) > 3 else None) is not None
    root = not warm and prep not in tracer._prepared_seen
    if not warm:
        tracer._prepared_seen.add(prep)
    parent = tracer.spans[span["parent"]] if span["parent"] is not None else None
    span.update(warm=warm, root=root,
                snap=parent is not None and parent["name"] == "bnb.snap",
                rows=prep.m, pivots=sol.pivots, flips=sol.iterations - sol.pivots,
                status=sol.status)


def _prepare_attrs(tracer, span, args, kwargs, result):
    span["rows"] = args[0].m


def _build_attrs(tracer, span, args, kwargs, result):
    model = result[0]
    span.update(rows=len(model.constraints),
                nnz=sum(len(con.coeffs) for con in model.constraints))


def _milp_attrs(tracer, span, args, kwargs, sol):
    span["nodes"] = sol.nodes_explored


def _engine_attrs(tracer, span, args, kwargs, report):
    span.update(passes=len(report.iterations), terminated_by=report.terminated_by)


# (owner, attribute, span name, attribute recorder)
TARGETS = (
    (dedpoz, "save_instance", "io.save", None),
    (dedpoz, "load_instance", "io.load", None),
    (dedpoz, "write_report_json", "io.write", None),
    (dedpoz, "write_schedule_csv", "io.write", None),
    (dedpoz, "solve_ded_no_loss", "engine.solve", _engine_attrs),
    (dedpoz, "solve_ded_with_loss", "engine.solve", _engine_attrs),
    (dedpoz, "evaluate_violations", "system.audit", None),
    (engine, "evaluate_violations", "system.audit", None),
    (engine, "evaluate_cost", "system.audit", None),
    (engine, "build_milp1", "milp.build", _build_attrs),
    (engine, "build_milp2", "milp.build", _build_attrs),
    (engine, "solve_milp", "bnb.solve", _milp_attrs),
    (bnb, "rounding_heuristic", "bnb.heuristic", None),
    (bnb, "_snap_binaries", "bnb.snap", None),
    (simplex.PreparedLp, "__init__", "simplex.prepare", _prepare_attrs),
    (simplex.PreparedLp, "solve", "simplex.solve", _lp_attrs),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._prepared_seen = weakref.WeakSet()
        self._enabled = True

    def _wrap(self, fn, name, record):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            span = {"id": len(tracer.spans),
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "name": name}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if record is not None:
                record(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, record in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, record))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run calls that are not part of the measured work without spans."""
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = True

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_times(self) -> dict:
        """Seconds per layer spent in its own spans, not in their children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for span, inner in zip(self.spans, child_time):
            out[span["name"].split(".")[0]] += span["end"] - span["start"] - inner
        return out

    def layer_metrics(self, latency, traced_wall, untraced_wall) -> dict:
        """``{name: (value, unit)}`` per layer.  Sums are divided by the
        number of workload solves (top-level ``engine.solve`` spans), so
        they compare across runs that finish different numbers of solves.
        ``latency`` is the summed latency of the traced solves; the walls
        are those of the traced and untraced passes."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(span)

        def total(name, key=None, where=lambda s: True):
            return sum((s["end"] - s["start"]) if key is None else s.get(key, 0)
                       for s in by_name.get(name, ()) if where(s))

        def count(name, where=lambda s: True):
            return sum(1 for s in by_name.get(name, ()) if where(s))

        def mean(name, key):
            values = [s[key] for s in by_name.get(name, ()) if key in s]
            return sum(values) / len(values) if values else 0.0

        solves = max(count("engine.solve"), 1)

        def cold(s):
            return s.get("warm") is False

        def warm(s):
            return s.get("warm") is True

        def root(s):
            return s.get("root", False)

        def snap(s):
            return s.get("snap", False)

        def nonoptimal(s):
            return s.get("status") != simplex.OPTIMAL

        def converged(s):
            return s.get("terminated_by") == "epsilon"

        cold_pivots = total("simplex.solve", "pivots", cold)
        nodes = total("bnb.solve", "nodes")
        self_s = self.self_times()
        return {
            "simplex.cold_s": (total("simplex.solve", where=cold) / solves, PER_SOLVE_S),
            "simplex.root_s": (total("simplex.solve", where=root) / solves, PER_SOLVE_S),
            "simplex.cold_pivots": (cold_pivots / solves, PER_SOLVE),
            "simplex.ms_per_pivot": (1e3 * total("simplex.solve", where=cold) / cold_pivots
                                     if cold_pivots else 0.0, "ms"),
            "simplex.rows_mean": (mean("simplex.prepare", "rows"), "rows"),
            "simplex.prepare_s": (total("simplex.prepare") / solves, PER_SOLVE_S),
            "simplex.warm_s": (total("simplex.solve", where=warm) / solves, PER_SOLVE_S),
            "simplex.warm_calls": (count("simplex.solve", warm) / solves, PER_SOLVE),
            "simplex.warm_pivots": (total("simplex.solve", "pivots", warm) / solves, PER_SOLVE),
            "simplex.bound_flips": (total("simplex.solve", "flips") / solves, PER_SOLVE),
            "simplex.nonoptimal": (count("simplex.solve", nonoptimal) / solves, PER_SOLVE),
            "milp.build_s": (total("milp.build") / solves, PER_SOLVE_S),
            "milp.build_calls": (count("milp.build") / solves, PER_SOLVE),
            "milp.rows_mean": (mean("milp.build", "rows"), "rows"),
            "milp.nnz_mean": (mean("milp.build", "nnz"), "nonzeros"),
            "bnb.solve_s": (total("bnb.solve") / solves, PER_SOLVE_S),
            "bnb.self_s": (self_s["bnb"] / solves, PER_SOLVE_S),
            "bnb.nodes": (nodes / solves, PER_SOLVE),
            "bnb.lps_per_node": (count("simplex.solve") / nodes if nodes else 0.0, "1/node"),
            "bnb.snap_resolves": (count("simplex.solve", snap) / solves, PER_SOLVE),
            "engine.self_s": (self_s["engine"] / solves, PER_SOLVE_S),
            "engine.passes_per_solve": (count("bnb.solve") / solves, PER_SOLVE),
            "engine.eps_converged_frac": (count("engine.solve", converged) / solves, "1"),
            "io.load_s": (total("io.load") / solves, PER_SOLVE_S),
            "io.write_s": ((total("io.save") + total("io.write")) / solves, PER_SOLVE_S),
            "system.audit_s": (total("system.audit") / solves, PER_SOLVE_S),
            "trace.wall_s": (latency / solves, PER_SOLVE_S),
            "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "1"),
        }
