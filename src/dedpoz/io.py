"""Instance files, schedule CSVs, and report serialization.

The instance format is a strict JSON document: unknown keys are rejected and
every error message carries the offending field path.  Reserve can be stated
as a fraction of demand or as absolute MW; fractions are expanded at load
time so the in-memory instance always carries MW.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .system import (GeneratingUnit, LossModel, Schedule, SystemInstance,
                     evaluate_loss_mw)

_UNIT_KEYS = {"alpha", "beta", "gamma", "p_min", "p_max", "ramp_up",
              "ramp_down", "prohibited_zones", "p_initial"}
_UNIT_REQUIRED = _UNIT_KEYS - {"p_initial"}
_TOP_KEYS = {"units", "demand", "reserve", "loss"}
_RESERVE_KEYS = {"mode", "value", "values"}
_LOSS_KEYS = {"b00", "b0", "b", "base_mva"}

CSV_AUDIT_TOL = 1e-5  # absorbs the 6-decimal print rounding


def _require(cond, path, msg):
    if not cond:
        raise ValidationError(f"{path}: {msg}")


def _number(value, path):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"expected a number, got {value!r}")
    value = float(value)
    _require(np.isfinite(value), path, "must be finite")
    return value


def _check_keys(mapping, allowed, path):
    _require(isinstance(mapping, dict), path, "expected an object")
    unknown = sorted(set(mapping) - allowed)
    _require(not unknown, path, f"unknown keys {unknown}")


def _parse_unit(data, idx):
    path = f"units[{idx}]"
    _check_keys(data, _UNIT_KEYS, path)
    missing = sorted(_UNIT_REQUIRED - set(data))
    _require(not missing, path, f"missing keys {missing}")
    zones_raw = data["prohibited_zones"]
    _require(isinstance(zones_raw, list), f"{path}.prohibited_zones",
             "expected a list of [lo, hi] pairs")
    zones = []
    for k, z in enumerate(zones_raw):
        zpath = f"{path}.prohibited_zones[{k}]"
        _require(isinstance(z, (list, tuple)) and len(z) == 2, zpath,
                 "expected a [lo, hi] pair")
        zones.append((_number(z[0], zpath), _number(z[1], zpath)))
    p_initial = data.get("p_initial")
    if p_initial is not None:
        p_initial = _number(p_initial, f"{path}.p_initial")
    try:
        return GeneratingUnit(
            id=idx + 1,
            alpha=_number(data["alpha"], f"{path}.alpha"),
            beta=_number(data["beta"], f"{path}.beta"),
            gamma=_number(data["gamma"], f"{path}.gamma"),
            p_min=_number(data["p_min"], f"{path}.p_min"),
            p_max=_number(data["p_max"], f"{path}.p_max"),
            ramp_up=_number(data["ramp_up"], f"{path}.ramp_up"),
            ramp_down=_number(data["ramp_down"], f"{path}.ramp_down"),
            prohibited_zones=tuple(zones),
            p_initial=p_initial,
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_vector(data, path, length=None):
    _require(isinstance(data, list) and data, path, "expected a non-empty list")
    if length is not None:
        _require(len(data) == length, path,
                 f"expected length {length}, got {len(data)}")
    return np.array([_number(v, f"{path}[{k}]") for k, v in enumerate(data)])


def _parse_reserve(data, demand):
    _check_keys(data, _RESERVE_KEYS, "reserve")
    mode = data.get("mode")
    _require(mode in ("fraction", "absolute"), "reserve.mode",
             f"expected 'fraction' or 'absolute', got {mode!r}")
    has_value = "value" in data
    has_values = "values" in data
    _require(has_value != has_values, "reserve",
             "exactly one of 'value' and 'values' must be given")
    if has_value:
        per_t = np.full(demand.shape, _number(data["value"], "reserve.value"))
    else:
        per_t = _parse_vector(data["values"], "reserve.values", len(demand))
    reserve = per_t * demand if mode == "fraction" else per_t
    _require(bool(np.all(reserve >= 0)), "reserve", "must be non-negative")
    return reserve


def _parse_loss(data, n_units):
    _check_keys(data, _LOSS_KEYS, "loss")
    missing = sorted({"b00", "b0", "b"} - set(data))
    _require(not missing, "loss", f"missing keys {missing}")
    b0 = _parse_vector(data["b0"], "loss.b0", n_units)
    b_rows = data["b"]
    _require(isinstance(b_rows, list) and len(b_rows) == n_units, "loss.b",
             f"expected {n_units} rows")
    b = np.vstack([_parse_vector(row, f"loss.b[{k}]", n_units)
                   for k, row in enumerate(b_rows)])
    base = data.get("base_mva", 100.0)
    try:
        return LossModel(b00=_number(data["b00"], "loss.b00"), b0=b0,
                         b_matrix=b, base_mva=_number(base, "loss.base_mva"))
    except ValidationError as exc:
        raise ValidationError(f"loss: {exc}") from exc


def parse_instance(data: dict) -> SystemInstance:
    """Build a validated instance from already-decoded JSON data."""
    _check_keys(data, _TOP_KEYS, "instance")
    missing = sorted({"units", "demand", "reserve"} - set(data))
    _require(not missing, "instance", f"missing keys {missing}")
    _require(isinstance(data["units"], list) and data["units"], "units",
             "expected a non-empty list")
    units = tuple(_parse_unit(u, i) for i, u in enumerate(data["units"]))
    demand = _parse_vector(data["demand"], "demand")
    reserve = _parse_reserve(data["reserve"], demand)
    loss = _parse_loss(data["loss"], len(units)) if "loss" in data else None
    try:
        return SystemInstance(units=units, demand=demand, reserve=reserve,
                              loss_model=loss)
    except ValidationError as exc:
        raise ValidationError(f"instance: {exc}") from exc


def load_instance(path) -> SystemInstance:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read instance file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return parse_instance(data)


def instance_to_dict(instance: SystemInstance) -> dict:
    """Serializable form; reserve is emitted in absolute MW."""
    units = []
    for u in instance.units:
        entry = {
            "alpha": u.alpha, "beta": u.beta, "gamma": u.gamma,
            "p_min": u.p_min, "p_max": u.p_max,
            "ramp_up": u.ramp_up, "ramp_down": u.ramp_down,
            "prohibited_zones": [[lo, hi] for lo, hi in u.prohibited_zones],
        }
        if u.p_initial is not None:
            entry["p_initial"] = u.p_initial
        units.append(entry)
    out = {
        "units": units,
        "demand": instance.demand.tolist(),
        "reserve": {"mode": "absolute", "values": instance.reserve.tolist()},
    }
    lm = instance.loss_model
    if lm is not None:
        out["loss"] = {"b00": lm.b00, "b0": lm.b0.tolist(),
                       "b": lm.b_matrix.tolist(), "base_mva": lm.base_mva}
    return out


def save_instance(instance: SystemInstance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2) + "\n")


def duplicate_system(instance: SystemInstance, factor: int) -> SystemInstance:
    """Tile the fleet ``factor`` times, scaling demand and reserve to match.

    The loss model does not survive duplication (B-coefficients are specific
    to one network), so the result is always lossless.
    """
    if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
        raise ValidationError(f"factor must be an integer >= 1, got {factor!r}")
    units = []
    for rep in range(factor):
        for u in instance.units:
            units.append(GeneratingUnit(
                id=rep * instance.n_units + u.id, alpha=u.alpha, beta=u.beta,
                gamma=u.gamma, p_min=u.p_min, p_max=u.p_max,
                ramp_up=u.ramp_up, ramp_down=u.ramp_down,
                prohibited_zones=u.prohibited_zones, p_initial=u.p_initial))
    return SystemInstance(units=tuple(units),
                          demand=instance.demand * factor,
                          reserve=instance.reserve * factor,
                          loss_model=None)


def scaled_cpu_time(given_speed_ghz: float, base_speed_ghz: float,
                    given_time_s: float) -> float:
    """Normalize a runtime measured on one machine to a base clock speed."""
    if not (0 < given_speed_ghz < np.inf and 0 < base_speed_ghz < np.inf):  # NaN too
        raise ValidationError("CPU speeds must be positive and finite, got "
                              f"{given_speed_ghz} and {base_speed_ghz}")
    if not 0 <= given_time_s < np.inf:  # NaN too
        raise ValidationError(f"the time must be finite and >= 0, got {given_time_s}")
    return given_speed_ghz / base_speed_ghz * given_time_s


def write_schedule_csv(path, instance: SystemInstance,
                       schedule: Schedule) -> None:
    """One row per period: ``t, unit_1, ..., unit_N, loss_mw`` at 6 decimals."""
    lm = instance.loss_model
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"unit_{i + 1}" for i in range(instance.n_units)]
                            + ["loss_mw"])
            for t in range(schedule.p.shape[0]):
                loss = evaluate_loss_mw(lm, schedule.p[t]) if lm is not None else 0.0
                writer.writerow([t + 1] + [f"{v:.6f}" for v in schedule.p[t]]
                                + [f"{loss:.6f}"])
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write schedule file: {exc}") from exc


def read_schedule_csv(path, instance: SystemInstance) -> Schedule:
    """Read a schedule CSV back into memory.

    The file stores outputs only, so reserve allocations are reconstructed as
    each unit's full headroom min(p_max - P, ramp_up); that is the most any
    unit could pledge, which makes the subsequent audit check whether the
    system *could* meet the reserve requirement at these outputs.
    """
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read schedule file: {exc}") from exc
    _require(rows, str(path), "empty schedule file")
    header = rows[0]
    expected = ["t"] + [f"unit_{i + 1}" for i in range(instance.n_units)] + ["loss_mw"]
    _require(header == expected, str(path),
             f"header {header} does not match expected {expected}")
    body = rows[1:]
    _require(len(body) == instance.n_periods, str(path),
             f"expected {instance.n_periods} rows, got {len(body)}")
    p = np.empty((instance.n_periods, instance.n_units))
    for k, row in enumerate(body):
        _require(len(row) == len(expected), f"{path}:row {k + 2}",
                 f"expected {len(expected)} fields, got {len(row)}")
        try:
            fields = [float(v) for v in row]
        except ValueError as exc:
            raise ValidationError(f"{path}:row {k + 2}: {exc}") from exc
        _require(fields[0] == k + 1, f"{path}:row {k + 2}",
                 f"period column should be {k + 1}, got {row[0]}")
        p[k] = fields[1:1 + instance.n_units]
    sr = np.clip(np.minimum(instance.p_maxs - p, instance.ramp_ups), 0.0, None)
    return Schedule(p=p, sr=sr)


def _anchor_note(iteration) -> str:
    if iteration.k == 1:
        return "none (loss ignored)"
    if iteration.k == 2:
        return "pass-1 dispatch"
    return "midpoint of the previous two dispatches"


def audit_checks(audit) -> dict:
    """Pass/fail of each audit check, keyed as in a report's ``feasible``."""
    return {"bounds": audit.bounds_ok, "poz": audit.poz_ok,
            "ramp": audit.ramp_ok, "reserve": audit.reserve_ok}


def report_to_dict(report) -> dict:
    """JSON-friendly view of a DispatchReport."""
    audit = report.audit
    return {
        "cost": report.cost,
        "surrogate_objective": report.surrogate_objective,
        "violations": report.violations.tolist(),
        "max_violation": report.max_violation,
        "losses": report.losses.tolist(),
        "terminated_by": report.terminated_by,
        "chosen_pass": report.chosen_k,
        "feasible": audit_checks(audit),
        "milp": {
            "status": report.milp.status,
            "best_bound": report.milp.best_bound,
            "rel_gap": report.milp.rel_gap,
            "nodes": report.milp.nodes_explored,
            "limit_hit": report.milp.limit_hit,
        },
        "iterations": [
            {"k": it.k, "anchor": _anchor_note(it), "objective": it.objective,
             "max_balance_error": it.max_balance_error,
             "solve_time_s": it.solve_time_s, "nodes": it.nodes}
            for it in report.iterations
        ],
        "timings": {
            "total_solve_time_s": sum(it.solve_time_s for it in report.iterations),
        },
    }


def write_report_json(report, path) -> None:
    text = json.dumps(report_to_dict(report), indent=2) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write report file: {exc}") from exc


def feasibility_to_dict(audit) -> dict:
    """JSON-friendly view of a FeasibilityReport (used by the audit command)."""
    return {
        "feasible": audit.feasible,
        "balance_violation": audit.balance_violation.tolist(),
        "max_violation": audit.max_violation,
        "bounds_ok": audit.bounds_ok,
        "poz_ok": audit.poz_ok,
        "ramp_ok": audit.ramp_ok,
        "reserve_ok": audit.reserve_ok,
        "losses": audit.losses.tolist(),
        "tol": audit.tol,
    }
