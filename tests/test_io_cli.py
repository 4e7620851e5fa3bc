"""Instance files, schedule CSVs, report serialization, and the CLI."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dedpoz import (IaConfig, Schedule, ValidationError, evaluate_loss_mw,
                    evaluate_violations, solve_ded_no_loss,
                    solve_ded_with_loss)
from dedpoz import cli
from dedpoz.cli import main
from dedpoz.io import (CSV_AUDIT_TOL, duplicate_system, feasibility_to_dict,
                       instance_to_dict, load_instance, parse_instance,
                       read_schedule_csv, report_to_dict, save_instance,
                       scaled_cpu_time, write_report_json, write_schedule_csv)
from support import random_lossless_instance, random_lossy_instance


def unit_dict(**over):
    base = {"alpha": 5.0, "beta": 2.0, "gamma": 0.01, "p_min": 10.0,
            "p_max": 50.0, "ramp_up": 40.0, "ramp_down": 40.0,
            "prohibited_zones": []}
    base.update(over)
    return base


def instance_dict(**over):
    base = {"units": [unit_dict(), unit_dict(beta=1.8, p_max=60.0)],
            "demand": [40.0, 60.0],
            "reserve": {"mode": "absolute", "value": 2.0}}
    base.update(over)
    return base


def loss_dict():
    return {"b00": 2e-4, "b0": [1e-3, 2e-3],
            "b": [[1e-4, 1e-5], [1e-5, 2e-4]]}


# ----------------------------------------------------------------- parsing

def test_parse_minimal_instance():
    inst = parse_instance(instance_dict())
    assert inst.n_units == 2
    assert inst.n_periods == 2
    assert tuple(u.id for u in inst.units) == (1, 2)
    assert_array_equal(inst.demand, [40.0, 60.0])
    assert_array_equal(inst.reserve, [2.0, 2.0])
    assert inst.loss_model is None
    assert inst.units[0].p_initial is None


def test_parse_expands_fractional_reserve():
    d = instance_dict(reserve={"mode": "fraction", "value": 0.05})
    assert_array_equal(parse_instance(d).reserve, [2.0, 3.0])
    d = instance_dict(reserve={"mode": "fraction", "values": [0.05, 0.1]})
    assert_array_equal(parse_instance(d).reserve, [2.0, 6.0])


def test_parse_reserve_values_absolute():
    d = instance_dict(reserve={"mode": "absolute", "values": [1.0, 4.0]})
    assert_array_equal(parse_instance(d).reserve, [1.0, 4.0])


def test_parse_loss_model_and_default_base():
    d = instance_dict(loss=loss_dict())
    lm = parse_instance(d).loss_model
    assert lm is not None
    assert lm.base_mva == 100.0
    assert lm.b00 == 2e-4
    assert_array_equal(lm.b0, [1e-3, 2e-3])
    assert_array_equal(lm.b_matrix, [[1e-4, 1e-5], [1e-5, 2e-4]])

    d["loss"]["base_mva"] = 80.0
    assert parse_instance(d).loss_model.base_mva == 80.0


def test_parse_unit_extras():
    d = instance_dict()
    d["units"][0]["p_initial"] = 30.0
    d["units"][0]["prohibited_zones"] = [[20.0, 25.0], [30.0, 35.0]]
    inst = parse_instance(d)
    assert inst.units[0].p_initial == 30.0
    assert inst.units[0].prohibited_zones == ((20.0, 25.0), (30.0, 35.0))


def _set(path, value):
    """Mutator that assigns ``value`` at a nested key path."""
    def apply(d):
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return apply


def _pop(*path):
    def apply(d):
        node = d
        for key in path[:-1]:
            node = node[key]
        node.pop(path[-1])
    return apply


PARSE_ERRORS = [
    ("top-unknown", _set(("note",), 1), r"instance: unknown keys \['note'\]"),
    ("top-missing", _pop("demand"), r"instance: missing keys \['demand'\]"),
    ("units-not-list", _set(("units",), {}),
     r"units: expected a non-empty list"),
    ("units-empty", _set(("units",), []),
     r"units: expected a non-empty list"),
    ("unit-unknown", _set(("units", 1, "fuel"), 1),
     r"units\[1\]: unknown keys \['fuel'\]"),
    ("unit-missing", _pop("units", 0, "gamma"),
     r"units\[0\]: missing keys \['gamma'\]"),
    ("zones-not-list", _set(("units", 0, "prohibited_zones"), 5),
     r"units\[0\]\.prohibited_zones: expected a list of \[lo, hi\] pairs"),
    ("zone-not-pair", _set(("units", 0, "prohibited_zones"), [[1.0, 2.0, 3.0]]),
     r"units\[0\]\.prohibited_zones\[0\]: expected a \[lo, hi\] pair"),
    ("zone-bool", _set(("units", 0, "prohibited_zones"), [[True, 20.0]]),
     r"units\[0\]\.prohibited_zones\[0\]: expected a number, got True"),
    ("alpha-bool", _set(("units", 0, "alpha"), True),
     r"units\[0\]\.alpha: expected a number, got True"),
    ("alpha-string", _set(("units", 0, "alpha"), "5"),
     r"units\[0\]\.alpha: expected a number, got '5'"),
    ("beta-inf", _set(("units", 0, "beta"), float("inf")),
     r"units\[0\]\.beta: must be finite"),
    ("demand-entry", _set(("demand",), [40.0, "x"]),
     r"demand\[1\]: expected a number, got 'x'"),
    ("demand-empty", _set(("demand",), []),
     r"demand: expected a non-empty list"),
    ("reserve-unknown", _set(("reserve", "slack"), 1.0),
     r"reserve: unknown keys \['slack'\]"),
    ("reserve-mode", _set(("reserve", "mode"), "pct"),
     r"reserve\.mode: expected 'fraction' or 'absolute', got 'pct'"),
    ("reserve-mode-missing", _pop("reserve", "mode"),
     r"reserve\.mode: expected 'fraction' or 'absolute', got None"),
    ("reserve-both", _set(("reserve", "values"), [1.0, 1.0]),
     r"reserve: exactly one of 'value' and 'values' must be given"),
    ("reserve-neither", _pop("reserve", "value"),
     r"reserve: exactly one of 'value' and 'values' must be given"),
    ("reserve-length",
     _set(("reserve",), {"mode": "absolute", "values": [1.0]}),
     r"reserve\.values: expected length 2, got 1"),
    ("reserve-negative", _set(("reserve", "value"), -1.0),
     r"reserve: must be non-negative"),
    ("loss-missing", _set(("loss",), {"b00": 0.0}),
     r"loss: missing keys \['b', 'b0'\]"),
    ("unit-semantic", _set(("units", 0, "p_min"), 60.0),
     r"units\[0\]: unit 1: p_min 60\.0 must be < p_max 50\.0"),
    ("instance-semantic", _set(("demand",), [40.0, -1.0]),
     r"instance: demand must be positive in every period"),
]


@pytest.mark.parametrize("mutate,match",
                         [(m, r) for _, m, r in PARSE_ERRORS],
                         ids=[name for name, _, _ in PARSE_ERRORS])
def test_parse_rejects(mutate, match):
    data = instance_dict()
    mutate(data)
    with pytest.raises(ValidationError, match=match):
        parse_instance(data)


LOSS_ERRORS = [
    ("b0-length", _set(("loss", "b0"), [1e-3, 2e-3, 3e-3]),
     r"loss\.b0: expected length 2, got 3"),
    ("b-rows", _set(("loss", "b"), [[1e-4, 1e-5]]),
     r"loss\.b: expected 2 rows"),
    ("unknown", _set(("loss", "q"), 1.0), r"loss: unknown keys \['q'\]"),
    ("asymmetric", _set(("loss", "b"), [[1e-4, 0.0], [1e-5, 1e-4]]),
     r"loss: b_matrix must be symmetric"),
]


@pytest.mark.parametrize("mutate,match",
                         [(m, r) for _, m, r in LOSS_ERRORS],
                         ids=[name for name, _, _ in LOSS_ERRORS])
def test_parse_rejects_bad_loss(mutate, match):
    data = instance_dict(loss=loss_dict())
    mutate(data)
    with pytest.raises(ValidationError, match=match):
        parse_instance(data)


def test_load_instance_reports_file_errors(tmp_path):
    with pytest.raises(ValidationError, match="cannot read instance file"):
        load_instance(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ValidationError, match=r"invalid JSON at line 1, column"):
        load_instance(bad)


# ----------------------------------------------------------- serialization

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    inst = random_lossy_instance(rng)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)

    assert back.n_units == inst.n_units
    for a, b in zip(inst.units, back.units):
        assert a.id == b.id
        assert (a.alpha, a.beta, a.gamma) == (b.alpha, b.beta, b.gamma)
        assert (a.p_min, a.p_max) == (b.p_min, b.p_max)
        assert (a.ramp_up, a.ramp_down) == (b.ramp_up, b.ramp_down)
        assert a.prohibited_zones == b.prohibited_zones
        assert a.p_initial == b.p_initial
    assert_array_equal(back.demand, inst.demand)
    assert_array_equal(back.reserve, inst.reserve)
    assert back.loss_model is not None
    assert back.loss_model.b00 == inst.loss_model.b00
    assert back.loss_model.base_mva == inst.loss_model.base_mva
    assert_array_equal(back.loss_model.b0, inst.loss_model.b0)
    assert_array_equal(back.loss_model.b_matrix, inst.loss_model.b_matrix)


def test_instance_to_dict_normalizes_reserve():
    d = instance_dict(reserve={"mode": "fraction", "value": 0.05})
    out = instance_to_dict(parse_instance(d))
    assert out["reserve"] == {"mode": "absolute", "values": [2.0, 3.0]}
    assert "loss" not in out
    assert "p_initial" not in out["units"][0]

    d = instance_dict()
    d["units"][0]["p_initial"] = 25.0
    out = instance_to_dict(parse_instance(d))
    assert out["units"][0]["p_initial"] == 25.0


# -------------------------------------------------------------- duplication

@pytest.mark.parametrize("factor", [True, 0, -2, 2.0, "3"])
def test_duplicate_system_rejects_bad_factor(factor):
    inst = parse_instance(instance_dict())
    with pytest.raises(ValidationError, match=r"factor must be an integer >= 1"):
        duplicate_system(inst, factor)


def test_duplicate_system_factor_one_drops_loss():
    inst = parse_instance(instance_dict(loss=loss_dict()))
    out = duplicate_system(inst, 1)
    assert out.loss_model is None
    assert out.n_units == inst.n_units
    assert_array_equal(out.demand, inst.demand)
    assert_array_equal(out.reserve, inst.reserve)
    assert tuple(u.id for u in out.units) == (1, 2)


def test_duplicate_system_tiles_fleet():
    base = instance_dict()
    base["units"][0]["prohibited_zones"] = [[20.0, 25.0]]
    inst = parse_instance(base)
    out = duplicate_system(inst, 3)

    assert out.n_units == 6
    assert tuple(u.id for u in out.units) == (1, 2, 3, 4, 5, 6)
    assert_array_equal(out.demand, inst.demand * 3)
    assert_array_equal(out.reserve, inst.reserve * 3)
    for rep in range(3):
        for i, u in enumerate(inst.units):
            clone = out.units[rep * 2 + i]
            assert clone.beta == u.beta
            assert clone.prohibited_zones == u.prohibited_zones


def test_scaled_cpu_time():
    assert scaled_cpu_time(2.5, 2.0, 0.84) == pytest.approx(1.05)
    assert scaled_cpu_time(2.0, 2.0, 0.37) == 0.37
    with pytest.raises(ValidationError, match="CPU speeds must be positive"):
        scaled_cpu_time(0.0, 2.0, 1.0)
    with pytest.raises(ValidationError, match="CPU speeds must be positive"):
        scaled_cpu_time(2.0, -1.0, 1.0)


# ------------------------------------------------------------ schedule CSV

def test_schedule_csv_round_trip(tmp_path):
    inst = parse_instance(instance_dict())
    p = np.array([[15.0, 25.0], [20.0, 40.0]])
    sched = Schedule(p=p, sr=np.zeros_like(p))
    path = tmp_path / "sched.csv"
    write_schedule_csv(path, inst, sched)

    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,unit_1,unit_2,loss_mw"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"
    assert lines[1].split(",")[-1] == "0.000000"

    back = read_schedule_csv(path, inst)
    assert_allclose(back.p, p, atol=5e-7)
    # reserve is reconstructed as full headroom
    expect_sr = np.clip(np.minimum(inst.p_maxs - p, inst.ramp_ups), 0.0, None)
    assert_allclose(back.sr, expect_sr, atol=5e-7)


def test_schedule_csv_records_losses(tmp_path):
    inst = parse_instance(instance_dict(loss=loss_dict()))
    p = np.array([[18.0, 22.0], [25.0, 35.0]])
    path = tmp_path / "sched.csv"
    write_schedule_csv(path, inst, Schedule(p=p, sr=np.zeros_like(p)))
    lines = path.read_text().strip().splitlines()
    for t in range(2):
        written = float(lines[t + 1].split(",")[-1])
        assert written == pytest.approx(
            evaluate_loss_mw(inst.loss_model, p[t]), abs=5e-7)


def test_csv_rounding_stays_inside_audit_tolerance(tmp_path):
    rng = np.random.default_rng(11)
    inst = random_lossless_instance(rng, n_units=2, n_periods=3)
    report = solve_ded_no_loss(inst, IaConfig(gap=1e-6, tangent_steps=3))
    path = tmp_path / "sched.csv"
    write_schedule_csv(path, inst, report.schedule)
    back = read_schedule_csv(path, inst)
    audit = evaluate_violations(inst, back, tol=CSV_AUDIT_TOL)
    assert audit.feasible
    assert audit.max_violation < CSV_AUDIT_TOL


CSV_ERRORS = [
    ("", r"empty schedule file"),
    ("t,unit_1,loss_mw\n1,15.0,0.0\n2,20.0,0.0\n",
     r"does not match expected"),
    ("t,unit_1,unit_2,loss_mw\n1,15.0,25.0,0.0\n",
     r"expected 2 rows, got 1"),
    ("t,unit_1,unit_2,loss_mw\n1,15.0,25.0,0.0\n2,20.0,40.0\n",
     r"row 3: expected 4 fields, got 3"),
    ("t,unit_1,unit_2,loss_mw\n1,15.0,25.0,0.0\n2,abc,40.0,0.0\n",
     r"row 3: could not convert"),
    ("t,unit_1,unit_2,loss_mw\n5,15.0,25.0,0.0\n2,20.0,40.0,0.0\n",
     r"period column should be 1, got 5"),
    ("t,unit_1,unit_2,loss_mw\nnan,15.0,25.0,0.0\n2,20.0,40.0,0.0\n",
     r"period column should be 1, got nan"),
    ("t,unit_1,unit_2,loss_mw\ninf,15.0,25.0,0.0\n2,20.0,40.0,0.0\n",
     r"period column should be 1, got inf"),
    ("t,unit_1,unit_2,loss_mw\n1.7,15.0,25.0,0.0\n2,20.0,40.0,0.0\n",
     r"period column should be 1, got 1.7"),
]


@pytest.mark.parametrize("text,match", CSV_ERRORS,
                         ids=["empty", "header", "row-count", "field-count",
                              "non-numeric", "period-column", "period-nan",
                              "period-inf", "period-fraction"])
def test_read_schedule_csv_rejects(tmp_path, text, match):
    inst = parse_instance(instance_dict())
    path = tmp_path / "sched.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=match):
        read_schedule_csv(path, inst)


def test_read_schedule_csv_missing_file(tmp_path):
    inst = parse_instance(instance_dict())
    with pytest.raises(ValidationError, match="cannot read schedule file"):
        read_schedule_csv(tmp_path / "nope.csv", inst)


# ----------------------------------------------------------------- reports

def test_report_to_dict_shape(tmp_path):
    rng = np.random.default_rng(5)
    inst = random_lossy_instance(rng, n_max=2)
    report = solve_ded_with_loss(inst, IaConfig(gap=1e-5, tangent_steps=3))
    d = report_to_dict(report)

    assert set(d) == {"cost", "surrogate_objective", "violations",
                      "max_violation", "losses", "terminated_by",
                      "chosen_pass", "feasible", "milp", "iterations",
                      "timings"}
    assert d["chosen_pass"] == report.chosen_k
    assert set(d["feasible"]) == {"bounds", "poz", "ramp", "reserve"}
    assert set(d["milp"]) == {"status", "best_bound", "rel_gap", "nodes",
                              "limit_hit"}
    notes = [it["anchor"] for it in d["iterations"]]
    assert notes[0] == "none (loss ignored)"
    assert notes[1] == "pass-1 dispatch"
    assert all(n == "midpoint of the previous two dispatches"
               for n in notes[2:])
    assert d["timings"]["total_solve_time_s"] == pytest.approx(
        sum(it["solve_time_s"] for it in d["iterations"]))

    out = tmp_path / "report.json"
    write_report_json(report, out)
    assert json.loads(out.read_text()) == d


def test_feasibility_to_dict_keys():
    inst = parse_instance(instance_dict())
    p = np.array([[15.0, 25.0], [20.0, 40.0]])
    sr = np.clip(np.minimum(inst.p_maxs - p, inst.ramp_ups), 0.0, None)
    audit = evaluate_violations(inst, Schedule(p=p, sr=sr))
    d = feasibility_to_dict(audit)
    assert set(d) == {"feasible", "balance_violation", "max_violation",
                      "bounds_ok", "poz_ok", "ramp_ok", "reserve_ok",
                      "losses", "tol"}
    assert isinstance(d["feasible"], bool)
    assert d["losses"] == [0.0, 0.0]
    json.dumps(d)  # must already be JSON-clean


# --------------------------------------------------------------------- CLI

def _write_json(tmp_path, data, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_json(tmp_path, instance_dict())
    assert main(["validate", "--instance", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: 2 units, 2 periods")
    assert "without loss model" in out


def test_cli_validate_mentions_loss(tmp_path, capsys):
    path = _write_json(tmp_path, instance_dict(loss=loss_dict()))
    assert main(["validate", "--instance", path]) == 0
    assert "with loss model" in capsys.readouterr().out


def test_cli_bad_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", "--instance", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "invalid JSON" in err


def test_cli_missing_file_is_input_error(tmp_path, capsys):
    assert main(["validate", "--instance", str(tmp_path / "nope.json")]) == 3
    assert "cannot read instance file" in capsys.readouterr().err


def test_cli_usage_errors(tmp_path, capsys):
    path = _write_json(tmp_path, instance_dict())
    assert main(["solve", "--instance", path, "--wat"]) == 3
    assert main([]) == 3
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag,value", [("--max-iter", "0"), ("--epsilon", "0"),
                                        ("--epsilon", "nan"), ("--gap", "-1"),
                                        ("--time-limit", "nan"), ("--time-limit", "-1")])
def test_cli_bad_solve_options_are_input_errors(tmp_path, capsys, flag, value):
    path = _write_json(tmp_path, instance_dict())
    assert main(["solve", "--instance", path, flag, value]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_cli_solve_writes_outputs(tmp_path, capsys):
    path = _write_json(tmp_path, instance_dict())
    sched_out = str(tmp_path / "sched.csv")
    report_out = str(tmp_path / "report.json")
    rc = main(["solve", "--instance", path, "--gap", "1e-5",
               "--schedule-out", sched_out, "--report-out", report_out,
               "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cost:" in out and "milp status:" in out
    assert f"schedule written to {sched_out}" in out
    lines = out.splitlines()
    balance = next(k for k, line in enumerate(lines)
                   if line.startswith("max balance violation:"))
    assert lines[balance + 1] == "audit: feasible"

    with open(sched_out) as fh:
        assert fh.readline().strip() == "t,unit_1,unit_2,loss_mw"
    report = json.loads(open(report_out).read())
    assert report["milp"]["status"] == "optimal_within_gap"
    assert report["terminated_by"] is None

    rc = main(["audit", "--instance", path, "--schedule", sched_out])
    assert rc == 0
    audit = json.loads(capsys.readouterr().out)
    assert audit["feasible"] is True
    assert audit["tol"] == CSV_AUDIT_TOL


@pytest.mark.parametrize("flag,what", [("--schedule-out", "schedule"),
                                       ("--report-out", "report")])
def test_cli_output_that_cannot_be_written_is_input_error(tmp_path, capsys, flag, what):
    path = _write_json(tmp_path, instance_dict())
    out = tmp_path / "missing" / "out"
    assert main(["solve", "--instance", path, flag, str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{out}: cannot write {what} file" in err


def test_cli_solve_reports_failed_audit(tmp_path, capsys, monkeypatch):
    # a schedule that fails the audit is named as such; the balance line
    # alone cannot show it, and the exit code stays that of the solve
    path = _write_json(tmp_path, instance_dict())
    solve = cli.solve_ded_no_loss

    def failing(instance, config):
        report = solve(instance, config)
        audit = dataclasses.replace(report.audit, bounds_ok=False, ramp_ok=False)
        return dataclasses.replace(report, audit=audit)

    monkeypatch.setattr(cli, "solve_ded_no_loss", failing)
    assert main(["solve", "--instance", path]) == 0
    assert "audit: FAILED (bounds, ramp)" in capsys.readouterr().out.splitlines()


def test_cli_milp_ia_needs_loss_model(tmp_path, capsys):
    path = _write_json(tmp_path, instance_dict())
    assert main(["solve", "--instance", path, "--mode", "milp-ia"]) == 3
    assert "needs an instance with a loss model" in capsys.readouterr().err


def test_cli_milp_ia_converges(tmp_path, capsys):
    rng = np.random.default_rng(3)
    inst = random_lossy_instance(rng, n_max=2)
    path = tmp_path / "lossy.json"
    save_instance(inst, path)
    rc = main(["solve", "--instance", str(path), "--mode", "milp-ia",
               "--tangents", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "terminated by: epsilon" in out


def test_cli_milp_ia_iteration_budget_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(3)
    inst = random_lossy_instance(rng, n_max=2)
    path = tmp_path / "lossy.json"
    save_instance(inst, path)
    rc = main(["solve", "--instance", str(path), "--mode", "milp-ia",
               "--tangents", "3", "--max-iter", "2"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "terminated by: iter_max (pass 2 of 2)" in out


def test_cli_infeasible_exit_code(tmp_path, capsys):
    data = instance_dict(units=[unit_dict()], demand=[100.0])
    path = _write_json(tmp_path, data)
    assert main(["solve", "--instance", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible:")
    assert "total capacity" in err


def test_cli_limit_before_any_incumbent_is_not_infeasibility(tmp_path, capsys):
    # the search stops before its first node: nothing is known about
    # feasibility, so the exit code is the one for limits
    path = _write_json(tmp_path, instance_dict())
    assert main(["solve", "--instance", path, "--time-limit", "0"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("limit:")
    assert "no feasible dispatch exists" not in err


def test_cli_bench(tmp_path, capsys):
    path = _write_json(tmp_path, instance_dict())
    rc = main(["bench", "--instance", path, "--duplicate-factors", "2",
               "--gap", "1e-4"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["factor", "units", "cost", "nodes", "time_s"]
    assert len(lines) == 3  # base plus one factor
    assert "x scaled base" in lines[2]


@pytest.mark.parametrize("factors,match", [
    ("a,b", "must be comma-separated integers"),
    ("0", "needs integers >= 1"),
    (",", "needs integers >= 1"),
])
def test_cli_bench_bad_factors(tmp_path, capsys, factors, match):
    path = _write_json(tmp_path, instance_dict())
    rc = main(["bench", "--instance", path, "--duplicate-factors", factors])
    assert rc == 3
    assert match in capsys.readouterr().err


def test_cli_bench_with_no_tangents_fails_before_its_header(tmp_path, capsys):
    path = _write_json(tmp_path, instance_dict())
    rc = main(["bench", "--instance", path, "--tangents", "0"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "tangent_steps must be >= 1" in captured.err


def test_library_modules_make_no_print_calls():
    # only the CLI writes to the terminal; library code reports through
    # return values, exceptions and the streams its callers pass in
    package = Path(cli.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(package.glob("*.py"))) > 5
    assert found == []
