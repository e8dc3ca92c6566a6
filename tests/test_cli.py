"""Command-line interface: exit codes, report files, reproducibility."""

import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import batchsched as bs
from batchsched import analysis, cli, prior
from batchsched.cli import main
from helpers import (
    MPMATH_TRACE_RTOL,
    exploding_scalar_model,
    halving_scalar_model,
    huge_sensor_model,
    mpmath_error_trace,
    oracle_objective,
    overflow_index,
    per_trial_monotonicity,
    per_trial_supermodularity,
    schedule_of,
    selected_inversion_trace,
)


def run(argv):
    return main(argv)


def gen_args(path, seed=11, n=2, m=3, K=2, r=1, kind="discrete-invariant"):
    return [
        "gen", "--n", str(n), "--m", str(m), "--K", str(K), "--r", str(r),
        "--kind", kind, "--seed", str(seed), "--out", str(path),
    ]


def test_gen_writes_valid_scenario(tmp_path):
    path = tmp_path / "s.json"
    assert run(gen_args(path)) == 0
    model = bs.load_scenario(str(path))
    assert (model.horizon, model.sensor_count) == (2, 3)


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(gen_args(a)) == 0
    assert run(gen_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_bad_arguments(tmp_path):
    assert run(gen_args(tmp_path / "s.json", n=0)) == 2


def test_schedule_greedy_report(tmp_path):
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    run(gen_args(scenario, seed=4, n=3, m=4, K=3, r=2))
    assert run(["schedule", "--config", str(scenario), "--algorithm", "greedy", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    model = bs.load_scenario(str(scenario))
    schedule = schedule_of(report["schedule"])
    schedule.validate_for(model)
    ev = bs.build_evaluator(model)
    assert report["objective"] == bs.objective_logdet(ev, schedule)
    assert report["fingerprint"] == bs.model_fingerprint(model)
    assert report["gain_evaluations"] > 0
    assert all(
        set(entry) == {"time_index", "sensor", "gain", "objective"}
        for entry in report["trace"]
    )


def test_schedule_empty_matches_prior_logdet(tmp_path):
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    run(gen_args(scenario, seed=4))
    assert run(["schedule", "--config", str(scenario), "--algorithm", "empty", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    model = bs.load_scenario(str(scenario))
    ev = bs.build_evaluator(model)
    assert report["schedule"] == [[] for _ in range(model.horizon)]
    assert report["objective"] == -ev.prior_logdet


def test_schedule_brute_over_cap_exits_3(tmp_path, monkeypatch):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=4, n=2, m=4, K=3, r=2))
    monkeypatch.setenv("BATCHSCHED_ORACLE_CAP", "10")
    code = run(["schedule", "--config", str(scenario), "--algorithm", "brute", "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_schedule_random_requires_seed(tmp_path):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=4))
    code = run(["schedule", "--config", str(scenario), "--algorithm", "random", "--out", str(tmp_path / "r.json")])
    assert code == 2


@pytest.mark.parametrize("command, flag", [
    (["gen", "--n", "2", "--m", "3", "--K", "2", "--r", "1", "--seed", "-1"], "seed"),
    (["schedule", "--config", "{scenario}", "--algorithm", "random", "--seed", "-1"], "seed"),
    (["schedule", "--config", "{scenario}", "--algorithm", "greedy", "--seed", "-1"], "seed"),
    (["schedule", "--config", "{scenario}", "--algorithm", "brute", "--seed", "-1"], "seed"),
    (["schedule", "--config", "{scenario}", "--algorithm", "empty", "--seed", "-1"], "seed"),
    (["fuzz", "--config", "{scenario}", "--property", "super", "--trials", "4", "--seed", "-1"], "seed"),
    (["fuzz", "--config", "{scenario}", "--property", "mono", "--trials", "-3", "--seed", "0"], "trials"),
])
def test_negative_seed_or_trials_exit_2_naming_the_flag(tmp_path, capsys, command, flag):
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    run(gen_args(scenario, seed=4))
    capsys.readouterr()
    argv = [arg.format(scenario=scenario) for arg in command]
    value = argv[argv.index(f"--{flag}") + 1]
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {flag} must be a non-negative integer, got {value}"]
    assert not out.exists()


def test_schedule_random_uses_full_budget(tmp_path):
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    run(gen_args(scenario, seed=4, n=2, m=4, K=3, r=2))
    assert run([
        "schedule", "--config", str(scenario), "--algorithm", "random",
        "--seed", "9", "--out", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    assert all(len(slot) == 2 for slot in report["schedule"])
    assert report["seed"] == 9


def test_schedule_missing_config_exits_2(tmp_path):
    code = run(["schedule", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_schedule_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"discrete-invariant\"}")
    code = run(["schedule", "--config", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_schedule_csv_trace(tmp_path):
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    csv_path = tmp_path / "trace.csv"
    run(gen_args(scenario, seed=4, n=2, m=3, K=2, r=2))
    assert run([
        "schedule", "--config", str(scenario), "--algorithm", "lazy-greedy",
        "--out", str(out), "--csv", str(csv_path),
    ]) == 0
    lines = csv_path.read_text().strip().splitlines()
    report = json.loads(out.read_text())
    assert lines[0] == "time_index,sensor,gain,objective"
    assert len(lines) == 1 + len(report["trace"])


def test_schedule_csv_rejected_without_trace(tmp_path):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=4))
    code = run([
        "schedule", "--config", str(scenario), "--algorithm", "empty",
        "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "t.csv"),
    ])
    assert code == 2


def test_certify_report(tmp_path):
    scenario = tmp_path / "s.json"
    out = tmp_path / "c.json"
    run(gen_args(scenario, seed=4, n=3, m=4, K=2, r=2))
    assert run(["certify", "--config", str(scenario), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ratio"] <= 0.5 + 1e-9
    assert report["opt_value"] <= report["greedy_value"] <= report["max_value"] + 1e-9


def test_certify_zero_budget_ratio_zero(tmp_path):
    scenario = tmp_path / "s.json"
    out = tmp_path / "c.json"
    run(gen_args(scenario, seed=4, n=2, m=3, K=2, r=0))
    assert run(["certify", "--config", str(scenario), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ratio"] == 0.0


def test_certify_over_cap_exits_3(tmp_path, monkeypatch):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=4, n=2, m=4, K=3, r=2))
    monkeypatch.setenv("BATCHSCHED_ORACLE_CAP", "10")
    assert run(["certify", "--config", str(scenario), "--out", str(tmp_path / "c.json")]) == 3


def test_certify_oracle_cap_that_is_not_an_integer_exits_2(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "s.json"
    out = tmp_path / "c.json"
    run(gen_args(scenario, seed=4))
    capsys.readouterr()
    monkeypatch.setenv("BATCHSCHED_ORACLE_CAP", "abc")
    assert run(["certify", "--config", str(scenario), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: BATCHSCHED_ORACLE_CAP must be an integer, got 'abc'"]
    assert not out.exists()


def test_certify_negative_oracle_cap_exits_2(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "s.json"
    out = tmp_path / "c.json"
    run(gen_args(scenario, seed=4))
    capsys.readouterr()
    monkeypatch.setenv("BATCHSCHED_ORACLE_CAP", "-1")
    assert run(["certify", "--config", str(scenario), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: BATCHSCHED_ORACLE_CAP must be a non-negative integer, got '-1'"
    ]
    assert not out.exists()
    # A cap of 0 is valid: every model has at least one feasible schedule.
    monkeypatch.setenv("BATCHSCHED_ORACLE_CAP", "0")
    assert run(["certify", "--config", str(scenario), "--out", str(out)]) == 3


# A tolerance of -inf breaks the value ordering's upper end, max + tol. One
# of -1 keeps the ordering (max - greedy is about 6.6 on this scenario) and
# makes the ratio, 0, exceed 1/2 + tol.
@pytest.mark.parametrize("tolerance, violation", [
    (-math.inf, "value ordering broken: "),
    (-1.0, "approximation ratio 0.0 exceeds 1/2"),
])
def test_certify_violation_exits_4_with_the_instance(tmp_path, capsys, monkeypatch, tolerance, violation):
    scenario = tmp_path / "s.json"
    out = tmp_path / "c.json"
    run(gen_args(scenario, seed=4))
    capsys.readouterr()
    monkeypatch.setattr(analysis, "RATIO_TOL", tolerance)
    assert run(["certify", "--config", str(scenario), "--out", str(out)]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"guarantee violated: {violation}")
    report = json.loads(out.read_text())
    assert report["violation"].startswith(violation)
    fingerprint = bs.model_fingerprint(bs.load_scenario(str(scenario)))
    assert report["fingerprint"] == report["details"]["fingerprint"] == fingerprint
    assert report["details"]["model"] == json.loads(scenario.read_text())


@pytest.mark.parametrize("to_file", [True, False])
def test_fuzz_violation_exits_4_with_the_counterexample(tmp_path, capsys, monkeypatch, to_file):
    scenario = tmp_path / "s.json"
    out = tmp_path / "f.json"
    run(gen_args(scenario, seed=4))
    capsys.readouterr()
    monkeypatch.setattr(analysis, "PROPERTY_TOL", -math.inf)
    argv = ["fuzz", "--config", str(scenario), "--property", "mono", "--trials", "4", "--seed", "0"]
    assert run([*argv, "--out", str(out)] if to_file else argv) == 4
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("property violated: objective increased by ")
    if to_file:
        assert captured.out == ""
        payload = json.loads(out.read_text())
    else:
        assert not out.exists()
        payload = json.loads(captured.out)
    assert payload["property"] == "mono"
    assert line == f"property violated: {payload['violation']}"
    assert payload["fingerprint"] == payload["counterexample"]["fingerprint"]
    assert payload["counterexample"]["model"] == json.loads(scenario.read_text())


@pytest.mark.parametrize("command", ["certify", "fuzz"])
def test_a_violation_fingerprints_the_model_once(tmp_path, capsys, monkeypatch, command):
    scenario = tmp_path / "s.json"
    out = tmp_path / "v.json"
    run(gen_args(scenario, seed=4))
    calls = []

    def counting(model):
        calls.append(model)
        return bs.model_fingerprint(model)

    for module in (cli, analysis):
        monkeypatch.setattr(module, "model_fingerprint", counting)
    monkeypatch.setattr(analysis, "RATIO_TOL", -1.0)
    monkeypatch.setattr(analysis, "PROPERTY_TOL", -math.inf)
    argv = {
        "certify": ["certify", "--config", str(scenario), "--out", str(out)],
        "fuzz": ["fuzz", "--config", str(scenario), "--property", "mono", "--trials", "4", "--seed", "0",
                 "--out", str(out)],
    }[command]
    assert run(argv) == 4
    assert len(calls) == 1
    assert json.loads(out.read_text())["fingerprint"] == bs.model_fingerprint(calls[0])


def test_bounds_report(tmp_path):
    scenario = tmp_path / "s.json"
    out = tmp_path / "b.json"
    run(gen_args(scenario, seed=4, n=2, m=3, K=2, r=1))
    assert run(["bounds", "--config", str(scenario), "--out", str(out), "--alpha", "0.5"]) == 0
    report = json.loads(out.read_text())
    assert {"lower_bound", "min_sensors", "trace_greedy", "trace_empty"} <= set(report)
    assert report["trace_greedy"] >= report["lower_bound"] - 1e-9
    assert report["trace_empty"] >= report["trace_greedy"] - 1e-9


def test_bounds_without_alpha_omits_min_sensors(tmp_path):
    scenario = tmp_path / "s.json"
    out = tmp_path / "b.json"
    run(gen_args(scenario, seed=4))
    assert run(["bounds", "--config", str(scenario), "--out", str(out)]) == 0
    assert "min_sensors" not in json.loads(out.read_text())


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def test_bounds_writes_null_min_sensors_without_sensors(tmp_path):
    # With no sensors no finite count reaches any alpha: the library returns
    # +inf or -inf, and the report holds JSON null either way.
    data = bs.model_to_dict(bs.random_scenario(seed=4, n=2, m=1, K=3, r=0))
    data["sensors"] = []
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    model = bs.load_scenario(str(scenario))
    inputs = bs.bound_inputs(bs.build_evaluator(model))
    for alpha, needed in (("1e-9", math.inf), ("0.5", None), ("1e9", -math.inf)):
        if needed is not None:
            assert bs.min_sensors_for_error(inputs, float(alpha)) == needed
        out = tmp_path / f"b{alpha}.json"
        assert run(["bounds", "--config", str(scenario), "--out", str(out), "--alpha", alpha]) == 0
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert report["min_sensors"] is None
        assert math.isfinite(report["lower_bound"])


def test_schedule_random_fills_every_budget_exactly(tmp_path):
    data = bs.model_to_dict(bs.random_scenario(seed=6, n=2, m=5, K=5, r=0))
    data["budgets"] = [0, 5, 1, 3, 2]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data))
    reports = []
    for seed in ("1", "1", "2"):
        out = tmp_path / f"r{len(reports)}.json"
        assert run(["schedule", "--config", str(scenario), "--algorithm", "random", "--seed", seed, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    for report in reports:
        assert [len(slot) for slot in report["schedule"]] == data["budgets"]
        assert all(slot == sorted(set(slot)) for slot in report["schedule"])
    assert reports[0]["schedule"] == reports[1]["schedule"] != reports[2]["schedule"]


def test_fuzz_commands(tmp_path):
    scenario = tmp_path / "s.json"
    out = tmp_path / "f.json"
    run(gen_args(scenario, seed=4, n=2, m=3, K=2, r=2))
    assert run([
        "fuzz", "--config", str(scenario), "--property", "mono",
        "--trials", "50", "--seed", "1", "--out", str(out),
    ]) == 0
    mono = json.loads(out.read_text())
    assert mono["property"] == "monotonicity"
    assert mono["violations"] == 0
    assert run([
        "fuzz", "--config", str(scenario), "--property", "super",
        "--trials", "50", "--seed", "1", "--out", str(out),
    ]) == 0
    super_report = json.loads(out.read_text())
    assert super_report["property"] == "supermodularity"
    assert super_report["effective_trials"] > 0


def test_fuzz_without_out_prints_the_report_then_one_summary_line(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=4))
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert run(["fuzz", "--config", str(scenario), "--property", "mono", "--trials", "4", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    *report_lines, summary = captured.out.splitlines()
    report = json.loads("\n".join(report_lines))
    assert report["property"] == "monotonicity" and list(report)[-1] == "timings"
    assert summary.startswith("monotonicity: 4/4 trials, max excess ")
    assert captured.out == json.dumps(report, indent=2) + "\n" + summary + "\n"
    assert captured.err == ""
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def strip_timings(payload):
    payload = dict(payload)
    payload.pop("timings", None)
    return payload


def test_pipeline_reproducible(tmp_path):
    reports = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        scenario = base / "s.json"
        sched_out = base / "r.json"
        cert_out = base / "c.json"
        assert run(gen_args(scenario, seed=33, n=3, m=4, K=2, r=2)) == 0
        assert run(["schedule", "--config", str(scenario), "--algorithm", "lazy-greedy", "--out", str(sched_out)]) == 0
        assert run(["certify", "--config", str(scenario), "--out", str(cert_out)]) == 0
        reports.append(
            (
                scenario.read_bytes(),
                strip_timings(json.loads(sched_out.read_text())),
                strip_timings(json.loads(cert_out.read_text())),
            )
        )
    assert reports[0] == reports[1]


@pytest.mark.parametrize("entry", ["x", None, [1.0], 10**400])
def test_schedule_malformed_measurement_time_exits_2(tmp_path, capsys, entry):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=4, K=3))
    data = json.loads(scenario.read_text())
    data["measurement_times"][1] = entry
    scenario.write_text(json.dumps(data))
    code = run(["schedule", "--config", str(scenario), "--algorithm", "empty", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "measurement_times[1]" in capsys.readouterr().err


def test_schedule_non_utf8_config_exits_2(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario))
    scenario.write_bytes(b"\xff\xfe" + scenario.read_bytes())
    code = run(["schedule", "--config", str(scenario), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert str(scenario) in capsys.readouterr().err


@pytest.mark.parametrize("nesting", ["brackets", "input_signal"])
def test_a_deeply_nested_config_exits_2_with_one_error_line(tmp_path, capsys, nesting):
    # Past the interpreter's recursion limit the JSON decoder raises
    # RecursionError, which is a load failure like any malformed file.
    scenario = tmp_path / "s.json"
    if nesting == "brackets":
        scenario.write_text("[" * 100_000)
    else:
        run(gen_args(scenario))
        data = json.loads(scenario.read_text())
        data["input_signal"] = 0
        scenario.write_text(json.dumps(data).replace('"input_signal": 0', '"input_signal": ' + "[" * 1000 + "]" * 1000))
    capsys.readouterr()
    out = tmp_path / "r.json"
    code = run(["schedule", "--config", str(scenario), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: invalid JSON in scenario file: ")
    assert not out.exists()


def test_schedule_directory_config_exits_2(tmp_path, capsys):
    code = run(["schedule", "--config", str(tmp_path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_schedule_unreadable_config_exits_2(tmp_path, capsys, monkeypatch):
    # Permission bits do not stop a superuser, so the read error is injected.
    scenario = tmp_path / "s.json"

    def unreadable(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(cli, "load_scenario", unreadable)
    code = run(["schedule", "--config", str(scenario), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(scenario) in err and "Permission denied" in err


@pytest.mark.parametrize("target", ["missing-directory", "directory", "working-directory"])
@pytest.mark.parametrize("command", ["gen", "schedule", "schedule-csv", "schedule-out-with-csv", "certify", "bounds", "fuzz"])
def test_unwritable_output_path_exits_2_naming_it(tmp_path, capsys, monkeypatch, command, target):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    path = {"missing-directory": str(tmp_path / "missing" / "r.json"), "directory": str(work), "working-directory": "."}[target]
    out, csv = (str(tmp_path / "r.json"), path) if command == "schedule-csv" else (path, str(tmp_path / "t.csv"))
    argv = {
        "gen": gen_args(out),
        "schedule": ["schedule", "--config", str(scenario), "--out", out],
        "schedule-csv": ["schedule", "--config", str(scenario), "--out", out, "--csv", csv],
        "schedule-out-with-csv": ["schedule", "--config", str(scenario), "--out", out, "--csv", csv],
        "certify": ["certify", "--config", str(scenario), "--out", out],
        "bounds": ["bounds", "--config", str(scenario), "--out", out, "--alpha", "0.5"],
        "fuzz": ["fuzz", "--config", str(scenario), "--property", "mono", "--trials", "2", "--seed", "0", "--out", out],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    # Renaming onto the working directory fails with a platform's own reason (EBUSY on Linux).
    reason = {"missing-directory": "No such file or directory", "directory": "Is a directory"}.get(target, "")
    assert line.startswith(f"error: cannot write {path}: {reason}")
    assert not list(tmp_path.rglob(".batchsched-*.tmp"))
    # schedule writes neither of its two files when one cannot be written.
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("csv", ["r.json", "./r.json", "link.json"])
def test_schedule_out_and_csv_naming_one_file_exits_2_writing_nothing(tmp_path, capsys, monkeypatch, csv):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario))
    monkeypatch.chdir(tmp_path)
    os.symlink("r.json", "link.json")
    capsys.readouterr()
    assert run(["schedule", "--config", str(scenario), "--out", "r.json", "--csv", csv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --out r.json and --csv {csv} name the same file"]
    assert not (tmp_path / "r.json").exists()
    assert not list(tmp_path.rglob(".batchsched-*.tmp"))


def test_consecutive_calls_share_the_parser_but_no_parsed_state(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=4, n=2, m=3, K=3, r=1))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    argv = ["schedule", "--config", str(scenario), "--algorithm", "random", "--seed", "5", "--out", str(first)]
    assert run(argv) == 0
    assert run(["fuzz", "--config", str(scenario), "--property", "mono", "--trials", "2", "--seed", "9"]) == 0
    assert run(["schedule", "--config", str(scenario), "--out", str(second)]) == 0
    report = json.loads(second.read_text())
    assert "seed" not in report and report["algorithm"] == "greedy"
    assert json.loads(first.read_text())["seed"] == 5
    # A rejected command line leaves the parser usable.
    with pytest.raises(SystemExit):
        run(["schedule", "--config", str(scenario)])
    assert run(["schedule", "--config", str(scenario), "--algorithm", "empty", "--out", str(second)]) == 0
    assert "seed" not in json.loads(second.read_text())
    assert cli._build_parser() is cli._build_parser()


def test_bounds_discretizes_each_interval_once(tmp_path, monkeypatch):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, K=6, kind="continuous-variant"))
    calls = []
    original = prior._discretize

    def counting(model, first, stop):
        calls.extend(range(first, stop))
        return original(model, first, stop)

    # The batched kernel that every discretization goes through.
    monkeypatch.setattr(prior, "_discretize", counting)
    out = tmp_path / "b.json"
    assert run(["bounds", "--config", str(scenario), "--out", str(out), "--alpha", "0.5"]) == 0
    assert sorted(calls) == list(range(5))


@pytest.mark.parametrize("K", [128, 256])
@pytest.mark.parametrize("kind", ["continuous-invariant", "discrete-invariant"])
def test_long_horizon_invariant_scenarios_evaluate(tmp_path, kind, K):
    # These scenarios have unobserved unstable modes, on which a block Schur
    # pass over the prior information fails with NotPositiveDefinite at D_K.
    scenario = tmp_path / "s.json"
    out = str(tmp_path / "r.json")
    assert run(gen_args(scenario, seed=0, n=6, m=10, K=K, r=3, kind=kind)) == 0
    config = ["--config", str(scenario), "--out", out]
    for algorithm in ("greedy", "random", "empty"):
        assert run(["schedule", *config, "--algorithm", algorithm, "--seed", "1"]) == 0
        assert math.isfinite(json.loads(Path(out).read_text())["objective"])
    assert run(["fuzz", *config, "--property", "super", "--trials", "4", "--seed", "1"]) == 0
    assert json.loads(Path(out).read_text())["violations"] == 0
    assert run(["bounds", *config]) == 0
    _assert_bounds_ordered(json.loads(Path(out).read_text()))


def _assert_bounds_ordered(report):
    values = [report["lower_bound"], report["trace_greedy"], report["trace_empty"]]
    assert all(math.isfinite(v) for v in values)
    assert values == sorted(values)


@pytest.mark.parametrize("seed", [0, 1])
def test_bounds_evaluates_the_trace_where_the_dense_inverse_failed(tmp_path, seed):
    # n*K = 384: the dense information matrix of these scenarios failed its
    # Cholesky factorization.
    scenario = tmp_path / "s.json"
    out = tmp_path / "b.json"
    assert run(gen_args(scenario, seed=seed, n=6, m=10, K=64, r=3)) == 0
    assert run(["bounds", "--config", str(scenario), "--out", str(out)]) == 0
    _assert_bounds_ordered(json.loads(out.read_text()))


def test_a_numeric_string_in_a_matrix_exits_2_naming_the_field(tmp_path, capsys):
    scenario, out = tmp_path / "s.json", tmp_path / "r.json"
    run(gen_args(scenario, seed=4))
    data = json.loads(scenario.read_text())
    data["initial_state_cov"][0][0] = "2.0"
    scenario.write_text(json.dumps(data))
    assert run(["schedule", "--config", str(scenario), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: P_1 must contain numbers, not strings\n"
    assert not out.exists()


def test_mirrored_near_max_entries_of_opposite_sign_exit_2_naming_w(tmp_path, capsys):
    # Their difference leaves the double range; their halves' does not.
    scenario, out = tmp_path / "s.json", tmp_path / "r.json"
    data = bs.model_to_dict(bs.random_scenario(seed=0, n=2, m=2, K=2, r=1))
    data["process_noise_cov"] = [[1e308, 1e308], [-1e308, 1e308]]
    scenario.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["schedule", "--config", str(scenario), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: W must be symmetric\n"
    assert not out.exists()


def test_non_positive_definite_sensor_noise_exits_2_with_its_pivot_ratio(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=4))
    data = json.loads(scenario.read_text())
    data["sensors"][0]["V"] = [[1.0, 0.0], [0.0, 1e-15]]
    scenario.write_text(json.dumps(data))
    assert run(["schedule", "--config", str(scenario), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "V_1 is not positive definite: smallest Cholesky pivot ratio 1e-15" in err
    assert "PD_PIVOT_RTOL = 1e-12" in err


def test_bounds_reports_a_null_empty_trace_unless_the_greedy_trace_overflows(tmp_path, capsys):
    # The empty schedule's variance leaves the double range at the last slot,
    # which the greedy measures: bounds reports its trace as null, as JSON
    # has no infinity. With no budget the greedy measures nothing either,
    # and bounds exits 1 naming where.
    scenario = tmp_path / "s.json"
    out = tmp_path / "b.json"
    index = overflow_index()
    model = exploding_scalar_model(horizon=index + 1)
    bs.save_scenario(model, str(scenario))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["bounds", "--config", str(scenario), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["trace_empty"] is None
        assert math.isfinite(report["trace_greedy"]) and report["lower_bound"] <= report["trace_greedy"]
        out.unlink()
        bs.save_scenario(dataclasses.replace(model, budgets=(0,) * (index + 1)), str(scenario))
        assert run(["bounds", "--config", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: predicted covariance at time index {index} is not finite: the error variance exceeds "
        "the double range (unstable dynamics over a long stretch without measurements?)"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["schedule", "--algorithm", "greedy"],
    ["schedule", "--algorithm", "lazy-greedy"],
    ["schedule", "--algorithm", "random", "--seed", "1"],
    ["schedule", "--algorithm", "brute"],
    ["certify"],
    ["fuzz", "--property", "super", "--trials", "4", "--seed", "0"],
    ["fuzz", "--property", "mono", "--trials", "4", "--seed", "0"],
])
def test_a_budget_past_the_overflowing_unmeasured_variance_evaluates(tmp_path, capsys, command):
    # Only the last slot has a budget, one past the index where the
    # unmeasured variance leaves the double range. The covariance form's
    # gain was not finite there, and every command exited 1; the information
    # only underflows. Tier-1 turns a RuntimeWarning into an error, so the
    # sweep must print none. A schedule that measures the last slot reports
    # the information form's value.
    horizon = overflow_index() + 2
    model = dataclasses.replace(exploding_scalar_model(horizon), budgets=(0,) * (horizon - 1) + (1,))
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    bs.save_scenario(model, str(scenario))
    assert run([*command, "--config", str(scenario), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    schedule = report.get("schedule") or report.get("opt_schedule")
    if schedule is not None:
        assert schedule[-1] == [0]
        ev = bs.build_evaluator(model)
        oracle = oracle_objective(ev, bs.Schedule(schedule))
        value = report.get("objective", report.get("opt_value"))
        assert abs(value - oracle) <= 1e-12 * abs(oracle)


def test_bounds_past_the_overflowing_unmeasured_variance_reports_a_null_empty_trace(tmp_path, capsys):
    # The greedy measures the last slot, and its trace is finite: the
    # covariance form's forward sweep left the double range before that slot.
    # The empty schedule's total does leave the double range, so bounds
    # reports it as null and the greedy's trace as computed.
    horizon = overflow_index() + 2
    model = dataclasses.replace(exploding_scalar_model(horizon), budgets=(0,) * (horizon - 1) + (1,))
    ev = bs.build_evaluator(model)
    greedy, _ = bs.greedy_schedule(ev)
    reference = mpmath_error_trace(ev, greedy, digits=60)
    assert abs(reference - 172.11111111111111) <= 1e-15 * reference
    assert abs(bs.batch_error_trace(ev, greedy) - reference) <= MPMATH_TRACE_RTOL * reference
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    bs.save_scenario(model, str(scenario))
    assert run(["bounds", "--config", str(scenario), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["trace_empty"] is None
    assert report["trace_greedy"] == bs.batch_error_trace(ev, greedy)


@pytest.mark.parametrize("command", [["schedule"], ["certify"], ["bounds", "--alpha", "0.5"]])
def test_sensor_entries_near_the_double_range_exit_1_with_one_line(tmp_path, capsys, command):
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    bs.save_scenario(huge_sensor_model(r=1), str(scenario))
    assert run([*command, "--config", str(scenario), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    # Nothing was predicted before slot 0: the sensor's scale overflowed.
    assert line == (
        "error: gain at time index 0 is not finite: a whitened sensor row or transition left the "
        "double range (measurement matrix or dynamics too large for its noise covariance?)"
    )
    assert not out.exists()


@pytest.mark.parametrize("field", ["measurement_times", "dynamics"])
def test_a_discretization_that_overflows_exits_1_with_one_line(tmp_path, capsys, field):
    # An interval so long, or dynamics so fast, that exp(A dt) leaves the
    # double range; before, numpy warned and Q_1 was blamed for not being
    # positive definite.
    data = bs.model_to_dict(bs.random_scenario(seed=1, n=2, m=3, K=3, r=1, kind="continuous-variant"))
    if field == "measurement_times":
        data["measurement_times"] = [0.0, 1e300, 1.7e308]
    else:
        data["dynamics"][0] = [[1e308, 0.0], [0.0, 1.0]]
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    scenario.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["schedule", "--config", str(scenario), "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "error: discretization of interval 1 (time index 0 to 1) is not finite: Phi_1 or Q_1 left "
        "the double range (dynamics or interval length too large?)"
    )
    assert not out.exists()


def test_an_initial_variance_past_half_the_double_range_runs_every_command(tmp_path, capsys):
    # P_1 = 1e308: its symmetric part, taken as (P_1 + P_1.T) / 2, overflowed,
    # so every command warned and bounds exited 1. The empty schedule's trace
    # is 1e308 (1 + 1/4 + 1/16) plus a few units.
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    bs.save_scenario(halving_scalar_model(p1=1e308), str(scenario))
    for command in (
        ["schedule"],
        ["schedule", "--algorithm", "random", "--seed", "1"],
        ["certify"],
        ["fuzz", "--property", "super", "--trials", "5", "--seed", "1"],
        ["bounds"],
    ):
        assert run([*command, "--config", str(scenario), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["trace_empty"] == pytest.approx(1.3125e308, rel=1e-15)


def test_bounds_with_no_budget_ignore_the_sensors_scale(tmp_path):
    # Nothing is measured, so the lower bound is the prior's however large C is.
    scenario = tmp_path / "s.json"
    out = tmp_path / "r.json"
    bs.save_scenario(huge_sensor_model(r=0), str(scenario))
    assert run(["bounds", "--config", str(scenario), "--alpha", "0.5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    model = bs.load_scenario(str(scenario))
    inputs = bs.bound_inputs(bs.build_evaluator(model))
    assert inputs.c_norm_sq == math.inf
    assert report["lower_bound"] == pytest.approx(model.state_dim * model.horizon / inputs.sigma_w_inv, rel=1e-12)
    assert report["lower_bound"] <= report["trace_empty"]


def test_lazy_greedy_is_an_alias_of_greedy(tmp_path):
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=9, n=3, m=5, K=4, r=2))
    reports = {}
    for algorithm in ("greedy", "lazy-greedy"):
        out = tmp_path / f"{algorithm}.json"
        assert run(["schedule", "--config", str(scenario), "--algorithm", algorithm, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report.pop("algorithm") == algorithm
        del report["timings"]
        reports[algorithm] = report
    assert reports["greedy"] == reports["lazy-greedy"]
    assert reports["greedy"]["trace"]


def fresh_interpreter(args):
    """``python *args`` in a new interpreter that imports this batchsched,
    as the console script would run; stdout and stderr are captured."""
    source = str(Path(bs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=False)


def test_greedy_and_certify_print_no_warning_where_only_unbudgeted_slots_overflow(tmp_path):
    # Every budget is zero and the unmeasured variance overflows at the last
    # slot, which no command needs to reach. A fresh interpreter shows
    # numpy's RuntimeWarnings on stderr as the console script would.
    horizon = overflow_index() + 1
    model = dataclasses.replace(exploding_scalar_model(horizon), budgets=(0,) * horizon)
    scenario = tmp_path / "s.json"
    bs.save_scenario(model, str(scenario))
    for command in (["schedule", "--algorithm", "greedy"], ["certify"]):
        result = fresh_interpreter(
            ["-m", "batchsched.cli", *command, "--config", str(scenario), "--out", str(tmp_path / "r.json")]
        )
        assert result.returncode == 0, result.stderr
        assert "Warning" not in result.stderr


@pytest.mark.parametrize("kind", ["continuous-variant", "discrete-invariant"])
def test_every_command_runs_without_scipy(tmp_path, kind):
    # The runtime needs numpy alone: with scipy made unimportable before the
    # first import, every command and algorithm still exits 0.
    scenario = str(tmp_path / "s.json")
    out = ["--config", scenario, "--out", str(tmp_path / "r.json")]
    argvs = [
        ["gen", "--n", "3", "--m", "4", "--K", "4", "--r", "2", "--kind", kind, "--seed", "5", "--out", scenario],
        *(["schedule", "--algorithm", algorithm, "--seed", "1", *out] for algorithm in cli.ALGORITHMS),
        ["certify", *out],
        ["bounds", "--alpha", "1.0", *out],
        ["fuzz", "--property", "mono", "--trials", "8", "--seed", "0", *out],
        ["fuzz", "--property", "super", "--trials", "8", "--seed", "0", *out],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from batchsched.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    result = fresh_interpreter(["-c", code, json.dumps(argvs)])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [0] * len(argvs), result.stderr


def test_importing_the_cli_loads_no_scipy_module():
    result = fresh_interpreter(
        ["-c", "import sys, batchsched.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]


@pytest.mark.parametrize("excess", [0, 1])
def test_input_signal_nested_past_its_bound_exits_2_naming_it(tmp_path, excess):
    # Intake bounds the nesting far below the recursion limit, which the
    # fuzzers' fingerprint used to meet a few frames after the load passed.
    depth = bs.model.INPUT_SIGNAL_MAX_DEPTH + excess
    signal = []
    for _ in range(depth - 1):
        signal = [signal, 0.5]
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=0, n=2, m=3, K=3, r=1))
    scenario.write_text(json.dumps({**json.loads(scenario.read_text()), "input_signal": signal}))
    out = tmp_path / "r.json"
    for command in (["schedule"], ["fuzz", "--property", "super", "--trials", "4", "--seed", "0"]):
        result = fresh_interpreter(["-m", "batchsched.cli", *command, "--config", str(scenario), "--out", str(out)])
        if excess:
            assert result.returncode == 2, result.stderr
            assert result.stderr.splitlines() == [
                f"error: input_signal must nest lists and objects at most {depth - 1} deep"
            ]
            assert not out.exists()
        else:
            assert result.returncode == 0, result.stderr
            assert json.loads(out.read_text())["fingerprint"]


def test_input_signal_beyond_the_double_range_exits_2_naming_it(tmp_path, capsys):
    # JSON reads 1e400 as infinity, which no saved scenario file may hold.
    scenario = tmp_path / "s.json"
    run(gen_args(scenario, seed=0, n=2, m=3, K=3, r=1))
    data = json.loads(scenario.read_text())
    data["input_signal"] = 0
    scenario.write_text(json.dumps(data).replace('"input_signal": 0', '"input_signal": {"u": 1e400}'))
    capsys.readouterr()
    out = tmp_path / "r.json"
    code = run(["schedule", "--config", str(scenario), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: input_signal must be JSON with finite numbers: ")
    assert not out.exists()


def _long_unmeasured_stretch_scenario(path):
    """Measurements only at slots 0, 128 and 255 of an unstable model (CHANGES.md line 7)."""
    model = bs.random_scenario(seed=0, n=6, m=10, K=256, r=3, kind="discrete-invariant")
    model = dataclasses.replace(model, budgets=tuple(3 if k in (0, 128, 255) else 0 for k in range(256)))
    bs.save_scenario(model, str(path))
    return model


@pytest.mark.parametrize("algorithm", [["greedy"], ["random", "--seed", "1"]])
def test_schedules_evaluate_a_long_unmeasured_unstable_stretch(tmp_path, capsys, algorithm):
    # The covariance form lost precision over the unmeasured stretches, and
    # both exited 1 with NotPositiveDefinite. Both schedules fill every
    # budget, where the information-form oracle still evaluates.
    scenario = tmp_path / "s.json"
    model = _long_unmeasured_stretch_scenario(scenario)
    out = tmp_path / "r.json"
    assert run(["schedule", "--config", str(scenario), "--algorithm", *algorithm, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    ev = bs.build_evaluator(model)
    schedule = bs.Schedule(report["schedule"])
    assert report["objective"] == bs.objective_logdet(ev, schedule)
    assert report["objective"] == pytest.approx(oracle_objective(ev, schedule), rel=1e-12, abs=0)


# bounds' greedy trace on line 7's input against selected_inversion_trace,
# relative. A 50-digit mpmath_error_trace (1.6 s, too slow for this suite)
# put batch_error_trace within 3.4e-15 of it and the oracle within 8.9e-13:
# the tolerance is the oracle's.
LINE_7_TRACE_RTOL = 1e-11


def test_bounds_evaluates_a_long_unmeasured_unstable_stretch(tmp_path, capsys):
    # The covariance form lost precision over the unmeasured stretch before
    # slot 128, and bounds exited 1 with NotPositiveDefinite.
    scenario = tmp_path / "s.json"
    model = _long_unmeasured_stretch_scenario(scenario)
    out = tmp_path / "r.json"
    assert run(["bounds", "--config", str(scenario), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    ev = bs.build_evaluator(model)
    greedy, _ = bs.greedy_schedule(ev)
    oracle = selected_inversion_trace(ev, greedy)
    assert abs(report["trace_greedy"] - oracle) <= LINE_7_TRACE_RTOL * oracle


@pytest.mark.parametrize("prop, per_trial", [("mono", per_trial_monotonicity), ("super", per_trial_supermodularity)])
def test_fuzz_evaluates_a_long_unmeasured_unstable_stretch(tmp_path, capsys, prop, per_trial):
    # The covariance form raised NotPositiveDefinite for a trial here, and
    # the fuzzer exited 1.
    scenario = tmp_path / "s.json"
    model = _long_unmeasured_stretch_scenario(scenario)
    out = tmp_path / "r.json"
    argv = ["fuzz", "--config", str(scenario), "--property", prop, "--trials", "8", "--seed", "1"]
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["violations"] == 0
    assert report["effective_trials"] == per_trial(model, 8, 1)[0]
