"""Tests of the benchmark itself: checks, failure accounting and statistics.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from checks import Checker  # noqa: E402
from stats import Outcome, error_rate, error_table, tail  # noqa: E402
from tracing import WRAP_POINTS, Tracer, installed, layer_metrics  # noqa: E402
from workloads import build_workload  # noqa: E402

from batchsched import cli  # noqa: E402


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "long-horizon", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_tail_has_exactly_ten_samples_beyond_it():
    assert tail([float(x) for x in range(1, 11)]) is None
    value, pct = tail([float(x) for x in range(1, 12)])
    assert (value, pct) == (1.0, pytest.approx(100 / 11))
    value, pct = tail([float(x) for x in range(100, 0, -1)])
    assert (value, pct) == (90.0, 90.0)
    assert sum(x > value for x in range(1, 101)) == 10
    # Three passes of 100 samples read the same percentile, 30 samples beyond.
    value, pct = tail([float(x) for x in range(1, 301)], passes=3)
    assert (value, pct) == (270.0, 90.0)
    assert tail([1.0] * 30, passes=3) is None


def test_error_rate_counts_nonzero_exits_and_failed_checks():
    outcomes = [
        Outcome(op_id=0, label="certify", rc=0, seconds=0.1),
        Outcome(op_id=1, label="certify", rc=1, seconds=0.1, error_key="exit_1", message="error: D_9"),
        Outcome(op_id=2, label="certify", rc=0, seconds=0.1, error_key="check", message="bad"),
        Outcome(op_id=3, label="certify", rc=1, seconds=0.1, error_key="exit_1", message="error: D_7"),
    ]
    assert error_rate(outcomes) == 0.75
    assert error_table(outcomes) == {
        "exit_1": {"count": 2, "first_message": "error: D_9"},
        "check": {"count": 1, "first_message": "bad"},
    }
    assert error_rate([]) == 0.0


def test_op_seconds_are_scaled_by_the_reference_runs_on_both_sides(monkeypatch):
    ref = reference.Reference()
    slowdown = iter([2.0, 2.0, 4.0])
    monkeypatch.setattr(ref, "run", lambda units: units * reference.UNIT_S * next(slowdown))
    ref.prime(units=1000)
    # Host at half speed on both sides: 3 s of wall time are 1.5 s at reference speed.
    assert ref.after(3.0) == pytest.approx(1.5)
    # Half speed before, quarter speed after, as many reference units each:
    # together a third of reference speed.
    assert ref.after(3.0) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def certify_op(tmp_path_factory):
    workload = build_workload("certify-exhaustive", 3, str(tmp_path_factory.mktemp("work")))
    return workload.ops[0]


def _run_and_check(op, checker=None):
    outcome = run.execute(op, cli.main)
    run.evaluate(op, outcome, checker or Checker())
    return outcome


def test_clean_report_passes(certify_op):
    outcome = _run_and_check(certify_op)
    assert outcome.rc == 0 and not outcome.failed and not outcome.incorrect


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({**json.loads(text), "ratio": 0.75}),
        lambda text: json.dumps({**json.loads(text), "greedy_value": -1e300}),
        lambda text: json.dumps({**json.loads(text), "fingerprint": "0" * 64}),
        lambda text: json.dumps({**json.loads(text), "opt_schedule": [[0, 0]]}),
    ],
    ids=["truncated", "ratio", "order", "fingerprint", "infeasible"],
)
def test_corrupted_report_counts_as_failed_op(certify_op, corrupt):
    outcome = run.execute(certify_op, cli.main)
    path = Path(certify_op.out)
    path.write_text(corrupt(path.read_text()))
    run.evaluate(certify_op, outcome, Checker())
    assert outcome.failed and outcome.incorrect and outcome.error_key == "check"
    assert error_rate([outcome]) == 1.0


def test_missing_report_counts_as_failed_op(certify_op):
    outcome = run.execute(certify_op, lambda argv: 0)
    run.evaluate(certify_op, outcome, Checker())
    assert outcome.failed and "unreadable" in outcome.message


def test_nonzero_exit_records_code_and_stderr_line(certify_op):
    def failing(argv):
        print("error: D_3", file=sys.stderr)
        return 1

    outcome = run.execute(certify_op, failing)
    assert (outcome.error_key, outcome.message, outcome.incorrect) == ("exit_1", "error: D_3", False)


def test_greedy_objective_matches_dense_oracle_and_lazy_matches_eager(tmp_path):
    workload = build_workload("greedy-horizon", 5, str(tmp_path))
    ops = [op for op in workload.ops if op.scenario.name == "K8-discrete-variant"]
    assert sorted(op.label for op in ops) == ["bounds", "schedule:greedy", "schedule:lazy-greedy"]
    checker = Checker()
    for op in ops:
        outcome = _run_and_check(op, checker)
        assert not outcome.failed, outcome.message
    eager = next(op for op in ops if op.label == "schedule:greedy")
    run.execute(eager, cli.main)
    report = json.loads(Path(eager.out).read_text())
    assert checker.check(eager, report) is None
    report["objective"] += 1e-3
    assert "dense slogdet" in checker.check(eager, report)


def test_tracing_restores_wrapped_names_and_counts_repeat(certify_op):
    originals = {
        (module, attr): getattr(importlib.import_module(f"batchsched.{module}"), attr)
        for module, attr in WRAP_POINTS
    }
    tracer = Tracer()
    windows = []
    for _ in range(2):
        first = len(tracer.spans)
        with installed(tracer):
            outcome = run.execute(certify_op, cli.main, tracer)
        assert not outcome.failed
        windows.append(range(first, len(tracer.spans)))
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(f"batchsched.{module}"), attr) is fn
    labels = {certify_op.op_id: certify_op.label}
    first, second = (layer_metrics(tracer.spans, w, labels) for w in windows)
    counted = [k for k in first if run._unit(k) == "count"]
    assert counted and all(first[k] == second[k] for k in counted)
    assert first["analysis.schedules_visited"] > 0
