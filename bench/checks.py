"""Output checks for every op, and the dense oracle the greedy objective is checked against.

A check returns None when the report is right and a one-line reason when it
is not; the runner counts an op with a reason as failed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm, solve_triangular

from workloads import Op, Scenario

# Ceiling on the stacked dimension n*K for the dense objective check.
DENSE_CHECK_MAX = 192
# Relative agreement required between the program's objective and dense
# slogdet; the two agree to about 3e-9 on this workload's scenarios.
DENSE_RTOL = 1e-6
# Slack the program itself allows on the certificate and fuzz tolerances.
RATIO_TOL = 1e-9


def _interval(data: dict, field: str, j: int):
    value = data[field]
    variant = data["kind"].endswith("-variant")
    return np.array(value[j] if variant else value, dtype=float)


def dense_prior_information(data: dict) -> np.ndarray:
    """Dense information matrix of the stacked prior, built as A.T D^-1 A.

    A maps the stacked state to (x_1, x_2 - Phi_1 x_1, ..., x_K - Phi_{K-1} x_{K-1})
    and D = blockdiag(P_1, Q_1, ..., Q_{K-1}) is their covariance. Continuous
    intervals are discretized with Van Loan's augmented matrix exponential.
    """
    n = data["state_dim"]
    times = data["measurement_times"]
    K = len(times)
    continuous = data["kind"].startswith("continuous")
    a_op = np.eye(n * K)
    d_inv = np.zeros((n * K, n * K))
    d_inv[:n, :n] = np.linalg.inv(np.array(data["initial_state_cov"], dtype=float))
    for j in range(K - 1):
        a = _interval(data, "dynamics", j)
        f = _interval(data, "noise_input", j)
        w = _interval(data, "process_noise_cov", j)
        if continuous:
            aug = np.zeros((2 * n, 2 * n))
            aug[:n, :n] = -a
            aug[:n, n:] = f @ w @ f.T
            aug[n:, n:] = a.T
            e = expm(aug * (times[j + 1] - times[j]))
            phi = e[n:, n:].T
            q = phi @ e[:n, n:]
        else:
            phi = a
            q = f @ w @ f.T
        rows = slice((j + 1) * n, (j + 2) * n)
        a_op[rows, j * n:(j + 1) * n] = -phi
        d_inv[rows, rows] = np.linalg.inv((q + q.T) / 2.0)
    return a_op.T @ d_inv @ a_op


def sensor_information(data: dict) -> list[np.ndarray]:
    """C.T V^-1 C per sensor."""
    blocks = []
    for sensor in data["sensors"]:
        c = np.array(sensor["C"], dtype=float)
        lower = np.linalg.cholesky(np.array(sensor["V"], dtype=float))
        white = solve_triangular(lower, c, lower=True)
        blocks.append(white.T @ white)
    return blocks


class DenseOracle:
    """Dense slogdet objective per scenario; the prior is built once per scenario."""

    def __init__(self):
        self._cache: dict[str, tuple[np.ndarray, list[np.ndarray]]] = {}

    def objective(self, scenario: Scenario, schedule: list[list[int]]) -> float:
        if scenario.path not in self._cache:
            self._cache[scenario.path] = (
                dense_prior_information(scenario.data),
                sensor_information(scenario.data),
            )
        prior, blocks = self._cache[scenario.path]
        n = scenario.state_dim
        info = prior.copy()
        for k, slot in enumerate(schedule):
            for i in slot:
                info[k * n:(k + 1) * n, k * n:(k + 1) * n] += blocks[i]
        sign, logdet = np.linalg.slogdet(info)
        if sign <= 0:
            return math.nan
        return -float(logdet)


def _feasible(schedule, scenario: Scenario, exact: bool = False) -> str | None:
    if not isinstance(schedule, list) or len(schedule) != scenario.horizon:
        return f"schedule has {len(schedule) if isinstance(schedule, list) else '?'} slots, expected {scenario.horizon}"
    for k, slot in enumerate(schedule):
        budget = scenario.budgets[k]
        if not isinstance(slot, list) or any(type(i) is not int for i in slot):
            return f"slot {k} is not a list of sensor indices"
        if slot != sorted(set(slot)) or any(not 0 <= i < scenario.sensor_count for i in slot):
            return f"slot {k} = {slot} is not a sorted set of valid sensors"
        if len(slot) > budget or (exact and len(slot) != budget):
            return f"slot {k} selects {len(slot)} sensors, budget is {budget}"
    return None


def _finite(report: dict, *keys: str) -> str | None:
    for key in keys:
        value = report.get(key)
        if type(value) not in (int, float) or not math.isfinite(value):
            return f"{key} = {value!r} is not a finite number"
    return None


class Checker:
    """Checks reports op by op; remembers the latest eager and lazy greedy
    report per scenario so the two can be compared in either order."""

    def __init__(self):
        self.oracle = DenseOracle()
        self._greedy: dict[tuple[str, str], dict] = {}

    def check(self, op: Op, report) -> str | None:
        if not isinstance(report, dict):
            return "report is not a JSON object"
        if report.get("fingerprint") != op.scenario.fingerprint:
            return "fingerprint does not match the scenario file"
        command, _, algorithm = op.label.partition(":")
        if command == "schedule":
            return self._schedule(op, algorithm, report)
        if command == "bounds":
            return self._bounds(report)
        if command == "certify":
            return self._certify(op, report)
        if command == "fuzz":
            return self._fuzz(report)
        return f"no check for op label {op.label}"

    def _schedule(self, op: Op, algorithm: str, report: dict) -> str | None:
        problem = _feasible(report.get("schedule"), op.scenario, exact=(algorithm == "random"))
        problem = problem or _finite(report, "objective")
        if problem or algorithm not in ("greedy", "lazy-greedy"):
            return problem
        problem = _greedy_trace(report)
        if problem:
            return problem
        if op.scenario.state_dim * op.scenario.horizon <= DENSE_CHECK_MAX:
            dense = self.oracle.objective(op.scenario, report["schedule"])
            if not abs(report["objective"] - dense) <= DENSE_RTOL * max(1.0, abs(dense)):
                return f"objective {report['objective']!r} differs from dense slogdet {dense!r}"
        self._greedy[op.scenario.path, algorithm] = report
        eager = self._greedy.get((op.scenario.path, "greedy"))
        lazy = self._greedy.get((op.scenario.path, "lazy-greedy"))
        if eager is None or lazy is None:
            return None
        for key in ("schedule", "objective", "start_objective", "trace"):
            if lazy.get(key) != eager.get(key):
                return f"lazy and eager greedy differ in {key}"
        lazy_n, eager_n = lazy.get("gain_evaluations"), eager.get("gain_evaluations")
        if type(lazy_n) is not int or type(eager_n) is not int or lazy_n > eager_n:
            return f"lazy greedy gain evaluations {lazy_n!r} against eager {eager_n!r}"
        return None

    def _bounds(self, report: dict) -> str | None:
        problem = _finite(report, "lower_bound", "trace_greedy", "trace_empty")
        if problem:
            return problem
        if not report["lower_bound"] <= report["trace_greedy"] <= report["trace_empty"]:
            return (
                f"bounds out of order: lower {report['lower_bound']!r}, "
                f"greedy {report['trace_greedy']!r}, empty {report['trace_empty']!r}"
            )
        return None

    def _certify(self, op: Op, report: dict) -> str | None:
        problem = _finite(report, "opt_value", "greedy_value", "max_value", "ratio")
        problem = problem or _feasible(report.get("opt_schedule"), op.scenario)
        if problem:
            return problem
        opt, greedy, worst = report["opt_value"], report["greedy_value"], report["max_value"]
        if not opt <= greedy <= worst + RATIO_TOL:
            return f"certificate out of order: opt {opt!r}, greedy {greedy!r}, max {worst!r}"
        if not report["ratio"] <= 0.5 + RATIO_TOL:
            return f"certified ratio {report['ratio']!r} exceeds 1/2"
        return None

    def _fuzz(self, report: dict) -> str | None:
        if report.get("violations") != 0:
            return f"fuzz reported {report.get('violations')!r} violations"
        trials, effective = report.get("trials"), report.get("effective_trials")
        if type(trials) is not int or type(effective) is not int or not 0 <= effective <= trials:
            return f"effective trials {effective!r} of {trials!r}"
        excess = report.get("max_excess")
        if effective and not (type(excess) in (int, float) and excess <= report.get("tolerance", RATIO_TOL)):
            return f"max excess {excess!r} above tolerance"
        return None


def _greedy_trace(report: dict) -> str | None:
    trace = report.get("trace")
    if not isinstance(trace, list):
        return "greedy report has no trace"
    previous = report.get("start_objective")
    for entry in trace:
        value = entry.get("objective") if isinstance(entry, dict) else None
        if type(value) not in (int, float) or type(previous) not in (int, float) or value > previous:
            return f"greedy trace objective rose from {previous!r} to {value!r}"
        previous = value
    return None
