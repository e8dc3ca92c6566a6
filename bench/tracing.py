"""Spans around the calls one batchsched layer makes into another.

Tracing works by replacing, for the duration of a traced pass only, the
module-level names through which a layer reaches another layer's public
functions (``batchsched.scheduler.objective_logdet`` is the scheduler's
handle on the objective). Each wrapper records a span: name, start, end,
parent span and op id. Spans stay in memory and are written out at the end.
A name a later version of the package no longer has is skipped, and the
metrics that depend on it read zero.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager

# (module the call is made from, attribute name). Same-module entries catch
# calls inside a layer that the per-layer metrics need: marginal_gain's two
# objective passes, brute_force_opt under certify_ratio, discretize_interval
# under build_prior_information.
WRAP_POINTS = (
    ("cli", "load_scenario"),
    ("cli", "model_fingerprint"),
    ("cli", "build_evaluator"),
    ("cli", "objective_logdet"),
    ("cli", "batch_error_trace"),
    ("cli", "greedy_schedule"),
    ("cli", "brute_force_opt"),
    ("cli", "certify_ratio"),
    ("cli", "error_lower_bound"),
    ("cli", "min_sensors_for_error"),
    ("cli", "fuzz_monotonicity"),
    ("cli", "fuzz_supermodularity"),
    ("analysis", "model_fingerprint"),
    ("analysis", "build_evaluator"),
    ("analysis", "objective_logdet"),
    ("analysis", "marginal_gain"),
    ("analysis", "build_prior_information"),
    ("analysis", "greedy_schedule"),
    ("analysis", "brute_force_opt"),
    ("scheduler", "objective_logdet"),
    ("objective", "build_prior_information"),
    ("objective", "objective_logdet"),
    ("prior", "discretize_interval"),
)

# Span record fields.
NAME, VIA, PARENT, OP, START, END, ERROR, INFO = range(8)
ROOT = "cli.main"


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def call(self, name: str, via: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [name, via, parent, self.op_id, 0.0, 0.0, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            record[ERROR] = [type(exc).__name__, str(exc)]
            raise
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
        record[INFO] = _info(name, args, kwargs, result)
        return result


def _info(name: str, args, kwargs, result):
    """Counts a per-layer metric needs from a call's arguments or result."""
    if name == "objective.objective_logdet":
        return {"K": getattr(args[0], "horizon", 0)} if args else None
    if name == "scheduler.greedy_schedule":
        opts = args[2] if len(args) > 2 else kwargs.get("opts")
        trace = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        return {
            "K": getattr(args[1], "horizon", 0) if len(args) > 1 else 0,
            "lazy": getattr(opts, "lazy", True),
            "evaluations": getattr(trace, "gain_evaluations", 0),
            "accepted": len(getattr(trace, "entries", ())),
        }
    if name.startswith("analysis.fuzz_"):
        return {"trials": getattr(result, "effective_trials", 0)}
    return None


def _wrap(tracer: Tracer, fn, via: str):
    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

    def traced(*args, **kwargs):
        return tracer.call(name, via, fn, args, kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    saved = []
    try:
        for module_name, attr in WRAP_POINTS:
            module = importlib.import_module(f"batchsched.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, module_name))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _loglog_slope(points: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median time) against log K; 0 with fewer than two K."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(k) for k in points]
    ys = [math.log(statistics.median(v)) for v in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(all_spans: list[list], window: range, op_labels: dict[int, str]) -> dict[str, float]:
    """Per-layer times and counts over the spans in ``window`` (one traced pass).

    Parent indices refer to ``all_spans``; ``op_labels`` maps op ids to labels.
    """
    duration = [s[END] - s[START] for s in all_spans]
    children = [0.0] * len(all_spans)
    for i, s in enumerate(all_spans):
        if s[PARENT] is not None:
            children[s[PARENT]] += duration[i]
    own = [d - c for d, c in zip(duration, children)]
    picked = list(window)
    spans = [all_spans[i] for i in picked]
    duration = [duration[i] for i in picked]
    own = [own[i] for i in picked]

    def total(name, values=duration):
        return sum((v for s, v in zip(spans, values) if s[NAME] == name), 0.0)

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    def info_sum(name, key):
        return sum((s[INFO] or {}).get(key, 0) for s in spans if s[NAME] == name)

    logdet_s = total("objective.objective_logdet")
    logdet_blocks = info_sum("objective.objective_logdet", "K")
    evaluations = info_sum("scheduler.greedy_schedule", "evaluations")
    visited = sum(
        1
        for s in spans
        if s[NAME] == "objective.objective_logdet"
        and s[PARENT] is not None
        and all_spans[s[PARENT]][NAME] == "analysis.brute_force_opt"
    )
    brute_s = total("analysis.brute_force_opt")
    lazy_times: dict[int, list[float]] = {}
    for s, d in zip(spans, duration):
        if (
            s[NAME] == "scheduler.greedy_schedule"
            and op_labels.get(s[OP]) == "schedule:lazy-greedy"
            and (s[INFO] or {}).get("lazy")
        ):
            lazy_times.setdefault(s[INFO]["K"], []).append(d)
    return {
        "cli.self_s": total(ROOT, own),
        "model.load_s": total("model.load_scenario"),
        "model.fingerprint_s": total("model.model_fingerprint"),
        "prior.build_s": total("prior.build_prior_information"),
        "prior.discretize_calls": count("prior.discretize_interval"),
        "objective.build_s": total("objective.build_evaluator", own),
        "objective.logdet_calls": count("objective.objective_logdet"),
        "objective.logdet_s": logdet_s,
        "objective.logdet_us_per_block": 1e6 * logdet_s / logdet_blocks if logdet_blocks else 0.0,
        "objective.gain_calls": count("objective.marginal_gain"),
        "objective.gain_s": total("objective.marginal_gain"),
        "objective.trace_s": total("objective.batch_error_trace"),
        "scheduler.greedy_s": total("scheduler.greedy_schedule"),
        "scheduler.self_s": total("scheduler.greedy_schedule", own),
        "scheduler.gain_evaluations": evaluations,
        "scheduler.accept_ratio": (
            info_sum("scheduler.greedy_schedule", "accepted") / evaluations if evaluations else 0.0
        ),
        "scheduler.k_exponent": _loglog_slope(lazy_times),
        "analysis.brute_s": brute_s,
        "analysis.schedules_visited": visited,
        "analysis.us_per_schedule": 1e6 * brute_s / visited if visited else 0.0,
        "analysis.fuzz_s": total("analysis.fuzz_monotonicity") + total("analysis.fuzz_supermodularity"),
        "analysis.fuzz_trials": (
            info_sum("analysis.fuzz_monotonicity", "trials")
            + info_sum("analysis.fuzz_supermodularity", "trials")
        ),
    }


def failing_exceptions(all_spans: list[list], window: range) -> dict[int, tuple[str, str]]:
    """Per op id in ``window``: class and message of the exception that ended the op.

    That is the error on the op's outermost failed span below ``main``; the
    CLI turns it into an exit code and one stderr line.
    """
    found: dict[int, tuple[str, str]] = {}
    for i in window:
        s = all_spans[i]
        if s[ERROR] is not None and s[PARENT] is not None and all_spans[s[PARENT]][NAME] == ROOT:
            found.setdefault(s[OP], (s[ERROR][0], s[ERROR][1]))
    return found
