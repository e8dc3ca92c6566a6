"""Summaries of op outcomes: medians, the tail percentile, failure counts."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Outcome:
    """Result of one op: exit code (None if an exception escaped ``main``),
    wall seconds inside ``main``, and why it failed, if it did."""

    op_id: int
    label: str
    rc: int | None
    seconds: float
    error_key: str | None = None
    message: str = ""
    incorrect: bool = False
    # Seconds scaled to the reference host speed (see reference.py); timed runs only.
    scaled_seconds: float | None = None

    @property
    def failed(self) -> bool:
        return self.error_key is not None


def tail(values: list[float], passes: int = 1) -> tuple[float, float] | None:
    """(value, percentile) of the tail of a run of whole passes over the op list.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    beyond it in one pass: with N samples per pass that is the percentile
    100 (N - TAIL_BEYOND) / N. Over several passes the same percentile is
    read from all samples, so exactly TAIL_BEYOND samples per pass lie
    beyond the value and the level does not change with the run's length.
    None when a pass has too few samples.
    """
    count = len(values)
    if count <= TAIL_BEYOND * passes:
        return None
    beyond = TAIL_BEYOND * passes
    return sorted(values)[count - beyond - 1], 100.0 * (count - beyond) / count


def latency_summary(values: list[float], passes: int = 1) -> dict:
    """Median and tail of the latencies of ``passes`` whole passes, with the sample count."""
    summary = {"count": len(values)}
    if values:
        summary["p50"] = statistics.median(values)
    found = tail(values, passes)
    if found is not None:
        summary["tail"], summary["tail_percentile"] = found
    return summary


def error_rate(outcomes: list[Outcome]) -> float:
    """Failed ops over attempted ops; a nonzero exit and a failed check both count."""
    if not outcomes:
        return 0.0
    return sum(o.failed for o in outcomes) / len(outcomes)


def error_table(outcomes: list[Outcome]) -> dict[str, dict]:
    """Count and first message per error key, in order of first appearance."""
    table: dict[str, dict] = {}
    for o in outcomes:
        if o.failed:
            entry = table.setdefault(o.error_key, {"count": 0, "first_message": o.message})
            entry["count"] += 1
    return table


def latencies(outcomes: list[Outcome], prefix: str = "") -> list[float]:
    """Wall seconds of the ops whose label starts with ``prefix``.

    A failed op contributes the time it took to fail; failures are counted
    separately, against the ops attempted.
    """
    return [o.seconds for o in outcomes if o.label.startswith(prefix)]
