"""Greedy sensor scheduling.

A per-time outer loop fills the slot at each measurement time in order,
carrying the filter covariance conditioned on all earlier selections; each
slot is filled by a single-step greedy that repeatedly accepts the candidate
with the largest marginal gain. With later slots still empty, a candidate's
gain is the log-determinant of one measurement update of that covariance:
each round reads every candidate's from one ``SingletonScorer`` call and
conditions on the winner alone, so a whole schedule costs time linear in the
horizon and in the sensor count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .model import Schedule, require_integer
from .objective import ObjectiveEvaluator, advance, objective_logdet, predict, slot_step

# Gains within this absolute distance of the round's best gain count as
# tied; ties resolve to the smallest sensor index, so runs are reproducible
# and roundoff in a gain never decides between near-equal candidates.
GAIN_TIE_TOL = 1e-12


@dataclass(frozen=True)
class TraceEntry:
    time_index: int
    sensor: int
    gain: float
    objective: float


@dataclass
class GreedyTrace:
    """Diagnostics: accepted sensors in order, plus evaluation accounting."""

    start_objective: float
    entries: list[TraceEntry] = field(default_factory=list)
    gain_evaluations: int = 0


@np.errstate(over="ignore", invalid="ignore")
def greedy_step(ev: ObjectiveEvaluator, prefix: Schedule, k: int, budget: int) -> tuple[int, ...]:
    """Fill the slot at time index k greedily, given earlier selections.

    ``prefix`` must leave slot k and every later slot empty: a candidate's
    gain is then its measurement update's log-determinant at the filter
    covariance, which later measurements would change.
    """
    require_integer("time index", k)
    require_integer("budget", budget)
    if not 0 <= k < ev.horizon:
        raise InvalidArgument(f"time index {k} out of range for horizon {ev.horizon}")
    if budget < 0:
        raise InvalidArgument(f"budget must be nonnegative, got {budget}")
    if any(prefix.selections[k:]):
        raise InvalidArgument(f"slot {k} and every later slot must be empty before the greedy step")
    prefix.check_shape(ev.horizon, ev.sensor_count)
    cov, value = advance(ev, prefix.selections, k)
    _, entries, _ = _greedy_step(ev, cov, value, k, budget)
    return tuple(sorted(e.sensor for e in entries))


def _greedy_step(ev, cov, value, k, budget) -> tuple[np.ndarray, list[TraceEntry], int]:
    """Fill slot k from covariance ``cov`` and objective ``value``: the conditioned
    covariance, one trace entry per accepted sensor, and the gain evaluations."""
    entries: list[TraceEntry] = []
    evaluations = 0
    remaining = list(range(ev.sensor_count))  # candidates, in index order
    while remaining and len(entries) < budget:
        # One scorer call gives every candidate's gain at the covariance
        # conditioned on the sensors accepted so far; each counts as one
        # evaluation. The winner is the first candidate within the tie band
        # of the round's best gain. Plain lists: at the sensor counts in use,
        # numpy's per-call overhead would cost more than the selection.
        gains = ev.scorer(cov, k).tolist()
        evaluations += len(remaining)
        best = max([gains[i] for i in remaining])
        winner = next(i for i in remaining if gains[i] >= best - GAIN_TIE_TOL)
        remaining.remove(winner)
        gain, cov = slot_step(ev, cov, (winner,), k)
        value -= gain
        entries.append(TraceEntry(time_index=k, sensor=winner, gain=gain, objective=value))
    return cov, entries, evaluations


@np.errstate(over="ignore", invalid="ignore")
def greedy_schedule(ev: ObjectiveEvaluator) -> tuple[Schedule, GreedyTrace]:
    """Greedy schedule over the whole horizon, within ``ev.model``'s budgets.

    Fills each time slot in order with the single-step greedy; the result is
    always feasible, and two runs on equal inputs are bit-identical. The
    covariance is carried only to the last slot with a nonzero budget; later
    slots stay empty.
    """
    value = objective_logdet(ev, Schedule.empty(ev.horizon))
    trace = GreedyTrace(start_objective=value)
    last = max((k for k, r in enumerate(ev.model.budgets) if r), default=-1)
    cov = ev.initial_cov
    slots: list[tuple[int, ...]] = [()] * ev.horizon
    for k in range(last + 1):
        if k:
            cov = predict(ev, cov, k - 1)
        cov, entries, evaluations = _greedy_step(ev, cov, value, k, ev.model.budgets[k])
        if entries:
            value = entries[-1].objective
        trace.entries.extend(entries)
        trace.gain_evaluations += evaluations
        slots[k] = tuple(sorted(e.sensor for e in entries))
    return Schedule(slots), trace
