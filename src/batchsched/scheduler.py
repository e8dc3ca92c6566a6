"""Greedy sensor scheduling.

A per-time outer loop fills the slot at each measurement time in order,
carrying the filter covariance conditioned on all earlier selections; each
slot is filled by a single-step greedy that repeatedly accepts the candidate
with the largest marginal gain. With later slots still empty, a candidate's
gain is the log-determinant of one measurement update of that covariance:
each round reads every candidate's from one ``singleton_gains`` call and
conditions on the winner alone, so a whole schedule costs time linear in the
horizon and in the sensor count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Schedule
from .objective import ObjectiveEvaluator, _lost_precision, objective_logdet, predict, singleton_gains, slot_step

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
def greedy_schedule(ev: ObjectiveEvaluator) -> tuple[Schedule, GreedyTrace]:
    """Greedy schedule over the whole horizon, within ``ev.model``'s budgets.

    Fills each time slot in order with the single-step greedy; the result is
    always feasible, and two runs on equal inputs are bit-identical. The
    covariance is carried only to the last slot with a nonzero budget; later
    slots stay empty. Raises NotPositiveDefinite, naming the first sensor
    and the time index, if roundoff breaks a sensor's factorization.
    """
    value = objective_logdet(ev, Schedule.empty(ev.horizon))
    trace = GreedyTrace(start_objective=value)
    last = max((k for k, r in enumerate(ev.model.budgets) if r), default=-1)
    cov = ev.initial_cov
    slots: list[tuple[int, ...]] = [()] * ev.horizon
    for k in range(last + 1):
        if k:
            cov = predict(ev, cov, k - 1)
        remaining = list(range(ev.sensor_count))  # candidates, in index order
        accepted: list[int] = []
        while remaining and len(accepted) < ev.model.budgets[k]:
            # One call gives every sensor's gain at the covariance conditioned
            # on the sensors accepted so far; each candidate's counts as one
            # evaluation. The winner is the first candidate within the tie band
            # of the round's best gain. Plain lists: at the sensor counts in use,
            # numpy's per-call overhead would cost more than the selection.
            gains = singleton_gains(ev, cov).tolist()
            if any(map(math.isnan, gains)):
                raise _lost_precision(f"sensor {next(i for i, g in enumerate(gains) if math.isnan(g))}", k)
            trace.gain_evaluations += len(remaining)
            best = max([gains[i] for i in remaining])
            winner = next(i for i in remaining if gains[i] >= best - GAIN_TIE_TOL)
            remaining.remove(winner)
            accepted.append(winner)
            gain, cov = slot_step(ev, cov, (winner,), k)
            value -= gain
            trace.entries.append(TraceEntry(time_index=k, sensor=winner, gain=gain, objective=value))
        slots[k] = tuple(sorted(accepted))
    return Schedule(slots), trace
