"""Greedy sensor scheduling.

A per-time outer loop fills the slot at each measurement time in order,
carrying the square-root information factor conditioned on all earlier
selections; each slot is filled by a single-step greedy that repeatedly
accepts the candidate with the largest marginal gain, the objective's
decrease with it measured last. Each round reads every candidate's, and the
winner's conditioned factor, from one ``sweep_step`` call, so a whole
schedule costs time linear in the horizon and in the sensor count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import logdet_from_cholesky
from .model import Schedule
from .objective import ObjectiveEvaluator, _not_finite, objective_logdet, sweep_step, sweep_terms

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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def greedy_schedule(ev: ObjectiveEvaluator) -> tuple[Schedule, GreedyTrace]:
    """Greedy schedule over the whole horizon, within ``ev.model``'s budgets.

    Fills each time slot in order with the single-step greedy; the result is
    always feasible, and two runs on equal inputs are bit-identical. The
    factor is carried only to the last slot with a nonzero budget. Raises
    NumericOverflow, naming the time index, if a gain is not finite.
    """
    value = objective_logdet(ev, Schedule.empty(ev.horizon))
    trace = GreedyTrace(start_objective=value)
    last = max((k for k, r in enumerate(ev.model.budgets) if r), default=-1)
    root = ev.initial_root
    # The objective so far less the swept terms before slot k and the trailing
    # logdet Q_j, kept apart from those large sums so gains lose nothing to
    # their cancellation: logdet P_1 at slot 0.
    offset = float(sweep_terms(root.diagonal()))
    slots: list[tuple[int, ...]] = [()] * ev.horizon
    for k in range(last + 1):
        if k:
            diagonal, root = sweep_step(ev, root, ev.padded[-1, :0], k - 1, True)
            offset = offset - float(sweep_terms(diagonal)) + logdet_from_cholesky(ev.noise_factors[k - 1])
        remaining = list(range(ev.sensor_count))  # candidates, in index order
        accepted: list[int] = []
        while remaining and len(accepted) < ev.model.budgets[k]:
            # One step gives every candidate's conditioned factor and closing
            # term; its gain, one evaluation, is the offset less that term. The
            # winner is the first candidate within the tie band of the best
            # gain. Plain lists: numpy's per-call overhead would cost more here.
            diagonal, factors = sweep_step(ev, root, ev.padded[remaining], k, False)
            closing = sweep_terms(diagonal)
            gains = (offset - closing).tolist()
            if not math.isfinite(sum(gains)):
                raise _not_finite("gain", k)
            trace.gain_evaluations += len(gains)
            best = max(gains)
            position = next(p for p, gain in enumerate(gains) if gain >= best - GAIN_TIE_TOL)
            winner = remaining.pop(position)
            accepted.append(winner)
            root, offset = factors[position] * ev.upper, float(closing[position])
            value -= gains[position]
            trace.entries.append(TraceEntry(time_index=k, sensor=winner, gain=gains[position], objective=value))
        slots[k] = tuple(sorted(accepted))
    return Schedule(slots), trace
