"""Greedy sensor scheduling.

A per-time outer loop fills the slot at each measurement time in order,
carrying the filter covariance conditioned on all earlier selections; each
slot is filled by a single-step greedy that repeatedly accepts the candidate
with the largest marginal gain. With later slots still empty, a candidate's
gain is one measurement update of that covariance, so a whole schedule costs
time linear in the horizon.

Eager and lazy share that step and differ only in how many stale gains it
refreshes: eager re-scores every remaining candidate each round, lazy only
those whose stale gain could still win; their outputs are identical.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .model import Schedule, SystemModel
from .objective import (
    ObjectiveEvaluator,
    SweepState,
    advance,
    check_schedule,
    objective_logdet,
    predict,
    slot_step,
)

# Gains within this absolute distance of the step's best gain count as tied;
# ties resolve to the smallest sensor index so runs are reproducible and the
# lazy and eager paths agree bit for bit.
GAIN_TIE_TOL = 1e-12


@dataclass(frozen=True)
class GreedyOptions:
    lazy: bool = True


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


@dataclass
class _StepOutcome:
    cov: np.ndarray  # filter covariance conditioned on the filled slot
    objective: float
    accepted: list[tuple[int, float, float]]  # (sensor, gain, objective after)
    evaluations: int


def greedy_step(
    ev: ObjectiveEvaluator,
    prefix: Schedule,
    k: int,
    budget: int,
    opts: GreedyOptions = GreedyOptions(),
) -> tuple[int, ...]:
    """Fill the slot at time index k greedily, given earlier selections.

    ``prefix`` must leave slot k and every later slot empty: a candidate's
    gain is then its measurement update's log-determinant at the filter
    covariance, which later measurements would change.
    """
    if not 0 <= k < ev.horizon:
        raise InvalidArgument(f"time index {k} out of range for horizon {ev.horizon}")
    if budget < 0:
        raise InvalidArgument(f"budget must be nonnegative, got {budget}")
    if any(prefix.selections[k:]):
        raise InvalidArgument(f"slot {k} and every later slot must be empty before the greedy step")
    check_schedule(ev, prefix)
    state = advance(ev, prefix.selections, SweepState.initial(ev), k)
    outcome = _greedy_step(ev, state.cov, state.value, budget, opts)
    return tuple(sorted(i for i, _, _ in outcome.accepted))


def _greedy_step(ev, cov, value, budget, opts) -> _StepOutcome:
    accepted: list[tuple[int, float, float]] = []
    evaluations = 0

    # Heap entries: (-gain, sensor). Every key in the heap was scored before
    # the latest acceptance, so it is stale; an infinite key means not yet
    # scored. Stale gains only ever overestimate: conditioning on more
    # measurements shrinks the covariance.
    heap = [(-math.inf, i) for i in range(ev.sensor_count)]
    while heap and len(accepted) < budget:
        # Eager re-scores every remaining candidate. Lazy refreshes only until
        # every entry that could still tie with the best fresh gain is fresh;
        # anything whose stale key is below the tie band cannot win.
        pool: list[tuple[float, int, np.ndarray]] = []
        best = -math.inf
        while heap and (not opts.lazy or not pool or -heap[0][0] >= best - GAIN_TIE_TOL):
            _, i = heapq.heappop(heap)
            gain, with_cov = slot_step(ev, cov, (i,))
            evaluations += 1
            pool.append((gain, i, with_cov))
            best = max(best, gain)
        pool.sort(key=lambda entry: entry[1])
        gain, winner, cov = next(e for e in pool if e[0] >= best - GAIN_TIE_TOL)
        for other_gain, other, _ in pool:
            if other != winner:
                heapq.heappush(heap, (-other_gain, other))
        value -= gain
        accepted.append((winner, gain, value))
    return _StepOutcome(cov, value, accepted, evaluations)


def greedy_schedule(
    ev: ObjectiveEvaluator,
    model: SystemModel,
    opts: GreedyOptions = GreedyOptions(),
) -> tuple[Schedule, GreedyTrace]:
    """Greedy schedule over the whole horizon.

    Fills each time slot in order with the single-step greedy; the result is
    always feasible, and two runs on equal inputs are bit-identical.
    """
    model.require_validated()
    if ev.horizon != model.horizon or ev.sensor_count != model.sensor_count:
        raise InvalidArgument("evaluator does not match the model")
    value = objective_logdet(ev, Schedule.empty(model.horizon))
    trace = GreedyTrace(start_objective=value)
    cov = ev.initial_cov
    slots = []
    for k in range(model.horizon):
        if k:
            cov = predict(ev, cov, k - 1)
        outcome = _greedy_step(ev, cov, value, model.budgets[k], opts)
        cov = outcome.cov
        value = outcome.objective
        trace.gain_evaluations += outcome.evaluations
        trace.entries.extend(
            TraceEntry(time_index=k, sensor=i, gain=g, objective=v)
            for i, g, v in outcome.accepted
        )
        slots.append(tuple(sorted(i for i, _, _ in outcome.accepted)))
    return Schedule(selections=tuple(slots)), trace
