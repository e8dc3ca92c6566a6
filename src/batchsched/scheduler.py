"""Greedy sensor scheduling.

A per-time outer loop fills the slot at each measurement time in order,
conditioning on all earlier selections; each slot is filled by a single-step
greedy that repeatedly accepts the candidate with the largest marginal gain.
Eager and lazy share that step and differ only in how many stale gains it
refreshes: eager re-scores every remaining candidate each round, lazy only
those whose stale gain could still win; their outputs are identical.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .errors import InvalidArgument
from .model import Schedule, SystemModel
from .objective import ObjectiveEvaluator, objective_logdet

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
    schedule: Schedule
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

    ``prefix`` must leave slot k empty; slots after k are ignored by the
    greedy logic but participate in the objective, so they are normally
    empty too.
    """
    base = objective_logdet(ev, prefix)
    outcome = _greedy_step(ev, prefix, k, budget, opts, base)
    return outcome.schedule.selections[k]


def _greedy_step(ev, prefix, k, budget, opts, base_objective) -> _StepOutcome:
    if not 0 <= k < ev.horizon:
        raise InvalidArgument(f"time index {k} out of range for horizon {ev.horizon}")
    if budget < 0:
        raise InvalidArgument(f"budget must be nonnegative, got {budget}")
    if prefix.selections[k]:
        raise InvalidArgument(f"slot {k} must be empty before the greedy step")
    current = prefix
    value = base_objective
    accepted: list[tuple[int, float, float]] = []
    evaluations = 0

    # Heap entries: (-gain, sensor, stamp, objective with the sensor added).
    # A stamp older than the current inner iteration marks the gain as stale;
    # stamp 0 with an infinite key means not yet scored.
    heap = [(-math.inf, i, 0, math.nan) for i in range(ev.sensor_count)]
    step = 1
    while heap and len(accepted) < budget:
        # Eager re-scores every remaining candidate. Lazy refreshes only until
        # every entry that could still tie with the best fresh gain is fresh;
        # stale keys only ever overestimate, so anything below the tie band
        # cannot win this iteration.
        pool: list[tuple[float, int, float]] = []
        best = -math.inf
        while heap and (not opts.lazy or not pool or -heap[0][0] >= best - GAIN_TIE_TOL):
            neg, i, stamp, with_value = heapq.heappop(heap)
            if stamp == step:
                gain = -neg
            else:
                with_value = objective_logdet(ev, current.with_added(k, i))
                evaluations += 1
                gain = value - with_value
            pool.append((gain, i, with_value))
            best = max(best, gain)
        pool.sort(key=lambda entry: entry[1])
        gain, winner, with_value = next(e for e in pool if e[0] >= best - GAIN_TIE_TOL)
        for other_gain, other, other_value in pool:
            if other != winner:
                heapq.heappush(heap, (-other_gain, other, step, other_value))
        current = current.with_added(k, winner)
        value = with_value
        accepted.append((winner, gain, with_value))
        step += 1
    return _StepOutcome(current, value, accepted, evaluations)


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
    schedule = Schedule.empty(model.horizon)
    value = objective_logdet(ev, schedule)
    trace = GreedyTrace(start_objective=value)
    for k in range(model.horizon):
        outcome = _greedy_step(ev, schedule, k, model.budgets[k], opts, value)
        schedule = outcome.schedule
        value = outcome.objective
        trace.gain_evaluations += outcome.evaluations
        trace.entries.extend(
            TraceEntry(time_index=k, sensor=i, gain=g, objective=v)
            for i, g, v in outcome.accepted
        )
    return schedule, trace
