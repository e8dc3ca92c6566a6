"""Certification and bounds.

Exhaustive oracles certify the greedy guarantee on small instances, fuzzers
probe the structural properties the guarantee rests on (monotonicity and
diminishing returns), and closed-form limits bound the achievable total
error variance for any feasible schedule.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, product
from typing import Iterator

import numpy as np

from .errors import (
    EnumerationCapExceeded,
    GuaranteeViolated,
    InvalidArgument,
    NotPositiveDefinite,
    NumericOverflow,
    PropertyViolated,
)
from .model import Schedule, SystemModel, model_fingerprint, model_to_dict, sensor_stacks
from .objective import (
    ObjectiveEvaluator,
    SweepState,
    advance,
    build_evaluator,
    objective_logdet,
    objective_values,
    predict,
)
# The fuzzers no longer call marginal_gain, and bound_inputs reads the prior
# information's diagonal without assembling it; both names stay importable
# from this module only because bench/tracing.py lists them as wrap points
# and bench/test_bench.py requires every wrap point to exist.
from .objective import marginal_gain  # noqa: F401
from .prior import build_prior_information  # noqa: F401
from .scheduler import greedy_schedule

# Largest number of feasible schedules exhaustive search may enumerate; an
# explicit ``cap`` argument, then the CAP_ENV_VAR environment variable,
# override it.
ENUMERATION_CAP_DEFAULT = 2_000_000
CAP_ENV_VAR = "BATCHSCHED_ORACLE_CAP"

RATIO_TOL = 1e-9
DEGENERATE_SPREAD = 1e-12
PROPERTY_TOL = 1e-9
# Branch and bound skips a slot's subset, with every schedule through it,
# only when its lower bound exceeds the incumbent by more than this fraction
# of max(1, |prior log-det|, |incumbent value|), which bounds the magnitudes
# the sweep sums; a mere roundoff difference never prunes the optimum or an
# exact tie.
BOUND_SLACK_RTOL = 1e-9


@dataclass(frozen=True)
class RatioCertificate:
    """Greedy value against the exhaustive optimum and worst value.

    ``ratio`` is (greedy - opt) / (max - opt), defined as 0 when the spread
    is numerically zero (greedy then trivially matches the optimum).
    """

    greedy_value: float
    opt_value: float
    max_value: float
    ratio: float
    opt_schedule: Schedule
    fingerprint: str

    def to_dict(self) -> dict:
        return {
            "greedy_value": self.greedy_value,
            "opt_value": self.opt_value,
            "max_value": self.max_value,
            "ratio": self.ratio,
            "opt_schedule": self.opt_schedule.to_lists(),
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class BoundInputs:
    """Scalars feeding the error-variance limits.

    sigma_w_inv: largest diagonal entry of the prior information matrix.
    sigma_v_inv: largest spectral norm among inverse sensor noise covariances.
    c_norm_sq:   squared spectral norm of the vertically stacked measurement
                 matrices (repeating the stack per time preserves the norm).
    """

    sigma_w_inv: float
    sigma_v_inv: float
    c_norm_sq: float
    r_max: int
    state_dim: int
    horizon: int


@dataclass
class FuzzReport:
    """Outcome of a property fuzzing run; deterministic given (seed, trials)."""

    property_name: str
    trials: int
    effective_trials: int
    max_excess: float | None
    tolerance: float
    seed: int
    fingerprint: str
    violations: int = 0
    counterexamples: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "trials": self.trials,
            "effective_trials": self.effective_trials,
            "max_excess": self.max_excess,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "violations": self.violations,
            "counterexamples": self.counterexamples,
        }


@lru_cache(maxsize=None)
def _slot_subsets(m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All subsets of [0, m) with size at most r, in lexicographic order."""
    return tuple(sorted(chain.from_iterable(combinations(range(m), size) for size in range(r + 1))))


def feasible_schedule_count(model: SystemModel) -> int:
    m = model.sensor_count
    return math.prod(sum(math.comb(m, size) for size in range(r + 1)) for r in model.budgets)


def iter_feasible_schedules(model: SystemModel) -> Iterator[Schedule]:
    """Every feasible schedule, in lexicographic order of the slot tuples."""
    per_slot = [_slot_subsets(model.sensor_count, r) for r in model.budgets]
    for slots in product(*per_slot):
        yield Schedule(selections=slots)


def _check_enumeration_cap(model: SystemModel, cap: int | None) -> None:
    count = feasible_schedule_count(model)
    limit = cap
    if limit is None:
        raw = os.environ.get(CAP_ENV_VAR)
        try:
            limit = ENUMERATION_CAP_DEFAULT if raw is None else int(raw)
        except ValueError:
            raise InvalidArgument(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if count > limit:
        raise EnumerationCapExceeded(f"{count} feasible schedules exceed cap {limit}")


@lru_cache(maxsize=None)
def _subset_incidence(m: int, r: int) -> np.ndarray:
    """0/1 matrix whose row s marks the sensors of ``_slot_subsets(m, r)[s]``."""
    subsets = _slot_subsets(m, r)
    incidence = np.zeros((len(subsets), m))
    for row, subset in enumerate(subsets):
        incidence[row, list(subset)] = 1.0
    incidence.setflags(write=False)
    return incidence


def _child_bounds(
    ev: ObjectiveEvaluator, model: SystemModel, state: SweepState, last: int
) -> np.ndarray:
    """Lower bound on the objective of every schedule through ``state`` that
    selects subset S at slot k = ``state.k``, for each S of ``_slot_subsets``.

    A slot's gain never exceeds the sum of its sensors' singleton gains, and
    a gain only shrinks as earlier slots measure more. So slot k adds at
    most the sum over S of the singleton gains g at ``state.cov``, and each
    later slot j up to ``last``, the last one with a nonzero budget, at most
    the top r_j singleton gains at the covariance predicted from
    ``state.cov`` with slots k..j-1 left empty. The singleton gains come
    from the evaluator's ``SingletonScorer``, and one product with the
    subsets' incidence matrix sums them for every S. Returns -inf for every
    S, which prunes nothing, if a singleton factorization fails.
    """
    k = state.k
    incidence = _subset_incidence(model.sensor_count, model.budgets[k])
    try:
        gains = ev.scorer(state.cov)
        rest = 0.0
        cov = state.cov
        for j in range(k + 1, last + 1):
            cov = predict(ev, cov, j - 1)
            budget = model.budgets[j]
            if budget:
                rest += float(np.sort(ev.scorer(cov))[-budget:].sum())
    except NotPositiveDefinite:
        return np.full(len(incidence), -math.inf)
    return state.value - rest - incidence @ gains


@np.errstate(over="ignore", invalid="ignore")
def brute_force_opt(
    ev: ObjectiveEvaluator,
    model: SystemModel,
    cap: int | None = None,
    incumbent: Schedule | None = None,
) -> tuple[Schedule, float]:
    """Exhaustive minimizer over all feasible schedules, by branch and bound.

    Walks the tree of ``iter_feasible_schedules`` depth first and
    iteratively: ``entering[k]`` is the sweep state entering slot k under the
    current schedule's first k slots, so a schedule costs one slot update
    per slot after the prefix it shares with the previous one. The walk
    stops at the last slot with a nonzero budget: later slots are empty in
    every feasible schedule and change no term.

    On arriving at a slot with a nonzero budget, ``_child_bounds`` bounds
    each of its subsets at once. A subset is skipped, before its slot
    update or leaf evaluation, when its bound exceeds the best value so far
    by more than ``BOUND_SLACK_RTOL`` of the values' scale, which roundoff
    cannot bridge; the best value starts at the objective of ``incumbent``
    (the greedy schedule when None), which ``Schedule.validate_for`` must
    accept for the model. Every schedule
    the walk reaches is scored by ``objective_logdet`` resumed from the last
    state (bit-identical to a full sweep) and replaces the best only if
    strictly lower, so ties break toward the lexicographically smallest
    schedule, the first one enumerated.
    """
    model.require_validated()
    _check_enumeration_cap(model, cap)
    if incumbent is None:
        _, trace = greedy_schedule(ev, model)
        ceiling = trace.entries[-1].objective if trace.entries else trace.start_objective
    else:
        ceiling = objective_logdet(ev, incumbent.validate_for(model))
    # ceiling: the least objective known to be reachable. A subset whose
    # bound exceeds it by more than the slack cannot hold the optimum.
    slack = BOUND_SLACK_RTOL * max(1.0, abs(ev.prior_logdet), abs(ceiling))
    choices = [_slot_subsets(model.sensor_count, r) for r in model.budgets]
    last = max((k for k, r in enumerate(model.budgets) if r), default=-1)
    leaf = max(last, 0)
    slots = [()] * model.horizon
    entering = [SweepState.initial(ev)]

    def children(k: int) -> list[tuple[float, int]]:
        """Slot k's subsets not pruned on arrival, as (bound, index) pairs,
        last subset first so that the next one pops off the end."""
        if not model.budgets[k]:
            return [(-math.inf, 0)]
        bounds = _child_bounds(ev, model, entering[k], last)
        # Written so that a NaN bound prunes nothing.
        keep = np.flatnonzero(~(bounds > ceiling + slack))[::-1]
        return list(zip(bounds[keep].tolist(), keep.tolist()))

    pending = [children(0)]  # pending[k]: slot k's subsets still to walk
    best_schedule = None
    best_value = math.inf
    k = 0
    while k >= 0:
        if not pending[k]:
            del pending[k], entering[k]
            k -= 1
            continue
        bound, index = pending[k].pop()
        if bound > ceiling + slack:
            continue
        slots[k] = choices[k][index]
        if k < leaf:
            entering.append(advance(ev, slots, entering[k], k + 1))
            k += 1
            pending.append(children(k))
        else:
            schedule = Schedule(selections=tuple(slots))
            value = objective_logdet(ev, schedule, entering[k])
            if value < best_value:
                best_value = value
                best_schedule = schedule
                ceiling = min(ceiling, value)
    return best_schedule, best_value


def worst_value(ev: ObjectiveEvaluator, model: SystemModel) -> float:
    """Worst feasible objective value.

    Adding sensors never increases the objective, so the maximum sits at the
    empty schedule and costs no evaluation: it is minus the prior
    log-determinant.
    """
    model.require_validated()
    return -ev.prior_logdet


def certify_ratio(
    ev: ObjectiveEvaluator, model: SystemModel, cap: int | None = None
) -> RatioCertificate:
    """Certify (greedy - opt) / (max - opt) <= 1/2 by exhaustive search.

    The enumeration cap is checked before any work. The greedy runs once:
    its schedule is the certificate's and seeds the search's incumbent.
    Raises GuaranteeViolated, carrying the full instance, if the bound
    fails; that signals a bug in this library, not a tight instance.
    """
    model.require_validated()
    _check_enumeration_cap(model, cap)
    greedy, _ = greedy_schedule(ev, model)
    greedy_value = objective_logdet(ev, greedy)
    opt_schedule, opt_value = brute_force_opt(ev, model, cap, incumbent=greedy)
    max_value = worst_value(ev, model)
    fingerprint = model_fingerprint(model)

    def _details(ratio=None):
        return {
            "model": model_to_dict(model),
            "fingerprint": fingerprint,
            "greedy_schedule": greedy.to_lists(),
            "greedy_value": greedy_value,
            "opt_schedule": opt_schedule.to_lists(),
            "opt_value": opt_value,
            "max_value": max_value,
            "ratio": ratio,
        }

    if not (opt_value <= greedy_value <= max_value + RATIO_TOL):
        raise GuaranteeViolated(
            f"value ordering broken: opt={opt_value}, greedy={greedy_value}, max={max_value}",
            details=_details(),
        )
    spread = max_value - opt_value
    ratio = 0.0 if spread <= DEGENERATE_SPREAD else (greedy_value - opt_value) / spread
    if ratio > 0.5 + RATIO_TOL:
        raise GuaranteeViolated(
            f"approximation ratio {ratio} exceeds 1/2", details=_details(ratio)
        )
    return RatioCertificate(
        greedy_value=greedy_value,
        opt_value=opt_value,
        max_value=max_value,
        ratio=ratio,
        opt_schedule=opt_schedule,
        fingerprint=fingerprint,
    )


def random_schedule(rng: np.random.Generator, sensor_count: int, sizes) -> Schedule:
    """A schedule with sizes[k] sensors at slot k, each slot's set uniform
    among the sets of its size. One draw for every slot: the first sizes[k]
    entries of an argsort of uniform keys are a uniform subset."""
    sizes = np.asarray(sizes, dtype=int)
    widest = int(sizes.max(initial=0))
    picked = np.argsort(rng.random((len(sizes), sensor_count)), axis=1)[:, :widest]
    # Past a slot's size, a sentinel that sorts last.
    picked[np.arange(widest) >= sizes[:, None]] = sensor_count
    picked.sort(axis=1)
    return Schedule(selections=tuple(
        tuple(row[:size]) for row, size in zip(picked.tolist(), sizes.tolist())
    ))


def _random_feasible(rng: np.random.Generator, model: SystemModel) -> Schedule:
    """Slot k's size uniform over 0..r_k, then a uniform set of that size."""
    sizes = rng.integers(0, np.asarray(model.budgets) + 1)
    return random_schedule(rng, model.sensor_count, sizes)


def _random_subschedule(rng: np.random.Generator, schedule: Schedule) -> Schedule:
    """Each selected sensor kept with probability 1/2, from one draw."""
    keep = iter((rng.random(sum(map(len, schedule.selections))) < 0.5).tolist())
    return Schedule(selections=tuple(
        tuple(i for i in slot if next(keep)) for slot in schedule.selections
    ))


def _trial_values(ev: ObjectiveEvaluator, trials: list[tuple[Schedule, ...]]) -> Iterator[list[float]]:
    """Each trial's objective values, from one ``objective_values`` call; if
    that raises, from ``objective_logdet`` as the caller reaches each trial,
    so the first trial in draw order to fail or violate decides."""
    try:
        values = iter(objective_values(ev, list(chain.from_iterable(trials))).tolist())
    except (NotPositiveDefinite, NumericOverflow):
        return ([objective_logdet(ev, schedule) for schedule in trial] for trial in trials)
    return ([next(values) for _ in trial] for trial in trials)


def fuzz_monotonicity(model: SystemModel, trials: int, seed: int) -> FuzzReport:
    """Sample nested schedule pairs and check the objective never increases.

    Raises PropertyViolated with the counterexample on the first failure;
    otherwise reports the largest observed excess (at most roundoff).
    """
    model.require_validated()
    ev = build_evaluator(model)
    rng = np.random.default_rng(seed)
    fingerprint = model_fingerprint(model)
    sups = (_random_feasible(rng, model) for _ in range(trials))
    pairs = [(sup, _random_subschedule(rng, sup)) for sup in sups]
    max_excess = None
    for (sup, sub), (sup_value, sub_value) in zip(pairs, _trial_values(ev, pairs)):
        excess = sup_value - sub_value
        if max_excess is None or excess > max_excess:
            max_excess = excess
        if excess > PROPERTY_TOL:
            raise PropertyViolated(
                f"objective increased by {excess} when sensors were added",
                counterexample={
                    "subset": sub.to_lists(),
                    "superset": sup.to_lists(),
                    "excess": excess,
                    "fingerprint": fingerprint,
                    "model": model_to_dict(model),
                },
            )
    return FuzzReport(
        property_name="monotonicity", trials=trials, effective_trials=trials,
        max_excess=max_excess, tolerance=PROPERTY_TOL, seed=seed, fingerprint=fingerprint,
    )


def fuzz_supermodularity(model: SystemModel, trials: int, seed: int) -> FuzzReport:
    """Sample nested schedules plus an addition and check diminishing returns.

    The gain of one extra sensor on the smaller schedule must be at least its
    gain on the larger one; each gain is the difference of two objective
    values. Trials where no slot has budget room are skipped and counted out
    of ``effective_trials``.
    """
    model.require_validated()
    ev = build_evaluator(model)
    rng = np.random.default_rng(seed)
    fingerprint = model_fingerprint(model)
    drawn = []  # (k, i, small, big) for each effective trial
    for _ in range(trials):
        big = _random_feasible(rng, model)
        room = [k for k, slot in enumerate(big.selections) if len(slot) < model.budgets[k]]
        if not room:
            continue
        k = int(room[int(rng.integers(0, len(room)))])
        free = [i for i in range(model.sensor_count) if i not in big.selections[k]]
        i = int(free[int(rng.integers(0, len(free)))])
        drawn.append((k, i, _random_subschedule(rng, big), big))
    schedules = [(s, s.with_added(k, i), b, b.with_added(k, i)) for k, i, s, b in drawn]
    max_excess = None
    for (k, i, small, big), values in zip(drawn, _trial_values(ev, schedules)):
        gain_small = values[0] - values[1]
        gain_big = values[2] - values[3]
        excess = gain_big - gain_small
        if max_excess is None or excess > max_excess:
            max_excess = excess
        if excess > PROPERTY_TOL:
            raise PropertyViolated(
                f"marginal gain grew by {excess} on the larger schedule",
                counterexample={
                    "small": small.to_lists(),
                    "big": big.to_lists(),
                    "time_index": k,
                    "sensor": i,
                    "gain_small": gain_small,
                    "gain_big": gain_big,
                    "excess": excess,
                    "fingerprint": fingerprint,
                    "model": model_to_dict(model),
                },
            )
    return FuzzReport(
        property_name="supermodularity", trials=trials, effective_trials=len(drawn),
        max_excess=max_excess, tolerance=PROPERTY_TOL, seed=seed, fingerprint=fingerprint,
    )


def bound_inputs(ev: ObjectiveEvaluator, model: SystemModel) -> BoundInputs:
    """Scalars entering the error-variance limits; schedule-independent.

    sigma_w_inv needs only the diagonals of the prior information blocks
    that ``build_prior_information`` assembles (its oracle in the tests):

        diag_1 = P_1^-1 + Phi_1.T Q_1^-1 Phi_1
        diag_k = Q_{k-1}^-1 + Phi_k.T Q_k^-1 Phi_k     for 1 < k < K
        diag_K = Q_{K-1}^-1

    With M = L L.T, diag(M^-1) is the column sums of squares of L^-1, and
    diag(Phi.T M^-1 Phi) that of L^-1 Phi; one stacked factorization and
    solve over the evaluator's intervals gives them all, so no interval is
    discretized again and no block is formed.
    """
    model.require_validated()
    if ev.horizon != model.horizon or ev.sensor_count != model.sensor_count:
        raise InvalidArgument("evaluator does not match the model")
    n = model.state_dim
    eye = np.eye(n)
    # Row k: the diagonal of block k.
    diagonals = np.square(np.linalg.solve(np.linalg.cholesky(ev.initial_cov), eye)).sum(axis=0)[None]
    if ev.propagations:
        # Per interval j, the solve gives [L_j^-1, L_j^-1 Phi_j] for Q_j = L_j L_j.T.
        rhs = np.stack([np.concatenate((eye, p.transition), axis=1) for p in ev.propagations])
        lower = np.linalg.cholesky(np.stack([p.noise_cov for p in ev.propagations]))
        sums = np.square(np.linalg.solve(lower, rhs)).sum(axis=1)
        diagonals = np.concatenate((diagonals, sums[:, :n]))
        diagonals[:-1] += sums[:, n:]
    sigma_w_inv = float(diagonals.max())
    if model.sensor_count:
        sigma_v_inv = max(
            float((1.0 / np.linalg.eigvalsh(noise)[:, 0]).max()) for _, _, noise in sensor_stacks(model.sensors)
        )
        stacked = np.vstack([sensor.C for sensor in model.sensors])
        c_norm_sq = float(np.linalg.norm(stacked, 2)) ** 2
    else:
        sigma_v_inv = 0.0
        c_norm_sq = 0.0
    return BoundInputs(
        sigma_w_inv=sigma_w_inv,
        sigma_v_inv=sigma_v_inv,
        c_norm_sq=c_norm_sq,
        r_max=max(model.budgets),
        state_dim=model.state_dim,
        horizon=model.horizon,
    )


def error_lower_bound(b: BoundInputs) -> float:
    """Lower bound on the total error variance of any feasible schedule."""
    return b.state_dim / (b.sigma_v_inv * b.r_max * b.c_norm_sq + b.sigma_w_inv / b.horizon)


def min_sensors_for_error(b: BoundInputs, alpha: float) -> float:
    """Least per-time sensor count compatible with total error variance alpha.

    May be nonpositive (the constraint is vacuous); returned as-is.
    """
    if not alpha > 0:
        raise InvalidArgument(f"alpha must be positive, got {alpha!r}")
    numerator = b.state_dim / alpha - b.sigma_w_inv / b.horizon
    denominator = b.sigma_v_inv * b.c_norm_sq
    if denominator == 0.0:
        return -math.inf if numerator <= 0 else math.inf
    return numerator / denominator
