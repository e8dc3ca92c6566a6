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
from itertools import chain, combinations, islice
from typing import Callable

import numpy as np

from .errors import (
    EnumerationCapExceeded,
    GuaranteeViolated,
    InvalidArgument,
    PropertyViolated,
)
from .model import (
    Schedule,
    SystemModel,
    freeze_arrays,
    model_fingerprint,
    model_to_dict,
    require_int,
    seeded_rng,
)
from .objective import (
    ObjectiveEvaluator,
    _not_finite,
    carry,
    objective_logdet,
    stacked_values,
    sweep_step,
    sweep_terms,
)
# Called nowhere in this module: bench/tracing.py lists these names as its
# wrap points, and bench/test_bench.py requires every wrap point to exist.
from .objective import build_evaluator, marginal_gain  # noqa: F401
from .prior import build_prior_information  # noqa: F401
from .scheduler import greedy_schedule

# Largest number of feasible schedules exhaustive search may enumerate; the
# CAP_ENV_VAR environment variable, when set, overrides it.
ENUMERATION_CAP_DEFAULT = 2_000_000
CAP_ENV_VAR = "BATCHSCHED_ORACLE_CAP"

RATIO_TOL = 1e-9
DEGENERATE_SPREAD = 1e-12
PROPERTY_TOL = 1e-9
# The fuzzers sweep, and the search steps, at most this many schedules or
# (prefix, subset) pairs together, so that their memory stays bounded.
VALUES_CHUNK = 64
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


def feasible_schedule_count(model: SystemModel) -> int:
    """The number of feasible schedules of ``model``: the product over slots
    of the number of sensor subsets within the slot's budget. A slot with a
    nonzero budget offers at least two subsets, the empty one and a single
    sensor, so the count is at least 2 to the number of branching slots,
    and the enumeration cap bounds the exhaustive search's depth."""
    m = model.sensor_count
    return math.prod(sum(math.comb(m, size) for size in range(r + 1)) for r in model.budgets)


def _check_enumeration_cap(model: SystemModel) -> None:
    raw = os.environ.get(CAP_ENV_VAR)
    try:
        cap = ENUMERATION_CAP_DEFAULT if raw is None else int(raw)
    except ValueError:
        raise InvalidArgument(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise InvalidArgument(f"{CAP_ENV_VAR} must be a non-negative integer, got {raw!r}")
    count = feasible_schedule_count(model)
    if count > cap:
        raise EnumerationCapExceeded(f"{count} feasible schedules exceed cap {cap}")


@lru_cache(maxsize=None)
def _subset_table(m: int, r: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray]:
    """All subsets of [0, m) with size at most r, in lexicographic order, and
    two read-only arrays whose row s describes subset s: its sensors, then
    the sentinel m (``ObjectiveEvaluator.padded``'s zero rows) up to r
    entries; and the 0/1 row marking its sensors."""
    subsets = tuple(sorted(chain.from_iterable(combinations(range(m), size) for size in range(r + 1))))
    members = np.array([s + (m,) * (r - len(s)) for s in subsets], dtype=int).reshape(len(subsets), r)
    incidence = (members[:, :, None] == np.arange(m)).any(axis=1).astype(float)
    freeze_arrays([members, incidence])
    return subsets, members, incidence


def _child_bounds(
    ev: ObjectiveEvaluator, levels: list[int], roots: np.ndarray, swept: np.ndarray, value: np.ndarray
) -> np.ndarray:
    """Lower bound on the objective of every schedule through each prefix
    that selects subset S at slot k = ``levels[0]``, shape (prefixes,
    subsets); ``levels`` are the branching slots from k on. Prefix p enters
    slot k with the factor ``roots[p]`` and the sweep ``swept[p]``, and has
    objective ``value[p]`` with every later slot empty.

    A slot's gain never exceeds the sum of its sensors' singleton gains, and
    a gain only shrinks as earlier slots measure more. So slot k adds at
    most the sum over S of the singleton gains at ``roots[p]``, and each
    later branching slot j at most its top r_j at the factor carried there
    with the slots between empty. A singleton gain is ``value[p]`` less the
    objective with that sensor measured last: one ``sweep_step`` over every
    prefix, slot and sensor. A gain that is not finite gives a bound of -inf
    or NaN, which prunes nothing.
    """
    model = ev.model
    incidence = _subset_table(model.sensor_count, model.budgets[levels[0]])[2]
    stack, sweeps = [roots], [swept]
    for start, stop in zip(levels, levels[1:]):
        ahead, carried = carry(ev, stack[-1], sweeps[-1], start, stop)
        stack.append(ahead)
        sweeps.append(carried)
    stack = np.stack(stack)[:, :, None]
    sensors = np.broadcast_to(ev.padded[:-1], stack.shape[:2] + ev.padded[:-1].shape)
    closing = sweep_terms(sweep_step(ev, stack, sensors, levels[0], False)[0])
    bases = np.stack(sweeps) + ev.trailing_logdet[levels][:, None]
    gains = (value - bases)[:, :, None] - closing
    ranked = np.sort(gains[1:], axis=2)
    rest = sum(ranked[l, :, -model.budgets[j]:].sum(axis=1) for l, j in enumerate(levels[1:]))
    return (value - rest)[:, None] - gains[0] @ incidence.T


def _least_leaf(
    ev: ObjectiveEvaluator, levels: list[int], ceiling: float, slack: float
) -> tuple[tuple[int, ...], float]:
    """Subset indices at ``levels`` of the lexicographically first schedule
    with the least value, and that value; schedules whose bound exceeds
    ``ceiling``, or the least value found, by more than ``slack`` are
    skipped.

    ``descend`` takes the prefixes entering one branching slot, stacked:
    their subset indices ``picks``, factors, sweeps and objectives. When
    more than ``VALUES_CHUNK`` leaves lie below them, it bounds every
    (prefix, subset) pair; otherwise one stacked step already scores every
    leaf, at this slot and each later one, and nothing is bounded or
    pruned: a leaf a bound would skip lies above the least value by more
    than ``slack``. It steps the survivors in chunks of at most
    ``VALUES_CHUNK``, in order, each filtered again against the ceiling,
    and recurses with each chunk into the next branching slot, so leaves
    are met in lexicographic order and a later one replaces the least only
    if strictly lower. A pair's objective comes from the QR of [[R~], [W]],
    as at a sweep's last slot, or is its prefix's if it measures nothing.
    Each sweep adds its terms in slot order, as ``objective_logdet`` does,
    so a leaf's value is that function's bit for bit. The enumeration cap,
    checked first, keeps the depth at most log2(cap): 20 at the default;
    the interpreter's 1,000-frame limit needs a cap above about 2^990.
    """
    best, least = math.inf, ()
    sizes = [len(_subset_table(ev.sensor_count, ev.model.budgets[k])[0]) for k in levels]

    def descend(level: int, picks: np.ndarray, roots: np.ndarray, swept: np.ndarray, value: np.ndarray) -> None:
        nonlocal best, ceiling, least
        k = levels[level]
        leaf = level == len(levels) - 1
        members = _subset_table(ev.sensor_count, ev.model.budgets[k])[1]
        # When one stacked step scores every leaf below, bounds cost more than they prune.
        if len(roots) * math.prod(sizes[level:]) > VALUES_CHUNK:
            bounds = _child_bounds(ev, levels[level:], roots, swept, value)
        else:
            bounds = np.full((len(roots), len(members)), -math.inf)
        # Written so that a NaN bound prunes nothing.
        pairs = np.argwhere(~(bounds > ceiling + slack))
        for first in range(0, len(pairs), VALUES_CHUNK):
            rows, subsets = pairs[first:first + VALUES_CHUNK].T
            keep = ~(bounds[rows, subsets] > ceiling + slack)
            rows, subsets = rows[keep], subsets[keep]
            if not len(rows):
                continue
            white = ev.padded[members[subsets]].reshape(len(rows), -1, ev.state_dim)
            closing = sweep_terms(sweep_step(ev, roots[rows], white, k, False)[0])
            # Subset 0 is the empty one.
            values = np.where(subsets == 0, value[rows], swept[rows] + closing + ev.trailing_logdet[k])
            chosen = np.column_stack((picks[rows], subsets))
            if not leaf:
                diagonal, stepped = sweep_step(ev, roots[rows], white, k, True)
                stepped, carried = carry(ev, stepped, swept[rows] + sweep_terms(diagonal), k + 1, levels[level + 1])
                descend(level + 1, chosen, stepped, carried, values)
                continue
            if not np.isfinite(values).all():
                raise _not_finite("objective term", k)
            row = int(np.argmin(values))
            if values[row] < best:
                best, least = float(values[row]), tuple(chosen[row].tolist())
                ceiling = min(ceiling, best)

    roots, swept = carry(ev, ev.initial_root[None], np.zeros(1), 0, levels[0])
    descend(0, np.zeros((1, 0), dtype=int), roots, swept, np.array([-ev.prior_logdet]))
    return least, best


class _Incumbent(Schedule):
    """``certify_ratio``'s greedy schedule as the search's incumbent: the
    search sets ``value`` to the exact objective it sweeps it for, which the
    certificate reads, so the schedule is swept once and no state outlives
    the call."""

    value: float


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def brute_force_opt(ev: ObjectiveEvaluator, incumbent: Schedule | None = None) -> tuple[Schedule, float]:
    """Exhaustive minimizer over all feasible schedules of ``ev.model``, by
    branch and bound over the slots with a nonzero budget; the others are
    empty in every feasible schedule.

    The enumeration cap is checked first, unless the incumbent comes from
    ``certify_ratio``, which checked it. At each branching slot with more
    than ``VALUES_CHUNK`` schedules below it, ``_child_bounds`` bounds every
    (prefix, subset) pair in one stacked computation, and a pair is skipped
    when its bound exceeds the best value known by more than
    ``BOUND_SLACK_RTOL`` of the values' scale, which roundoff cannot bridge;
    fewer schedules are all stepped, unbounded, as one stacked step holds
    them. The best value starts at the objective of ``incumbent`` (the
    greedy schedule's, from its trace, when None), which
    ``Schedule.validate_for`` must accept for the model.

    Every sweep adds its terms in slot order, so the least value the
    search meets is ``objective_logdet`` of its schedule bit for bit; ties
    go to the lexicographically first schedule, as plain enumeration
    returns it. Only an incumbent is swept alone.
    """
    model = ev.model
    if not isinstance(incumbent, _Incumbent):
        _check_enumeration_cap(model)
    if incumbent is None:
        _, trace = greedy_schedule(ev)
        ceiling = trace.entries[-1].objective if trace.entries else trace.start_objective
    else:
        incumbent = incumbent.validate_for(model)
        ceiling = objective_logdet(ev, incumbent)
        if isinstance(incumbent, _Incumbent):
            incumbent.value = ceiling
    # ceiling: the least objective known to be reachable. A subset whose
    # bound exceeds it by more than the slack cannot hold the optimum.
    slack = BOUND_SLACK_RTOL * max(1.0, abs(ev.prior_logdet), abs(ceiling))
    # The branching slots; with no budget anywhere, slot 0 stands in, with
    # the empty subset as its only choice.
    levels = [k for k, r in enumerate(model.budgets) if r] or [0]
    picks, value = _least_leaf(ev, levels, ceiling, slack)
    slots = [()] * model.horizon
    for k, pick in zip(levels, picks):
        slots[k] = _subset_table(model.sensor_count, model.budgets[k])[0][pick]
    return Schedule(slots), value


def worst_value(ev: ObjectiveEvaluator) -> float:
    """Worst feasible objective value.

    Adding sensors never increases the objective, so the maximum sits at the
    empty schedule and costs no evaluation: it is minus the prior
    log-determinant.
    """
    return -ev.prior_logdet


def certify_ratio(ev: ObjectiveEvaluator) -> RatioCertificate:
    """Certify (greedy - opt) / (max - opt) <= 1/2 by exhaustive search.

    The enumeration cap is checked before any work. The greedy runs once
    and its schedule is swept once: it is the certificate's and the
    search's incumbent, and its value the search's ceiling. Raises
    GuaranteeViolated, carrying the full instance, if the bound fails; that
    signals a bug in this library, not a tight instance.
    """
    model = ev.model
    _check_enumeration_cap(model)
    greedy, _ = greedy_schedule(ev)
    incumbent = _Incumbent(greedy.selections)
    opt_schedule, opt_value = brute_force_opt(ev, incumbent=incumbent)
    greedy_value = incumbent.value
    max_value = worst_value(ev)
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
    return Schedule([row[:size] for row, size in zip(picked.tolist(), sizes.tolist())])


def _random_feasible(rng: np.random.Generator, model: SystemModel) -> Schedule:
    """Slot k's size uniform over 0..r_k, then a uniform set of that size."""
    sizes = rng.integers(0, np.asarray(model.budgets) + 1)
    return random_schedule(rng, model.sensor_count, sizes)


def _random_subschedule(rng: np.random.Generator, schedule: Schedule) -> Schedule:
    """Each selected sensor kept with probability 1/2, from one draw."""
    keep = iter((rng.random(sum(map(len, schedule.selections))) < 0.5).tolist())
    return Schedule([[i for i in slot if next(keep)] for slot in schedule.selections])


def _fuzz(
    ev: ObjectiveEvaluator, trials: int, seed: int,
    draw: Callable, judge: Callable, property_name: str, message: str,
) -> FuzzReport:
    """The trial loop both fuzzers share.

    ``draw(rng)`` gives one trial's counterexample fields and its schedules,
    or None for a trial that is skipped and counted out of
    ``effective_trials``; ``judge(values)`` gives, from the schedules'
    objective values, the trial's excess and the counterexample fields those
    values add. Raises PropertyViolated, with ``message`` formatted with the
    excess, on the first trial in draw order whose excess exceeds
    ``PROPERTY_TOL``; otherwise reports the largest excess observed (at most
    roundoff). Trials are drawn in batches that fill one ``VALUES_CHUNK``,
    each one ``stacked_values`` call.
    """
    require_int("trials", trials, 0)
    rng = seeded_rng(seed)
    fingerprint = model_fingerprint(ev.model)
    drawn = (trial for trial in (draw(rng) for _ in range(trials)) if trial is not None)
    effective = 0
    max_excess = None
    for first in drawn:
        per_trial = len(first[1])
        batch = [first, *islice(drawn, VALUES_CHUNK // per_trial - 1)]
        schedules = [s for _, trial in batch for s in trial]
        values = iter(stacked_values(ev, schedules).tolist())
        for fields, _ in batch:
            effective += 1
            excess, value_fields = judge(list(islice(values, per_trial)))
            if max_excess is None or excess > max_excess:
                max_excess = excess
            if excess > PROPERTY_TOL:
                counterexample = {key: v.to_lists() if isinstance(v, Schedule) else v for key, v in fields.items()}
                counterexample.update(value_fields, excess=excess, fingerprint=fingerprint, model=model_to_dict(ev.model))
                raise PropertyViolated(message.format(excess), counterexample=counterexample)
    return FuzzReport(
        property_name=property_name, trials=trials, effective_trials=effective,
        max_excess=max_excess, tolerance=PROPERTY_TOL, seed=seed, fingerprint=fingerprint,
    )


def fuzz_monotonicity(ev: ObjectiveEvaluator, trials: int, seed: int) -> FuzzReport:
    """Sample nested schedule pairs and check the objective never increases."""

    def draw(rng):
        sup = _random_feasible(rng, ev.model)
        sub = _random_subschedule(rng, sup)
        return {"subset": sub, "superset": sup}, (sup, sub)

    def judge(values):
        sup_value, sub_value = values
        return sup_value - sub_value, {}

    return _fuzz(ev, trials, seed, draw, judge,
                 "monotonicity", "objective increased by {} when sensors were added")


def fuzz_supermodularity(ev: ObjectiveEvaluator, trials: int, seed: int) -> FuzzReport:
    """Sample nested schedules plus an addition and check diminishing returns.

    The gain of one extra sensor on the smaller schedule must be at least its
    gain on the larger one; each gain is the difference of two objective
    values. Trials where no slot has budget room are skipped.
    """

    def draw(rng):
        big = _random_feasible(rng, ev.model)
        room = [k for k, slot in enumerate(big.selections) if len(slot) < ev.model.budgets[k]]
        if not room:
            return None
        k = int(room[int(rng.integers(0, len(room)))])
        free = [i for i in range(ev.sensor_count) if i not in big.selections[k]]
        i = int(free[int(rng.integers(0, len(free)))])
        small = _random_subschedule(rng, big)
        fields = {"small": small, "big": big, "time_index": k, "sensor": i}
        return fields, (small, small.with_added(k, i), big, big.with_added(k, i))

    def judge(values):
        gain_small = values[0] - values[1]
        gain_big = values[2] - values[3]
        return gain_big - gain_small, {"gain_small": gain_small, "gain_big": gain_big}

    return _fuzz(ev, trials, seed, draw, judge,
                 "supermodularity", "marginal gain grew by {} on the larger schedule")


def bound_inputs(ev: ObjectiveEvaluator) -> BoundInputs:
    """Scalars entering the error-variance limits; schedule-independent.

    sigma_w_inv needs only the diagonals of the prior information blocks
    that ``build_prior_information`` assembles (its oracle in the tests):

        diag_1 = P_1^-1 + Phi_1.T Q_1^-1 Phi_1
        diag_k = Q_{k-1}^-1 + Phi_k.T Q_k^-1 Phi_k     for 1 < k < K
        diag_K = Q_{K-1}^-1

    With M = L L.T, diag(M^-1) is the column sums of squares of L^-1, and
    diag(Phi.T M^-1 Phi) that of L^-1 Phi. The evaluator's whitened prior,
    L_P^-1 and the time rows [-L_j^-1 Phi_j, L_j^-1], gives them all, so no
    covariance is factored again, no interval is discretized again and no
    block is formed.
    """
    model = ev.model
    n = model.state_dim
    # Row k: the diagonal of block k.
    sums = np.square(ev.time_rows).sum(axis=1)
    diagonals = np.concatenate((np.square(ev.initial_root).sum(axis=0)[None], sums[:, n:]))
    diagonals[:-1] += sums[:, :n]
    sigma_w_inv = float(diagonals.max())
    if model.sensor_count:
        sigma_v_inv = max(
            float((1.0 / np.linalg.eigvalsh(noise)[:, 0]).max()) for _, _, noise, _ in model._sensor_groups
        )
        stacked = np.vstack([sensor.C for sensor in model.sensors])
        # Past the double range the square is inf, and the bounds built on it
        # stay valid; a Python float power would raise OverflowError instead.
        with np.errstate(over="ignore"):
            c_norm_sq = float(np.square(np.linalg.norm(stacked, 2)))
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
    # With no budget nothing is measured, however large c_norm_sq is (even inf).
    measured = b.sigma_v_inv * b.r_max * b.c_norm_sq if b.r_max else 0.0
    return b.state_dim / (measured + b.sigma_w_inv / b.horizon)


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
