"""Objective and error trace from one Kalman-filter sweep.

The quantity being minimized is the log-determinant of the batch
estimation-error covariance. By the prediction-error decomposition
(Schweppe, IEEE Trans. IT 1965), with W_i = L_i^-1 C_i for V_i = L_i L_i.T
and P the filter covariance just before each sequential update,

    objective(S) = logdet P_1 + sum_j logdet Q_j
                   - sum_k sum_{i in S_k} logdet(I + W_i P W_i.T),

so an evaluation is one forward sweep of measurement and time updates, and
a sensor's gain with later slots empty is a single small log-determinant;
``SingletonScorer`` computes every sensor's at once for the greedy and the
exhaustive search's bound. Schedules evaluated together, as by the fuzzers,
take ``values_in_order``: one sweep stacked over them, with
``objective_logdet`` as its oracle; the exhaustive search steps its
prefixes with ``stacked_step``. Both fall back to the single path here
when a stacked factorization fails. The error trace adds one backward
pass to the same sweep; the tests check the sweeps against the information
form.
Public sweeps silence numpy's overflow warnings and raise on non-finite values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from ._linalg import logdet_from_cholesky, sym
from .errors import InvalidArgument, NotPositiveDefinite, NumericOverflow
from .model import ReadOnlyArrays, Schedule, SystemModel, freeze_arrays, require_int
# Nothing here uses the information form: build_prior_information stays
# importable from this module only because bench/tracing.py lists it as a
# wrap point and bench/test_bench.py requires every wrap point to exist.
from .prior import build_prior_information, discretize_intervals  # noqa: F401

# The singleton scorer packs sensors whole, in index order, into groups of at
# most this many whitened rows (a larger sensor forms a group alone). Each
# group costs one product and one Cholesky factorization of its rows, so
# scoring every sensor costs time linear in the sensor count.
SCORER_GROUP_ROWS = 32

# values_in_order sweeps at most this many schedules together, so its
# memory stays bounded however many schedules it is given.
VALUES_CHUNK = 64


def _lost_precision(what: str, k: int) -> NotPositiveDefinite:
    return NotPositiveDefinite(
        f"innovation covariance of {what} at time index {k}: the filter covariance lost precision "
        "(unstable dynamics over a long stretch without measurements?)"
    )


class _ScorerGroup(NamedTuple):
    first: int  # first sensor
    stop: int  # one past the last sensor
    stacked: np.ndarray  # the sensors' whitened rows
    blocks: np.ndarray  # 1 on each sensor's diagonal block, 0 elsewhere
    identity: np.ndarray
    starts: np.ndarray  # each sensor's first row
    owner: np.ndarray  # each row's sensor


class SingletonScorer(ReadOnlyArrays):
    """Every sensor's gain logdet(I + W_i P W_i.T) alone at one covariance P.

    Per group, one product with the stacked whitened matrices gives all the
    blocks W_i P W_j.T; keeping the diagonal blocks and factoring I plus them
    gives each sensor's log-determinant from its rows of one Cholesky
    factor. The groups are fixed, so a sensor's value never depends on which
    other sensors are still candidates.
    """

    def __init__(self, whitened: tuple[np.ndarray, ...]):
        self.sensor_count = len(whitened)
        self.groups: list[_ScorerGroup] = []
        first = 0
        while first < len(whitened):
            stop, rows = first + 1, len(whitened[first])
            while stop < len(whitened) and rows + len(whitened[stop]) <= SCORER_GROUP_ROWS:
                rows += len(whitened[stop])
                stop += 1
            owner = np.repeat(np.arange(first, stop), [len(w) for w in whitened[first:stop]])
            self.groups.append(_ScorerGroup(
                first=first,
                stop=stop,
                stacked=np.concatenate(whitened[first:stop]),
                blocks=(owner[:, None] == owner[None, :]).astype(float),
                identity=np.eye(rows),
                starts=np.searchsorted(owner, np.arange(first, stop)),
                owner=owner,
            ))
            first = stop
        freeze_arrays(self.groups)

    def __call__(self, cov: np.ndarray, k: int) -> np.ndarray:
        """The gains, indexed by sensor. Raises NotPositiveDefinite, naming the
        sensor and the time index ``k``, if roundoff breaks a factorization."""
        gains = np.empty(self.sensor_count)
        for first, stop, stacked, blocks, identity, starts, owner in self.groups:
            inner = stacked @ cov @ stacked.T
            inner *= blocks
            inner += identity
            lower, info = dpotrf(inner, lower=1)
            if info:
                raise _lost_precision(f"sensor {int(owner[info - 1])}", k)
            gains[first:stop] = 2.0 * np.add.reduceat(np.log(lower.diagonal()), starts)
        return gains

    def stacked(self, covs: np.ndarray) -> np.ndarray:
        """The gains at each of a stack of covariances, shape (members,
        sensors), with one stacked product and Cholesky factorization per
        group; raises LinAlgError if any factorization fails."""
        gains = np.empty((len(covs), self.sensor_count))
        for first, stop, stacked, blocks, identity, starts, _ in self.groups:
            inner = stacked @ covs @ stacked.T
            inner *= blocks
            inner += identity
            pivots = np.diagonal(np.linalg.cholesky(inner), axis1=1, axis2=2)
            gains[:, first:stop] = 2.0 * np.add.reduceat(np.log(pivots), starts, axis=1)
        return gains


@dataclass(frozen=True, eq=False)
class ObjectiveEvaluator:
    """Immutable per-model cache: the discretized prior and whitened sensors.

    Built once per model and shared by every schedule evaluation; safe to use
    from concurrent workers. ``model`` is the model it was built for, whose
    budgets and fingerprint every entry point reads from here. ``transitions``,
    ``noise_covs`` and ``noise_factors`` are the (K-1, n, n) stacks of ``discretize_intervals``:
    Phi_j, Q_j and Q_j's lower Cholesky factor. ``prior_logdet`` is the
    log-determinant of the prior information matrix, so the empty
    schedule's objective is its negation. ``scorer`` scores every whitened
    sensor alone at one covariance. ``padded[i]`` holds sensor i's whitened
    rows and then zero rows up to the widest sensor's count;
    ``padded[sensor_count]`` is all zero. The stacked sweeps gather slots
    from it, and a zero row changes no gain and no covariance.
    ``whitened[i]`` is the read-only view of sensor i's rows in ``padded``.
    """

    model: SystemModel
    initial_cov: np.ndarray
    transitions: np.ndarray
    noise_covs: np.ndarray
    noise_factors: np.ndarray
    whitened: tuple[np.ndarray, ...]
    prior_logdet: float
    scorer: SingletonScorer
    padded: np.ndarray

    def __reduce__(self):
        # Pickled as its model, far smaller: the rebuild restores each stack's layout and flags.
        return build_evaluator, (self.model,)

    @property
    def state_dim(self) -> int:
        return self.initial_cov.shape[0]

    @property
    def horizon(self) -> int:
        return len(self.transitions) + 1

    @property
    def sensor_count(self) -> int:
        return len(self.whitened)


def build_evaluator(model: SystemModel) -> ObjectiveEvaluator:
    """Discretize every interval once and whiten every sensor, W_i = L_i^-1 C_i
    for V_i = L_i L_i.T, with one stacked solve per row count against the
    V_i factors that the model kept, as it did P_1's, when it checked them."""
    transitions, noise_covs, noise_factors = discretize_intervals(model)
    cov_logdet = logdet_from_cholesky(model._initial_factor)
    for lower in noise_factors:
        cov_logdet += logdet_from_cholesky(lower)
    width = max((len(sensor.C) for sensor in model.sensors), default=0)
    padded = np.zeros((model.sensor_count + 1, width, model.state_dim))
    for group, measurement, _, noise_factor in model._sensor_groups:
        padded[list(group), :measurement.shape[1]] = np.linalg.solve(noise_factor, measurement)
    padded.setflags(write=False)
    # Views taken after the freeze are read-only; each is row-major, like
    # the stacked matrix of a multi-sensor slot.
    whitened = tuple(padded[i, :len(sensor.C)] for i, sensor in enumerate(model.sensors))
    initial_cov = sym(model.initial_state_cov)
    initial_cov.setflags(write=False)
    return ObjectiveEvaluator(
        model=model,
        initial_cov=initial_cov,
        transitions=transitions,
        noise_covs=noise_covs,
        noise_factors=noise_factors,
        whitened=whitened,
        prior_logdet=-cov_logdet,
        scorer=SingletonScorer(whitened),
        padded=padded,
    )


def _measure(
    ev: ObjectiveEvaluator, cov: np.ndarray, sensors: tuple[int, ...], k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measurement update of the filter covariance P by a nonempty slot.

    Returns W, the sensors' stacked whitened matrices; the lower Cholesky
    factor L of the innovation covariance I + W P W.T; and the conditioned
    covariance P - (L^-1 W P).T (L^-1 W P). ``k``, the slot's time index,
    only names the slot in an error.
    """
    if len(sensors) == 1:
        white = ev.whitened[sensors[0]]
    else:
        white = np.concatenate([ev.whitened[i] for i in sensors])
    projected = white @ cov
    innovation = projected @ white.T
    for j in range(len(innovation)):
        innovation[j, j] += 1.0
    # I plus a PSD matrix has pivots of at least 1 in exact arithmetic, so
    # no pivot ratio test applies; this fails only once the filter covariance
    # has lost its precision. Raw LAPACK calls: the matrix is a few rows
    # square, where wrapper overhead would be most of the cost.
    lower, info = dpotrf(innovation, lower=1, clean=1)
    if info:
        raise _lost_precision(f"sensors {list(sensors)}", k)
    factor, _ = dtrtrs(lower, projected, lower=1)
    # factor.T @ factor is computed as a symmetric rank-d product, so the
    # covariance stays exactly symmetric.
    return white, lower, cov - factor.T @ factor


def slot_step(
    ev: ObjectiveEvaluator, cov: np.ndarray, sensors: tuple[int, ...], k: int
) -> tuple[float, np.ndarray]:
    """Measurement update of the filter covariance P by every sensor of one slot.

    Returns the slot's gain logdet(I + W P W.T), with W the sensors' stacked
    whitened matrices, and the conditioned covariance. The gain equals the
    sum of the sensors' sequential gains. Every evaluation path (sweep,
    greedy candidate, exhaustive search, error trace) conditions through
    ``_measure``, so equal calls give bit-identical values. Raises
    NumericOverflow if the gain is not finite; its hint blames the sensors'
    scale if W W.T alone overflows, and the covariance otherwise. ``k``, the
    slot's time index, only names the slot in an error.
    """
    if not sensors:
        return 0.0, cov
    white, lower, cov = _measure(ev, cov, sensors, k)
    gain = logdet_from_cholesky(lower)
    if not math.isfinite(gain):
        # Callers silence overflow warnings, as the update above needs too.
        if np.isfinite(white @ white.T).all():
            cause = ("the predicted covariance left the double range (unstable dynamics over a "
                     "long stretch without measurements?)")
        else:
            cause = ("the sensors' whitened rows left the double range (measurement matrix too "
                     "large for its noise covariance?)")
        raise NumericOverflow(f"gain of sensors {list(sensors)} at time index {k} is not finite: {cause}")
    return gain, cov


def predict(ev: ObjectiveEvaluator, cov: np.ndarray, k: int) -> np.ndarray:
    """Filter covariance at time index k+1 from the conditioned one at k."""
    phi = ev.transitions[k]
    return sym(phi @ cov @ phi.T + ev.noise_covs[k])


def advance(
    ev: ObjectiveEvaluator, slots: tuple[tuple[int, ...], ...], stop: int
) -> tuple[np.ndarray, float]:
    """The filter covariance entering slot ``stop``, and the objective with
    only slots 0..stop-1 selected: from time index 0, a measurement update
    by ``slots[k]`` and a time update for each slot before ``stop``.

    Sensor indices are not checked; ``Schedule.check_shape`` does that.
    """
    cov, value = ev.initial_cov, -ev.prior_logdet
    for k in range(stop):
        gain, cov = slot_step(ev, cov, slots[k], k)
        cov = predict(ev, cov, k)
        value -= gain
    return cov, value


@np.errstate(over="ignore", invalid="ignore")
def objective_logdet(ev: ObjectiveEvaluator, schedule: Schedule) -> float:
    """Log-determinant of the batch error covariance under ``schedule``.

    One filter sweep; it stops at the last slot with a measurement, since
    later time updates change no term.
    """
    schedule.check_shape(ev.horizon, ev.sensor_count)
    slots = schedule.selections
    last = len(slots) - 1
    while last >= 0 and not slots[last]:
        last -= 1
    if last < 0:
        return -ev.prior_logdet
    cov, value = advance(ev, slots, last)
    return value - slot_step(ev, cov, slots[last], last)[0]


def predict_through(ev: ObjectiveEvaluator, cov: np.ndarray, start: int, stop: int) -> np.ndarray:
    """A stack of covariances entering slot ``start``, carried to slot
    ``stop`` with the slots in between left empty."""
    for k in range(start, stop):
        phi = ev.transitions[k]
        cov = phi @ cov @ phi.T + ev.noise_covs[k]
    return cov


def _bordered_step(
    ev: ObjectiveEvaluator, cov: np.ndarray, members: np.ndarray, k: int, propagate: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Measurement update at slot k of a stack of covariances, one per member.

    Row p of ``members`` lists member p's sensors, padded with
    ``ev.sensor_count``, whose rows in ``ev.padded`` are zero. With W the
    member's gathered whitened rows (d of them) and P its covariance, one
    stacked Cholesky factorization of [[I + W P W.T, W P], [P W.T, P]] gives
    [[L, 0], [F.T, R]]: L factors the innovation covariance, and R R.T is the
    conditioned covariance P - F.T F. Returns the pivots diag L, shape
    (members, d), whose logs sum to half the slot's gain, and, if
    ``propagate``, the covariances entering slot k+1, (Phi R)(Phi R).T + Q.
    Raises LinAlgError if a factorization fails.
    """
    n = ev.state_dim
    white = ev.padded[members].reshape(len(members), -1, n)
    d = white.shape[1]
    rows = np.empty((len(white), d + n, n))
    rows[:, :d] = white
    rows[:, d:] = np.eye(n)
    bordered = rows @ cov @ rows.transpose(0, 2, 1)
    bordered[:, :d, :d] += np.eye(d)
    lower = np.linalg.cholesky(bordered)
    pivots = np.diagonal(lower, axis1=1, axis2=2)[:, :d]
    if not propagate:
        return pivots, None
    root = ev.transitions[k] @ lower[:, d:, d:]
    return pivots, root @ root.transpose(0, 2, 1) + ev.noise_covs[k]


def stacked_step(
    ev: ObjectiveEvaluator, cov: np.ndarray, members: np.ndarray, k: int, propagate: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Slot k's gain for each member, at covariance ``cov[p]`` with the
    sensors of row p of ``members`` (padded with ``ev.sensor_count``), and,
    if ``propagate``, the covariances entering slot k+1.

    One ``_bordered_step`` serves every member. If its factorization fails
    or a gain is not finite, the members are stepped again one at a time
    through ``slot_step`` and ``predict``, which raise their usual errors
    naming the time index.
    """
    try:
        pivots, ahead = _bordered_step(ev, cov, members, k, propagate)
        gains = 2.0 * np.log(pivots).sum(axis=1)
        if np.isfinite(gains).all():
            return gains, ahead
    except np.linalg.LinAlgError:
        pass
    m = ev.sensor_count
    steps = [slot_step(ev, c, tuple(i for i in row if i != m), k) for c, row in zip(cov, members.tolist())]
    gains = np.array([gain for gain, _ in steps])
    return gains, np.stack([predict(ev, c, k) for _, c in steps]) if propagate else None


def _stacked_sweep(ev: ObjectiveEvaluator, schedules: Sequence[Schedule]) -> np.ndarray:
    """Each schedule's objective from one sweep over a leading member axis,
    one ``_bordered_step`` per slot; raises LinAlgError if a stacked
    factorization fails."""
    sizes = np.array([list(map(len, s.selections)) for s in schedules])
    widths = sizes.max(axis=0)
    index = np.full(sizes.shape + (widths.max(),), ev.sensor_count)
    index[np.arange(widths.max()) < sizes[..., None]] = list(
        chain.from_iterable(chain.from_iterable(s.selections for s in schedules))
    )
    last = int(np.flatnonzero(widths)[-1]) if widths.any() else -1
    pivots = np.ones((last + 1, len(schedules), index.shape[2] * ev.padded.shape[1]))
    cov = np.broadcast_to(ev.initial_cov, (len(schedules), ev.state_dim, ev.state_dim))
    for k in range(last + 1):
        step_pivots, cov = _bordered_step(ev, cov, index[:, k, :widths[k]], k, k < last)
        pivots[k, :, :step_pivots.shape[1]] = step_pivots
    return -ev.prior_logdet - 2.0 * np.log(pivots).sum(axis=(0, 2))


def values_in_order(ev: ObjectiveEvaluator, schedules: Iterable[Schedule]) -> Iterator[float]:
    """``objective_logdet`` of each schedule, to roundoff, in order, as the
    consumer reads them; shapes are not checked.

    Chunks of at most VALUES_CHUNK schedules are swept together, with one
    gather of the members' whitened rows, one stacked product and one
    stacked Cholesky factorization per slot. A chunk whose factorization
    fails, or whose values are not all finite, yields ``objective_logdet``
    of each schedule as it is read, so the first failing one raises its
    error and no later one is swept. The consumer silences overflow warnings.
    """
    schedules = iter(schedules)
    while chunk := list(islice(schedules, VALUES_CHUNK)):
        try:
            values = _stacked_sweep(ev, chunk)
            stacked = bool(np.isfinite(values).all())
        except np.linalg.LinAlgError:
            stacked = False
        if stacked:
            yield from values.tolist()
        else:
            yield from (objective_logdet(ev, schedule) for schedule in chunk)


@np.errstate(over="ignore", invalid="ignore")
def marginal_gain(ev: ObjectiveEvaluator, schedule: Schedule, k: int, i: int) -> float:
    """Objective decrease from adding sensor i at time index k.

    Nonnegative up to roundoff: activating a sensor never hurts. Computed as
    the difference of two full sweeps, so it holds for any schedule,
    including ones with measurements after slot k.
    """
    require_int("time index", k, 0)
    require_int("sensor index", i, 0)
    if k >= ev.horizon:
        raise InvalidArgument(f"time index {k} out of range for horizon {ev.horizon}")
    if i >= ev.sensor_count:
        raise InvalidArgument(f"sensor index {i} out of range")
    schedule.check_shape(ev.horizon, ev.sensor_count)
    added = schedule.with_added(k, i)
    return objective_logdet(ev, schedule) - objective_logdet(ev, added)


# Overflow shows as a non-finite covariance, reported below as an error.
@np.errstate(over="ignore", invalid="ignore")
def batch_error_trace(ev: ObjectiveEvaluator, schedule: Schedule) -> float:
    """Trace of the batch error covariance, i.e. the total error variance.

    The forward sweep keeps each slot's predicted covariance P and, for a
    measured slot, G = L^-1 W from the innovation factor. A modified
    Bryson-Frazier backward pass (Bierman, Factorization Methods for
    Discrete Sequential Estimation, 1977) then carries the adjoint
    covariance Lambda, zero after the last measured slot:

        Lambda <- G.T G + (I - P G.T G).T Lambda (I - P G.T G)   at a measured slot,
        tr Sigma_kk = tr P - tr(P Lambda P),
        Lambda <- Phi.T Lambda Phi                                between slots.

    No covariance is inverted. The cost is O(K n^3), like one sweep. Raises
    NumericOverflow, naming the time index, once the predicted covariance
    leaves the double range, and if the backward pass does.
    """
    schedule.check_shape(ev.horizon, ev.sensor_count)
    slots = schedule.selections
    last = len(slots) - 1
    while last >= 0 and not slots[last]:
        last -= 1
    steps = []  # (P, G or None) for each slot up to the last measured one
    cov = ev.initial_cov
    total = 0.0
    for k in range(ev.horizon):
        if k > last:
            # No later measurement: the smoothed covariance is the predicted one.
            total += float(np.trace(cov))
        elif slots[k]:
            white, lower, conditioned = _measure(ev, cov, slots[k], k)
            steps.append((cov, dtrtrs(lower, white, lower=1)[0]))
            cov = conditioned
        else:
            steps.append((cov, None))
        if k + 1 < ev.horizon:
            cov = predict(ev, cov, k)
            if not np.isfinite(cov).all():
                raise NumericOverflow(
                    f"predicted covariance at time index {k + 1} is not finite: the error "
                    "variance exceeds the double range (unstable dynamics over a long stretch "
                    "without measurements?)"
                )
    adjoint = np.zeros((ev.state_dim, ev.state_dim))
    for k in range(last, -1, -1):
        cov, g = steps[k]
        if g is not None:
            info = g.T @ g
            keep = np.eye(ev.state_dim) - cov @ info
            adjoint = sym(info + keep.T @ adjoint @ keep)
        total += float(np.trace(cov)) - float(np.sum((cov @ adjoint) * cov))
        if k:
            phi = ev.transitions[k - 1]
            adjoint = phi.T @ adjoint @ phi
    if not math.isfinite(total):
        raise NumericOverflow(
            "total error variance is not finite: the backward pass left the double range"
        )
    return total
