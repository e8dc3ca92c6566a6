"""Objective evaluation as one Kalman-filter sweep.

The quantity being minimized is the log-determinant of the batch
estimation-error covariance. By the prediction-error decomposition
(Schweppe, IEEE Trans. IT 1965), with W_i = L_i^-1 C_i for V_i = L_i L_i.T
and P the filter covariance just before each sequential update,

    objective(S) = logdet P_1 + sum_j logdet Q_j
                   - sum_k sum_{i in S_k} logdet(I + W_i P W_i.T),

so an evaluation is one forward sweep of measurement and time updates, and
a sensor's gain with later slots empty is a single small log-determinant.
The information form (block tri-diagonal prior plus sensor increments)
stays as the oracle the sweep is checked against, and as the dense input of
the error trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dtrtrs

from ._linalg import chol_pd, chol_solve, logdet_from_cholesky, sym
from .caps import dense_cap
from .errors import (
    InvalidArgument,
    NotPositiveDefinite,
    OracleCapExceeded,
    SensorAlreadySelected,
)
from .model import Schedule, SystemModel
from .prior import (
    BlockTridiagonal,
    IntervalPropagation,
    build_prior_information,
    discretize_intervals,
)


@dataclass(frozen=True, eq=False)
class ObjectiveEvaluator:
    """Immutable per-model cache: the discretized prior and whitened sensors.

    Built once per model and shared by every schedule evaluation; safe to use
    from concurrent workers. ``prior_logdet`` is the log-determinant of the
    prior information matrix, so the empty schedule's objective is its
    negation.
    """

    initial_cov: np.ndarray
    propagations: tuple[IntervalPropagation, ...]
    whitened: tuple[np.ndarray, ...]
    prior_logdet: float

    @property
    def state_dim(self) -> int:
        return self.initial_cov.shape[0]

    @property
    def horizon(self) -> int:
        return len(self.propagations) + 1

    @property
    def sensor_count(self) -> int:
        return len(self.whitened)


def build_evaluator(model: SystemModel) -> ObjectiveEvaluator:
    """Discretize every interval once and whiten every sensor."""
    model.require_validated()
    propagations = discretize_intervals(model)
    cov_logdet = logdet_from_cholesky(chol_pd(model.initial_state_cov, "P_1"))
    for p in propagations:
        cov_logdet += p.noise_logdet
    whitened = []
    for i, sensor in enumerate(model.sensors):
        lower = chol_pd(sensor.V, f"V_{i + 1}")
        # Row-major, like the stacked matrix of a multi-sensor slot.
        white = np.ascontiguousarray(solve_triangular(lower, sensor.C, lower=True))
        white.setflags(write=False)
        whitened.append(white)
    initial_cov = sym(model.initial_state_cov)
    initial_cov.setflags(write=False)
    return ObjectiveEvaluator(
        initial_cov=initial_cov,
        propagations=propagations,
        whitened=tuple(whitened),
        prior_logdet=-cov_logdet,
    )


def slot_step(
    ev: ObjectiveEvaluator, cov: np.ndarray, sensors: tuple[int, ...]
) -> tuple[float, np.ndarray]:
    """Measurement update of the filter covariance P by every sensor of one slot.

    Returns the slot's gain logdet(I + W P W.T), with W the sensors' stacked
    whitened matrices, and the conditioned covariance. The gain equals the
    sum of the sensors' sequential gains. Every evaluation path (sweep,
    greedy candidate, exhaustive search) conditions through here, so equal
    calls give bit-identical values.
    """
    if not sensors:
        return 0.0, cov
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
        raise NotPositiveDefinite(
            f"innovation covariance of sensors {list(sensors)}: the filter covariance lost "
            "precision (unstable dynamics over a long stretch without measurements?)"
        )
    factor, _ = dtrtrs(lower, projected, lower=1)
    # factor.T @ factor is computed as a symmetric rank-d product, so the
    # covariance stays exactly symmetric.
    return logdet_from_cholesky(lower), cov - factor.T @ factor


def predict(ev: ObjectiveEvaluator, cov: np.ndarray, k: int) -> np.ndarray:
    """Filter covariance at time index k+1 from the conditioned one at k."""
    p = ev.propagations[k]
    return sym(p.transition @ cov @ p.transition.T + p.noise_cov)


def check_schedule(ev: ObjectiveEvaluator, schedule: Schedule) -> None:
    """Raise InvalidArgument unless ``schedule`` fits the evaluator's horizon and sensors."""
    if len(schedule) != ev.horizon:
        raise InvalidArgument(
            f"schedule has {len(schedule)} slots, evaluator expects {ev.horizon}"
        )
    count = ev.sensor_count
    for k, slot in enumerate(schedule.selections):
        if slot and (min(slot) < 0 or max(slot) >= count):
            i = next(i for i in slot if not 0 <= i < count)
            raise InvalidArgument(f"sensor index {i} out of range at time index {k}")


@dataclass(frozen=True, eq=False)
class SweepState:
    """The sweep entering time index ``k``: the filter covariance given slots
    0..k-1, and the objective with only those slots selected. Schedules that
    share their first k slots share it."""

    k: int
    cov: np.ndarray
    value: float

    @classmethod
    def initial(cls, ev: ObjectiveEvaluator) -> SweepState:
        return cls(0, ev.initial_cov, -ev.prior_logdet)


def advance(
    ev: ObjectiveEvaluator, slots: tuple[tuple[int, ...], ...], start: SweepState, stop: int
) -> SweepState:
    """The state entering slot ``stop`` >= ``start.k``: a measurement update
    by ``slots[k]`` and a time update for each slot in between.

    Sensor indices are not checked; ``check_schedule`` does that.
    """
    cov, value = start.cov, start.value
    for k in range(start.k, stop):
        gain, cov = slot_step(ev, cov, slots[k])
        cov = predict(ev, cov, k)
        value -= gain
    return SweepState(stop, cov, value)


def objective_logdet(
    ev: ObjectiveEvaluator, schedule: Schedule, start: SweepState | None = None
) -> float:
    """Log-determinant of the batch error covariance under ``schedule``.

    One filter sweep; it stops at the last slot with a measurement, since
    later time updates change no term. ``start`` resumes the sweep from a
    state that ``advance`` returned for this schedule's own first slots;
    the value is bit-identical to a sweep from time index 0.
    """
    check_schedule(ev, schedule)
    start = start or SweepState.initial(ev)
    if not 0 <= start.k < ev.horizon:
        raise InvalidArgument(f"sweep state at time index {start.k} outside horizon {ev.horizon}")
    slots = schedule.selections
    last = len(slots) - 1
    while last >= start.k and not slots[last]:
        last -= 1
    if last < start.k:
        return start.value
    if last > start.k:
        start = advance(ev, slots, start, last)
    return start.value - slot_step(ev, start.cov, slots[last])[0]


def marginal_gain(ev: ObjectiveEvaluator, schedule: Schedule, k: int, i: int) -> float:
    """Objective decrease from adding sensor i at time index k.

    Nonnegative up to roundoff: activating a sensor never hurts. Computed as
    the difference of two sweeps, so it holds for any schedule, including
    ones with measurements after slot k.
    """
    if not 0 <= k < ev.horizon:
        raise InvalidArgument(f"time index {k} out of range for horizon {ev.horizon}")
    if not 0 <= i < ev.sensor_count:
        raise InvalidArgument(f"sensor index {i} out of range")
    if schedule.contains(k, i):
        raise SensorAlreadySelected(f"sensor {i} already selected at time index {k}")
    base = objective_logdet(ev, schedule)
    return base - objective_logdet(ev, schedule.with_added(k, i))


def assemble_information(ev: ObjectiveEvaluator, schedule: Schedule) -> BlockTridiagonal:
    """Prior information plus C_i.T V_i^-1 C_i = W_i.T W_i per scheduled sensor.

    The information-form oracle: built from the evaluator's stored
    intervals, so no interval is discretized again.
    """
    check_schedule(ev, schedule)
    prior = build_prior_information(ev.initial_cov, ev.propagations)
    diag = list(prior.diag)
    for k, slot in enumerate(schedule.selections):
        if slot:
            total = diag[k].copy()
            for i in slot:
                total += ev.whitened[i].T @ ev.whitened[i]
            diag[k] = sym(total)
            diag[k].setflags(write=False)
    return BlockTridiagonal(diag=tuple(diag), upper=prior.upper)


def block_tridiag_logdet(j: BlockTridiagonal) -> float:
    """Log-determinant of a positive-definite block tri-diagonal matrix.

    Forward block Schur recursion: D_1 = diag_1 and
    D_k = diag_k - upper_{k-1}.T D_{k-1}^-1 upper_{k-1}; the log determinant
    is the sum of the D_k log determinants, each read off a Cholesky factor.
    Single pass, K block operations. Kept as the oracle for the sweep.
    """
    total = 0.0
    d = j.diag[0]
    for k in range(j.block_count):
        lower = chol_pd(d, f"D_{k + 1}")
        total += logdet_from_cholesky(lower)
        if k + 1 < j.block_count:
            u = j.upper[k]
            d = sym(j.diag[k + 1] - u.T @ chol_solve(lower, u))
    return total


def batch_error_trace(ev: ObjectiveEvaluator, schedule: Schedule, cap: int | None = None) -> float:
    """Trace of the batch error covariance, i.e. the total error variance.

    Densifies the information matrix, so it is gated by the dense cap; the
    trace of the inverse comes from triangular solves against the identity.
    """
    size = ev.state_dim * ev.horizon
    limit = dense_cap(cap)
    if size > limit:
        raise OracleCapExceeded(f"n*K = {size} exceeds dense cap {limit}")
    dense = assemble_information(ev, schedule).to_dense()
    lower = chol_pd(dense, "information")
    inv_lower = solve_triangular(lower, np.eye(size), lower=True)
    return float(np.sum(inv_lower * inv_lower))
