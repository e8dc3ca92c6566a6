"""Objective and error trace.

The objective is the log-determinant of the batch estimation-error
covariance, -logdet J for the information matrix J of the stacked state: the
Gram matrix of the whitened rows L_P^-1 x_1, L_Q^-1 (x_{k+1} - Phi_k x_k)
and W_i x_k for i in S_k (P_1 = L_P L_P.T, Q_k = L_Q L_Q.T, W_i = L_i^-1 C_i
for V_i = L_i L_i.T). A square-root information sweep (Paige & Saunders,
SIAM J. Numer. Anal. 1977; Bierman, Factorization Methods for Discrete
Sequential Estimation, 1977) factors J a slot at a time: with R~_k the
triangular factor of the information on x_k from slots 1..k-1
(R~_1 = L_P^-1), one QR of [[R~_k, 0], [W_k, 0], [-L_Q^-1 Phi_k, L_Q^-1]]
gives J's block row [R_kk, R_k,k+1] and, as its trailing block, R~_{k+1};
the objective is -2 sum_k log|det R_kk|. The sweep stops at the last
measured slot l, whose QR is that of [[R~_l], [W_l]], and adds
sum_{j >= l} logdet Q_j; the empty schedule's value is the closed form.

Every path calls ``sweep_step``: the sweeps of ``stacked_values`` and
``objective_logdet``, and the greedy and the search, which score a sensor
at R~ by the objective with it measured last. A gain is the difference of
two such objectives, never read off R~'s determinant, whose small entries
keep only absolute accuracy after a long unmeasured unstable stretch. Each
sweep adds its terms one slot at a time in slot order, from 0.0, then the
trailing sum, never by a numpy reduction, so a schedule's value has the
same bits alone, in a stack and in the search. No factorization can fail;
a value or gain that is not finite raises NumericOverflow naming the time
index. The error trace runs the sweep of ``objective_logdet``, keeps its
block rows and inverts the factor they form selectively; the tests check
it against a selected inversion of J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from ._linalg import lapack_qr, lapack_solve, logdet_from_cholesky, sym
from .errors import InvalidArgument, NumericOverflow
from .model import Schedule, SystemModel, freeze_arrays, require_int
# Nothing here uses the information matrix: build_prior_information stays
# importable from this module only because bench/tracing.py lists it as a
# wrap point and bench/test_bench.py requires every wrap point to exist.
from .prior import build_prior_information, discretize_intervals  # noqa: F401


def _not_finite(what: str, k: int) -> NumericOverflow:
    return NumericOverflow(
        f"{what} at time index {k} is not finite: a whitened sensor row or transition left "
        "the double range (measurement matrix or dynamics too large for its noise covariance?)"
    )


def _variance_overflow(what: str, k: int) -> NumericOverflow:
    return NumericOverflow(
        f"{what} covariance at time index {k} is not finite: the error variance exceeds the double "
        "range (unstable dynamics over a long stretch without measurements?)"
    )


@dataclass(frozen=True, eq=False)
class ObjectiveEvaluator:
    """Immutable per-model cache: the discretized prior and whitened sensors.

    Built once per model and shared by every schedule evaluation; safe to use
    from concurrent workers. ``model`` is the model it was built for, whose
    budgets and fingerprint every entry point reads from here. ``transitions``,
    ``noise_covs`` and ``noise_factors`` are the (K-1, n, n) stacks of
    ``discretize_intervals``: Phi_j, Q_j and Q_j's lower Cholesky factor. The
    empty schedule's objective is -``prior_logdet``. ``padded[i]`` holds
    sensor i's whitened rows, then zero rows up to the widest sensor's count,
    which change no factor; ``padded[sensor_count]`` is all zero, and
    ``whitened[i]`` views sensor i's rows. ``initial_root`` is R~_1 = L_P^-1,
    ``time_rows[j]`` the rows [-L_Q^-1 Phi_j, L_Q^-1] (zero-stride for the
    discrete-invariant kind), and ``trailing_logdet[l]`` the sum of logdet Q_j
    over the intervals j >= l. ``upper`` is 1 on and above the diagonal of an
    n x n block and 0 below: a product with it keeps the R that a QR wrote
    there and clears its reflectors.
    """

    model: SystemModel
    initial_cov: np.ndarray
    transitions: np.ndarray
    noise_covs: np.ndarray
    noise_factors: np.ndarray
    whitened: tuple[np.ndarray, ...]
    prior_logdet: float
    padded: np.ndarray
    initial_root: np.ndarray
    time_rows: np.ndarray
    trailing_logdet: np.ndarray
    upper: np.ndarray

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
    for V_i = L_i L_i.T, and the prior, against the V_i, P_1 and Q_j factors
    that the model and the discretization kept when they checked them."""
    transitions, noise_covs, noise_factors = discretize_intervals(model)
    n = model.state_dim
    width = max((len(sensor.C) for sensor in model.sensors), default=0)
    padded = np.zeros((model.sensor_count + 1, width, n))
    for group, measurement, _, noise_factor in model._sensor_groups:
        padded[list(group), :measurement.shape[1]] = np.linalg.solve(noise_factor, measurement)
    # A row whose squared norm leaves the double range takes the QR past it
    # too: stored as inf, it makes a value that measures it raise.
    with np.errstate(over="ignore"):
        padded[~np.isfinite(np.square(padded).sum(axis=2))] = np.inf
    padded.setflags(write=False)
    # Views taken after the freeze are read-only; each is row-major, like
    # the stacked matrix of a multi-sensor slot.
    whitened = tuple(padded[i, :len(sensor.C)] for i, sensor in enumerate(model.sensors))
    # One interval's time rows serve a zero-stride (discrete-invariant) stack.
    # An entry past the double range is kept; the sweep names its time index.
    shared = len(transitions) > 1 and transitions.strides[0] == 0
    phi, lower = (transitions[:1], noise_factors[:1]) if shared else (transitions, noise_factors)
    with np.errstate(over="ignore", invalid="ignore"):
        time_rows = lapack_solve(lower, np.concatenate((-phi, np.broadcast_to(np.eye(n), phi.shape)), axis=2))
        initial_root = lapack_solve(model._initial_factor, np.eye(n))
    time_rows = np.broadcast_to(time_rows, (len(transitions), n, 2 * n))
    interval_logdets = 2.0 * np.log(noise_factors.diagonal(0, 1, 2)).sum(axis=1)
    trailing_logdet = np.append(np.cumsum(interval_logdets[::-1])[::-1], 0.0)
    initial_cov = sym(model.initial_state_cov)
    upper = np.triu(np.ones((n, n)))
    freeze_arrays([initial_cov, time_rows, trailing_logdet, initial_root, upper])
    return ObjectiveEvaluator(
        model=model,
        initial_cov=initial_cov,
        transitions=transitions,
        noise_covs=noise_covs,
        noise_factors=noise_factors,
        whitened=whitened,
        prior_logdet=-(logdet_from_cholesky(model._initial_factor) + float(trailing_logdet[0])),
        padded=padded,
        initial_root=initial_root,
        time_rows=time_rows,
        trailing_logdet=trailing_logdet,
        upper=upper,
    )


def sweep_step(
    ev: ObjectiveEvaluator, roots: np.ndarray, white: np.ndarray, k: int, propagate: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Slot k of the sweep for a stack of members, the one kernel.

    Member p enters with the factor ``roots[p]`` (n, n), which broadcasts,
    and measures the whitened rows ``white[p]`` (d, n; d may be 0, and zero
    rows pad). With ``propagate``, one QR of [[R~, 0], [W, 0],
    [-L_Q^-1 Phi_k, L_Q^-1]] gives R_kk and R~_{k+1}; without, as at a last
    measured slot, the QR of [[R~], [W]] gives R_kk, the factor conditioned
    on W. Returns the diagonals of the R_kk and R~_{k+1}, or R_kk itself as
    the QR left it: its strict lower triangle holds reflectors, which a
    product with ``ev.upper`` clears. Either factor returned is a view of the
    triangularized rows, whose ``base[..., :n, :]`` is the block row
    [R_kk, R_k,k+1], or R_kk alone without ``propagate``.
    """
    n, d = white.shape[-1], white.shape[-2]
    if propagate:
        rows = np.zeros(white.shape[:-2] + (2 * n + d, 2 * n))
        rows[..., n + d:, :] = ev.time_rows[k]
    else:
        rows = np.empty(white.shape[:-2] + (n + d, n))
    rows[..., :n, :n] = roots
    rows[..., n:n + d, :n] = white
    lapack_qr(rows)
    if not propagate:
        return rows.diagonal(0, -2, -1), rows[..., :n, :]
    ahead = rows[..., n:2 * n, n:]
    ahead *= ev.upper
    return rows.diagonal(0, -2, -1)[..., :n], ahead


def sweep_terms(diagonal: np.ndarray) -> np.ndarray:
    """The sweep's terms -2 log|det R_kk| from the diagonals of a stack of R_kk."""
    return -2.0 * np.log(np.abs(diagonal)).sum(axis=-1)


def carry(
    ev: ObjectiveEvaluator, roots: np.ndarray, swept: np.ndarray, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """A stack of factors carried from slot ``start`` to ``stop`` with the
    slots between empty, and each member's sweep ``swept`` with their terms
    added to it in slot order."""
    for k in range(start, stop):
        diagonal, roots = sweep_step(ev, roots, np.empty((len(roots), 0, ev.state_dim)), k, True)
        swept = swept + sweep_terms(diagonal)
    return roots, swept


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def stacked_values(ev: ObjectiveEvaluator, schedules: Sequence[Schedule]) -> np.ndarray:
    """Each schedule's objective from one sweep stacked over them, with one
    more ``sweep_step`` at a slot that some measure last. Zero rows pad a slot
    to its budget or its widest member, so a schedule within the budgets
    gets ``objective_logdet``'s rows and, since both add the terms in slot
    order, its value bit for bit. Takes at least one schedule and checks no
    shape; raises NumericOverflow, naming the first time index, if a value
    is not finite."""
    sizes = np.array([list(map(len, s.selections)) for s in schedules])
    widths = np.maximum(sizes.max(axis=0), ev.model.budgets)
    index = np.full(sizes.shape + (widths.max(),), ev.sensor_count)
    index[np.arange(widths.max()) < sizes[..., None]] = list(
        chain.from_iterable(chain.from_iterable(s.selections for s in schedules))
    )
    # Members in descending order of their last measured slot (-1 for none):
    # at slot k, those swept on come first, then those measured last there.
    lasts = np.where(sizes.any(axis=1), len(widths) - 1 - np.argmax(sizes[:, ::-1] > 0, axis=1), -1)
    order = np.argsort(-lasts, kind="stable")
    lasts, index = lasts[order], index[order]
    slots = np.arange(lasts[0] + 1)[:, None]
    going, active = np.count_nonzero(lasts > slots, axis=1).tolist(), np.count_nonzero(lasts >= slots, axis=1).tolist()
    diagonals = np.ones((len(slots), len(schedules), ev.state_dim))
    roots = np.broadcast_to(ev.initial_root, (np.count_nonzero(lasts >= 0),) + ev.initial_root.shape)
    for k, (on, stop) in enumerate(zip(going, active)):
        white = ev.padded[index[:stop, k, :widths[k]]].reshape(stop, -1, ev.state_dim)
        if on < stop:
            diagonals[k, on:stop] = sweep_step(ev, roots[on:], white[on:], k, False)[0]
        if on:
            diagonals[k, :on], roots = sweep_step(ev, roots[:on], white[:on], k, True)
    terms = sweep_terms(diagonals)
    # Slot by slot from 0.0: a reduction would add a lone member's terms pairwise.
    values = np.where(lasts >= 0, ev.trailing_logdet[lasts] + sum(terms, np.zeros(len(schedules))), -ev.prior_logdet)
    if not np.isfinite(values).all():
        raise _not_finite("objective term", int(np.argmin(np.isfinite(terms).all(axis=1))))
    return values[np.argsort(order)]


def _sweep(ev: ObjectiveEvaluator, schedule: Schedule, rows: list | None = None) -> tuple[float, int]:
    """``objective_logdet``'s value and the last measured slot l, -1 if none.

    The sweep of ``stacked_values`` over a stack of this one schedule,
    entered without gathering the stack: through slot l, a slot's rows
    padded to its budget, plus sum_{j >= l} logdet Q_j. If ``rows`` is a
    list, appends each slot's block row [R_kk, R_k,k+1], R_ll alone at l, as
    ``sweep_step`` left it: reflectors below R_kk's diagonal.
    """
    slots = schedule.selections
    last = max((k for k, slot in enumerate(slots) if slot), default=-1)
    if last < 0:
        return -ev.prior_logdet, last
    root, diagonals = ev.initial_root[None], []
    for k in range(last + 1):
        sensors = [*slots[k], *[ev.sensor_count] * (ev.model.budgets[k] - len(slots[k]))]
        diagonal, root = sweep_step(ev, root, ev.padded[sensors].reshape(1, -1, ev.state_dim), k, k < last)
        diagonals.append(diagonal)
        if rows is not None:
            rows.append(root.base[0, :ev.state_dim])
    terms = sweep_terms(np.concatenate(diagonals))
    value = float(ev.trailing_logdet[last] + np.add.accumulate(terms)[-1])
    if not math.isfinite(value):
        raise _not_finite("objective term", int(np.argmin(np.isfinite(terms))))
    return value, last


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def objective_logdet(ev: ObjectiveEvaluator, schedule: Schedule) -> float:
    """Log-determinant of the batch error covariance under ``schedule``."""
    schedule.check_shape(ev.horizon, ev.sensor_count)
    return _sweep(ev, schedule)[0]


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


# A variance past the double range is reported below as an error.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def batch_error_trace(ev: ObjectiveEvaluator, schedule: Schedule) -> float:
    """Trace of the batch error covariance, i.e. the total error variance.

    Selected inversion of the sweep's block-bidiagonal factor R, J = R.T R,
    from the block rows that ``_sweep`` keeps: with X_k = R_kk^-1, all from
    one stacked solve, Sigma_ll = X_l X_l.T at the last measured slot l and,
    going back,

        Sigma_kk = X_k (I + R_k,k+1 Sigma_{k+1,k+1} R_k,k+1.T) X_k.T.

    After slot l the smoothed covariance is the predicted one, summed forward
    from Sigma_ll, or from P_1 with nothing measured. The cost is O(K n^3),
    like one sweep. Raises NumericOverflow, naming the time index, once a
    smoothed or predicted covariance leaves the double range.
    """
    schedule.check_shape(ev.horizon, ev.sensor_count)
    rows: list[np.ndarray] = []
    last = _sweep(ev, schedule, rows)[1]
    n = ev.state_dim
    total, cov = 0.0, ev.initial_cov
    if last >= 0:
        inverses = lapack_solve(np.stack([row[:, :n] for row in rows]) * ev.upper, np.eye(n))
        cov = sigma = inverses[last] @ inverses[last].T
        for k in range(last, -1, -1):
            if k < last:
                gain = inverses[k] @ rows[k][:, n:]
                sigma = inverses[k] @ inverses[k].T + gain @ sigma @ gain.T
            total += float(np.trace(sigma))
            if not math.isfinite(total):
                raise _variance_overflow("smoothed", k)
    for k in range(last + 1, ev.horizon):
        if k:
            phi = ev.transitions[k - 1]
            cov = sym(phi @ cov @ phi.T + ev.noise_covs[k - 1])
        total += float(np.trace(cov))
        if not math.isfinite(total):
            raise _variance_overflow("predicted", k)
    return total
