"""Batch prior and the information form of the stacked state sequence.

Discretizes the dynamics per inter-measurement interval. The information
matrix (inverse covariance) of the stacked state, symmetric block
tri-diagonal, is assembled from those intervals on demand, with or without
a schedule's sensor information; it and its block Schur log-determinant are
the oracle the filter-form objective and error trace are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import expm, solve_triangular

from ._linalg import chol_pd, chol_pd_stack, logdet_from_cholesky, pd_inverse, sym
from .errors import DimensionMismatch, InvalidArgument
from .model import Schedule, SystemModel

if TYPE_CHECKING:
    from .objective import ObjectiveEvaluator


# Intervals discretized per batch. A batch's stacked temporaries (augmented
# matrices and their exponentials, 64 (2n)^2 doubles each) stay small, so a
# long horizon discretizes with no more peak memory than one interval at a time.
DISCRETIZE_BATCH = 64


@dataclass(frozen=True, eq=False)
class IntervalPropagation:
    """Transition matrix, accumulated process-noise covariance and its log-determinant for one interval."""

    transition: np.ndarray
    noise_cov: np.ndarray
    noise_logdet: float


@dataclass(frozen=True, eq=False)
class BlockTridiagonal:
    """Symmetric block tri-diagonal matrix.

    K diagonal blocks (n x n) and K-1 super-diagonal blocks; block (k+1, k)
    is the transpose of ``upper[k]`` and is not stored. Construct through
    ``from_blocks``, which symmetrizes the diagonal blocks.
    """

    diag: tuple[np.ndarray, ...]
    upper: tuple[np.ndarray, ...]

    @classmethod
    def from_blocks(cls, diag, upper) -> "BlockTridiagonal":
        diag = tuple(np.array(b, dtype=float) for b in diag)
        upper = tuple(np.array(b, dtype=float) for b in upper)
        if len(diag) < 1:
            raise DimensionMismatch("diag must contain at least one block")
        n = diag[0].shape[0] if diag[0].ndim == 2 else -1
        for k, b in enumerate(diag):
            if b.ndim != 2 or b.shape != (n, n):
                raise DimensionMismatch(f"diag[{k}] must be {n}x{n}")
        if len(upper) != len(diag) - 1:
            raise DimensionMismatch(f"upper must contain {len(diag) - 1} blocks, got {len(upper)}")
        for k, b in enumerate(upper):
            if b.ndim != 2 or b.shape != (n, n):
                raise DimensionMismatch(f"upper[{k}] must be {n}x{n}")
        diag = tuple(sym(b) for b in diag)
        for b in diag + upper:
            b.setflags(write=False)
        return cls(diag=diag, upper=upper)

    @property
    def block_dim(self) -> int:
        return self.diag[0].shape[0]

    @property
    def block_count(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        n, count = self.block_dim, self.block_count
        out = np.zeros((n * count, n * count))
        for k, b in enumerate(self.diag):
            out[k * n:(k + 1) * n, k * n:(k + 1) * n] = b
        for k, b in enumerate(self.upper):
            out[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = b
            out[(k + 1) * n:(k + 2) * n, k * n:(k + 1) * n] = b.T
        return out


def _discretize(model: SystemModel, first: int, stop: int) -> tuple[IntervalPropagation, ...]:
    """Intervals first..stop-1 (at least one) discretized together, as stacks of matrices.

    Continuous kinds use the augmented-matrix-exponential construction: with
    M = [[-A, F W F.T], [0, A.T]] * dt, the exponential of M carries
    exp(A.T dt) in its lower-right block and a matrix G in the upper-right
    block such that Phi = exp(A dt) and Q = Phi @ G equals the integral of
    exp(A s) F W F.T exp(A.T s) ds over [0, dt]. One ``expm`` call takes
    the M of every interval. Discrete kinds take Phi = A_j and Q = F W F.T
    directly, computed once for the time-invariant kind; a singular
    discrete Q is rejected, naming the first such interval.
    """
    count = stop - first
    # Time-invariant kinds store one matrix per field, for every interval.
    pick = slice(first, stop) if model.kind.variant else slice(0, 1)
    a = model.dynamics[pick]
    f, w = model.noise_input[pick], model.process_noise_cov[pick]
    if isinstance(f, np.ndarray):
        qc = f @ w @ f.swapaxes(1, 2)
    else:  # the noise widths differ between intervals
        qc = np.stack([fj @ wj @ fj.T for fj, wj in zip(f, w)])
    if model.kind.continuous:
        n = model.state_dim
        dt = np.diff(model.measurement_times[first:stop + 1])
        aug = np.zeros((count, 2 * n, 2 * n))
        aug[:, :n, :n] = -a
        aug[:, :n, n:] = qc
        aug[:, n:, n:] = a.swapaxes(1, 2)
        aug *= dt[:, None, None]
        e = expm(aug)
        # Each Phi_j is F-contiguous, the layout a one-interval transpose copy
        # has, so that every later product with it makes the same BLAS call.
        phi = np.ascontiguousarray(e[:, n:, n:]).swapaxes(1, 2)
        q = phi @ e[:, :n, n:]
    else:
        phi = np.array(a)
        q = qc
    q = (q + q.swapaxes(1, 2)) / 2.0  # sym of each matrix
    lower = chol_pd_stack(q, lambda j: f"Q_{first + j + 1}")
    phi.setflags(write=False)
    q.setflags(write=False)
    # noise_logdet sums scalar logs, as logdet_from_cholesky does.
    props = tuple(
        IntervalPropagation(transition=phi_j, noise_cov=q_j, noise_logdet=2.0 * sum(map(math.log, diag)))
        for phi_j, q_j, diag in zip(phi, q, np.diagonal(lower, axis1=1, axis2=2).tolist())
    )
    # Discrete-invariant: one Phi and Q serve every interval.
    return props * count if len(props) < count else props


def discretize_interval(model: SystemModel, j: int) -> IntervalPropagation:
    """Transition and accumulated noise covariance over interval j (0-based)."""
    if not 0 <= j <= model.horizon - 2:
        raise InvalidArgument(f"interval index {j} out of range for horizon {model.horizon}")
    return _discretize(model, j, j + 1)[0]


def discretize_intervals(model: SystemModel) -> tuple[IntervalPropagation, ...]:
    """Every interval of the horizon, in order, discretized in batches."""
    stop = model.horizon - 1
    batches = range(0, stop, DISCRETIZE_BATCH)
    return tuple(chain.from_iterable(
        _discretize(model, first, min(first + DISCRETIZE_BATCH, stop)) for first in batches
    ))


def build_prior_information(
    initial_cov: np.ndarray, props: tuple[IntervalPropagation, ...]
) -> BlockTridiagonal:
    """Information matrix of the stacked state (x(t_1), ..., x(t_K)).

    With Phi_j, Q_j from ``props`` (``discretize_intervals``) and P_1 the
    initial covariance, the blocks are (1-based j over intervals):

        diag_1 = P_1^-1 + Phi_1.T Q_1^-1 Phi_1
        diag_k = Q_{k-1}^-1 + Phi_k.T Q_k^-1 Phi_k     for 1 < k < K
        diag_K = Q_{K-1}^-1
        upper_j = -Phi_j.T Q_j^-1

    The dense form of the result inverts the stacked state's covariance from
    direct propagation; that oracle (in the tests), not the formulas above,
    is the correctness contract.
    """
    p1_inv = pd_inverse(initial_cov, "P_1")
    if not props:
        return BlockTridiagonal.from_blocks([p1_inv], [])
    horizon = len(props) + 1
    q_inv = [pd_inverse(p.noise_cov, f"Q_{j + 1}") for j, p in enumerate(props)]
    diag = []
    for k in range(horizon):
        if k == 0:
            block = p1_inv + props[0].transition.T @ q_inv[0] @ props[0].transition
        elif k < horizon - 1:
            block = q_inv[k - 1] + props[k].transition.T @ q_inv[k] @ props[k].transition
        else:
            block = q_inv[horizon - 2]
        diag.append(block)
    upper = [-(props[j].transition.T @ q_inv[j]) for j in range(horizon - 1)]
    return BlockTridiagonal.from_blocks(diag, upper)


def assemble_information(ev: ObjectiveEvaluator, schedule: Schedule) -> BlockTridiagonal:
    """Prior information plus C_i.T V_i^-1 C_i = W_i.T W_i per scheduled sensor.

    Built from the evaluator's stored intervals, so no interval is
    discretized again.
    """
    schedule.check_shape(ev.horizon, ev.sensor_count)
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
    Single pass, K block operations.
    """
    total = 0.0
    d = j.diag[0]
    for k in range(j.block_count):
        lower = chol_pd(d, f"D_{k + 1}")
        total += logdet_from_cholesky(lower)
        if k + 1 < j.block_count:
            # lower^-1 upper_k, so that D_{k+1} subtracts its Gram matrix.
            half = solve_triangular(lower, j.upper[k], lower=True)
            d = sym(j.diag[k + 1] - half.T @ half)
    return total
