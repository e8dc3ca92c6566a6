"""Batch prior and the information form of the stacked state sequence.

Discretizes the dynamics per inter-measurement interval. The information
matrix (inverse covariance) of the stacked state, symmetric block
tri-diagonal, is assembled from those intervals on demand, with or without
a schedule's sensor information; it and its block Schur log-determinant are
the oracle the filter-form objective and error trace are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import expm, solve_triangular

from ._linalg import chol_pd, chol_pd_stack, logdet_from_cholesky, pd_inverse, sym
from .errors import DimensionMismatch, InvalidArgument, NumericOverflow
from .model import ModelKind, Schedule, SystemModel, freeze_arrays

if TYPE_CHECKING:
    from .objective import ObjectiveEvaluator


# Intervals discretized per batch. A batch's stacked temporaries (augmented
# matrices and their exponentials, 64 (2n)^2 doubles each) stay small, so a
# long horizon discretizes with no more peak memory than one interval at a time.
DISCRETIZE_BATCH = 64


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


# Overflow shows as a non-finite Phi_j or Q_j, reported below as an error.
@np.errstate(over="ignore", invalid="ignore")
def _discretize(model: SystemModel, first: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intervals first..stop-1 (at least one) discretized together: the
    stacks of their Phi_j, Q_j and Q_j's lower Cholesky factor.

    Continuous kinds use the augmented-matrix-exponential construction: with
    M = [[-A, F W F.T], [0, A.T]] * dt, the exponential of M carries
    exp(A.T dt) in its lower-right block and a matrix G in the upper-right
    block such that Phi = exp(A dt) and Q = Phi @ G equals the integral of
    exp(A s) F W F.T exp(A.T s) ds over [0, dt]. One ``expm`` call takes
    the M of every interval. Discrete kinds take Phi = A_j and Q = F W F.T
    directly. Raises NumericOverflow if a Phi_j or Q_j is not finite, and
    NotPositiveDefinite if a Q_j is singular, naming the first such interval.
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
    finite = np.isfinite(phi).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2))
    if not finite.all():
        j = first + int(finite.argmin())
        raise NumericOverflow(
            f"discretization of interval {j + 1} (time index {j} to {j + 1}) is not finite: "
            f"Phi_{j + 1} or Q_{j + 1} left the double range (dynamics or interval length too large?)"
        )
    return phi, q, chol_pd_stack(q, lambda j: f"Q_{first + j + 1}")


def discretize_intervals(model: SystemModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every interval of the horizon, in order, discretized in batches: the
    read-only (K-1, n, n) stacks of Phi_j, Q_j and Q_j's lower Cholesky factor.

    The discrete-invariant kind discretizes its one interval once; its three
    stacks are zero-stride views of that interval's matrices.
    """
    count = model.horizon - 1
    if count == 0:
        stacks = [np.empty((0, model.state_dim, model.state_dim))] * 3
    elif model.kind is ModelKind.DISCRETE_INVARIANT:
        stacks = [np.broadcast_to(a, (count,) + a.shape[1:]) for a in _discretize(model, 0, 1)]
    else:
        batches = [_discretize(model, first, min(first + DISCRETIZE_BATCH, count))
                   for first in range(0, count, DISCRETIZE_BATCH)]
        # concatenate keeps each Phi_j's layout.
        stacks = [np.concatenate(a) for a in zip(*batches)]
    freeze_arrays(stacks)
    return tuple(stacks)


def discretize_interval(model: SystemModel, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi_j, Q_j and Q_j's lower Cholesky factor for interval j (0-based),
    bit for bit slice j of ``discretize_intervals``."""
    if not 0 <= j <= model.horizon - 2:
        raise InvalidArgument(f"interval index {j} out of range for horizon {model.horizon}")
    return tuple(a[0] for a in _discretize(model, j, j + 1))


def build_prior_information(
    initial_cov: np.ndarray, transitions: np.ndarray, noise_covs: np.ndarray
) -> BlockTridiagonal:
    """Information matrix of the stacked state (x(t_1), ..., x(t_K)).

    With Phi_j, Q_j from ``discretize_intervals`` and P_1 the initial
    covariance, the blocks are (1-based j over intervals):

        diag_1 = P_1^-1 + Phi_1.T Q_1^-1 Phi_1
        diag_k = Q_{k-1}^-1 + Phi_k.T Q_k^-1 Phi_k     for 1 < k < K
        diag_K = Q_{K-1}^-1
        upper_j = -Phi_j.T Q_j^-1

    The dense form of the result inverts the stacked state's covariance from
    direct propagation; that oracle (in the tests), not the formulas above,
    is the correctness contract.
    """
    p1_inv = pd_inverse(initial_cov, "P_1")
    q_inv = [pd_inverse(q, f"Q_{j + 1}") for j, q in enumerate(noise_covs)]
    # Block k starts from P_1^-1 or Q_{k-1}^-1; interval k adds to it.
    diag = [p1_inv] + q_inv
    for k, (phi, q_inv_k) in enumerate(zip(transitions, q_inv)):
        diag[k] = diag[k] + phi.T @ q_inv_k @ phi
    upper = [-(phi.T @ q_inv_k) for phi, q_inv_k in zip(transitions, q_inv)]
    return BlockTridiagonal.from_blocks(diag, upper)


def assemble_information(ev: ObjectiveEvaluator, schedule: Schedule) -> BlockTridiagonal:
    """Prior information plus C_i.T V_i^-1 C_i = W_i.T W_i per scheduled sensor.

    Built from the evaluator's stored intervals, so no interval is
    discretized again.
    """
    schedule.check_shape(ev.horizon, ev.sensor_count)
    prior = build_prior_information(ev.initial_cov, ev.transitions, ev.noise_covs)
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
