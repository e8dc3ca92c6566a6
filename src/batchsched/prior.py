"""Batch prior for the stacked state sequence.

Discretizes the dynamics per inter-measurement interval. The information
matrix (inverse covariance) of the stacked state, symmetric block
tri-diagonal, is assembled from those intervals on demand; it and a dense
propagation oracle are the ground truth the filter-form objective is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._linalg import chol_pd, logdet_from_cholesky, pd_inverse, sym
from .caps import dense_cap
from .errors import DimensionMismatch, InvalidArgument, OracleCapExceeded
from .model import SystemModel


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

    def main_diagonal(self) -> np.ndarray:
        return np.concatenate([np.diagonal(b) for b in self.diag])


def discretize_interval(model: SystemModel, j: int) -> IntervalPropagation:
    """Transition and accumulated noise covariance over interval j (0-based).

    Continuous kinds use the augmented-matrix-exponential construction: with
    M = [[-A, F W F.T], [0, A.T]] * dt, the exponential of M carries
    exp(A.T dt) in its lower-right block and a matrix G in the upper-right
    block such that Phi = exp(A dt) and Q = Phi @ G equals the integral of
    exp(A s) F W F.T exp(A.T s) ds over [0, dt]. Discrete kinds take
    Phi = A_j and Q = F W F.T directly; a singular discrete Q is rejected.
    """
    model.require_validated()
    if not 0 <= j <= model.horizon - 2:
        raise InvalidArgument(f"interval index {j} out of range for horizon {model.horizon}")
    a = model.interval_dynamics(j)
    f = model.interval_noise_input(j)
    w = model.interval_process_noise(j)
    label = f"Q_{j + 1}"
    if model.kind.continuous:
        dt = model.interval_length(j)
        n = model.state_dim
        qc = f @ w @ f.T
        aug = np.zeros((2 * n, 2 * n))
        aug[:n, :n] = -a
        aug[:n, n:] = qc
        aug[n:, n:] = a.T
        e = expm(aug * dt)
        phi = np.array(e[n:, n:].T)
        q = sym(phi @ e[:n, n:])
    else:
        phi = np.array(a)
        q = sym(f @ w @ f.T)
    lower = chol_pd(q, label)
    phi.setflags(write=False)
    q.setflags(write=False)
    return IntervalPropagation(transition=phi, noise_cov=q, noise_logdet=logdet_from_cholesky(lower))


def discretize_intervals(model: SystemModel) -> tuple[IntervalPropagation, ...]:
    """``discretize_interval`` for every interval of the horizon, in order."""
    model.require_validated()
    return tuple(discretize_interval(model, j) for j in range(model.horizon - 1))


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

    The dense form of the result inverts ``dense_prior_covariance(model)``;
    that oracle, not the formulas above, is the correctness contract.
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


def dense_prior_covariance(model: SystemModel, cap: int | None = None) -> np.ndarray:
    """Dense covariance of the stacked state, by direct propagation.

    Block (j, k) with j >= k equals Phi(t_j, t_k) Var(x(t_k)), where the
    per-time variances follow Var(x(t_{k+1})) = Phi_k Var(x(t_k)) Phi_k.T + Q_k
    from Var(x(t_1)) = P_1. Refuses stacked dimensions above the dense cap.
    """
    model.require_validated()
    n, horizon = model.state_dim, model.horizon
    limit = dense_cap(cap)
    if n * horizon > limit:
        raise OracleCapExceeded(f"n*K = {n * horizon} exceeds dense cap {limit}")
    props = discretize_intervals(model)
    variances = [np.array(model.initial_state_cov)]
    for p in props:
        variances.append(sym(p.transition @ variances[-1] @ p.transition.T + p.noise_cov))
    out = np.zeros((n * horizon, n * horizon))
    for k in range(horizon):
        out[k * n:(k + 1) * n, k * n:(k + 1) * n] = variances[k]
        cross = variances[k]
        for j in range(k + 1, horizon):
            cross = props[j - 1].transition @ cross
            out[j * n:(j + 1) * n, k * n:(k + 1) * n] = cross
            out[k * n:(k + 1) * n, j * n:(j + 1) * n] = cross.T
    return sym(out)
