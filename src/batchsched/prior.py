"""Batch prior: the dynamics discretized per inter-measurement interval, and
the information form of the stacked state sequence.

The information matrix (inverse covariance) of the stacked state is
symmetric block tri-diagonal. The objective never forms it: the filter sweep
of ``objective`` evaluates the same log-determinant. The tests build their
information-form oracle on ``build_prior_information``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from ._linalg import pd_factors, sym
from .errors import InvalidArgument, NumericOverflow
from .model import ModelKind, SystemModel, freeze_arrays


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
    q = sym(q)
    finite = np.isfinite(phi).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2))
    if not finite.all():
        j = first + int(finite.argmin())
        raise NumericOverflow(
            f"discretization of interval {j + 1} (time index {j} to {j + 1}) is not finite: "
            f"Phi_{j + 1} or Q_{j + 1} left the double range (dynamics or interval length too large?)"
        )
    return phi, q, pd_factors([q], ((f"Q_{first + j + 1}", matrix) for j, matrix in enumerate(q)))[0]


def discretize_intervals(model: SystemModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every interval of the horizon, in order, discretized together: the
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
        stacks = _discretize(model, 0, count)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Information matrix of the stacked state (x(t_1), ..., x(t_K)) as two
    read-only stacks: its K diagonal blocks, (K, n, n), and its K-1
    super-diagonal blocks, (K-1, n, n); block (k+1, k) is upper_k.T.

    With Phi_j, Q_j from ``discretize_intervals`` and P_1 the initial
    covariance, the blocks are (1-based j over intervals):

        diag_1 = P_1^-1 + Phi_1.T Q_1^-1 Phi_1
        diag_k = Q_{k-1}^-1 + Phi_k.T Q_k^-1 Phi_k     for 1 < k < K
        diag_K = Q_{K-1}^-1
        upper_j = -Phi_j.T Q_j^-1

    One pass of the stack [P_1, Q_1, ..., Q_{K-1}] through ``pd_factors``,
    which raises NotPositiveDefinite naming the first matrix that fails, and
    one stacked solve give every inverse. The dense form of the result inverts the
    stacked state's covariance from direct propagation; that oracle (in the
    tests), not the formulas above, is the correctness contract.
    """
    covs = np.concatenate((initial_cov[None], noise_covs))
    lower = pd_factors([covs], ((f"Q_{j}" if j else "P_1", cov) for j, cov in enumerate(covs)))[0]
    inv_lower = np.linalg.solve(lower, np.broadcast_to(np.eye(len(initial_cov)), covs.shape))
    inverses = inv_lower.swapaxes(1, 2) @ inv_lower
    inverses = sym(inverses)
    upper = -(transitions.swapaxes(1, 2) @ inverses[1:])
    # Block k starts from P_1^-1 or Q_{k-1}^-1; interval k adds Phi_k.T Q_k^-1 Phi_k.
    inverses[:-1] -= upper @ transitions
    diag = sym(inverses)
    freeze_arrays([diag, upper])
    return diag, upper
