"""Batch prior: the dynamics discretized per inter-measurement interval, and
the information form of the stacked state sequence.

The information matrix (inverse covariance) of the stacked state is
symmetric block tri-diagonal. The objective never forms it: the filter sweep
of ``objective`` evaluates the same log-determinant. The tests build their
information-form oracle on ``build_prior_information``.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import lapack_solve, pd_factors, sym
from .errors import InvalidArgument, NumericOverflow
from .model import ModelKind, SystemModel, freeze_arrays


# Higham (SIAM J. Matrix Anal. Appl. 2005), Table 2.3: the largest 1-norm at
# which the [13/13] Pade approximant of exp is accurate to double-precision
# unit roundoff.
PADE_THETA = 5.371920351148152


def _pade_terms() -> np.ndarray:
    """The coefficients b_j = C(13, j) (26 - j)! / 26! of the [13/13] Pade
    approximant of exp in Higham's evaluation,

        U = A [A^6 (b13 A^6 + b11 A^4 + b9 A^2) + b7 A^6 + b5 A^4 + b3 A^2 + b1 I],
        V = A^6 (b12 A^6 + b10 A^4 + b8 A^2) + b6 A^6 + b4 A^4 + b2 A^2 + b0 I:

    row r holds the coefficients of I, A^2, A^4 and A^6 in U's outer (r = 0)
    and inner (1) sums and in V's (2 and 3). They are Higham's divided by his
    b_0, so that b_0 = 1 and exp(0) = (V - U)^-1 (V + U) is exactly I."""
    terms = np.zeros((4, 4))
    for j in range(14):
        inner = j >= 8
        b_j = math.comb(13, j) * math.factorial(26 - j) / math.factorial(26)
        terms[2 * (j % 2 == 0) + inner, (j - 6 * inner) // 2] = b_j
    return terms


_PADE_13 = _pade_terms()

# _discretize exponentiates at most this many intervals' blocks together, so
# the work arrays stay a few hundred kilobytes at any horizon.
EXPM_CHUNK = 64


# Overflow shows as a non-finite exponential, which the caller reports.
@np.errstate(over="ignore", invalid="ignore")
def expm(a: np.ndarray) -> np.ndarray:
    """The exponential of each matrix of a (J, p, p) stack, by scaling and
    squaring (Higham 2005).

    Each matrix is scaled by 2^-s, the least s >= 0 that brings its 1-norm
    under PADE_THETA, and the degree-13 Pade approximant of the scaled matrix
    is squared s times. s depends on the matrix alone, so a matrix's
    exponential is the same bits in any stack. A matrix whose 1-norm is not
    finite gives NaN.
    """
    count, p = len(a), a.shape[-1]
    norms = np.abs(a).sum(axis=1).max(axis=1)
    finite = np.isfinite(norms)
    norms = np.where(finite, norms, 0.0)
    squarings = np.ceil(np.log2(np.maximum(norms / PADE_THETA, 1.0))).astype(int)
    a = np.ldexp(a, -squarings[:, None, None])
    powers = np.empty((count, 4, p, p))
    powers[:, 0] = np.eye(p)
    powers[:, 1] = a2 = a @ a
    powers[:, 2] = a4 = a2 @ a2
    powers[:, 3] = a6 = a4 @ a2
    sums = (_PADE_13 @ powers.reshape(count, 4, p * p)).reshape(count, 4, p, p)
    u = a @ (a6 @ sums[:, 1] + sums[:, 0])
    v = a6 @ sums[:, 3] + sums[:, 2]
    power = lapack_solve(v - u, v + u)
    for i in range(int(squarings.max(initial=0))):
        live = squarings > i
        root = power[live]
        power[live] = root @ root
    power[~finite] = np.nan
    return power


def van_loan(a: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi = exp(A) and Q, the integral of exp(A s) N exp(A.T s) ds over
    [0, 1], for each pair of two (J, n, n) stacks of A and of symmetric N.

    The exponential of M = [[-A, N], [0, A.T]] carries Phi.T in its
    lower-right block and a matrix G in its upper-right block with Q = Phi G
    (Van Loan, IEEE TAC 1978). Each Phi is F-contiguous, the layout a
    one-matrix transpose copy has, so that every later product with it makes
    the same BLAS call whatever the stack.
    """
    n = a.shape[-1]
    # Balancing by D = diag(2^b I, I), exact in binary: exp(D^-1 M D) =
    # D^-1 exp(M) D, so N goes in scaled by 2^-b and G comes out scaled by
    # 2^b. b brings N's 1-norm down to about max(1, |A|), so a large noise
    # forces no squarings, which would amplify the roundoff in Phi.
    ratio = np.abs(noise).sum(axis=1).max(axis=1) / np.maximum(1.0, np.abs(a).sum(axis=1).max(axis=1))
    shift = np.maximum(0, np.frexp(ratio)[1])[:, None, None]
    aug = np.zeros((len(a), 2 * n, 2 * n))
    aug[:, :n, :n] = -a
    aug[:, :n, n:] = np.ldexp(noise, -shift)
    aug[:, n:, n:] = a.swapaxes(1, 2)
    e = expm(aug)
    phi = np.ascontiguousarray(e[:, n:, n:]).swapaxes(1, 2)
    return phi, phi @ np.ldexp(e[:, :n, n:], shift)


# Overflow shows as a non-finite Phi_j or Q_j, reported below as an error.
@np.errstate(over="ignore", invalid="ignore")
def _discretize(model: SystemModel, first: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intervals first..stop-1 (at least one) discretized together: the
    stacks of their Phi_j, Q_j and Q_j's lower Cholesky factor.

    Continuous kinds take Phi = exp(A dt) and Q, the integral of
    exp(A s) F W F.T exp(A.T s) ds over [0, dt], from ``van_loan`` of A dt
    and F W F.T dt, EXPM_CHUNK intervals at a time. Discrete kinds take
    Phi = A_j and Q = F W F.T directly. Raises NumericOverflow if a Phi_j or
    Q_j is not finite, and NotPositiveDefinite if a Q_j is singular, naming
    the first such interval.
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
        dt = np.diff(model.measurement_times[first:stop + 1])[:, None, None]
        a, qc = a * dt, qc * dt
        phi = np.empty((count, n, n)).swapaxes(1, 2)  # van_loan's F-contiguous layout
        q = np.empty((count, n, n))
        for lo in range(0, count, EXPM_CHUNK):
            chunk = slice(lo, lo + EXPM_CHUNK)
            phi[chunk], q[chunk] = van_loan(a[chunk], qc[chunk])
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
