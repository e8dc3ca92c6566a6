"""Dense linear-algebra helpers sharing one notion of positive definiteness."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
# The LAPACK gufuncs behind np.linalg.cholesky, solve and qr, called directly:
# every matrix is a few rows square and the wrappers' checks cost 6-11 us a
# call against 1.5-3 us for the kernel. None of them raises: a Cholesky
# factorization that stops or a singular solve gives NaN and sets the invalid
# flag. lapack_qr(a) overwrites a with R and, below it, the reflectors.
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky, qr_r_raw as lapack_qr, solve as lapack_solve

from .errors import NotPositiveDefinite

# A symmetric matrix counts as positive definite when its Cholesky
# factorization succeeds and every pivot exceeds this fraction of the
# largest diagonal entry.
PD_PIVOT_RTOL = 1e-12


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part a/2 + a.T/2 of a matrix, or of each matrix of a stack: halved
    first, it is finite for any finite ``a``, and (a + a.T)/2 unless a half is subnormal."""
    return a / 2.0 + a.swapaxes(-1, -2) / 2.0


def _pd_cholesky(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factors of a (J, p, p) stack, or of one matrix, in one
    LAPACK call, and per matrix whether PD_PIVOT_RTOL's rule holds (a
    factorization that stops comes back as NaN, and fails it)."""
    with np.errstate(invalid="ignore"):
        lower = _cholesky(stack)
    pivots = np.square(lower.diagonal(0, -2, -1))
    scale = stack.diagonal(0, -2, -1).max(axis=-1)[..., None]
    return lower, (pivots > PD_PIVOT_RTOL * scale).all(axis=-1)


def chol_pd(a: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of ``a``; raises NotPositiveDefinite naming ``name``."""
    lower, positive = _pd_cholesky(a)
    if np.isnan(lower).any():
        raise NotPositiveDefinite(
            f"{name} is not positive definite: its Cholesky factorization meets a pivot <= 0 "
            f"(pivot ratio <= 0, PD_PIVOT_RTOL = {PD_PIVOT_RTOL:g})"
        )
    if not positive:
        ratio = float(np.square(lower.diagonal()).min()) / float(a.diagonal().max())
        raise NotPositiveDefinite(
            f"{name} is not positive definite: smallest Cholesky pivot ratio "
            f"{ratio:.3g} <= PD_PIVOT_RTOL = {PD_PIVOT_RTOL:g}"
        )
    return lower


def _symmetric(stack: np.ndarray) -> bool:
    """Whether every matrix of a (J, p, p) stack is symmetric to 1e-9 of its largest
    entry (at least 1); Cholesky only reads the lower triangle. The halves are
    compared, as ``sym`` halves, so mirrored entries near the double range of
    opposite sign do not overflow."""
    if (stack == stack.swapaxes(1, 2)).all():
        return True
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    return bool((np.abs(stack / 2.0 - stack.swapaxes(1, 2) / 2.0).max(axis=(1, 2)) <= 0.5e-9 * scale).all())


def pd_factors(stacks: list[np.ndarray], named: Iterable[tuple[str, np.ndarray]]) -> list[np.ndarray]:
    """The read-only lower Cholesky factors of each (J, p, p) stack, the one gate
    every covariance passes: each matrix must be symmetric (``_symmetric``) and
    positive definite (``_pd_cholesky``).

    Each stack is factored in one LAPACK call, each matrix alone, so each factor
    is the one ``np.linalg.cholesky`` gives, in memory of its stack's own.
    ``named`` lists the same matrices as (name, matrix) pairs in naming order;
    it is read only if some matrix fails, to raise NotPositiveDefinite naming the
    first that does, with ``chol_pd``'s message.
    """
    factors = []
    for stack in stacks:
        lower, positive = _pd_cholesky(stack)
        if not (_symmetric(stack) and positive.all()):
            for name, matrix in named:
                if not _symmetric(matrix[None]):
                    raise NotPositiveDefinite(f"{name} must be symmetric")
                chol_pd(matrix, name)
            raise AssertionError("a stacked check failed where every matrix passes alone")
        lower.setflags(write=False)
        factors.append(lower)
    return factors


def logdet_from_cholesky(lower: np.ndarray) -> float:
    """Log-determinant of L L.T from the lower factor L."""
    return 2.0 * sum(map(math.log, lower.diagonal().tolist()))
