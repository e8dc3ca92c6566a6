"""Dense linear-algebra helpers sharing one notion of positive definiteness."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
# The LAPACK gufuncs behind np.linalg.solve and qr, called directly on the
# hot paths, where every matrix is a few rows square and the wrappers' checks
# cost 6-11 us a call against 1.5-3 us for the kernel. A singular solve gives
# NaN and sets the invalid flag instead of raising. lapack_qr(a) overwrites a
# with R and, below it, the reflectors.
from numpy.linalg._umath_linalg import qr_r_raw as lapack_qr, solve as lapack_solve

from .errors import NotPositiveDefinite

# A symmetric matrix counts as positive definite when its Cholesky
# factorization succeeds and every pivot exceeds this fraction of the
# largest diagonal entry.
PD_PIVOT_RTOL = 1e-12


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part a/2 + a.T/2 of a matrix, or of each matrix of a stack: halved
    first, it is finite for any finite ``a``, and (a + a.T)/2 unless a half is subnormal."""
    return a / 2.0 + a.swapaxes(-1, -2) / 2.0


def chol_pd(a: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of ``a``; raises NotPositiveDefinite naming ``name``."""
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"{name} is not positive definite: its Cholesky factorization meets a pivot <= 0 "
            f"(pivot ratio <= 0, PD_PIVOT_RTOL = {PD_PIVOT_RTOL:g})"
        ) from None
    pivots = np.diagonal(lower) ** 2
    # The factorization succeeded, so every diagonal entry is positive.
    scale = float(np.diagonal(a).max())
    if not np.all(pivots > PD_PIVOT_RTOL * scale):
        raise NotPositiveDefinite(
            f"{name} is not positive definite: smallest Cholesky pivot ratio "
            f"{float(pivots.min()) / scale:.3g} <= PD_PIVOT_RTOL = {PD_PIVOT_RTOL:g}"
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
    positive definite (``chol_pd``).

    The stacks of one size are checked and factored as one, each matrix alone,
    so each factor is the one ``chol_pd`` gives. ``named`` lists the same
    matrices as (name, matrix) pairs in naming order; it is read only if some
    matrix fails, to raise NotPositiveDefinite naming the first that does.
    """
    by_size: dict[int, list[int]] = {}
    for index, stack in enumerate(stacks):
        by_size.setdefault(stack.shape[1], []).append(index)
    factors = [None] * len(stacks)
    for members in by_size.values():
        merged = np.concatenate([stacks[i] for i in members]) if len(members) > 1 else stacks[members[0]]
        try:
            lower = np.linalg.cholesky(merged) if _symmetric(merged) else None
        except np.linalg.LinAlgError:
            lower = None
        # chol_pd's pivot-ratio rule, matrix by matrix.
        if lower is None or not (
            np.square(lower.diagonal(0, 1, 2)) > PD_PIVOT_RTOL * merged.diagonal(0, 1, 2).max(axis=1)[:, None]
        ).all():
            for name, matrix in named:
                if not _symmetric(matrix[None]):
                    raise NotPositiveDefinite(f"{name} must be symmetric")
                chol_pd(matrix, name)
            raise AssertionError("a stacked check failed where every matrix passes alone")
        start = 0
        for i in members:
            factor = lower[start:start + len(stacks[i])]
            # A copy, so that a factor kept does not keep the others' memory.
            factors[i] = factor.copy() if len(members) > 1 else factor
            factors[i].setflags(write=False)
            start += len(stacks[i])
    return factors


def logdet_from_cholesky(lower: np.ndarray) -> float:
    """Log-determinant of L L.T from the lower factor L."""
    return 2.0 * sum(map(math.log, lower.diagonal().tolist()))
