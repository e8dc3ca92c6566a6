"""Dense linear-algebra helpers sharing one notion of positive definiteness."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NotPositiveDefinite

# A symmetric matrix counts as positive definite when its Cholesky
# factorization succeeds and every pivot exceeds this fraction of the
# largest diagonal entry.
PD_PIVOT_RTOL = 1e-12


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a.T) / 2 of a matrix, or of each matrix of a stack."""
    return (a + a.swapaxes(-1, -2)) / 2.0


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


def pd_factors(stack: np.ndarray) -> np.ndarray | None:
    """``chol_pd`` of every matrix of a (J, n, n) stack, bit for bit, by one
    factorization; None if it rejects any."""
    try:
        lower = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None
    pivots = np.square(lower.diagonal(0, 1, 2))
    scale = stack.diagonal(0, 1, 2).max(axis=1)
    return lower if (pivots > PD_PIVOT_RTOL * scale[:, None]).all() else None


def chol_pd_stack(stack: np.ndarray, label: Callable[[int], str]) -> np.ndarray:
    """``chol_pd`` of every matrix of a (J, n, n) stack by one factorization.

    ``label(j)`` names matrix j; an error names the first matrix that fails.
    """
    lower = pd_factors(stack)
    if lower is not None:
        return lower
    # Some matrix fails; factor them in order to raise for the first.
    return np.stack([chol_pd(matrix, label(j)) for j, matrix in enumerate(stack)])


def logdet_from_cholesky(lower: np.ndarray) -> float:
    """Log-determinant of L L.T from the lower factor L."""
    return 2.0 * sum(map(math.log, lower.diagonal().tolist()))

