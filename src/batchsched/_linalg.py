"""Dense linear-algebra helpers sharing one notion of positive definiteness."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NotPositiveDefinite

# A symmetric matrix counts as positive definite when its Cholesky
# factorization succeeds and every pivot exceeds this fraction of the
# largest diagonal entry.
PD_PIVOT_RTOL = 1e-12


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a.T) / 2."""
    return (a + a.T) / 2.0


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


def chol_pd_stack(stack: np.ndarray, label: Callable[[int], str]) -> np.ndarray:
    """``chol_pd`` of every matrix of a (J, n, n) stack by one factorization.

    ``label(j)`` names matrix j; an error names the first matrix that fails.
    """
    try:
        lower = np.linalg.cholesky(stack)
        pivots = np.diagonal(lower, axis1=1, axis2=2) ** 2
        scale = np.diagonal(stack, axis1=1, axis2=2).max(axis=1, keepdims=True)
        if np.all(pivots > PD_PIVOT_RTOL * scale):
            return lower
    except np.linalg.LinAlgError:
        pass
    # Some matrix fails; factor them in order to raise for the first.
    return np.stack([chol_pd(matrix, label(j)) for j, matrix in enumerate(stack)])


def logdet_from_cholesky(lower: np.ndarray) -> float:
    """Log-determinant of L L.T from the lower factor L."""
    return 2.0 * sum(map(math.log, lower.diagonal().tolist()))


def pd_inverse(a: np.ndarray, name: str) -> np.ndarray:
    lower = chol_pd(a, name)
    inv_lower = solve_triangular(lower, np.eye(a.shape[0]), lower=True)
    return sym(inv_lower.T @ inv_lower)
