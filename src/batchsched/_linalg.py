"""Dense linear-algebra helpers sharing one notion of positive definiteness."""

from __future__ import annotations

import math

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
        raise NotPositiveDefinite(name) from None
    pivots = np.diagonal(lower) ** 2
    if not np.all(pivots > PD_PIVOT_RTOL * max(float(np.diagonal(a).max()), 0.0)):
        raise NotPositiveDefinite(name)
    return lower


def logdet_from_cholesky(lower: np.ndarray) -> float:
    """Log-determinant of L L.T from the lower factor L."""
    return 2.0 * sum(map(math.log, lower.diagonal().tolist()))


def pd_inverse(a: np.ndarray, name: str) -> np.ndarray:
    lower = chol_pd(a, name)
    inv_lower = solve_triangular(lower, np.eye(a.shape[0]), lower=True)
    return sym(inv_lower.T @ inv_lower)


def chol_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L.T) x = b given the lower factor L."""
    y = solve_triangular(lower, b, lower=True)
    return solve_triangular(lower.T, y, lower=False)


def spectral_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))
