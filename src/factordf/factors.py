"""Scree table of a residual matrix in the sqrt(n) factor scaling.

The scaling convention is fixed here once: for an n x m input, the factor
strengths mu_hat_k are the leading eigenvalues of (1/n) M'M, i.e.
mu_hat_k = sigma_k^2 / n, so factor k explains n mu_hat_k / ||M||_F^2 of the
variance.  All degrees-of-freedom formulas consume this normalization.  The
top factors themselves come from ``linalg.top_factors``; the explicit
truncated-SVD extraction and the adjusted residuals are test oracles
(``tests/oracles.py``).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import CodedError, _as_matrix


@dataclass(frozen=True)
class ScreeTable:
    """Percent of residual variance per factor and the decreasing remainder."""

    variance_pct: np.ndarray
    residual_pct: np.ndarray

    def rows(self):
        return list(zip(range(1, len(self.variance_pct) + 1),
                        self.variance_pct, self.residual_pct))


def variance_explained(M, rows: int | None = None) -> ScreeTable:
    """Scree table: 100 * n mu_hat_k / ||M||_F^2 per factor, cumulative remainder.

    ``rows`` trims the table (useful when trailing singular values are
    structurally zero, e.g. residuals of a covariate fit).  A zero M is a
    ``NO_VARIANCE`` ``CodedError``.
    """
    M = _as_matrix(M, "M")
    if not np.any(M):
        raise CodedError("NO_VARIANCE",
                         "zero matrix has no variance to explain")
    k = min(M.shape)
    if rows is not None:
        if not 1 <= rows <= k:
            raise ValueError(f"rows must be in [1, {k}]")
        k = rows
    s = np.linalg.svd(M, compute_uv=False)
    energy = s**2 / (s @ s)
    pct = 100.0 * energy[:k]
    residual = 100.0 - np.cumsum(pct)
    return ScreeTable(pct, np.maximum(residual, 0.0))
