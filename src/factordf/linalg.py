"""Dense linear-algebra kernels: covariate polar factors and top factors.

Every routine here is a pure function of its input bytes, so downstream
estimates are reproducible across runs and thread counts.  ``top_factors`` is
the one factor kernel: the model's residual factors go through it, and every
Monte-Carlo replicate through its Gram-matrix half ``top_eigenpairs``.
"""

import numpy as np

# Relative threshold below which a matrix is treated as rank deficient.
RANK_TOL = 1e-10


def _as_matrix(A, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def polar_factors(X) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition X = Q R with Q orthonormal-column, R symmetric PD.

    Computed from the SVD: X = U S V' gives Q = U V' and R = V S V'.
    Raises on rank-deficient input (smallest singular value below
    RANK_TOL relative to the largest).
    """
    X = _as_matrix(X, "X")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if X.shape[1] > X.shape[0] or s[-1] <= RANK_TOL * s[0]:
        raise ValueError("polar_factors requires full column rank")
    Q = U @ Vt
    R = (Vt.T * s) @ Vt
    return Q, 0.5 * (R + R.T)


def top_factors(E: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-r left singular vectors (n, r) and singular values (r,) of E.

    Taken from the Gram matrix of the smaller side: eigh(E E') when n <= m,
    else eigh(E'E) with left = E right / sing.  Callers that need loadings
    form E' left / sing.  The vector signs are the eigensolver's; every
    consumer uses sign-free products.  Raises when the r-th singular value
    vanishes next to the first (1 <= r <= min(n, m)).
    """
    n, m = E.shape
    lam, vecs = top_eigenpairs(E @ E.T if n <= m else E.T @ E, r)
    sing = np.sqrt(lam)
    return (vecs if n <= m else (E @ vecs) / sing), sing


def top_eigenpairs(G: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-r eigenvalues (descending, clipped at 0) and eigenvectors of a
    Gram matrix G.  Raises when the r-th eigenvalue vanishes next to the
    first."""
    w, Q = np.linalg.eigh(G)
    lam = np.maximum(w[::-1][:r], 0.0)
    if lam[-1] <= 1e-12 * max(lam[0], 1e-300):
        raise ValueError(f"matrix rank is below the requested {r} factors")
    return lam, Q[:, ::-1][:, :r]
