"""Linear-algebra kernels: covariate polar factors and top factors.

Every routine here is a pure function of its input bytes, so downstream
estimates are reproducible across runs and thread counts.  ``top_factors`` is
the one factor kernel: the model's residual factors go through it and its
Gram-matrix half ``top_eigenpairs``.  Monte-Carlo replicates of bandwidth
k >= 2 solve a band matrix instead, with ``top_band_eigenpairs``; tridiagonal
(k = 1) ones are solved in numpy (``simulation.solve``), which comes here
only for a draw its check does not trust.

``top_eigenpairs`` takes the top r eigenpairs of a full ``np.linalg.eigh``;
``top_band_eigenpairs`` computes only those, by LAPACK ``dsbevx`` through
``scipy.linalg.lapack`` (reduction to tridiagonal form, bisection and inverse
iteration), the one path for every band solve.  Nothing in the package sets
the BLAS thread count.
"""

import numpy as np

# Relative threshold below which a matrix is treated as rank deficient.
RANK_TOL = 1e-10


class CodedError(ValueError):
    """A fault with a stable error code, which the CLI prints as
    ``error [CODE]: message``; ``str()`` gives ``CODE: message``."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _as_matrix(A, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise CodedError("DIM_MISMATCH",
                         f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise CodedError("DIM_MISMATCH",
                         f"{name} must have at least one row and column")
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
    symmetric Gram matrix G, read from its lower triangle; G is not modified.

    Computed by a full ``np.linalg.eigh``.  Raises ``LinAlgError`` when the
    solver fails, and ``ValueError`` when the r-th eigenvalue vanishes next
    to the first.
    """
    n = len(G)
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}, got {r}")
    w, Q = np.linalg.eigh(G)
    lam = np.maximum(w[::-1][:r], 0.0)
    return _checked(lam, Q[:, ::-1][:, :r], r)


def top_band_eigenpairs(ab: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """``top_eigenpairs`` of the symmetric band matrix M whose lower band is
    ab, shape (kd + 1, n), in LAPACK's lower band storage: ab[t, j] =
    M[j + t, j], entries past the matrix's last row ignored; ab is not
    modified.

    Only eigenpairs n - r + 1 ... n are computed, by LAPACK ``dsbevx``
    through ``scipy.linalg.lapack`` (absolute tolerance 0).  Raises as
    ``top_eigenpairs`` does.
    """
    from scipy.linalg import lapack     # loaded on first use, not at import
    n = ab.shape[1]
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}, got {r}")
    # ab[:n] drops the rows of a band wider than the matrix
    w, z, found, _, info = lapack.dsbevx(ab[:n], 0.0, 0.0, n - r + 1, n,
                                         range=2, lower=1, mmax=r,
                                         overwrite_ab=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsbevx failed with info={info}")
    if found != r:
        raise np.linalg.LinAlgError(f"dsbevx found {found} of {r} eigenpairs")
    return _checked(w[:r][::-1], z[:, ::-1], r)


def _checked(lam: np.ndarray, vecs: np.ndarray,
             r: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, vecs), or ValueError when the r-th eigenvalue vanishes next to
    the first in any row of lam (so eigenvalues that pass are positive)."""
    if np.any(lam[..., -1] <= 1e-12 * np.maximum(lam[..., 0], 1e-300)):
        raise CodedError("FACTOR_RANK",
                         f"matrix rank is below the requested {r} factors")
    return lam, vecs
