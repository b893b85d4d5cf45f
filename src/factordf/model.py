"""Two-sided least squares for the bilinear regression model.

Fits Y = A Z' + X B' + (latent factors) + E and exposes the identifiable
coefficient components under the fixed normalization H_X A = 0,
H_Z B = H_Z Y' X (X'X)^-1.  The covariates are factored once, when the
bundle is built: X = Q1 R and Z = P1 S are their polar decompositions, and
every fit and test reads those factors instead of refactoring X'X or Z'Z.
The interaction block of the reparametrized model, B_hat' P1 S^-1, is not
formed: no test reads it.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import _as_matrix, polar_factors


def _factor_covariate(C, n_rows: int, name: str):
    """(C, Q, R) with C = Q R its polar factors, or (None, None, None)."""
    if C is None:
        return None, None, None
    C = _as_matrix(C, name)
    if C.shape[1] == 0:
        return None, None, None
    if C.shape[0] != n_rows:
        raise ValueError(f"{name} has {C.shape[0]} rows, expected {n_rows}")
    if C.shape[1] >= n_rows:
        raise ValueError(f"{name} must have fewer columns than rows")
    try:
        Q, R = polar_factors(C)
    except ValueError:
        raise ValueError(f"{name} is rank deficient") from None
    return C, Q, R


@dataclass(frozen=True, eq=False)
class DatasetBundle:
    """Response matrix with optional row covariates X and column covariates Z.

    Bundles compare and hash by identity: comparing the arrays would give no
    single truth value.
    """

    Y: np.ndarray                       # (N, M)
    X: np.ndarray | None = None         # (N, p)
    Z: np.ndarray | None = None         # (M, q)
    row_ids: tuple = ()
    col_ids: tuple = ()
    # polar factors X = Q1 R and Z = P1 S, taken once here (None without X / Z)
    Q1: np.ndarray | None = field(init=False, repr=False)
    R: np.ndarray | None = field(init=False, repr=False)
    P1: np.ndarray | None = field(init=False, repr=False)
    S: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        Y = _as_matrix(self.Y, "Y")
        X, Q1, R = _factor_covariate(self.X, Y.shape[0], "X")
        Z, P1, S = _factor_covariate(self.Z, Y.shape[1], "Z")
        for name, value in (("Y", Y), ("X", X), ("Z", Z), ("Q1", Q1),
                            ("R", R), ("P1", P1), ("S", S)):
            object.__setattr__(self, name, value)

    @property
    def N(self) -> int:
        return self.Y.shape[0]

    @property
    def M(self) -> int:
        return self.Y.shape[1]

    @property
    def p(self) -> int:
        return 0 if self.X is None else self.X.shape[1]

    @property
    def q(self) -> int:
        return 0 if self.Z is None else self.Z.shape[1]


@dataclass(frozen=True)
class CoefficientEstimates:
    A_hat: np.ndarray       # (N, q), H_X A_hat = 0
    B_hat: np.ndarray       # (M, p), full normal-equation solution Y' X (X'X)^-1


def fit_two_sided(bundle: DatasetBundle, *,
                  out: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[CoefficientEstimates, np.ndarray]:
    """Least squares fit of the two-sided regression part of the model.

    Returns the coefficient blocks under the stated identifiability
    convention and the residual matrix E_hat = (I - H_X) Y (I - H_Z).  With
    X = Q1 R and Z = P1 S, B_hat = Y' Q1 R^-1 and A_hat = Yx P1 S^-1, where
    Yx = (I - H_X) Y; the normal equations would square the conditioning.

    ``out`` is an optional pair of C-contiguous float (N, M) arrays
    ``(E, work)``: E_hat is then formed in E (and is E) and ``work`` holds
    a product on the way, with the same bytes as without them.  Without
    ``out`` every matrix is a new array, except that E_hat is Y itself when
    the bundle has neither X nor Z.
    """
    Y, Q1, R, P1, S = bundle.Y, bundle.Q1, bundle.R, bundle.P1, bundle.S
    E, work = (None, None) if out is None else out

    if Q1 is not None:
        QtY = Q1.T @ Y
        B_hat = np.linalg.solve(R, QtY).T
        Yx = np.subtract(Y, np.matmul(Q1, QtY, out=E), out=E)
    else:
        B_hat = np.zeros((bundle.M, 0))
        Yx = Y
        if E is not None:
            E[...] = Y
            Yx = E

    if P1 is not None:
        YxP = Yx @ P1
        A_hat = np.linalg.solve(S, YxP.T).T
        E_hat = np.subtract(Yx, np.matmul(YxP, P1.T, out=work), out=E)
    else:
        A_hat = np.zeros((bundle.N, 0))
        E_hat = Yx

    return CoefficientEstimates(A_hat, B_hat), E_hat
