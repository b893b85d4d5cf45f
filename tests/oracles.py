"""Validation oracles: slow, explicit versions of what the library computes.

The library works in full coordinates with one Gram-matrix factor kernel
(``factordf.linalg.top_factors``).  The tests hold it to these independent
routes: a full SVD with canonical signs, the change of basis to the
complements of col(X) and col(Z), the explicit factor term and adjusted
residuals, the algebraic RSS expansion, scalar variance / t arithmetic, and
the dense Monte-Carlo replicate (a full n x m response per draw) and the
m-row sampling plan that the sufficient-statistic engine in
``factordf.simulation`` is held to, and
Mandel's df from dense Bartlett Wishart matrices, which the spectrum sampler
behind ``factordf.dof.df_mandel`` is held to.  None of
them is fast enough, or needed, for production sizes.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from factordf.distributions import DOMAIN_MANDEL, DOMAIN_SIM, stream
from factordf.dof import DofEstimate, _estimate
from factordf.linalg import RANK_TOL, _as_matrix, polar_factors, top_factors
from factordf.model import DatasetBundle
from factordf.simulation import SignalShape, SimConfig, sampling_plan


def canonical_signs(V: np.ndarray) -> np.ndarray:
    """Sign flips (+/-1 per column) making each column's largest-|entry| positive.

    Ties in absolute value are broken by the lowest index.
    """
    if V.shape[1] == 0:
        return np.ones(0)
    lead = np.abs(V).argmax(axis=0)
    vals = V[lead, np.arange(V.shape[1])]
    signs = np.where(vals < 0, -1.0, 1.0)
    return signs


@dataclass(frozen=True)
class SvdTruncation:
    """Leading-k SVD factors with orthonormal columns and canonical signs."""

    left_vectors: np.ndarray      # (n, k)
    singular_values: np.ndarray   # (k,) descending, >= 0
    right_vectors: np.ndarray     # (m, k)

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T


def truncated_svd(A, k: int) -> SvdTruncation:
    """Best rank-k factors of A with the canonical sign convention.

    The sign of each (left, right) vector pair is fixed so that the
    largest-magnitude entry of the right singular vector is positive.
    """
    A = _as_matrix(A, "A")
    kmax = min(A.shape)
    if not 1 <= k <= kmax:
        raise ValueError(f"k must be in [1, {kmax}], got {k}")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    U, s, Vt = U[:, :k], s[:k], Vt[:k]
    signs = canonical_signs(Vt.T)
    return SvdTruncation(U * signs, s, Vt.T * signs)


def orthonormal_complement(Q1, n_rows: int | None = None) -> np.ndarray:
    """Orthonormal basis Q2 of the complement of span(Q1), so [Q1 Q2] is orthogonal.

    Deterministic construction: Gram-Schmidt completion against the identity
    columns in index order, re-orthogonalized once, then the canonical sign
    convention.  Pass ``n_rows`` for the degenerate k = 0 case (returns the
    identity).
    """
    if Q1 is None or (hasattr(Q1, "shape") and np.asarray(Q1).size == 0):
        if n_rows is None:
            raise ValueError("n_rows is required when Q1 is empty")
        return np.eye(n_rows)
    Q1 = _as_matrix(Q1, "Q1")
    N, k = Q1.shape
    if k > N:
        raise ValueError("Q1 cannot have more columns than rows")
    if np.max(np.abs(Q1.T @ Q1 - np.eye(k))) > 1e-8:
        raise ValueError("Q1 columns are not orthonormal")
    if k == N:
        return np.zeros((N, 0))

    basis = [Q1[:, j] for j in range(k)]
    added = []
    for i in range(N):
        if len(basis) == N:
            break
        v = np.zeros(N)
        v[i] = 1.0
        for b in basis:
            v = v - (b @ v) * b
        # second pass guards against cancellation
        for b in basis:
            v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            v = v / norm
            basis.append(v)
            added.append(v)
    if len(basis) != N:
        raise ValueError("failed to complete orthonormal basis")
    Q2 = np.column_stack(added)
    return Q2 * canonical_signs(Q2)


def hat_matrix(X) -> np.ndarray:
    """Orthogonal projector onto the column space of X (symmetric, idempotent)."""
    X = _as_matrix(X, "X")
    Q, _ = polar_factors(X)
    H = Q @ Q.T
    return 0.5 * (H + H.T)


# Tolerance for s being orthogonal to the column covariates.
DIRECTION_TOL = 1e-8


@dataclass(frozen=True)
class ReducedModel:
    """Covariate-free coordinates: Y22 = Q2' Y P2 on the complement bases."""

    Q2: np.ndarray    # (N, n)
    P2: np.ndarray    # (M, m)
    Y22: np.ndarray   # (n, m)

    @property
    def n(self) -> int:
        return self.Y22.shape[0]

    @property
    def m(self) -> int:
        return self.Y22.shape[1]


@dataclass(frozen=True)
class TestDirection:
    """A direction s with Z's = 0 along which B's is identifiable."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.float64).ravel()
        if not np.all(np.isfinite(s)):
            raise ValueError("test direction has non-finite entries")
        if s @ s <= 0:
            raise ValueError("test direction has zero norm")
        object.__setattr__(self, "s", s)

    @property
    def norm_sq(self) -> float:
        return float(self.s @ self.s)


def test_direction(bundle: DatasetBundle, j: int) -> TestDirection:
    """Direction (I - H_Z) e_j for response j (0-based index)."""
    if not 0 <= j < bundle.M:
        raise ValueError(f"response index {j} out of range [0, {bundle.M})")
    e = np.zeros(bundle.M)
    e[j] = 1.0
    if bundle.Z is None:
        return TestDirection(e)
    P1, _ = polar_factors(bundle.Z)
    return TestDirection(e - P1 @ (P1.T @ e))


def reduce_to_covariate_free(
    bundle: DatasetBundle, direction: TestDirection
) -> tuple[ReducedModel, TestDirection]:
    """Change of basis to the complements of col(X) and col(Z).

    The returned model satisfies Y22 = Q2' Y P2 with n = N - p and
    m = M - q rows/columns; the reduced direction is s2 = P2' s, which
    preserves the residual quadratic form s' E' E s exactly.
    """
    s = direction.s
    if s.shape[0] != bundle.M:
        raise ValueError("direction length does not match number of responses")
    if bundle.Z is not None:
        if np.max(np.abs(bundle.Z.T @ s)) > DIRECTION_TOL * max(1.0, np.linalg.norm(s)):
            raise ValueError("test direction is not orthogonal to Z")
        P1, _ = polar_factors(bundle.Z)
        P2 = orthonormal_complement(P1)
    else:
        P2 = np.eye(bundle.M)
    if bundle.X is not None:
        Q1, _ = polar_factors(bundle.X)
        Q2 = orthonormal_complement(Q1)
    else:
        Q2 = np.eye(bundle.N)
    Y22 = Q2.T @ (bundle.Y @ P2)
    return ReducedModel(Q2, P2, Y22), TestDirection(P2.T @ s)


@dataclass(frozen=True)
class FactorEstimate:
    """Truncated-SVD factors of a residual matrix, sqrt(n)-scaled."""

    U_hat: np.ndarray    # (n, r_hat) orthonormal columns
    mu_hat: np.ndarray   # (r_hat,) descending positive
    V_hat: np.ndarray    # (m, r_hat) orthonormal columns
    n: int

    @property
    def r_hat(self) -> int:
        return len(self.mu_hat)

    @property
    def singular_values(self) -> np.ndarray:
        return np.sqrt(self.n * self.mu_hat)

    def factor_term(self) -> np.ndarray:
        """sqrt(n) U_hat D_hat V_hat', the fitted rank-r_hat mean component."""
        return (self.U_hat * self.singular_values) @ self.V_hat.T


@dataclass(frozen=True)
class FactorModelTruth:
    """Known factors of a generating model Y = sqrt(n) U D V' + E."""

    U: np.ndarray    # (n, r)
    mu: np.ndarray   # (r,) strictly decreasing positive
    V: np.ndarray    # (m, r)

    @property
    def r(self) -> int:
        return len(self.mu)

    def signal_matrix(self) -> np.ndarray:
        n = self.U.shape[0]
        if self.r == 0:
            return np.zeros((n, self.V.shape[0]))
        return (self.U * np.sqrt(n * np.asarray(self.mu))) @ self.V.T


def extract_factors(M, r_hat: int) -> FactorEstimate:
    """Leading r_hat factors of M by SVD, with mu_hat_k = sigma_k^2 / n."""
    M = _as_matrix(M, "M")
    n = M.shape[0]
    if not 1 <= r_hat <= min(M.shape):
        raise ValueError(f"r_hat must be in [1, {min(M.shape)}], got {r_hat}")
    if not np.any(M):
        raise ValueError("zero matrix has no factors")
    svd = truncated_svd(M, r_hat)
    if svd.singular_values[-1] <= 1e-12 * svd.singular_values[0]:
        raise ValueError(f"matrix rank is below the requested {r_hat} factors")
    return FactorEstimate(svd.left_vectors, svd.singular_values**2 / n,
                          svd.right_vectors, n)


def adjusted_residuals(M, estimate: FactorEstimate) -> np.ndarray:
    """M minus its fitted factor term; orthogonal to U_hat and V_hat."""
    M = _as_matrix(M, "M")
    if M.shape != (estimate.U_hat.shape[0], estimate.V_hat.shape[0]):
        raise ValueError("factor estimate shape does not match the matrix")
    return M - estimate.factor_term()


def rss(adjusted, direction: TestDirection) -> float:
    """Residual sum of squares s' E' E s along the test direction."""
    adjusted = np.asarray(adjusted, dtype=np.float64)
    if adjusted.shape[1] != direction.s.shape[0]:
        raise ValueError("direction length does not match residual columns")
    v = adjusted @ direction.s
    return float(v @ v)


def rss_expansion_oracle(truth: FactorModelTruth, E, direction: TestDirection,
                     r_hat: int) -> float:
    """RSS along s via the algebraic expansion of the residual quadratic form.

    Evaluates s'E'Es + 2 sqrt(n) s'VDU'Es + n (sum mu_k (v_k's)^2 -
    sum mu_hat_k (vhat_k's)^2) on Y = sqrt(n) U D V' + E.  Exists purely as a
    cross-check against the direct residual computation.
    """
    E = _as_matrix(E, "E")
    s = direction.s
    n = E.shape[0]
    Y = truth.signal_matrix() + E
    Es = E @ s
    total = float(Es @ Es)
    if truth.r > 0:
        D = np.sqrt(np.asarray(truth.mu))
        total += 2.0 * np.sqrt(n) * float((truth.V.T @ s) * D @ (truth.U.T @ Es))
        total += n * float(np.asarray(truth.mu) @ (truth.V.T @ s) ** 2)
    if r_hat > 0:
        est = extract_factors(Y, r_hat)
        total -= n * float(est.mu_hat @ (est.V_hat.T @ s) ** 2)
    return total


@dataclass(frozen=True)
class VarianceEstimate:
    """Direction-wise error variance rss / (n - df)."""

    sigma_sq_hat: float
    rss: float
    df_used: float
    df_resid: float


def variance_estimate(rss: float, n: int, dof: DofEstimate) -> VarianceEstimate:
    """Unbiased variance along a direction given its degrees of freedom."""
    if rss < 0:
        raise ValueError("rss must be nonnegative")
    df_resid = n - dof.total
    if df_resid <= 0:
        raise ValueError(
            f"degrees of freedom exhausted: n = {n}, df(s) = {dof.total:.4f}")
    return VarianceEstimate(rss / df_resid, rss, dof.total, df_resid)


def t_statistic(coef: float, contrast_var: float,
                var_est: VarianceEstimate) -> tuple[float, float]:
    """t = coef / sqrt(sigma_sq_hat * contrast_var), df carried alongside."""
    if contrast_var <= 0:
        raise ValueError("contrast variance must be positive")
    se = np.sqrt(var_est.sigma_sq_hat * contrast_var)
    return float(coef / se), float(var_est.df_resid)


# Dense Monte-Carlo replicate: Y drawn in full at sigma = 1 (mu in units of
# sigma^2), from the loading vectors V and the test direction s in R^m that
# a config's shape names.

def loading_matrix(config: SimConfig) -> np.ndarray:
    """Fixed loading vectors V as an (m, r) matrix."""
    m = config.m
    if config.r == 0:
        return np.zeros((m, 0))
    v = np.zeros(m)
    if config.shape is SignalShape.ONES:
        v[:] = 1.0 / np.sqrt(m)
    elif config.shape is SignalShape.BASIS:
        v[0] = 1.0
    elif config.shape is SignalShape.PERP_BASIS:
        v[1] = 1.0
    return v[:, None]


def direction_vector(config: SimConfig) -> np.ndarray:
    """The test direction s = e_1, (m,)."""
    s = np.zeros(config.m)
    s[0] = 1.0
    return s


def reference_plan(config: SimConfig) -> tuple:
    """(signal, direction, loading) of ``simulation.sampling_plan`` by the
    m-row route: W1 from the SVD of [V s] in R^m, with the plan's rank cut."""
    V, s = loading_matrix(config), direction_vector(config)
    left, sv, _ = np.linalg.svd(np.column_stack([V, s]), full_matrices=False)
    W1 = left[:, :int(np.sum(sv > RANK_TOL * sv[0]))]
    V_rows = V.T @ W1
    mu = np.asarray(config.mu, dtype=np.float64)
    return (np.sqrt(config.n * mu)[:, None] * V_rows,
            W1.T @ s, V_rows[0] if config.r > 0 else np.zeros(0))


def _uniform_orthonormal(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    """Haar-uniform n x r column-orthonormal matrix with the sign convention."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return Q * canonical_signs(Q)


def _simulate_response(config: SimConfig, index: int) -> np.ndarray:
    rng = stream(config.seed, DOMAIN_SIM, index)
    n, m = config.n, config.m
    if config.r > 0:
        U = _uniform_orthonormal(rng, n, config.r)
        V = loading_matrix(config)
        scale = np.sqrt(n * np.asarray(config.mu))
        return (U * scale) @ V.T + rng.standard_normal((n, m))
    return rng.standard_normal((n, m))


def _rss_after_truncation(Y: np.ndarray, s: np.ndarray, r_hat: int) -> float:
    """s' E_hat' E_hat s for the rank-r_hat truncation: ||Ys||^2 - ||left' Ys||^2."""
    Ys = Y @ s
    base = float(Ys @ Ys)
    if r_hat == 0:
        return base
    left, _ = top_factors(Y, r_hat)
    coef = left.T @ Ys
    return base - float(coef @ coef)


def _reflector(x: np.ndarray) -> np.ndarray:
    """Householder matrix H (symmetric, orthogonal) with H x = (-+||x||, 0, ...)."""
    v = x.copy()
    v[0] += np.copysign(np.linalg.norm(x), x[0])
    vv = float(v @ v)
    H = np.eye(len(x))
    if vv > 0:
        H -= np.outer(v, 2.0 * v / vv)
    return H


def band_reduce(config: SimConfig, Y: np.ndarray):
    """``simulation.draw``'s (R, F) for a dense response Y drawn from
    ``config``, computed instead of drawn.

    W1 is the m x k basis of span(V, s) in which V and s have the plan's
    coordinates, V'W1 = ``loading`` and W1's = ``direction``: the least-norm
    solution of those equations.  R comes from the full QR Y1 = Y W1 =
    Q [R; 0].
    Q'(Y W2), W2 the complement of the basis W1, is reduced to the lower band
    factor B by Householder reflections on its columns and on its rows past
    the first k, so the rotation they make fixes e_1 ... e_k.  Then YY' is
    similar, under Q and that rotation, to F F' with F = [R B] (R padded
    with zero rows), restricted to its first min(n, m) rows.
    """
    plan = sampling_plan(config)
    A = np.column_stack([loading_matrix(config), direction_vector(config)])
    coords = [plan.loading] * config.r + [plan.direction]
    W1 = np.linalg.pinv(A.T) @ np.array(coords)
    n, m = Y.shape
    k = W1.shape[1]
    Q, R = np.linalg.qr(Y @ W1, mode="complete")
    W2 = np.linalg.qr(W1, mode="complete")[0][:, k:]
    B = Q.T @ (Y @ W2)
    d = m - k
    for j in range(min(n, d)):
        B[:, j:] = B[:, j:] @ _reflector(B[j, j:])      # row j past column j
        if j + k < n:                                    # column j past row j+k
            B[j + k:] = _reflector(B[j + k:, j]) @ B[j + k:]
    p = plan.dim
    full = np.hstack([R, B])[:p]
    F = np.zeros((k + 1, p + k))
    for j in range(min(p + k, m)):
        for t in range(k + 1):
            if 0 <= j - t < p:
                F[t, j] = full[j - t, j]
    return R[:min(n, k)], F


# The dense Wishart matrix sampler the simulations drew from before the band
# draw: Bartlett factors (reps, dim, dim), or plain normals below full rank.

@lru_cache(maxsize=16)
def _bartlett_indices(dim: int) -> tuple:
    """(rows, cols) below the diagonal of a dim x dim matrix and the diagonal
    positions; read-only, as every caller shares them."""
    out = (*np.tril_indices(dim, -1), np.arange(dim))
    for a in out:
        a.flags.writeable = False
    return out


def wishart_factor(rng: np.random.Generator, dim: int, dof: int,
                   reps: int) -> np.ndarray:
    """``reps`` factors A, shape (reps, dim, .), with A A' ~ Wishart_dim(dof, I).

    The simulations' matrix sampler: they need W's eigenvectors, not only its
    spectrum (for that, see ``wishart_top_eigenvalues``).

    When dof >= dim, A is the lower-triangular Bartlett (1933) factor:
    N(0, 1) below the diagonal and sqrt(chi2_{dof - i}) on it, O(dim^2)
    draws.  Otherwise A is a dense dim x dof standard normal matrix, which
    is then no larger.
    """
    if dof < dim:
        return rng.standard_normal((reps, dim, dof))
    rows, cols, diag = _bartlett_indices(dim)
    A = np.zeros((reps, dim, dim))
    A[:, rows, cols] = rng.standard_normal((reps, len(rows)))
    A[:, diag, diag] = np.sqrt(rng.chisquare(dof - diag, size=(reps, dim)))
    return A



# The dense solve of the tridiagonals that the spectrum sampler draws.

def dense_tridiagonal_top(d: np.ndarray, e: np.ndarray, r: int) -> np.ndarray:
    """Top r eigenvalues, descending, shape (reps, r), of the symmetric
    tridiagonals with diagonals d (reps, n) and off-diagonals e (reps, n - 1),
    by ``np.linalg.eigvalsh`` of the dense matrices."""
    reps, n = d.shape
    T = np.zeros((reps, n, n))
    i = np.arange(n)
    T[:, i, i] = d
    T[:, i[1:], i[:-1]] = e
    T[:, i[:-1], i[1:]] = e
    return np.linalg.eigvalsh(T)[:, ::-1][:, :r]


# Mandel's df as drawn before the spectrum sampler: dense Bartlett Wishart
# matrices and a full eigvalsh per draw.

def df_mandel_bartlett(n: int, m: int, r_hat: int, mc_reps: int = 1000,
                       seed: int | None = None) -> DofEstimate:
    """Mandel's allocation: E[lambda_k] / m, estimated by Monte Carlo.

    lambda_k is the kth largest eigenvalue of an m-dimensional white Wishart
    matrix with n degrees of freedom (the law of G'G for G an n x m standard
    normal matrix).  Sampling uses the Bartlett factorization of the
    equivalent min(n, m)-dimensional Wishart, which has the same nonzero
    spectrum; results are deterministic for a fixed seed.  ``mc_se`` is the
    Monte-Carlo standard error of the total.
    """
    if r_hat > min(n, m):
        raise ValueError("r_hat must not exceed min(n, m)")
    if mc_reps < 100:
        raise ValueError("mc_reps must be >= 100")
    if seed is None:
        raise ValueError("df_mandel requires an explicit seed")
    dim, dof = min(n, m), max(n, m)
    A = wishart_factor(stream(seed, DOMAIN_MANDEL), dim, dof, mc_reps)
    eigs = np.linalg.eigvalsh(A @ np.transpose(A, (0, 2, 1)))
    top = eigs[:, ::-1][:, :r_hat] / m
    per = top.mean(axis=0)
    # SE of the per-draw totals: the top eigenvalues are correlated
    se = float(np.sqrt(top.sum(axis=1).var(ddof=1) / mc_reps))
    return _estimate(per, mc_se=se)


# Distribution helpers src/ has no use for.

def chi2_quantile(df: float, p: float) -> float:
    """Inverse chi-squared CDF; fractional df supported."""
    if df <= 0:
        raise ValueError("df must be positive")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    return float(2.0 * special.gammaincinv(df / 2.0, p))


def t_cdf(x, df: float):
    """Student-t CDF with (possibly fractional) df."""
    if df <= 0:
        raise ValueError("df must be positive")
    return special.stdtr(df, x)
