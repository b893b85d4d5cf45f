"""Direction-wise variance estimation and t tests with df adjustment.

The per-response pipeline works in full coordinates: the factor truncation of
the doubly projected residual matrix equals the reduced-model truncation
rotated back, so no explicit complement bases are materialized.  A single
``DirectionStats`` holds everything the tests need for all responses at once;
the df schemes then differ only in ``df_totals``: the ``dof.df_shared``
value for every response, or each one's proposed df where that is None.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from . import dof as dof_mod
from .distributions import t_sf
from .dof import DofMethod
from .linalg import CodedError, top_factors
from .model import CoefficientEstimates, DatasetBundle, fit_two_sided


@dataclass(frozen=True)
class TestResult:
    """Every response's test, one column per field (index j is response j)."""

    response_ids: tuple
    estimate: np.ndarray
    std_error: np.ndarray
    t_stat: np.ndarray
    df_resid: np.ndarray
    p_value: np.ndarray
    df_method: DofMethod | None


@dataclass(frozen=True)
class DirectionStats:
    """Vectorized per-response quantities shared by every df scheme.

    For each response j with direction s_j = (I - H_Z) e_j this stores the
    identifiable coefficient components B_hat' s_j, the squared norms s_j's_j,
    the squared factor-loading projections (w_k)_j^2 / s_j's_j, and the
    adjusted residual sums of squares, next to the fit they come from.
    """

    estimates: np.ndarray      # (p, M) columns are B_hat' s_j
    s_normsq: np.ndarray       # (M,)
    proj_sq: np.ndarray        # (M, r_hat)
    rss: np.ndarray            # (M,)
    n: int                     # N - p
    m: int                     # M - q
    xtx_inv: np.ndarray        # (p, p)
    factor_left: np.ndarray    # (N, r_hat) left vectors of the residual SVD
    factor_sing: np.ndarray    # (r_hat,) singular values
    factor_loadings: np.ndarray  # (M, r_hat) full-coordinate loadings
    residuals: np.ndarray      # (N, M) doubly projected residuals
    coefficients: CoefficientEstimates  # the two-sided fit behind all of it


def compute_direction_stats(bundle: DatasetBundle, r_hat: int, *,
                            out: tuple[np.ndarray, np.ndarray] | None = None
                            ) -> DirectionStats:
    """Fit once and assemble the statistics for all M response directions.

    ``out`` is an optional pair of C-contiguous float (N, M) arrays
    ``(E, work)``, as for ``fit_two_sided``: the residuals are then formed
    in E (``residuals`` is E) and the factor-adjusted residuals in ``work``,
    with the same bytes as without them.
    """
    if bundle.X is None:
        raise CodedError("X_REQUIRED", "estimating coefficients requires X, "
                                       "the row covariates (--x)")
    n = bundle.N - bundle.p
    m = bundle.M - bundle.q
    if not 0 <= r_hat < min(n, m):
        raise CodedError("R_HAT_RANGE",
                         f"r_hat must be in [0, {min(n, m)}), got {r_hat}")

    coef, E = fit_two_sided(bundle, out=out)
    work = None if out is None else out[1]
    Bt = coef.B_hat.T                       # (p, M)
    P1 = bundle.P1
    if P1 is not None:
        estimates = Bt - (Bt @ P1) @ P1.T
        s_normsq = 1.0 - np.einsum("ij,ij->i", P1, P1)
    else:
        estimates = Bt
        s_normsq = np.ones(bundle.M)

    if r_hat > 0:
        left, sing = top_factors(E, r_hat)
        loadings = (E.T @ left) / sing
        adjusted = np.subtract(
            E, np.matmul(left * sing, loadings.T, out=work), out=work)
        factors = dict(proj_sq=loadings**2 / s_normsq[:, None],
                       rss=np.einsum("ij,ij->j", adjusted, adjusted),
                       factor_left=left, factor_sing=sing,
                       factor_loadings=loadings)
    else:
        factors = _no_factors(E)
    # X = Q1 R with R symmetric, so (X'X)^-1 = R^-2
    R_inv = np.linalg.inv(bundle.R)
    return DirectionStats(estimates, s_normsq, n=n, m=m,
                          xtx_inv=R_inv @ R_inv, residuals=E,
                          coefficients=coef, **factors)


def _no_factors(E: np.ndarray) -> dict:
    """The factor fields of r_hat = 0 statistics with residuals E: no factor
    is removed, so the residual sums of squares are those of E's columns."""
    N, M = E.shape
    return dict(proj_sq=np.zeros((M, 0)), rss=np.einsum("ij,ij->j", E, E),
                factor_left=np.zeros((N, 0)), factor_sing=np.zeros(0),
                factor_loadings=np.zeros((M, 0)))


def without_factors(stats: DirectionStats) -> DirectionStats:
    """The r_hat = 0 statistics of the same fit."""
    return replace(stats, **_no_factors(stats.residuals))


def df_totals(stats: DirectionStats, shared: dof_mod.DofEstimate | None
              ) -> np.ndarray:
    """Total df per response (length-M array): ``shared.total`` for every
    response, or each response's proposed df where ``shared`` is None, as
    ``dof.df_shared`` returns it."""
    if shared is not None:
        return np.full(stats.rss.shape[0], shared.total)
    r_hat = stats.proj_sq.shape[1]
    floor = dof_mod.noise_floor(stats.n, stats.m)
    return stats.n * stats.proj_sq.sum(axis=1) + r_hat * floor


def _t_statistics(stats: DirectionStats, coef_index: int, df_tot: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(estimate, se, t, df_resid) arrays for all responses at once."""
    p_cov = stats.estimates.shape[0]
    if not 0 <= coef_index < p_cov:
        raise CodedError("COEF_INDEX_RANGE",
                         f"coef_index {coef_index} out of range [0, {p_cov})")
    df_resid = stats.n - df_tot
    if np.any(df_resid <= 0):
        worst = float(df_tot.max())
        raise CodedError(
            "DF_EXHAUSTED",
            f"degrees of freedom exhausted: n = {stats.n}, max df(s) = {worst:.4f}")
    est = stats.estimates[coef_index]
    sigma_sq = stats.rss / df_resid
    cvar = stats.xtx_inv[coef_index, coef_index]
    se = np.sqrt(sigma_sq * cvar)
    return est, se, est / se, df_resid


def response_tests(stats: DirectionStats, coef_index: int, df_tot: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(estimate, se, t, df_resid, p) arrays for all responses at once."""
    est, se, t, df_resid = _t_statistics(stats, coef_index, df_tot)
    return est, se, t, df_resid, 2.0 * t_sf(np.abs(t), df_resid)


def significant(stats: DirectionStats, coef_index: int, df_tot: np.ndarray,
                alpha: float) -> np.ndarray:
    """``response_tests(stats, coef_index, df_tot)[4] < alpha``, bit for bit,
    with p-values computed only where |t| can reach the cut.

    The two-sided t tail grows as the df fall, so no response with |t| below
    the level-alpha critical value at the largest df_resid can have p < alpha.
    The cut sits a relative 1e-6 below that value, a margin far wider than
    the rounding of either tail; if the tail at the cut is ever below alpha
    all the same, every p-value is computed.
    """
    _, _, t, df_resid = _t_statistics(stats, coef_index, df_tot)
    abs_t = np.abs(t)
    df_max = float(df_resid.max())
    cut = -special.stdtrit(df_max, alpha / 2.0) * (1.0 - 1e-6)
    if not 2.0 * t_sf(cut, df_max) >= alpha:
        cut = 0.0
    near = np.flatnonzero(abs_t >= cut)
    out = np.zeros(len(t), dtype=bool)
    out[near] = 2.0 * t_sf(abs_t[near], df_resid[near]) < alpha
    return out


def test_all_responses(bundle: DatasetBundle, coef_index: int, r_hat: int,
                       method: DofMethod | None = DofMethod.PROPOSED, *,
                       mandel_reps: int = 1000,
                       seed: int | None = None) -> TestResult:
    """Full testing pipeline for every response, as the columns of one
    TestResult.

    With r_hat = 0 this reduces exactly to the classical multivariate
    regression t test on each projected response.
    """
    stats = compute_direction_stats(bundle, r_hat)
    df_tot = df_totals(stats, dof_mod.df_shared(method, stats.n, stats.m, r_hat,
                                                mandel_reps, seed))
    ids = bundle.col_ids if bundle.col_ids else tuple(str(j) for j in range(bundle.M))
    return TestResult(ids, *response_tests(stats, coef_index, df_tot), method)
