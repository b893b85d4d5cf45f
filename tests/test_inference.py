from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from factordf import inference
from factordf.datasets import AGE_COEF_INDEX, synthetic_study
from factordf.dof import DofMethod, df_naive, df_noise
from factordf.fdr import build_generative_truth, simulate_dataset
from factordf.inference import (compute_direction_stats, df_totals,
                                response_tests, significant, without_factors)
from factordf.inference import test_all_responses as run_all_tests
from factordf.model import DatasetBundle
from oracles import (adjusted_residuals, extract_factors,
                     reduce_to_covariate_free, rss, t_statistic,
                     variance_estimate)
from oracles import test_direction as direction_for


def test_variance_estimate_arithmetic():
    est = variance_estimate(34.0, 36, df_naive(2))
    assert est.sigma_sq_hat == pytest.approx(1.0)
    assert est.df_resid == pytest.approx(34.0)


def test_variance_estimate_exhausted_guard():
    with pytest.raises(ValueError, match="exhausted"):
        variance_estimate(10.0, 4, df_naive(4))
    with pytest.raises(ValueError, match="exhausted"):
        variance_estimate(10.0, 3, df_naive(5))


def test_variance_estimate_null_mean():
    # r = r_hat = 0, sigma^2 = 1: mean sigma_sq_hat is 1 over replicates
    rng = np.random.default_rng(55)
    n, reps = 20, 3000
    vals = np.empty(reps)
    zero_df = df_naive(0)
    for i in range(reps):
        e = rng.standard_normal(n)
        vals[i] = variance_estimate(float(e @ e), n, zero_df).sigma_sq_hat
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_t_statistic_zero_coefficient():
    est = variance_estimate(34.0, 36, df_naive(2))
    t, df = t_statistic(0.0, 0.1, est)
    assert t == 0.0
    assert df == pytest.approx(34.0)


def test_t_statistic_guards():
    est = variance_estimate(34.0, 36, df_naive(2))
    with pytest.raises(ValueError):
        t_statistic(1.0, 0.0, est)


def classical_column_test(X, y, coef_index):
    # per-column OLS oracle built from scratch
    XtX = X.T @ X
    beta = np.linalg.solve(XtX, X.T @ y)
    resid = y - X @ beta
    df = len(y) - X.shape[1]
    sigma_sq = resid @ resid / df
    se = np.sqrt(sigma_sq * np.linalg.inv(XtX)[coef_index, coef_index])
    return beta[coef_index], se, beta[coef_index] / se, df


def test_r_hat_zero_matches_classical_regression():
    rng = np.random.default_rng(77)
    N, M, p = 12, 9, 3
    X = np.column_stack([np.ones(N), rng.standard_normal((N, p - 1))])
    Y = rng.standard_normal((N, M))
    bundle = DatasetBundle(Y, X=X)
    results = run_all_tests(bundle, coef_index=2, r_hat=0, method=None)
    assert results.response_ids == tuple(str(j) for j in range(M))
    assert results.df_method is None
    for j in range(M):
        est, se, t, df = classical_column_test(X, Y[:, j], 2)
        assert results.estimate[j] == pytest.approx(est, abs=1e-9)
        assert results.std_error[j] == pytest.approx(se, abs=1e-9)
        assert results.t_stat[j] == pytest.approx(t, abs=1e-9)
        assert results.df_resid[j] == pytest.approx(df)


def test_no_factor_df_is_n_minus_p():
    # N = 39, p = 3 gives 36 residual df with no factors
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(39), rng.standard_normal((39, 2))])
    bundle = DatasetBundle(rng.standard_normal((39, 8)), X=X)
    res = run_all_tests(bundle, coef_index=1, r_hat=0, method=None)
    assert res.df_resid[0] == pytest.approx(36.0)


@pytest.fixture(scope="module")
def contaminated():
    bundle, truth = synthetic_study(m_responses=600, seed=101)
    return bundle, truth


def test_planted_signals_gain_power(contaminated):
    bundle, truth = contaminated
    adj = run_all_tests(bundle, AGE_COEF_INDEX, r_hat=2,
                             method=DofMethod.PROPOSED)
    raw = run_all_tests(bundle, AGE_COEF_INDEX, r_hat=0, method=None)
    planted = np.nonzero(truth.signal_mask)[0]
    bigger = np.sum(np.abs(adj.t_stat[planted]) > np.abs(raw.t_stat[planted]))
    assert bigger / len(planted) >= 0.70


def test_naive_df_resid_dominates_proposed(contaminated):
    bundle, _ = contaminated
    naive = run_all_tests(bundle, AGE_COEF_INDEX, r_hat=2,
                               method=DofMethod.NAIVE)
    prop = run_all_tests(bundle, AGE_COEF_INDEX, r_hat=2,
                              method=DofMethod.PROPOSED)
    assert len(naive.df_resid) == len(prop.df_resid) == bundle.M
    assert np.all(naive.df_resid >= prop.df_resid - 1e-12)


def test_response_scale_equivariance(contaminated):
    bundle, _ = contaminated
    scaled = DatasetBundle(3.0 * bundle.Y, bundle.X, bundle.Z,
                           row_ids=bundle.row_ids, col_ids=bundle.col_ids)
    a = run_all_tests(bundle, AGE_COEF_INDEX, 2, DofMethod.PROPOSED)
    b = run_all_tests(scaled, AGE_COEF_INDEX, 2, DofMethod.PROPOSED)
    assert b.estimate[5] == pytest.approx(3.0 * a.estimate[5], rel=1e-10)
    assert b.std_error[5] == pytest.approx(3.0 * a.std_error[5], rel=1e-10)
    assert b.t_stat[5] == pytest.approx(a.t_stat[5], rel=1e-10)
    assert b.df_resid[5] == pytest.approx(a.df_resid[5], rel=1e-10)
    assert b.p_value[5] == pytest.approx(a.p_value[5], rel=1e-8, abs=1e-12)


def test_direction_scale_invariance_in_formulas():
    # all formulas use ratios in s: scaling rss by c^2 and the coefficient by c
    # leaves t and p unchanged
    dof = df_noise(30, 300, 2)
    base = variance_estimate(25.0, 30, dof)
    scaled = variance_estimate(4.0 * 25.0, 30, dof)
    t1, df1 = t_statistic(1.3, 0.05, base)
    t2, df2 = t_statistic(2.6, 0.05, scaled)
    assert t1 == pytest.approx(t2, rel=1e-12)
    assert df1 == df2


def test_mandel_requires_seed(contaminated):
    bundle, _ = contaminated
    with pytest.raises(ValueError):
        run_all_tests(bundle, AGE_COEF_INDEX, r_hat=2,
                           method=DofMethod.MANDEL, seed=None)


def test_df_totals_per_method(contaminated):
    bundle, _ = contaminated
    stats = compute_direction_stats(bundle, 2)
    n, m = stats.n, stats.m
    prop = df_totals(stats, DofMethod.PROPOSED)
    assert np.all(prop >= 2 * (1 + np.sqrt(n / m)) ** 2 - 1e-12)
    naive = df_totals(stats, DofMethod.NAIVE)
    np.testing.assert_allclose(naive, 2.0)
    gollob = df_totals(stats, DofMethod.GOLLOB)
    assert np.all(gollob == gollob[0])


def test_response_tests_exhaustion_guard():
    rng = np.random.default_rng(12)
    N, M = 8, 40
    X = np.column_stack([np.ones(N), rng.standard_normal(N)])
    # single dominant factor aligned with one response direction
    u = rng.standard_normal(N)
    Y = 0.01 * rng.standard_normal((N, M))
    Y[:, 0] += 50 * u
    bundle = DatasetBundle(Y, X=X)
    stats = compute_direction_stats(bundle, 1)
    df_tot = df_totals(stats, DofMethod.PROPOSED)
    if np.any(stats.n - df_tot <= 0):
        with pytest.raises(ValueError, match="exhausted"):
            response_tests(stats, 1, df_tot)


def test_requires_row_covariates():
    bundle = DatasetBundle(np.random.default_rng(0).standard_normal((6, 7)))
    with pytest.raises(ValueError, match="requires X"):
        compute_direction_stats(bundle, 0)


def oracle_direction_stats(bundle, r_hat):
    """Per-response rss, proj_sq and estimates through the reduced model."""
    X = bundle.X
    rss_, proj, est = [], [], []
    for j in range(bundle.M):
        s = direction_for(bundle, j)
        reduced, s2 = reduce_to_covariate_free(bundle, s)
        factors = extract_factors(reduced.Y22, r_hat)
        rss_.append(rss(adjusted_residuals(reduced.Y22, factors), s2))
        proj.append((factors.V_hat.T @ s2.s) ** 2 / s2.norm_sq)
        est.append(np.linalg.solve(X.T @ X, X.T @ (bundle.Y @ s.s)))
    return np.array(rss_), np.array(proj), np.array(est).T


@pytest.mark.parametrize("N, M", [(8, 13), (15, 9)])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_direction_stats_match_reduced_model_oracle(N, M, q):
    # the production path (stored covariate factors, one Gram-matrix factor
    # kernel, full coordinates) against the explicit reduced-model pipeline
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(N), rng.standard_normal((N, 1))])
        Z = (np.column_stack([np.ones(M), rng.standard_normal((M, q - 1))])
             if q else None)
        bundle = DatasetBundle(rng.standard_normal((N, M)), X, Z)
        for r_hat in (1, 2):
            stats = compute_direction_stats(bundle, r_hat)
            rss_, proj, est = oracle_direction_stats(bundle, r_hat)
            np.testing.assert_allclose(stats.rss, rss_, rtol=1e-8)
            np.testing.assert_allclose(stats.proj_sq, proj, rtol=1e-8)
            np.testing.assert_allclose(stats.estimates, est, rtol=1e-8)


ALPHAS = (0.05, 1e-3, 1e-6)
ALL_METHODS = (DofMethod.PROPOSED, DofMethod.GOLLOB, DofMethod.MANDEL,
               DofMethod.NAIVE)


@pytest.fixture(scope="module")
def bootstrap_stats():
    """Fits of 24 bootstrap datasets of one truth, with every scheme's df and
    the r_hat = 0 baseline: (stats, df_tot) pairs."""
    bundle, _ = synthetic_study(m_responses=300, seed=21)
    truth = build_generative_truth(bundle, 2, 1e-3, AGE_COEF_INDEX)
    cases = []
    for d in range(24):
        stats = compute_direction_stats(simulate_dataset(truth, 77, d), 2)
        for meth in ALL_METHODS:
            cases.append((stats, df_totals(stats, meth, 200, seed=5)))
        cases.append((without_factors(stats), np.zeros(bundle.M)))
    return cases


@pytest.mark.parametrize("alpha", ALPHAS)
def test_significant_equals_p_below_alpha(bootstrap_stats, alpha):
    declared = 0
    for stats, df_tot in bootstrap_stats:
        for coef_index in range(stats.estimates.shape[0]):
            want = response_tests(stats, coef_index, df_tot)[4] < alpha
            got = significant(stats, coef_index, df_tot, alpha)
            np.testing.assert_array_equal(got, want)
            declared += int(want.sum())
    assert declared > 0


def unit_se_stats(stats, df_tot, t_values):
    """``stats`` with se = 1 exactly for every response, so t equals the
    estimate bit for bit: rss = df_resid and (X'X)^-1 = I."""
    p = stats.estimates.shape[0]
    return replace(stats, estimates=np.tile(t_values, (p, 1)),
                   rss=stats.n - df_tot, xtx_inv=np.eye(p))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_significant_at_the_critical_value(bootstrap_stats, alpha):
    # |t| exactly at each response's critical value -stdtrit(df, alpha / 2),
    # at the cut below the largest df's, and one ulp either side of both
    for stats, df_tot in bootstrap_stats[:5]:
        df_resid = stats.n - df_tot
        crit = -special.stdtrit(df_resid, alpha / 2.0)
        cut = -special.stdtrit(df_resid.max(), alpha / 2.0) * (1.0 - 1e-6)
        cut = np.full_like(crit, cut)
        rows = []
        for centre in (crit, cut):
            for x in (np.nextafter(centre, 0), centre, np.nextafter(centre, np.inf)):
                rows += [x, -x]
        for t_values in rows:
            probe = unit_se_stats(stats, df_tot, t_values)
            est, se, t, _, p = response_tests(probe, 0, df_tot)
            np.testing.assert_array_equal(se, 1.0)
            np.testing.assert_array_equal(t, t_values)
            np.testing.assert_array_equal(significant(probe, 0, df_tot, alpha),
                                          p < alpha)


def test_significant_skips_far_tails(bootstrap_stats, monkeypatch):
    # p-values are computed only near the cut: far fewer than M of them
    seen = []
    real = inference.t_sf

    def counting(x, df):
        seen.append(np.size(x))
        return real(x, df)

    monkeypatch.setattr(inference, "t_sf", counting)
    stats, df_tot = bootstrap_stats[0]
    significant(stats, AGE_COEF_INDEX, df_tot, 1e-3)
    assert sum(seen) < stats.rss.size // 4


def test_significant_guard_falls_back_to_every_p_value(bootstrap_stats,
                                                        monkeypatch):
    # a quantile far beyond the true one fails the tail check, so every
    # p-value is computed and the decisions stay exact
    real = special.stdtrit
    monkeypatch.setattr(inference.special, "stdtrit",
                        lambda df, p: 10.0 * real(df, p))
    for stats, df_tot in bootstrap_stats[:5]:
        want = response_tests(stats, AGE_COEF_INDEX, df_tot)[4] < 0.05
        assert want.any()
        np.testing.assert_array_equal(
            significant(stats, AGE_COEF_INDEX, df_tot, 0.05), want)


def test_significant_shares_the_exhaustion_guard():
    bundle, _ = synthetic_study(m_responses=60, seed=3)
    stats = compute_direction_stats(bundle, 2)
    df_tot = np.full(bundle.M, float(stats.n))
    with pytest.raises(ValueError, match="exhausted"):
        significant(stats, 0, df_tot, 0.05)
    with pytest.raises(ValueError, match="out of range"):
        significant(stats, 9, df_tot - 1.0, 0.05)
