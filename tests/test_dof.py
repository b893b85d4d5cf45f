import numpy as np
import pytest

from factordf import dof
from factordf.distributions import (DOMAIN_MANDEL, stream,
                                    wishart_top_eigenvalues)
from factordf.dof import (asymptotic_predictions, df_conservative, df_gollob,
                          df_mandel, df_naive, df_noise, df_signal_k,
                          df_signal_total, is_above_transition, noise_floor)
from oracles import df_mandel_bartlett

STUDY_N, STUDY_M = 36, 17862


def test_noise_symmetric_case():
    est = df_noise(10, 10, 1)
    assert est.total == pytest.approx(4.0)


def test_noise_wide_limit():
    # per factor (1 + sqrt(n/m))^2 -> 1 as m grows
    total = df_noise(10, 10**8, 1).total
    assert total == pytest.approx((1 + np.sqrt(10 / 10**8)) ** 2, rel=1e-12)
    assert abs(total - 1.0) < 1e-3


def test_noise_reference_value():
    assert df_noise(50, 1000, 1).total == pytest.approx(1.4972, abs=5e-5)


def test_noise_total_is_sum():
    est = df_noise(7, 30, 3)
    assert est.total == pytest.approx(est.per_factor.sum(), abs=1e-12)
    assert len(est.per_factor) == 3


def test_signal_k_perpendicular_above_transition():
    # mu = 3, sigma^2 = 1, proj 0, n = 100, m = 50: (1 + 1/3)^2
    val = df_signal_k(100, 50, 3.0, 1.0, 0.0)
    assert val == pytest.approx(16 / 9, rel=1e-12)


def test_signal_k_parallel_above_transition():
    n, m, mu = 100, 50, 3.0
    val = df_signal_k(n, m, mu, 1.0, 1.0)
    assert val == pytest.approx(n * (1 - m / (n * mu) - m / (n * mu**2)),
                                rel=1e-12)


def test_signal_k_below_transition_reduces_to_noise():
    n, m = 100, 500
    mu = 0.5   # below sigma^2 sqrt(m/n) = sqrt(5)
    assert not is_above_transition(mu, n, m)
    assert df_signal_k(n, m, mu, 1.0, 0.0) == pytest.approx(noise_floor(n, m))


def test_signal_k_boundary_goes_to_conjecture_branch():
    n = m = 100
    assert not is_above_transition(1.0, n, m)    # exactly at the transition
    assert df_signal_k(n, m, 1.0, 1.0, 0.0) == pytest.approx(4.0)


def test_signal_k_sigma_rescaling():
    # replacing mu by mu / sigma^2 is how sigma enters
    a = df_signal_k(80, 40, 6.0, 2.0, 0.3)
    b = df_signal_k(80, 40, 3.0, 1.0, 0.3)
    assert a == pytest.approx(b, rel=1e-12)


def test_signal_k_rejects_bad_projection():
    with pytest.raises(ValueError):
        df_signal_k(10, 10, 1.0, 1.0, 1.5)


def test_signal_total_matched_rank():
    n, m = 100, 50
    mu = (5.0, 2.0)
    proj = (0.2, 0.1)
    est = df_signal_total(n, m, mu, 1.0, proj, r_hat=2)
    expected = sum(df_signal_k(n, m, mu[k], 1.0, proj[k]) for k in range(2))
    assert est.total == pytest.approx(expected, rel=1e-12)
    assert not est.conjectural


def test_signal_total_overfit_adds_noise_floor():
    n, m = 100, 50
    est = df_signal_total(n, m, (3.0,), 1.0, (0.0,), r_hat=2)
    assert est.total == pytest.approx(df_signal_k(n, m, 3.0, 1.0, 0.0)
                                      + noise_floor(n, m), rel=1e-12)
    assert len(est.per_factor) == 2


def test_signal_total_underfit_subtracts_missed_energy():
    # r = 2, r_hat = 1, proj = (0, 0.5), mu_2 = 2, n = 100: df_1 - 100
    n, m = 100, 50
    est = df_signal_total(n, m, (5.0, 2.0), 1.0, (0.0, 0.5), r_hat=1)
    df1 = df_signal_k(n, m, 5.0, 1.0, 0.0)
    assert est.total == pytest.approx(df1 - 100.0, rel=1e-12)
    assert len(est.per_factor) == 1


def test_signal_total_validation():
    with pytest.raises(ValueError):
        df_signal_total(10, 10, (1.0, 2.0), 1.0, (0.0, 0.0), 2)  # not decreasing
    with pytest.raises(ValueError):
        df_signal_total(10, 10, (2.0,), 1.0, (0.6, 0.6), 1)      # lengths differ


def test_conservative_orthogonal_lower_envelope():
    # with loadings orthogonal to s this matches the large-data Mandel value
    est = df_conservative(STUDY_N, STUDY_M, [0.0, 0.0])
    assert est.total == pytest.approx(2 * noise_floor(STUDY_N, STUDY_M))
    assert est.total == pytest.approx(2.184, abs=1e-3)


def test_conservative_direct_evaluation():
    est = df_conservative(STUDY_N, STUDY_M, [0.01])
    assert est.total == pytest.approx(0.36 + noise_floor(STUDY_N, STUDY_M),
                                      rel=1e-12)
    assert est.total == pytest.approx(1.4518, abs=2e-4)


def test_conservative_per_factor_floor_and_monotonicity():
    base = df_conservative(36, 1000, [0.0, 0.1]).total
    bumped = df_conservative(36, 1000, [0.05, 0.1]).total
    assert bumped > base
    est = df_conservative(36, 1000, [0.3, 0.0])
    assert np.all(est.per_factor >= noise_floor(36, 1000) - 1e-12)


def test_conservative_rejects_bad_projections():
    with pytest.raises(ValueError):
        df_conservative(10, 10, [0.7, 0.7])
    with pytest.raises(ValueError):
        df_conservative(10, 10, [1.2])


def test_conservative_dominates_signal_df():
    # mean over replicates exceeds the theoretical total minus 3 MC SEs
    n, m, mu, reps = 100, 50, 3.0, 400
    rng = stream(2024, 8, 0)
    totals = np.empty(reps)
    for i in range(reps):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        Y = np.sqrt(n * mu) * np.outer(u, np.eye(m)[0]) \
            + rng.standard_normal((n, m))
        w, Q = np.linalg.eigh(Y @ Y.T)
        vhat = Y.T @ Q[:, -1] / np.sqrt(w[-1])
        totals[i] = df_conservative(n, m, [vhat[0] ** 2]).total
    theory = df_signal_k(n, m, mu, 1.0, 1.0)
    se = totals.std(ddof=1) / np.sqrt(reps)
    assert totals.mean() >= theory - 3 * se


def test_gollob_agemap_value():
    est = df_gollob(STUDY_N, STUDY_M, 2)
    assert est.total == pytest.approx(2.004, abs=1e-3)


def test_gollob_small_case():
    assert df_gollob(10, 10, 1).total == pytest.approx(1.9)


def test_gollob_wide_limit():
    assert df_gollob(10, 10**9, 1).per_factor[0] == pytest.approx(1.0, abs=1e-6)


def test_gollob_rank_guard():
    with pytest.raises(ValueError):
        df_gollob(5, 10, 5)


def test_mandel_scalar_wishart():
    est = df_mandel(1, 1, 1, mc_reps=2000, seed=7)
    assert est.mc_se is not None
    assert abs(est.total - 1.0) <= 4 * est.mc_se


def direct_wishart_totals(n, m, r_hat, reps, seed):
    """Independent oracle: top-r_hat eigenvalue sums of G'G / m, dense G."""
    rng = np.random.default_rng(seed)
    vals = np.empty(reps)
    for i in range(reps):
        G = rng.standard_normal((n, m))
        vals[i] = np.linalg.eigvalsh(G @ G.T)[-r_hat:].sum() / m
    return vals.mean(), vals.std(ddof=1) / np.sqrt(reps)


def test_mandel_matches_direct_wishart_oracle():
    n, m, reps = 20, 100, 2000
    est = df_mandel(n, m, 1, mc_reps=reps, seed=11)
    mean, oracle_se = direct_wishart_totals(n, m, 1, reps, seed=12345)
    combined = np.hypot(oracle_se, est.mc_se)
    assert abs(est.total - mean) <= 4 * combined


def test_mandel_two_factor_total_and_se_match_direct_oracle():
    # with r_hat = 2 the top eigenvalues are correlated, so mc_se must be the
    # SE of the per-draw totals, not the root sum of per-factor variances
    n, m, reps = 20, 100, 2000
    est = df_mandel(n, m, 2, mc_reps=reps, seed=11)
    mean, oracle_se = direct_wishart_totals(n, m, 2, reps, seed=12345)
    combined = np.hypot(oracle_se, est.mc_se)
    assert abs(est.total - mean) <= 4 * combined
    assert abs(est.mc_se / oracle_se - 1) <= 0.1


# (n, m, r_hat): dim = min(n, m) = 1, dim = dof, r_hat = dim, r_hat = 0,
# n < m against n > m, and the study size.
MANDEL_LAW_CELLS = [(1, 30, 1), (12, 12, 2), (5, 9, 5), (10, 40, 0),
                    (10, 40, 2), (40, 10, 2), (36, 17862, 2)]


@pytest.mark.parametrize("n, m, r_hat", MANDEL_LAW_CELLS)
def test_mandel_matches_bartlett_oracle(n, m, r_hat):
    # the spectrum sampler against the dense Bartlett draw it replaced, on
    # independent seeds: totals within 4 combined SE
    est = df_mandel(n, m, r_hat, mc_reps=3000, seed=31)
    ref = df_mandel_bartlett(n, m, r_hat, mc_reps=3000, seed=32)
    assert est.per_factor.shape == ref.per_factor.shape == (r_hat,)
    if r_hat == 0:
        assert est.total == ref.total == 0.0 and est.mc_se == ref.mc_se == 0.0
        return
    assert abs(est.total - ref.total) <= 4 * np.hypot(est.mc_se, ref.mc_se)
    assert abs(est.mc_se / ref.mc_se - 1) <= 0.1
    assert np.all(np.diff(est.per_factor) <= 0)


def test_mandel_near_asymptote_at_large_sizes():
    est = df_mandel(STUDY_N, STUDY_M, 2, mc_reps=1000, seed=3)
    asym = 2 * noise_floor(STUDY_N, STUDY_M)
    assert abs(est.total - asym) / asym < 0.05


def test_mandel_deterministic_and_guarded():
    a = df_mandel(6, 9, 2, mc_reps=300, seed=5)
    b = df_mandel(6, 9, 2, mc_reps=300, seed=5)
    np.testing.assert_array_equal(a.per_factor, b.per_factor)
    with pytest.raises(ValueError):
        df_mandel(4, 6, 5, mc_reps=300, seed=5)
    with pytest.raises(ValueError):
        df_mandel(4, 6, 2, mc_reps=50, seed=5)
    with pytest.raises(ValueError):
        df_mandel(4, 6, 2, mc_reps=300, seed=None)


def test_mandel_draws_in_chunks_of_their_own_streams(monkeypatch):
    # chunk c comes from stream c; the mean and SE span every chunk's draws
    monkeypatch.setattr(dof, "_MANDEL_CHUNK", 100)
    n, m, r_hat, seed, reps = 6, 9, 2, 5, 250
    est = df_mandel(n, m, r_hat, mc_reps=reps, seed=seed)
    chunks = [wishart_top_eigenvalues(stream(seed, DOMAIN_MANDEL, c), n, m,
                                      size, r_hat)
              for c, size in enumerate((100, 100, 50))]
    top = np.concatenate(chunks) / m
    assert est.per_factor.tobytes() == top.mean(axis=0).tobytes()
    assert est.mc_se == float(np.sqrt(top.sum(axis=1).var(ddof=1) / reps))


def test_naive():
    assert df_naive(2).total == pytest.approx(2.0)
    assert df_naive(0).total == 0.0
    assert len(df_naive(3).per_factor) == 3


def test_large_m_methods_agree():
    # Gollob, Mandel, and the noise value all land in [2.0, 2.2] at study scale
    totals = [df_gollob(STUDY_N, STUDY_M, 2).total,
              df_mandel(STUDY_N, STUDY_M, 2, mc_reps=500, seed=1).total,
              df_noise(STUDY_N, STUDY_M, 2).total]
    assert all(2.0 <= t <= 2.2 for t in totals)


def test_asymptotic_predictions_boundary():
    pred = asymptotic_predictions(1.0, 100, 100)
    assert pred.mu_bar_k == pytest.approx(4.0)
    assert pred.rho_bar_kk_sq == 0.0
    assert not pred.above_transition


def test_asymptotic_predictions_mu3_square():
    pred = asymptotic_predictions(3.0, 100, 100)
    assert pred.mu_bar_k == pytest.approx(16 / 3, rel=1e-12)
    assert pred.rho_bar_kk_sq == pytest.approx(2 / 3, rel=1e-12)
    assert pred.above_transition


def test_asymptotic_predictions_sigma_scaling():
    a = asymptotic_predictions(6.0, 80, 40, sigma_sq=2.0)
    b = asymptotic_predictions(3.0, 80, 40, sigma_sq=1.0)
    assert a.mu_bar_k == pytest.approx(2.0 * b.mu_bar_k, rel=1e-12)
    assert a.rho_bar_kk_sq == pytest.approx(b.rho_bar_kk_sq, rel=1e-12)
