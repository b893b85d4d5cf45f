import numpy as np
import pytest

from factordf.factors import variance_explained
from oracles import (FactorModelTruth, adjusted_residuals, extract_factors,
                     rss, rss_expansion_oracle)
from oracles import TestDirection as Direction


def rank_one(n, m, mu, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    return u, v, np.sqrt(n * mu) * np.outer(u, v)


def test_extract_exact_rank_one():
    u, v, M = rank_one(6, 10, mu=2.5, seed=1)
    est = extract_factors(M, 1)
    assert est.mu_hat[0] == pytest.approx(2.5, rel=1e-10)
    np.testing.assert_allclose(np.abs(est.V_hat[:, 0] @ v), 1.0, atol=1e-10)


def test_extract_zero_matrix_errors():
    with pytest.raises(ValueError, match="zero matrix"):
        extract_factors(np.zeros((4, 5)), 1)


def test_extract_rank_deficient_errors():
    _, _, M = rank_one(5, 8, mu=1.0)
    with pytest.raises(ValueError, match="rank"):
        extract_factors(M, 2)


def test_extract_matches_gram_eigensolver():
    # oracle: top eigenvalue of (1/n) M'M from a symmetric eigensolver
    rng = np.random.default_rng(10)
    M = rng.standard_normal((10, 50))
    est = extract_factors(M, 3)
    eigs = np.linalg.eigvalsh(M.T @ M / 10)[::-1]
    np.testing.assert_allclose(est.mu_hat, eigs[:3], atol=1e-8)


def test_extract_invariants():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((8, 12))
    est = extract_factors(M, 4)
    recon = est.factor_term()
    from oracles import truncated_svd
    svd = truncated_svd(M, 4)
    np.testing.assert_allclose(recon, svd.reconstruct(), atol=1e-8)
    assert np.all(np.diff(est.mu_hat) <= 1e-12)
    assert np.all(est.mu_hat > 0)


def test_extract_scaling_equivariance():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((7, 9))
    a = extract_factors(M, 3)
    b = extract_factors(2.5 * M, 3)
    np.testing.assert_allclose(b.mu_hat, 2.5**2 * a.mu_hat, rtol=1e-10)
    np.testing.assert_allclose(b.V_hat, a.V_hat, atol=1e-9)


def test_adjusted_residuals_rank_one():
    _, _, M = rank_one(5, 9, mu=3.0, seed=4)
    est = extract_factors(M, 1)
    assert np.max(np.abs(adjusted_residuals(M, est))) <= 1e-9


def test_adjusted_residuals_full_truncation():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 8))
    est = extract_factors(M, 6)
    assert np.max(np.abs(adjusted_residuals(M, est))) <= 1e-9


def test_adjusted_residuals_tail_energy():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((8, 20))
    est = extract_factors(M, 2)
    adj = adjusted_residuals(M, est)
    tail = np.linalg.svd(M, compute_uv=False)[2:]
    assert abs(np.sum(adj**2) - np.sum(tail**2)) <= 1e-8 * np.sum(M**2)


def test_adjusted_residuals_orthogonal_to_factors():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((9, 14))
    est = extract_factors(M, 3)
    adj = adjusted_residuals(M, est)
    assert np.max(np.abs(adj.T @ est.U_hat)) <= 1e-8
    assert np.max(np.abs(adj @ est.V_hat)) <= 1e-8


def test_rss_basics():
    assert rss(np.zeros((4, 4)), Direction(np.ones(4))) == 0.0
    assert rss(np.eye(3), Direction([1.0, 0, 0])) == pytest.approx(1.0)


def test_rss_direct_product_oracle():
    rng = np.random.default_rng(8)
    E = rng.standard_normal((6, 11))
    s = rng.standard_normal(11)
    direct = float((E @ s) @ (E @ s))
    assert abs(rss(E, Direction(s)) - direct) <= 1e-10 * max(direct, 1)


def make_truth(n, m, r, seed):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, max(r, 1))))[0][:, :r]
    V = np.linalg.qr(rng.standard_normal((m, max(r, 1))))[0][:, :r]
    mu = np.sort(rng.uniform(1.0, 6.0, size=r))[::-1]
    if r > 1:
        mu += np.arange(r, 0, -1)   # enforce strict separation
    return FactorModelTruth(U, mu, V)


def test_expansion_oracle_no_factors():
    rng = np.random.default_rng(9)
    E = rng.standard_normal((5, 8))
    s = Direction(rng.standard_normal(8))
    truth = make_truth(5, 8, 0, seed=9)
    expected = float((E @ s.s) @ (E @ s.s))
    assert rss_expansion_oracle(truth, E, s, 0) == pytest.approx(expected, rel=1e-12)


def test_expansion_oracle_noiseless():
    truth = make_truth(6, 9, 1, seed=11)
    E = np.zeros((6, 9))
    s = Direction(np.eye(9)[0])
    assert abs(rss_expansion_oracle(truth, E, s, 1)) <= 1e-8


def test_rss_expansion_identity_seeded():
    truth = make_truth(6, 9, 1, seed=12)
    rng = np.random.default_rng(13)
    E = rng.standard_normal((6, 9))
    s = Direction(rng.standard_normal(9))
    Y = truth.signal_matrix() + E
    est = extract_factors(Y, 1)
    direct = rss(adjusted_residuals(Y, est), s)
    oracle = rss_expansion_oracle(truth, E, s, 1)
    assert abs(direct - oracle) <= 1e-8 * max(abs(direct), 1e-30)


def test_rss_expansion_identity_many_seeds():
    for seed in range(100):
        r = 1 + seed % 2
        r_hat = 1 + (seed // 2) % 2
        truth = make_truth(6, 9, r, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        E = rng.standard_normal((6, 9))
        s = Direction(rng.standard_normal(9))
        Y = truth.signal_matrix() + E
        est = extract_factors(Y, r_hat)
        direct = rss(adjusted_residuals(Y, est), s)
        oracle = rss_expansion_oracle(truth, E, s, r_hat)
        assert abs(direct - oracle) <= 1e-8 * max(abs(direct), 1e-30)


def test_variance_explained_rank_one():
    _, _, M = rank_one(5, 7, mu=2.0, seed=14)
    table = variance_explained(M)
    assert table.variance_pct[0] == pytest.approx(100.0, abs=1e-8)
    assert table.residual_pct[0] == pytest.approx(0.0, abs=1e-8)


def test_variance_explained_orthogonal_matrix():
    Q = np.linalg.qr(np.random.default_rng(15).standard_normal((6, 6)))[0]
    table = variance_explained(Q)
    np.testing.assert_allclose(table.variance_pct, 100.0 / 6, atol=1e-8)


def test_variance_explained_energy_oracle():
    rng = np.random.default_rng(16)
    M = rng.standard_normal((10, 40))
    table = variance_explained(M)
    assert len(table.variance_pct) == 10
    assert abs(table.variance_pct.sum() - 100.0) <= 1e-8
    s = np.linalg.svd(M, compute_uv=False)
    np.testing.assert_allclose(table.variance_pct, 100 * s**2 / np.sum(s**2),
                               atol=1e-8)
    assert np.all(np.diff(table.residual_pct) <= 1e-12)


def test_variance_explained_zero_matrix():
    with pytest.raises(ValueError):
        variance_explained(np.zeros((3, 3)))
