import numpy as np
import pytest

import factordf.linalg
import factordf.model
from factordf.inference import compute_direction_stats
from factordf.model import DatasetBundle, fit_two_sided
from oracles import (adjusted_residuals, extract_factors, hat_matrix,
                     reduce_to_covariate_free, rss)
from oracles import TestDirection as Direction
from oracles import test_direction as direction_for


def make_bundle(seed, N=8, M=12, p=2, q=1, with_x=True, with_z=True):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(N), rng.standard_normal((N, p - 1))]) if with_x else None
    Z = np.column_stack([np.ones(M), rng.standard_normal((M, q - 1))]) if with_z else None
    if with_z and q == 1:
        Z = np.ones((M, 1))
    Y = rng.standard_normal((N, M))
    return DatasetBundle(Y, X, Z)


def test_bundle_validation():
    with pytest.raises(ValueError):
        DatasetBundle(np.ones((4, 3)), X=np.ones((5, 1)))
    with pytest.raises(ValueError):
        DatasetBundle(np.ones((4, 3)), X=np.ones((4, 4)))   # p must be < N
    with pytest.raises(ValueError, match="^Z is rank deficient$"):
        DatasetBundle(np.ones((4, 6)), Z=np.ones((6, 2)))
    with pytest.raises(ValueError, match="^X is rank deficient$"):
        DatasetBundle(np.ones((4, 3)), X=np.ones((4, 2)))


def test_fit_without_covariates():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((5, 7))
    coef, E_hat = fit_two_sided(DatasetBundle(Y))
    np.testing.assert_array_equal(E_hat, Y)
    assert coef.B_hat.shape == (7, 0)
    assert coef.A_hat.shape == (5, 0)


def test_fit_noiseless_regression():
    rng = np.random.default_rng(1)
    X = np.column_stack([np.ones(6), rng.standard_normal(6)])
    B = rng.standard_normal((9, 2))
    bundle = DatasetBundle(X @ B.T, X=X)
    coef, E_hat = fit_two_sided(bundle)
    assert np.max(np.abs(E_hat)) <= 1e-9
    np.testing.assert_allclose(coef.B_hat, B, atol=1e-9)


def test_fit_matches_columnwise_normal_equations():
    # oracle: project responses off Z explicitly, then regress each column on X
    bundle = make_bundle(seed=5, N=8, M=12, p=2, q=1)
    coef, _ = fit_two_sided(bundle)
    H_Z = hat_matrix(bundle.Z)
    Y_proj = bundle.Y @ (np.eye(bundle.M) - H_Z)
    for j in range(bundle.M):
        s = direction_for(bundle, j).s
        oracle = np.linalg.solve(bundle.X.T @ bundle.X,
                                 bundle.X.T @ (bundle.Y @ s))
        np.testing.assert_allclose(coef.B_hat.T @ s, oracle, atol=1e-9)
        np.testing.assert_allclose(bundle.Y @ s, Y_proj[:, j], atol=1e-9)


def test_fit_identifiability_convention():
    bundle = make_bundle(seed=9, N=10, M=14, p=2, q=1)
    coef, E_hat = fit_two_sided(bundle)
    H_X = hat_matrix(bundle.X)
    H_Z = hat_matrix(bundle.Z)
    np.testing.assert_allclose(H_X @ coef.A_hat, 0, atol=1e-9)
    target = H_Z @ bundle.Y.T @ bundle.X @ np.linalg.inv(bundle.X.T @ bundle.X)
    np.testing.assert_allclose(H_Z @ coef.B_hat, target, atol=1e-9)
    # double orthogonality of the residuals
    assert np.max(np.abs(bundle.X.T @ E_hat)) <= 1e-8
    assert np.max(np.abs(E_hat @ bundle.Z)) <= 1e-8


def test_fit_invariant_to_covariate_recombination():
    bundle = make_bundle(seed=12, N=9, M=11, p=2, q=1)
    rng = np.random.default_rng(99)
    G = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    other = DatasetBundle(bundle.Y, bundle.X @ G, bundle.Z * 3.0)
    _, E1 = fit_two_sided(bundle)
    _, E2 = fit_two_sided(other)
    np.testing.assert_allclose(E1, E2, atol=1e-8)
    c1, _ = fit_two_sided(bundle)
    c2, _ = fit_two_sided(other)
    s = direction_for(bundle, 0).s
    np.testing.assert_allclose(c1.B_hat.T @ s, G @ (c2.B_hat.T @ s), atol=1e-8)


def test_direction_without_z():
    bundle = DatasetBundle(np.random.default_rng(0).standard_normal((4, 5)))
    np.testing.assert_array_equal(direction_for(bundle, 0).s,
                                  [1, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        direction_for(bundle, 5)


def test_direction_intercept_centering():
    Y = np.random.default_rng(0).standard_normal((3, 4))
    bundle = DatasetBundle(Y, Z=np.ones((4, 1)))
    np.testing.assert_allclose(direction_for(bundle, 0).s,
                               [0.75, -0.25, -0.25, -0.25], atol=1e-12)


def test_direction_group_centering():
    # Z = [intercept, tissue +/-1]: s_j centers e_j within j's tissue group
    M1, M2 = 3, 5
    tissue = np.array([1.0] * M1 + [-1.0] * M2)
    Z = np.column_stack([np.ones(M1 + M2), tissue])
    Y = np.random.default_rng(1).standard_normal((4, M1 + M2))
    bundle = DatasetBundle(Y, Z=Z)
    for j, size, group in ((1, M1, slice(0, M1)), (M1 + 2, M2, slice(M1, M1 + M2))):
        e = np.zeros(M1 + M2)
        e[j] = 1.0
        oracle = e.copy()
        oracle[group] -= 1.0 / size
        np.testing.assert_allclose(direction_for(bundle, j).s, oracle, atol=1e-10)


def test_reduce_degenerate_case():
    Y = np.random.default_rng(2).standard_normal((4, 5))
    bundle = DatasetBundle(Y)
    reduced, s2 = reduce_to_covariate_free(bundle, direction_for(bundle, 1))
    np.testing.assert_array_equal(reduced.Q2, np.eye(4))
    np.testing.assert_array_equal(reduced.P2, np.eye(5))
    np.testing.assert_array_equal(reduced.Y22, Y)
    np.testing.assert_array_equal(s2.s, direction_for(bundle, 1).s)


def test_reduce_preserves_norm():
    bundle = make_bundle(seed=31, N=7, M=9, p=2, q=1)
    for j in range(bundle.M):
        s = direction_for(bundle, j)
        _, s2 = reduce_to_covariate_free(bundle, s)
        assert abs(s2.norm_sq - s.norm_sq) <= 1e-10


def test_reduce_rejects_nonorthogonal_direction():
    bundle = make_bundle(seed=8, N=6, M=8, p=2, q=1)
    with pytest.raises(ValueError):
        reduce_to_covariate_free(bundle, Direction(np.ones(8)))


def full_pipeline_rss(bundle, j, r_hat):
    _, E_hat = fit_two_sided(bundle)
    s = direction_for(bundle, j)
    est = extract_factors(E_hat, r_hat)
    return rss(adjusted_residuals(E_hat, est), s)


def reduced_pipeline_rss(bundle, j, r_hat):
    s = direction_for(bundle, j)
    reduced, s2 = reduce_to_covariate_free(bundle, s)
    est = extract_factors(reduced.Y22, r_hat)
    return rss(adjusted_residuals(reduced.Y22, est), s2)


def test_reduction_equality():
    # full-coordinate and reduced-model pipelines agree exactly
    bundle = make_bundle(seed=77, N=6, M=8, p=2, q=1)
    full = full_pipeline_rss(bundle, 2, 1)
    red = reduced_pipeline_rss(bundle, 2, 1)
    assert abs(full - red) <= 1e-8 * max(full, 1e-30)


def test_reduction_equality_many_seeds():
    for seed in range(100):
        bundle = make_bundle(seed=seed, N=6, M=8, p=2, q=1)
        j = seed % bundle.M
        r_hat = 1 + seed % 2
        full = full_pipeline_rss(bundle, j, r_hat)
        red = reduced_pipeline_rss(bundle, j, r_hat)
        assert abs(full - red) <= 1e-8 * max(full, 1e-30)


def test_null_rss_scaled_mean():
    # s'E'Es / (s' Sigma s) has mean N - p under the null with r_hat = 0
    rng = np.random.default_rng(314)
    N, M, p = 10, 12, 3
    X = np.column_stack([np.ones(N), rng.standard_normal((N, p - 1))])
    reps = 2000
    vals = np.empty(reps)
    for i in range(reps):
        Y = rng.standard_normal((N, M))
        bundle = DatasetBundle(Y, X=X)
        _, E_hat = fit_two_sided(bundle)
        s = direction_for(bundle, 0)
        vals[i] = rss(E_hat, s) / s.norm_sq
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - (N - p)) <= 3 * se


def test_covariates_factored_once_per_bundle(monkeypatch):
    calls = []
    real = factordf.linalg.polar_factors

    def counting(C):
        calls.append(C.shape)
        return real(C)

    for mod in (factordf.model, factordf.linalg):
        monkeypatch.setattr(mod, "polar_factors", counting)
    bundle = make_bundle(seed=4, N=9, M=13, p=2, q=2)
    assert calls == [(9, 2), (13, 2)]
    calls.clear()
    fit_two_sided(bundle)
    compute_direction_stats(bundle, 2)
    assert calls == []


def test_bundles_compare_by_identity():
    Y = np.arange(12.0).reshape(3, 4)
    a, b = DatasetBundle(Y), DatasetBundle(Y.copy())
    assert (a == b) is False
    assert a == a
    assert len({a, b, a}) == 2
