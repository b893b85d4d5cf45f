from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from factordf import linalg
from factordf.linalg import (polar_factors, top_band_eigenpairs,
                             top_eigenpairs, top_factors)
from oracles import hat_matrix, orthonormal_complement, truncated_svd


def test_truncated_svd_diagonal():
    svd = truncated_svd(np.diag([3.0, 1.0]), 2)
    np.testing.assert_allclose(svd.singular_values, [3.0, 1.0])


def test_truncated_svd_full_rank_reconstruction():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 4))
    svd = truncated_svd(A, 4)
    err = np.linalg.norm(A - svd.reconstruct())
    assert err <= 1e-8 * np.linalg.norm(A)


def test_truncated_svd_matches_gram_eigendecomposition():
    # independent oracle: singular values as square roots of eig(A'A)
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 7))
    svd = truncated_svd(A, 5)
    eigs = np.linalg.eigvalsh(A.T @ A)[::-1][:5]
    np.testing.assert_allclose(svd.singular_values, np.sqrt(np.maximum(eigs, 0)),
                               atol=1e-8)


def test_truncated_svd_orthonormal_and_sorted():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 6))
    svd = truncated_svd(A, 4)
    np.testing.assert_allclose(svd.left_vectors.T @ svd.left_vectors, np.eye(4),
                               atol=1e-10)
    np.testing.assert_allclose(svd.right_vectors.T @ svd.right_vectors, np.eye(4),
                               atol=1e-10)
    assert np.all(np.diff(svd.singular_values) <= 1e-12)
    assert np.all(svd.singular_values >= 0)


def test_truncated_svd_sign_convention():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 5))
    svd = truncated_svd(A, 3)
    for k in range(3):
        col = svd.right_vectors[:, k]
        assert col[np.abs(col).argmax()] > 0
    # deterministic under sign-flipped inputs of the factors themselves
    again = truncated_svd(A.copy(), 3)
    np.testing.assert_array_equal(svd.right_vectors, again.right_vectors)
    np.testing.assert_array_equal(svd.left_vectors, again.left_vectors)


def test_truncated_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        truncated_svd(np.ones((3, 3)), 4)
    with pytest.raises(ValueError):
        truncated_svd(np.ones((3, 3)), 0)
    bad = np.ones((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        truncated_svd(bad, 1)


def test_polar_already_orthonormal():
    Q0 = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2)))[0]
    Q, R = polar_factors(Q0)
    np.testing.assert_allclose(Q, Q0, atol=1e-10)
    np.testing.assert_allclose(R, np.eye(2), atol=1e-10)


def test_polar_single_scaled_column():
    X = np.zeros((4, 1))
    X[0, 0] = 2.0
    Q, R = polar_factors(X)
    np.testing.assert_allclose(Q[:, 0], [1, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(R, [[2.0]], atol=1e-12)


def test_polar_direct_verification():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((6, 2))
    Q, R = polar_factors(X)
    np.testing.assert_allclose(Q @ R, X, atol=1e-8)
    np.testing.assert_allclose(Q.T @ Q, np.eye(2), atol=1e-8)
    np.testing.assert_allclose(R, R.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(R) > 0)


def test_polar_rejects_rank_deficient():
    X = np.ones((5, 2))
    with pytest.raises(ValueError):
        polar_factors(X)


def test_complement_of_e1():
    Q1 = np.array([[1.0], [0.0]])
    Q2 = orthonormal_complement(Q1)
    np.testing.assert_allclose(Q2, [[0.0], [1.0]], atol=1e-12)


def test_complement_empty_gives_identity():
    np.testing.assert_array_equal(orthonormal_complement(np.zeros((4, 0)), 4),
                                  np.eye(4))
    np.testing.assert_array_equal(orthonormal_complement(None, 3), np.eye(3))


def test_complement_orthogonality():
    rng = np.random.default_rng(13)
    Q1 = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    Q2 = orthonormal_complement(Q1)
    assert Q2.shape == (8, 5)
    np.testing.assert_allclose(Q2.T @ Q2, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(Q1.T @ Q2, np.zeros((3, 5)), atol=1e-10)


def test_complement_assembles_orthogonal_matrix():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        Q1 = np.linalg.qr(rng.standard_normal((7, 2)))[0]
        full = np.column_stack([Q1, orthonormal_complement(Q1)])
        assert np.max(np.abs(full.T @ full - np.eye(7))) <= 1e-9


def test_complement_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        orthonormal_complement(np.ones((4, 2)))


def test_hat_matrix_intercept():
    H = hat_matrix(np.ones((5, 1)))
    np.testing.assert_allclose(H, np.full((5, 5), 0.2), atol=1e-12)


def test_hat_matrix_identity():
    np.testing.assert_allclose(hat_matrix(np.eye(3)), np.eye(3), atol=1e-12)


def test_hat_matrix_projector_properties():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((10, 3))
    H = hat_matrix(X)
    np.testing.assert_allclose(H @ X, X, atol=1e-9)
    np.testing.assert_allclose(H @ H, H, atol=1e-10)
    np.testing.assert_allclose(H, H.T, atol=1e-12)
    assert abs(np.trace(H) - 3) <= 1e-9


def test_hat_matrix_column_space_invariance():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((9, 3))
    G = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    np.testing.assert_allclose(hat_matrix(X), hat_matrix(X @ G), atol=1e-9)


@pytest.mark.parametrize("shape", [(7, 19), (19, 7), (6, 6)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_top_factors_match_truncated_svd(shape, r):
    # the Gram-matrix kernel on either side against the full-SVD oracle
    for seed in range(5):
        E = np.random.default_rng(100 * seed + r).standard_normal(shape)
        left, sing = top_factors(E, r)
        oracle = truncated_svd(E, r)
        assert left.shape == (shape[0], r) and sing.shape == (r,)
        np.testing.assert_allclose(sing, oracle.singular_values, rtol=1e-10)
        np.testing.assert_allclose(np.abs(left.T @ oracle.left_vectors),
                                   np.eye(r), atol=1e-8)


def test_top_factors_rejects_missing_rank():
    E = np.outer(np.arange(1.0, 6.0), np.ones(8))    # rank one
    for A in (E, E.T):
        with pytest.raises(ValueError, match="rank"):
            top_factors(A, 2)


def gram_and_probe(dim, seed=0):
    rng = np.random.default_rng(seed + dim)
    A = rng.standard_normal((dim, 2 * dim + 3))
    return A @ A.T, rng.standard_normal(dim)


def eigh_top(G, r):
    w, Q = np.linalg.eigh(G)
    return w[::-1][:r], Q[:, ::-1][:, :r]


@pytest.mark.parametrize("dim", [1, 2, 5, 39, 50, 100, 200])
def test_top_eigenpairs_match_full_eigh(dim):
    G, y = gram_and_probe(dim)
    before = G.copy()
    for r in sorted({1, min(2, dim), dim}):
        lam, vecs = top_eigenpairs(G, r)
        ref_lam, ref_vecs = eigh_top(before, r)
        assert lam.shape == (r,) and vecs.shape == (dim, r)
        np.testing.assert_allclose(lam, ref_lam, rtol=1e-12, atol=0)
        # sign-free: the projections a replicate reads
        np.testing.assert_allclose((vecs.T @ y) ** 2, (ref_vecs.T @ y) ** 2,
                                   rtol=0, atol=1e-10)
        np.testing.assert_array_equal(G, before)


@pytest.mark.parametrize("solver", ["subset", "eigh"])
def test_top_eigenpairs_rank_error(solver, monkeypatch):
    # "subset": numpy's bundled OpenBLAS loads (it once held a subset
    # eigensolver); "eigh": it does not.  The solve must not depend on it.
    if solver == "eigh":
        monkeypatch.setattr(linalg, "_dsbevx", lambda: None)
    v = np.arange(1.0, 6.0)
    with pytest.raises(ValueError, match="rank is below the requested 2"):
        top_eigenpairs(np.outer(v, v), 2)
    with pytest.raises(ValueError):
        top_eigenpairs(np.eye(3), 4)


def test_top_eigenpairs_same_bits_from_two_threads():
    G, _ = gram_and_probe(100)
    lam, vecs = top_eigenpairs(G, 2)
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda _: top_eigenpairs(G, 2), range(40)))
    for got_lam, got_vecs in results:
        np.testing.assert_array_equal(got_lam, lam)
        np.testing.assert_array_equal(got_vecs, vecs)


def band_and_probe(dim, kd, seed=0):
    """Lower band ab[t, j] = M[j + t, j] of M = F F' with F upper banded
    (kd superdiagonals), M itself, and a probe vector."""
    rng = np.random.default_rng(seed + 7 * dim + kd)
    F = np.triu(np.tril(rng.standard_normal((dim, dim + kd)), kd))
    M = F @ F.T
    ab = np.zeros((kd + 1, dim))
    for t in range(kd + 1):
        inside = max(dim - t, 0)
        ab[t, :inside] = np.diagonal(M, -t)
        ab[t, inside:] = 99.0       # past the last row: never read
    return ab, M, rng.standard_normal(dim)


@pytest.mark.parametrize("dim,kd", [(1, 1), (2, 1), (5, 1), (5, 2), (50, 1),
                                    (50, 3), (100, 1), (100, 2), (3, 4)])
def test_top_band_eigenpairs_match_full_eigh(dim, kd):
    ab, M, y = band_and_probe(dim, kd)
    before = ab.copy()
    # random band factors are badly conditioned, so r stops at 5, and both
    # solvers are accurate to a few ulps of the spectrum's scale
    for r in sorted({1, min(2, dim), min(5, dim)}):
        lam, vecs = top_band_eigenpairs(ab, r)
        ref_lam, ref_vecs = eigh_top(M, r)
        assert lam.shape == (r,) and vecs.shape == (dim, r)
        np.testing.assert_allclose(lam, ref_lam, rtol=0,
                                   atol=1e-12 * ref_lam[0])
        np.testing.assert_allclose((vecs.T @ y) ** 2, (ref_vecs.T @ y) ** 2,
                                   rtol=0, atol=1e-10 * float(y @ y))
        np.testing.assert_array_equal(ab, before)


def test_top_band_eigenpairs_fallback_agrees(monkeypatch):
    cases = [(5, 1), (50, 2), (100, 1)]
    solved = [top_band_eigenpairs(band_and_probe(*c)[0], 2) for c in cases]
    monkeypatch.setattr(linalg, "_dsbevx", lambda: None)
    for c, (lam, vecs) in zip(cases, solved):
        ab, _, y = band_and_probe(*c)
        lam_eigh, vecs_eigh = top_band_eigenpairs(ab, 2)
        np.testing.assert_allclose(lam_eigh, lam, rtol=1e-12, atol=0)
        np.testing.assert_allclose((vecs_eigh.T @ y) ** 2, (vecs.T @ y) ** 2,
                                   rtol=0, atol=1e-12 * float(y @ y))


@pytest.mark.parametrize("solver", ["band", "eigh"])
def test_top_band_eigenpairs_rank_error(solver, monkeypatch):
    if solver == "eigh":
        monkeypatch.setattr(linalg, "_dsbevx", lambda: None)
    ab = np.zeros((2, 5))
    ab[0, 0] = 4.0              # rank one: M = 4 e_1 e_1'
    with pytest.raises(ValueError, match="rank is below the requested 2"):
        top_band_eigenpairs(ab, 2)
    for r in (0, 6):
        with pytest.raises(ValueError):
            top_band_eigenpairs(ab, r)
