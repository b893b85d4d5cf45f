import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from factordf import distributions, linalg
from factordf.distributions import (chi2_cdf, ks_test, stream, t_sf,
                                    wishart_top_eigenvalues)
from factordf.dof import df_mandel
from oracles import (chi2_quantile, dense_tridiagonal_top, t_cdf,
                     wishart_factor)


def test_sampling_moments():
    x = stream(1, 0).standard_normal(10**6)
    assert abs(x.mean()) < 4 / np.sqrt(10**6)
    assert abs(x.var() - 1) < 0.01


def test_sampling_normality_ks():
    x = stream(2, 0).standard_normal(10**4)
    res = ks_test(x, lambda q: stats.norm.cdf(q))
    assert res.p_value > 0.001


def test_stream_families_do_not_collide():
    a = stream(5, 1, 0).standard_normal(8)
    b = stream(5, 2, 0).standard_normal(8)
    assert not np.array_equal(a, b)


# (seed, domain, index): seeds past 2^63 and below 0, indices past 2^32 and
# below 0 are masked to 64 and 32 bits
STREAM_TRIPLES = [(0, 0, 0), (5, 1, 0), (5, 1, 7), (123456789, 2, 41),
                  (2**64 - 1, 3, 2**32 - 1), (-1, 4, 2**32 + 5), (7, 2**32 + 1, -3)]


def philox_by_key(seed, domain, index):
    """The stream as numpy's keyed Philox constructor builds it.  The key is
    a uint64 array: a list holding a word past 2^63 would pass through
    float64 and lose bits."""
    sid = ((domain & 0xFFFFFFFF) << 32) | (index & 0xFFFFFFFF)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, sid], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed,domain,index", STREAM_TRIPLES)
def test_stream_bits_pinned(seed, domain, index):
    want = philox_by_key(seed, domain, index).bit_generator.random_raw(9)
    np.testing.assert_array_equal(
        stream(seed, domain, index).bit_generator.random_raw(9), want)
    # and the draws built on those bits
    np.testing.assert_array_equal(
        stream(seed, domain, index).chisquare([3.0, 40.0, 1e4]),
        philox_by_key(seed, domain, index).chisquare([3.0, 40.0, 1e4]))


STREAM_WORDS = {(0, 0, 0): [213000021201967259, 4455796210202625458],
                (5, 1, 7): [6057299413522222751, 5779484473137561022]}


def test_stream_bits_literal():
    # the first words of two streams, written out: a change of bit
    # generator or key layout shows here even if both sides moved together
    assert list(stream(0, 0, 0).bit_generator.random_raw(2)) == \
        STREAM_WORDS[(0, 0, 0)]
    assert list(stream(5, 1, 7).bit_generator.random_raw(2)) == \
        STREAM_WORDS[(5, 1, 7)]


def test_seeds_past_2_63_keep_their_bits():
    # seeds whose 64-bit word is 2^63 or more, negative ones included, are
    # keyed exactly, so neighbouring seeds do not share a stream
    for a, b in ((-1, -2), (2**63, 2**63 + 1), (2**64 - 1, 2**64 - 2)):
        assert stream(a, 1, 0).bit_generator.state["state"]["key"][0] == \
            a & 0xFFFFFFFFFFFFFFFF
        assert not np.array_equal(stream(a, 1, 0).standard_normal(4),
                                  stream(b, 1, 0).standard_normal(4))


@pytest.mark.parametrize("seed,domain,index", STREAM_TRIPLES)
def test_rekeyed_generator_draws_a_new_streams_bits(seed, domain, index):
    # a generator part-way through a Philox block, with half a 64-bit word
    # buffered, forgets both when re-keyed
    rng = stream(3, 1, 2)
    rng.standard_normal(3)
    rng.integers(0, 2**32, size=1, dtype=np.uint32)
    distributions._rekey(rng, seed, domain, index)
    want = stream(seed, domain, index)
    np.testing.assert_array_equal(
        rng.integers(0, 2**32, size=3, dtype=np.uint32),
        want.integers(0, 2**32, size=3, dtype=np.uint32))
    np.testing.assert_array_equal(rng.bit_generator.random_raw(9),
                                  want.bit_generator.random_raw(9))


def test_streams_do_not_share_bit_generators():
    a, b = stream(5, 1, 0), stream(5, 1, 0)
    assert a.bit_generator is not b.bit_generator
    a.standard_normal(3)
    np.testing.assert_array_equal(b.standard_normal(3),
                                  stream(5, 1, 0).standard_normal(3))


def test_chi2_quantile_exponential_case():
    assert abs(chi2_quantile(2, 0.5) - 2 * np.log(2)) < 1e-10


def test_chi2_quantile_against_quadrature():
    # quadrature oracle on the chi2_1 density
    x = chi2_quantile(1, 0.5)
    mass, _ = integrate.quad(lambda u: stats.chi2.pdf(u, 1), 0, x)
    assert abs(mass - 0.5) < 1e-8
    assert abs(x - 0.45494) < 5e-6


def test_chi2_quantile_monotone():
    for df in (0.5, 1.0, 2.184, 10.0, 36.0):
        assert chi2_quantile(df, 0.9) > chi2_quantile(df, 0.1)


def test_chi2_quantile_cdf_inverse():
    for df in (0.5, 1.0, 2.184, 10.0, 36.0):
        for p in (0.01, 0.5, 0.99):
            assert abs(chi2_cdf(chi2_quantile(df, p), df) - p) < 1e-7


def test_chi2_quantile_domain():
    with pytest.raises(ValueError):
        chi2_quantile(2, 0.0)
    with pytest.raises(ValueError):
        chi2_quantile(2, 1.0)
    with pytest.raises(ValueError):
        chi2_quantile(-1, 0.5)


def test_t_cdf_symmetry_and_special_values():
    assert t_cdf(0.0, 5) == pytest.approx(0.5)
    assert t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-10)   # Cauchy arctan
    x = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(t_cdf(-x, 7), 1 - t_cdf(x, 7), atol=1e-12)


def test_t_cdf_against_quadrature():
    # quadrature oracle; also the worked two-sided value at df=36
    q, _ = integrate.quad(lambda u: stats.t.pdf(u, 36), -np.inf, 1.36)
    assert abs(t_cdf(1.36, 36) - q) < 1e-8
    two_sided = 2 * (1 - t_cdf(1.36, 36))
    assert abs(two_sided - 0.182) < 5e-4


def test_t_cdf_normal_limit():
    x = np.linspace(-4, 4, 17)
    assert np.max(np.abs(t_cdf(x, 10**6) - stats.norm.cdf(x))) < 1e-5


DF_GRID = (0.5, 1.0, 3.2, 35.7, 36.0, 1e6)
SPECIAL_X = (0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300, np.nan, -3.5)
X_GRID = np.concatenate([np.linspace(-60.0, 60.0, 10**4), SPECIAL_X])


def same_bits(ours, ref):
    """Same type, dtype, shape and bytes (NaN payloads included)."""
    return (type(ours) is type(ref)
            and np.asarray(ours).dtype == np.asarray(ref).dtype
            and np.shape(ours) == np.shape(ref)
            and np.asarray(ours).tobytes() == np.asarray(ref).tobytes())


@pytest.mark.parametrize("df", DF_GRID)
def test_wrappers_bit_equal_to_scipy_stats(df):
    for ours, ref in ((t_sf, stats.t.sf), (t_cdf, stats.t.cdf),
                      (chi2_cdf, stats.chi2.cdf)):
        assert same_bits(ours(X_GRID, df), ref(X_GRID, df)), ours.__name__
        for x in SPECIAL_X + (1.0, 2.5):
            assert same_bits(ours(x, df), ref(x, df)), (ours.__name__, x)
    ps = np.concatenate([np.linspace(0.0, 1.0, 2001)[1:-1],
                         [1e-300, 1e-10, 1 - 1e-16]])
    ours = np.array([chi2_quantile(df, p) for p in ps])
    assert all(type(chi2_quantile(df, p)) is float for p in ps[:3])
    assert same_bits(ours, stats.chi2.ppf(ps, df))


def test_t_sf_vector_df_bit_equal_to_scipy_stats():
    df = np.resize(np.array(DF_GRID), X_GRID.size)
    assert same_bits(t_sf(X_GRID, df), stats.t.sf(X_GRID, df))


def test_cli_import_leaves_scipy_stats_unloaded():
    # nor does the eigen-solve load scipy.linalg, which would run on
    # scipy's own OpenBLAS
    code = ("import sys, numpy, factordf.cli; "
            "factordf.linalg.top_eigenpairs(numpy.eye(3), 1); "
            "print(any(m in sys.modules for m in ('scipy.stats', 'scipy.linalg')))")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def test_ks_interleaved_quantiles():
    n = 40
    grid = (np.arange(1, n + 1) - 0.5) / n
    res = ks_test(grid, lambda q: np.clip(q, 0, 1))
    assert res.statistic == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_known_critical_value():
    # 100 points all 0.1308 above their quantiles: sqrt(n) D = 1.358, whose
    # asymptotic p-value is the 5% critical point
    n = 100
    grid = (np.arange(1, n + 1) - 0.5) / n
    res = ks_test(grid, lambda q: np.clip(q + 0.1308, 0, 1))
    assert np.sqrt(n) * res.statistic == pytest.approx(1.358, abs=1e-12)
    assert abs(res.p_value - 0.05) < 1e-3


def test_ks_uniform_calibration():
    x = stream(3, 9, 0).random(10**4)
    res = ks_test(x, lambda q: np.clip(q, 0, 1))
    assert res.p_value > 0.001


def test_ks_pvalues_approximately_uniform():
    rng = stream(4, 9, 1)
    hits = 0
    reps = 1000
    for _ in range(reps):
        x = rng.random(200)
        if ks_test(x, lambda q: np.clip(q, 0, 1)).p_value < 0.05:
            hits += 1
    assert 0.03 <= hits / reps <= 0.07


def test_ks_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ks_test([], lambda q: q)
    with pytest.raises(ValueError):
        ks_test([0.5] * 5, lambda q: q)
    with pytest.raises(ValueError):
        ks_test(np.linspace(0, 1, 20), lambda q: q * 2.0)


def mandel_factor_inline(seed, dim, dof, mc_reps):
    """The Bartlett draw as df_mandel wrote it before the sampler was shared
    (df_mandel now draws the spectrum model); it pins wishart_factor's bits."""
    rng = stream(seed, distributions.DOMAIN_MANDEL)
    A = np.zeros((mc_reps, dim, dim))
    lower = np.tril_indices(dim, -1)
    A[:, lower[0], lower[1]] = rng.standard_normal((mc_reps, len(lower[0])))
    diag_dfs = dof - np.arange(dim)
    A[:, np.arange(dim), np.arange(dim)] = np.sqrt(
        rng.chisquare(diag_dfs, size=(mc_reps, dim)))
    return A


@pytest.mark.parametrize("dim,dof", [(1, 1), (4, 9), (36, 17862)])
def test_wishart_factor_reproduces_mandel_draws(dim, dof):
    got = wishart_factor(stream(5, distributions.DOMAIN_MANDEL), dim, dof, 100)
    np.testing.assert_array_equal(got, mandel_factor_inline(5, dim, dof, 100))


def mandel_spectrum_inline(seed, dim, dof, mc_reps):
    """df_mandel's draw: the bidiagonal model's squared diagonal, then its
    squared subdiagonal, and the tridiagonal (d, e) of T = B B' they give."""
    rng = stream(seed, distributions.DOMAIN_MANDEL)
    diag_sq = rng.chisquare(dof - np.arange(dim), size=(mc_reps, dim))
    sub_sq = rng.chisquare(np.arange(dim - 1, 0, -1), size=(mc_reps, dim - 1))
    d = diag_sq + np.pad(sub_sq, ((0, 0), (1, 0)))
    return d, np.sqrt(diag_sq[:, :-1] * sub_sq)


def test_df_mandel_bits_unchanged():
    reps = 300
    for n, m in ((6, 40), (50, 36)):
        d, e = mandel_spectrum_inline(11, min(n, m), max(n, m), reps)
        top = distributions._tridiagonal_top(d, e, 2) / m
        est = df_mandel(n, m, 2, mc_reps=reps, seed=11)
        np.testing.assert_array_equal(est.per_factor, top.mean(axis=0))
        assert est.mc_se == float(np.sqrt(top.sum(axis=1).var(ddof=1) / reps))


@pytest.mark.parametrize("dim, dof, r", [
    (1, 1, 1), (2, 5, 1), (5, 5, 5), (8, 30, 3), (24, 24, 2), (36, 1998, 2),
    (36, 17862, 2), (40, 90, 40), (100, 150, 3)])
def test_tridiagonal_top_matches_dense_eigvalsh(dim, dof, r):
    d, e = mandel_spectrum_inline(dim + dof, dim, dof, 200)
    got = distributions._tridiagonal_top(d, e, r)
    want = dense_tridiagonal_top(d, e, r)
    assert got.shape == (200, r)
    assert np.all(np.diff(got, axis=1) <= 0)      # descending
    # both solvers are accurate to a few ulps of the spectrum's scale
    scale = want[:, :1]
    assert np.max(np.abs(got - want) / scale) <= 1e-12


def test_tridiagonal_top_generic_matrices():
    # off-diagonals of both signs and a spectrum around zero
    rng = np.random.default_rng(8)
    d, e = rng.standard_normal((100, 30)), rng.standard_normal((100, 29))
    got = distributions._tridiagonal_top(d, e, 4)
    want = dense_tridiagonal_top(d, e, 4)
    scale = np.abs(dense_tridiagonal_top(d, e, 30)).max(axis=1)
    assert np.max(np.abs(got - want) / scale[:, None]) <= 1e-12


@pytest.mark.parametrize("handle", ["no library", "no dstebz"])
def test_tridiagonal_top_fallback(monkeypatch, handle):
    # the spectrum solve is numpy alone: the same bytes without scipy's LAPACK
    # module, or with one that exports no LAPACK eigensolver; the package's
    # one LAPACK call would then fail either way
    import scipy.linalg
    from scipy.linalg import lapack
    d, e = mandel_spectrum_inline(4, 36, 500, 300)
    want = distributions._tridiagonal_top(d, e, 2)
    want_df = df_mandel(36, 500, 2, mc_reps=300, seed=4)
    if handle == "no library":
        monkeypatch.setattr(scipy.linalg, "lapack", None)
    else:
        for name in ("dstebz", "dstein", "dsbevx"):
            monkeypatch.delattr(lapack, name)
    with pytest.raises((AttributeError, TypeError)):
        linalg.top_band_eigenpairs(np.ones((2, 4)), 1)
    got = distributions._tridiagonal_top(d, e, 2)
    got_df = df_mandel(36, 500, 2, mc_reps=300, seed=4)
    assert got.tobytes() == want.tobytes()
    assert got_df.per_factor.tobytes() == want_df.per_factor.tobytes()
    assert got_df.mc_se == want_df.mc_se


def test_tridiagonal_top_bisects_tied_spectra(monkeypatch):
    # equal blocks split by zero off-diagonals tie eigenvalues, where the
    # Laguerre iteration converges too slowly and bisection finds them
    bisected = []
    bisect = distributions._bisect

    def spy(*args):
        bisected.append(len(args[3]))
        return bisect(*args)

    monkeypatch.setattr(distributions, "_bisect", spy)
    d = np.array([[2.0] * 6, [3.0, 1.0, 3.0, 2.0, 3.0, 1.0]])
    e = np.array([[1.0, 0.0, 1.0, 0.0, 1.0], [0.0] * 5])
    got = distributions._tridiagonal_top(d, e, 6)
    assert bisected
    np.testing.assert_allclose(got, dense_tridiagonal_top(d, e, 6),
                               rtol=0, atol=1e-12 * 3)


def test_tridiagonal_top_rejects_non_finite_matrices():
    d, e = mandel_spectrum_inline(3, 6, 40, 20)
    d[7, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        distributions._tridiagonal_top(d, e, 2)


def bartlett_top(seed, dim, dof, reps, r):
    """The oracle's draw: top r eigenvalues of dense Bartlett Wishart matrices."""
    A = wishart_factor(stream(seed, distributions.DOMAIN_MANDEL), dim, dof, reps)
    return np.linalg.eigvalsh(A @ np.transpose(A, (0, 2, 1)))[:, ::-1][:, :r]


# (dim, dof, r): dim = 1, dim = dof, r = dim, small and study-sized dims.
# Fixed seeds; each KS p-value must exceed 1e-3.
LAW_CELLS = [(1, 30, 1), (8, 8, 2), (5, 12, 5), (10, 40, 2), (30, 120, 2),
             (36, 36, 3)]


@pytest.mark.parametrize("dim, dof, r", LAW_CELLS)
def test_wishart_top_eigenvalues_law(dim, dof, r):
    reps = 4000
    got = wishart_top_eigenvalues(stream(21, distributions.DOMAIN_MANDEL),
                                  dim, dof, reps, r)
    want = bartlett_top(22, dim, dof, reps, r)
    assert got.shape == want.shape == (reps, r)
    for k in range(r):
        assert stats.ks_2samp(got[:, k], want[:, k]).pvalue > 1e-3
    a, b = got.sum(axis=1), want.sum(axis=1)
    assert stats.ks_2samp(a, b).pvalue > 1e-3
    combined = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(reps)
    assert abs(a.mean() - b.mean()) <= 4 * combined


def test_wishart_top_eigenvalues_guards():
    rng = np.random.default_rng(0)
    assert wishart_top_eigenvalues(rng, 4, 6, 10, 0).shape == (10, 0)
    for dim, dof, reps, r in ((4, 3, 10, 1), (4, 6, 10, 5), (4, 6, 0, 1),
                              (4, 6, 10, -1)):
        with pytest.raises(ValueError):
            wishart_top_eigenvalues(rng, dim, dof, reps, r)


@pytest.mark.parametrize("dim,dof", [(4, 9), (6, 3), (5, 5), (5, 0)])
def test_wishart_factor_moments(dim, dof):
    reps = 20000
    A = wishart_factor(np.random.default_rng(dim * 10 + dof), dim, dof, reps)
    assert A.shape == (reps, dim, dim if dof >= dim else dof)
    W = A @ np.transpose(A, (0, 2, 1))
    # E[W] = dof I; Var(W_ii) = 2 dof, Var(W_ij) = dof off the diagonal
    mean = W.mean(axis=0)
    se = np.sqrt(np.where(np.eye(dim) > 0, 2.0, 1.0) * max(dof, 1) / reps)
    assert np.all(np.abs(mean - dof * np.eye(dim)) <= 5 * se)
