"""Properties over random shapes (hypothesis).

The bootstrap draws and fits each dataset in caller-owned (N, M) buffers
(``out=``); these properties hold the buffer path to the allocating one, bit
for bit, at every covariate layout.  Mandel's spectrum solve is held to the
dense eigensolver on tridiagonals of every order, scale and sign pattern,
split and tied ones included, each draw's values in a batch to those of
that draw solved alone, and the Monte-Carlo engine's batched band solve to
LAPACK's per-draw one on noise and basis cells, and each replicate drawn
from its thread's re-keyed generator to the draw from a new generator for
its stream.  The columnar test result is held to the arrays it is made of,
and to a permutation of the responses.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factordf import distributions, inference, simulation
from factordf.distributions import DOMAIN_SIM, stream
from factordf.dof import DofMethod, df_shared
from factordf.fdr import GenerativeTruth, simulate_dataset
from factordf.inference import (DirectionStats, compute_direction_stats,
                                df_totals, response_tests)
from factordf.linalg import CodedError, top_band_eigenpairs
from factordf.model import DatasetBundle, fit_two_sided
from oracles import dense_tridiagonal_top


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b) and a.tobytes() == b.tobytes())


def filled(shape):
    """A buffer whose old contents would show if any entry went unwritten."""
    return np.full(shape, np.nan)


@st.composite
def layouts(draw):
    p = draw(st.integers(0, 2))
    q = draw(st.integers(0, 2))
    N = draw(st.integers(p + 2, 12))
    M = draw(st.integers(q + 2, 15))
    r_hat = draw(st.integers(0, min(N - p, M - q) - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    index = draw(st.integers(0, 50))
    return N, M, p, q, r_hat, seed, index


@settings(max_examples=80, deadline=None)
@given(layouts())
def test_buffer_path_matches_allocating_path(layout):
    N, M, p, q, r_hat, seed, index = layout
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, p)) if p else None
    Z = rng.standard_normal((M, q)) if q else None
    if X is None:   # a bootstrap truth always has X; fit a plain bundle
        fresh = DatasetBundle(rng.standard_normal((N, M)), X, Z)
    else:
        truth = GenerativeTruth(
            X, Z, beta=rng.standard_normal((M, p)),
            A_hat=rng.standard_normal((N, q)),
            factor_term=rng.standard_normal((N, 1)) * rng.standard_normal(M),
            variances=rng.uniform(0.5, 2.0, M), coef_index=0,
            nonzero_mask=np.zeros(M, dtype=bool))
        fresh = simulate_dataset(truth, seed, index)
        Y = filled((N, M))
        drawn = simulate_dataset(truth, seed, index, out=Y)
        assert drawn.Y is Y
        assert same_bits(drawn.Y, fresh.Y)
    before = fresh.Y.copy()

    fresh.Y.flags.writeable = False     # the caller's Y is never written
    coef, E_hat = fit_two_sided(fresh)
    E, work = filled((N, M)), filled((N, M))
    coef_b, E_hat_b = fit_two_sided(fresh, out=(E, work))
    assert E_hat_b is E
    assert same_bits(E_hat_b, E_hat)
    assert same_bits(coef_b.A_hat, coef.A_hat)
    assert same_bits(coef_b.B_hat, coef.B_hat)

    if p == 0:      # the direction statistics test a column of X
        return
    stats = compute_direction_stats(fresh, r_hat)
    E, work = filled((N, M)), filled((N, M))
    stats_b = compute_direction_stats(fresh, r_hat, out=(E, work))
    assert np.shares_memory(stats_b.residuals, E)
    for f in dataclasses.fields(DirectionStats):
        a, b = getattr(stats, f.name), getattr(stats_b, f.name)
        if f.name == "coefficients":
            assert same_bits(a.A_hat, b.A_hat) and same_bits(a.B_hat, b.B_hat)
        else:
            assert same_bits(a, b), f.name
    assert same_bits(fresh.Y, before)


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(1, 60))
    r = draw(st.integers(0, n))
    reps = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    if draw(st.booleans()):     # few distinct values: split blocks tie
        d = rng.integers(-2, 3, (reps, n)).astype(float)
        e = rng.integers(-1, 2, (reps, n - 1)).astype(float)
    else:
        d = rng.standard_normal((reps, n)) + draw(st.floats(-3, 3))
        e = rng.standard_normal((reps, n - 1))
    e[rng.random(e.shape) < draw(st.floats(0, 1))] = 0.0   # splits
    return d * scale, e * scale, r


def sturm_certified(d, e, top):
    """Whether every top[:, k - 1] lies within the bisection tolerance of
    the k-th largest eigenvalue, by Sturm counts at top -+ tol."""
    D, C = d.T.copy(), np.square(e.T)
    rad = np.zeros_like(D)
    rad[:-1] += np.abs(e.T)
    rad[1:] += np.abs(e.T)
    tnorm = np.maximum(np.abs((D - rad).min(axis=0)),
                       np.abs((D + rad).max(axis=0)))
    tiny, ulp = np.finfo(float).tiny, np.finfo(float).eps
    pivmin = tiny * np.maximum(1.0, C.max(axis=0, initial=0.0))
    tol = np.maximum(np.maximum(ulp * tnorm, pivmin)[:, None],
                     2 * ulp * np.abs(top))
    k = np.arange(1, top.shape[1] + 1)[:, None]
    above_hi = distributions._count_above(D, C, (top + tol).T, pivmin)
    above_lo = distributions._count_above(D, C, (top - tol).T, pivmin)
    return np.all(above_hi <= k - 1) and np.all(above_lo >= k)


@settings(max_examples=150, deadline=None)
@given(tridiagonals())
def test_tridiagonal_top_matches_dense_solve(case):
    d, e, r = case
    got = distributions._tridiagonal_top(d, e, r)
    assert got.shape == (len(d), r)
    if r == 0:
        return
    want = dense_tridiagonal_top(d, e, d.shape[1])
    # a few safe minima on top: bisection pins a zero spectrum to within
    # the pivot guard, not to zero
    bound = 1e-12 * np.abs(want).max(axis=1) + 10 * np.finfo(float).tiny
    assert np.all(np.abs(got - want[:, :r]) <= bound[:, None])
    assert np.all(np.diff(got, axis=1) <= 0)     # descending
    assert sturm_certified(d, e, got)


@st.composite
def mixed_batches(draw):
    """A batch of 1-40 tridiagonals of one order n <= 30, each drawn as one
    of three kinds: Mandel's Laguerre model (a Wishart spectrum), a generic
    matrix, or one of few distinct entries, whose split blocks tie and go to
    bisection; some off-diagonals are zero."""
    n = draw(st.integers(1, 30))
    r = draw(st.integers(0, min(n, 3)))
    reps = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, e = np.empty((reps, n)), np.empty((reps, n - 1))
    for i, kind in enumerate(rng.integers(0, 3, reps)):
        if kind == 0:
            dof = n + rng.integers(0, 40)
            diag_sq = rng.chisquare(dof - np.arange(n))
            sub_sq = rng.chisquare(np.arange(n - 1, 0, -1))
            d[i] = diag_sq + np.pad(sub_sq, (1, 0))
            e[i] = np.sqrt(diag_sq[:-1] * sub_sq)
        elif kind == 1:
            d[i], e[i] = rng.standard_normal(n), rng.standard_normal(n - 1)
        else:
            d[i], e[i] = rng.integers(-2, 3, n), rng.integers(-1, 2, n - 1)
    e[rng.random(e.shape) < draw(st.floats(0, 0.5))] = 0.0   # splits
    scale = 10.0 ** draw(st.integers(-100, 100))
    return d * scale, e * scale, r


@settings(max_examples=150, deadline=None)
@given(mixed_batches())
def test_tridiagonal_top_row_is_its_draw_alone(case):
    # a draw's values depend on its own matrix alone, not on the batch it is
    # solved in nor on how long the other draws iterate
    d, e, r = case
    got = distributions._tridiagonal_top(d, e, r)
    for i in range(len(d)):
        alone = distributions._tridiagonal_top(d[i:i + 1], e[i:i + 1], r)
        assert got[i].tobytes() == alone[0].tobytes()


@st.composite
def band_cells(draw):
    """A noise or basis cell (M tridiagonal) with r_hat up to 3, sizes down
    to n = 1 and m = 1, on either side of n = m, and a strength drawn at
    sigma^2 = 1 or 2.5, in units of sigma^2."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    mu = (draw(st.floats(0.5, 25.0)),) if draw(st.booleans()) else ()
    r_hat = draw(st.integers(1, min(n, m, 3)))
    sigma_sq = draw(st.sampled_from([1.0, 2.5]))
    return simulation.SimConfig(
        n=n, m=m, r=len(mu), mu=tuple(v / sigma_sq for v in mu), r_hat=r_hat,
        replicates=6, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=120, deadline=None)
@given(band_cells())
def test_batched_band_solve_matches_per_draw_solve(cfg):
    plan = simulation.sampling_plan(cfg)
    draws = [simulation.run_replicate(cfg, i, plan)
             for i in range(cfg.replicates)]
    lam, weights = simulation.solve(plan, draws)
    rss = simulation._rss_and_df(plan, draws)[0]
    for i, (R, F) in enumerate(draws):
        want, vecs = top_band_eigenpairs(simulation.band(F, plan.dim),
                                         cfg.r_hat)
        np.testing.assert_allclose(lam[i], want, rtol=1e-10, atol=0)
        # entries of unit vectors, up to sign: relative to the vector's norm
        np.testing.assert_allclose(np.abs(weights[i]), np.abs(vecs[:len(R)]),
                                   rtol=0, atol=1e-10)
        Ra = R.dot(plan.direction)
        coef = Ra.dot(vecs[:len(Ra)])
        # RSS / sigma^2, relative to ||Ra||^2, the term the fitted part is
        # taken from
        scale = Ra.dot(Ra)
        assert abs(rss[i] - scale + coef.dot(coef)) <= 1e-10 * scale


@st.composite
def replicate_cells(draw):
    """A noise cell (r = 0, k = 1), a basis cell (r = 1, k = 1) or a ones
    cell (r = 1, k = 2 from m = 2), on seeds at and past the edges of a
    64-bit word among others."""
    shape = draw(st.sampled_from(["noise", "basis", "ones"]))
    mu = () if shape == "noise" else (draw(st.floats(0.5, 25.0)),)
    return simulation.SimConfig(
        n=draw(st.integers(1, 30)), m=draw(st.integers(2, 30)), r=len(mu),
        mu=mu, shape="basis" if shape == "noise" else shape, replicates=8,
        seed=draw(st.sampled_from([-1, 2**63, 2**64 - 1])
                  | st.integers(-2**65, 2**65)))


@settings(max_examples=100, deadline=None)
@given(replicate_cells(), replicate_cells(),
       st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7)),
                min_size=1, max_size=12))
def test_rekeyed_replicate_is_its_new_stream_draw(a, b, calls):
    # calls for two cells interleave on one thread's generator
    cells = [(cfg, simulation.sampling_plan(cfg)) for cfg in (a, b)]
    for which, i in calls:
        cfg, plan = cells[which]
        R, F = simulation.run_replicate(cfg, i, plan)
        want_R, want_F = simulation.draw(plan, stream(cfg.seed, DOMAIN_SIM, i))
        assert same_bits(R, want_R) and same_bits(F, want_F)


COLUMNS = ("estimate", "std_error", "t_stat", "df_resid", "p_value")


@st.composite
def response_layouts(draw):
    p = draw(st.integers(1, 2))
    q = draw(st.integers(0, 2))
    N = draw(st.integers(p + 3, 16))
    M = draw(st.integers(q + 3, 20))
    r_hat = draw(st.integers(0, min(N - p, M - q, 3) - 1))
    method = draw(st.sampled_from([DofMethod.PROPOSED, DofMethod.GOLLOB,
                                   DofMethod.NAIVE])) if r_hat else None
    coef_index = draw(st.integers(0, p - 1))
    return N, M, p, q, r_hat, method, coef_index, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(response_layouts())
def test_columnar_result_is_the_response_arrays(layout):
    N, M, p, q, r_hat, method, coef_index, seed = layout
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, p))
    Z = rng.standard_normal((M, q)) if q else None
    Y = rng.standard_normal((N, M))
    ids = tuple(f"g{j}" for j in range(M))
    bundle = DatasetBundle(Y, X, Z, col_ids=ids)
    stats = compute_direction_stats(bundle, r_hat)
    try:
        shared = df_shared(method, stats.n, stats.m, r_hat, 1000, None)
        arrays = response_tests(stats, coef_index, df_totals(stats, shared))
    except CodedError as exc:   # a df scheme may leave no residual df
        with pytest.raises(CodedError, match=exc.code):
            inference.test_all_responses(bundle, coef_index, r_hat, method)
        return
    res = inference.test_all_responses(bundle, coef_index, r_hat, method)
    assert res.response_ids == ids and res.df_method is method
    for name, want in zip(COLUMNS, arrays):
        assert same_bits(getattr(res, name), want), name

    # permuting the responses (Y's columns, Z's rows, the ids) permutes
    # every column the same way
    perm = rng.permutation(M)
    permuted = DatasetBundle(Y[:, perm], X, None if Z is None else Z[perm],
                             col_ids=tuple(ids[j] for j in perm))
    got = inference.test_all_responses(permuted, coef_index, r_hat, method)
    assert got.response_ids == tuple(ids[j] for j in perm)
    for name in COLUMNS:
        np.testing.assert_allclose(getattr(got, name),
                                   getattr(res, name)[perm], rtol=1e-10,
                                   atol=0, err_msg=name)
