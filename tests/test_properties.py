"""Properties over random shapes (hypothesis).

The bootstrap draws and fits each dataset in caller-owned (N, M) buffers
(``out=``); these properties hold the buffer path to the allocating one, bit
for bit, at every covariate layout.  Mandel's spectrum solve is held to the
dense eigensolver on tridiagonals of every order, scale and sign pattern,
split and tied ones included.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from factordf import distributions
from factordf.fdr import GenerativeTruth, simulate_dataset
from factordf.inference import DirectionStats, compute_direction_stats
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
    coef, resid = fit_two_sided(fresh)
    E, work = filled((N, M)), filled((N, M))
    coef_b, resid_b = fit_two_sided(fresh, out=(E, work))
    assert resid_b.E_hat is E
    assert same_bits(resid_b.E_hat, resid.E_hat)
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
