"""Statistical primitives: seeded sampling, the Wishart spectrum sampler,
chi-squared / Student-t helpers, and the one-sample Kolmogorov-Smirnov test.

White Wishart matrices are drawn in reduced form, after Dumitriu & Edelman
(2002): ``wishart_top_eigenvalues`` draws the top of the spectrum from the
bidiagonal (Laguerre) model in O(dim) draws and solves every draw's
tridiagonal at once, in numpy, by a Laguerre iteration whose every value a
Sturm count certifies (``_tridiagonal_top``).  The simulations draw their
Wishart part as the lower-banded factor that generalises that model
(``simulation.draw``).  Where that band is tridiagonal, the same solve finds
its top eigenvalues and ``_tridiagonal_weights`` the squared first
coordinates of their eigenvectors (Golub 1973); wider bands go to LAPACK
``dsbevx`` (``linalg.top_band_eigenpairs``).

Random streams are counter-based (Philox keyed by ``(seed, stream)``), so a
draw is a pure function of its seed, its domain tag, and its index --
parallel consumers get bit-identical results regardless of scheduling.
Nothing here starts a thread, calls a foreign library or sets the BLAS
thread count.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence
# scipy.special, not scipy.stats: the CDFs below are the ufuncs scipy.stats
# wraps, bit for bit, and importing scipy.stats doubles the CLI's start-up.
from scipy import special

# Domain tags keep independent stream families from colliding on one seed.
DOMAIN_SIM = 1
DOMAIN_FDR_DATASET = 2
DOMAIN_MANDEL = 3
DOMAIN_GENERATE = 4

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SeededGenerator:
    """Value-like handle for one reproducible random stream."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64, self.stream_id & _MASK64)
        return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


class _PhiloxKey(ISeedSequence):
    """Hands Philox its key as is.

    ``Philox(key=k)`` also builds a ``SeedSequence()`` from OS entropy that
    it never uses; seeded with this instead, a new Philox starts with key
    ``k`` and counter 0, the same bits, without that cost.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("Philox's key is two 64-bit words")
        return np.array(self.key, dtype=np.uint64)


def stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Generator for stream ``index`` of a domain family under ``seed``."""
    sid = ((domain & _MASK32) << 32) | (index & _MASK32)
    return SeededGenerator(seed, sid).generator()


def wishart_top_eigenvalues(rng: np.random.Generator, dim: int, dof: int,
                            reps: int, r: int) -> np.ndarray:
    """Top r eigenvalues, descending, shape (reps, r), of ``reps`` draws of
    W ~ Wishart_dim(dof, I) with dof >= dim.

    W's spectrum has the law of that of T = B B' (Dumitriu & Edelman 2002,
    beta = 1), with B lower bidiagonal: sqrt(chi2_{dof - i}) on the diagonal
    and sqrt(chi2_{dim - 1 - i}) below it.  T is tridiagonal, so a draw costs
    2 dim - 1 chi-squares and a share of one vectorised tridiagonal solve
    (``_tridiagonal_top``) instead of dim^2 normals and a dense eigensolve.
    The diagonal's chi-squares are drawn first, then the subdiagonal's, each
    as one (reps, .) array.
    """
    if not (0 <= r <= dim <= dof and reps >= 1):
        raise ValueError(f"need 0 <= r <= dim <= dof and reps >= 1, got "
                         f"r={r}, dim={dim}, dof={dof}, reps={reps}")
    i = np.arange(dim)
    diag_sq = rng.chisquare(dof - i, size=(reps, dim))            # B_ii^2
    sub_sq = rng.chisquare(dim - 1 - i[:-1], size=(reps, dim - 1))  # B_i+1,i^2
    e = np.sqrt(diag_sq[:, :-1] * sub_sq)         # T_i+1,i = B_ii B_i+1,i
    diag_sq[:, 1:] += sub_sq                      # T_ii = B_ii^2 + B_i,i-1^2
    return _tridiagonal_top(diag_sq, e, r)


# LAPACK's relative machine precision and safe minimum (dlamch "P", "S"),
# and the factor by which its bisection widens the Gershgorin interval.
_ULP = np.finfo(np.float64).eps
_SAFMIN = np.finfo(np.float64).tiny
_FUDGE = 2.1
# Laguerre iterations a draw may take before it goes to bisection.
_MAX_LAGUERRE = 12
# lambda_k's iteration starts this fraction of the Gershgorin norm above
# lambda_{k-1}: deflating by the computed lambda_{k-1} perturbs H by about
# its error over the cube of that distance, which must stay far below H.
_RESTART = 1e-3
# A step counts as the last when the cubic rate, |step| (|step| / |previous
# step|)^3, puts the next one below this fraction of the tolerance.
_PREDICTED = 1e-2


# Zero pivots and the infinities they spread are expected and handled.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _tridiagonal_top(d: np.ndarray, e: np.ndarray, r: int) -> np.ndarray:
    """Top r eigenvalues, descending, shape (reps, r), of the symmetric
    tridiagonal matrices with diagonals d (reps, n) and off-diagonals
    e (reps, n - 1).

    All draws are solved together, column c of every working array being
    draw c throughout; a draw that has found its r values stands still.  For
    k = 1 ... r, lambda_k comes from a Laguerre iteration on det(T - x I)
    (Li & Zeng 1994) deflated by the lambda_j, j < k, already found:
    lambda_1 starts at the Gershgorin upper bound, from which the iteration
    falls monotonically to it, and lambda_k just above lambda_{k-1}, as soon
    as that has converged.  A draw whose iterate leaves its bracket (the
    Gershgorin lower bound up to the start), or which has not converged
    after ``_MAX_LAGUERRE`` steps, is left to bisection.  A step that is not
    finite means x sits on a zero pivot, mostly on an eigenvalue; x then
    stands for the certificate to judge.

    Every value is then certified by Sturm counts at lambda_k -+ tol, with
    the tolerance of LAPACK's bisection, tol = max(ulp ||T||, pivmin,
    2 ulp |lambda_k|): at least k eigenvalues must lie above lambda_k - tol
    and at most k - 1 above lambda_k + tol.  Values that fail are found
    again by pivmin-guarded Sturm bisection of the Gershgorin interval to
    that tolerance, as LAPACK bisects.  Raises ``LinAlgError`` when
    bisection cannot converge (a non-finite matrix).
    """
    reps, n = d.shape
    top = np.full((reps, r), np.nan)
    if r == 0:
        return top
    D, C = _rows(d, e)
    rad = np.zeros_like(D)                        # Gershgorin: d_i -+ radius
    rad[1:] = np.sqrt(C)
    rad[:-1] += rad[1:]                           # |e_{i-1}| + |e_i|
    gl, gu = (D - rad).min(axis=0), (D + rad).max(axis=0)
    tnorm = np.maximum(np.abs(gl), np.abs(gu))
    pivmin = _SAFMIN * np.maximum(1.0, C.max(axis=0, initial=0.0))
    gl -= _FUDGE * (tnorm * _ULP * n + 2 * pivmin)
    gu += _FUDGE * (tnorm * _ULP * n + pivmin)
    atol = np.maximum(_ULP * tnorm, pivmin)

    # Draw c iterates for lambda_{k[c] + 1} below hi[c] and goes on to the
    # next eigenvalue as soon as one converges; live masks the unfinished.
    k, steps = np.zeros(reps, dtype=np.int64), np.zeros(reps, dtype=np.int64)
    x = hi = gu.copy()
    prev, live = x - gl, np.ones(reps, dtype=bool)
    while True:
        G, H = _laguerre_sums(D, C, x)
        if r > 1:                  # deflate by the lambda_j, j < k, found
            w = x[:, None] - top[:, :r - 1]
            np.divide(1.0, w, out=w)
            w[np.arange(r - 1) >= k[:, None]] = 0.0
            G -= w.sum(axis=1)
            w *= w
            H -= w.sum(axis=1)
        # step = deg / (G + sign(G) sqrt((deg - 1) (deg H - G^2))), with
        # deg = n - k the degree of det(T - x I) deflated
        deg = n - k
        H *= deg
        H -= G * G
        H *= deg - 1
        np.maximum(H, 0.0, out=H)
        np.sqrt(H, out=H)
        np.copysign(H, G, out=H)
        H += G
        step = np.divide(deg, H, out=H)
        step[~np.isfinite(step)] = 0.0          # x on a zero pivot
        xn = x - step
        tol = _tolerance(atol, xn)
        np.abs(step, out=step)
        converged = (step <= tol) | (
            step * (step / prev) ** 3 <= _PREDICTED * tol)
        steps += 1
        stray = ~((xn >= gl) & (xn <= hi)) | (
            ~converged & (steps >= _MAX_LAGUERRE))
        done = live & (stray | converged)
        xn[stray] = np.nan
        top[done, k[done]] = xn[done]
        # a draw that converged restarts just above the value it found
        k += done
        live &= k < r
        if not live.any():
            break
        start = done & live
        x = np.where(live, xn, x)
        x[start] += _RESTART * tnorm[start]
        hi = np.where(start, x, hi)
        prev = np.where(start, x - gl, np.where(live, step, prev))
        steps[start] = 0

    # one count over every (draw, k) at lambda_k + tol and lambda_k - tol
    lam = top.T                                   # (r, reps)
    tol = _tolerance(atol, lam)
    above = _count_above(D, C, np.concatenate([lam + tol, lam - tol]), pivmin)
    k = np.arange(1, r + 1)[:, None]
    good = (above[:r] <= k - 1) & (above[r:] >= k)
    if not good.all():
        k, draw = np.nonzero(~good)
        top[draw, k] = _bisect(D[:, draw], C[:, draw], pivmin[draw], k + 1,
                               gl[draw], gu[draw], atol[draw])
    return np.sort(top, axis=1)[:, ::-1]


# A weight is trusted when f_1(lambda) lies within this many ulp ||T|| g_1
# of 0 (``_tridiagonal_weights``).  On about 20,000 simulation draws of
# orders 3 to 1,600 the largest |f_1| seen was 0.73 of that unit.
_ROOT_SLACK = 64.0


# Zero pivots and the infinities they spread are caught by the guard.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _tridiagonal_weights(d: np.ndarray, e: np.ndarray,
                         lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared first coordinates z^2 (reps, r) of the unit eigenvectors of
    the tridiagonals of ``_tridiagonal_top`` at their eigenvalues lam
    (reps, r), and which of them to trust (reps, r).

    f_1(x), the top pivot of the bottom-up LDL' factorisation of T - x I,
    is 1 / [(T - x I)^-1]_11 = 1 / sum_j z_j^2 / (lambda_j - x), so at an
    eigenvalue z^2 = -1 / f_1'(x) (Golub 1973).  One sweep carries
    f_n = d_n - x, f_i = d_i - x - e_i^2 / f_{i+1} and g = -f', g_n = 1,
    g_i = 1 + (e_i^2 / f_{i+1}) g_{i+1} / f_{i+1} >= 1, so z^2 = 1 / g_1 lies
    in (0, 1].  A value is trusted when the sweep is finite and f_1(lam)
    vanishes to rounding, |f_1| <= ``_ROOT_SLACK`` ulp ||T|| g_1 with
    ||T|| <= max |d_i| + 2 max |e_i|: where an off-diagonal is zero and lam
    belongs to the block below it alone, f_1 is the upper block's, which does
    not vanish there, and 1 / g_1 is not z^2.
    """
    D, C = _rows(d, e)
    x = np.ascontiguousarray(lam.T)                       # (r, reps)
    f = D[-1] - x
    g = np.ones_like(f)
    t = np.empty_like(f)
    for Di, Ci in zip(D[-2::-1], C[::-1]):
        np.divide(Ci, f, out=t)             # t = e_i^2 / f_{i+1}
        g *= t
        g /= f
        g += 1.0
        np.subtract(Di, x, out=f)
        f -= t
    norm = np.abs(D).max(axis=0) + 2 * np.sqrt(C.max(axis=0, initial=0.0))
    ok = np.isfinite(g) & (np.abs(f) <= _ROOT_SLACK * _ULP * norm * g)
    return (1.0 / g).T, ok.T


def _rows(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, reps) rows D of the diagonals d (reps, n) and C of the
    squared off-diagonals e (reps, n - 1): row i of every draw one
    contiguous array."""
    D = np.ascontiguousarray(d.T, dtype=np.float64)
    C = np.array(e.T, dtype=np.float64, order="C")
    np.multiply(C, C, out=C)
    return D, C


def _tolerance(atol, x):
    """LAPACK's bisection width at x: max(atol, 2 ulp |x|)."""
    return np.maximum(atol, 2 * _ULP * np.abs(x))


def _laguerre_sums(D: np.ndarray, C: np.ndarray,
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = sum 1/(x - lambda) and H = sum 1/(x - lambda)^2 over each
    spectrum, for the tridiagonals of diagonal rows D (n, A) and squared
    off-diagonal rows C (n - 1, A) at x (A,).

    det(T - x I) is the product of the LDL' pivots q_i = d_i - x -
    c_{i-1} / q_{i-1}, so G = sum a_i and H = -sum u_i, where a_i = q_i'/q_i
    and u_i = q_i''/q_i - a_i^2 follow the pivots row by row.
    """
    q = D[0] - x
    a = np.divide(-1.0, q)
    a2 = a * a
    G, H, u = a.copy(), a2.copy(), -a2       # u = b - a^2
    t = np.empty_like(q)
    for Di, Ci in zip(D[1:], C):
        np.divide(Ci, q, out=t)              # t = c / q_{i-1}
        np.subtract(Di, t, out=q)
        q -= x
        u -= a2                              # b_i = t (b - 2 a^2) / q_i
        u *= t
        u /= q
        a *= t                               # a_i = (t a - 1) / q_i
        a -= 1.0
        a /= q
        G += a
        np.multiply(a, a, out=a2)
        u -= a2
        H -= u
    return G, H


def _count_above(D: np.ndarray, C: np.ndarray, x: np.ndarray,
                 pivmin: np.ndarray) -> np.ndarray:
    """Eigenvalues above each x (m, P) of the tridiagonals of diagonal rows
    D (n, P) and squared off-diagonal rows C (n - 1, P): a Sturm count of
    the LDL' pivots, each of magnitude under pivmin (P,) taken as -pivmin,
    as LAPACK's dlaebz counts."""
    q = np.empty(np.broadcast_shapes(x.shape, D.shape[1:]))
    t, tiny = np.empty_like(q), np.empty_like(q, dtype=bool)
    below = np.zeros(q.shape, dtype=np.int64)
    for i, Di in enumerate(D):
        if i:
            np.divide(C[i - 1], q, out=t)
            np.subtract(Di, t, out=q)
            q -= x
        else:
            np.subtract(Di, x, out=q)
        np.less(np.abs(q, out=t), pivmin, out=tiny)
        np.copyto(q, -pivmin, where=tiny)       # rare: a cheap sparse copy
        below += q <= 0
    return len(D) - below


def _bisect(D: np.ndarray, C: np.ndarray, pivmin: np.ndarray, k: np.ndarray,
            lo: np.ndarray, hi: np.ndarray, atol: np.ndarray) -> np.ndarray:
    """The k-th largest eigenvalue (P,) of each tridiagonal of
    ``_count_above``, bisected from [lo, hi] until the interval is narrower
    than ``_tolerance``; its midpoint."""
    for _ in range(256):
        live = ~(hi - lo < _tolerance(atol, np.maximum(np.abs(lo), np.abs(hi))))
        if not live.any():
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        up = _count_above(D, C, mid[None], pivmin)[0] >= k
        lo = np.where(live & up, mid, lo)
        hi = np.where(live & ~up, mid, hi)
    raise np.linalg.LinAlgError("Sturm bisection did not converge: "
                                "the tridiagonal is not finite")


def chi2_cdf(x, df: float):
    if df <= 0:
        raise ValueError("df must be positive")
    # chdtr is NaN below 0, where the CDF is 0; np.maximum keeps NaN as NaN
    return special.chdtr(df, np.maximum(x, 0.0))


def t_sf(x, df: float):
    """Student-t survival function 1 - F(x); used for two-sided p-values."""
    if np.any(np.asarray(df) <= 0):
        raise ValueError("df must be positive")
    return special.stdtr(df, -x)


@dataclass(frozen=True)
class KsResult:
    statistic: float   # sup-norm D
    p_value: float
    n_sample: int


def ks_test(sample, cdf: Callable) -> KsResult:
    """One-sample two-sided KS test with the asymptotic p-value.

    ``cdf`` must map sample values into [0, 1].
    """
    x = np.asarray(sample, dtype=np.float64)
    if x.size == 0:
        raise ValueError("sample is empty")
    if x.size < 10:
        raise ValueError("sample size must be >= 10")
    xs = np.sort(x)
    F = np.asarray(cdf(xs), dtype=np.float64)
    if np.any(F < -1e-12) or np.any(F > 1 + 1e-12):
        raise ValueError("cdf returned values outside [0, 1]")
    n = x.size
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - F)
    d_minus = np.max(F - (i - 1) / n)
    D = float(max(d_plus, d_minus))
    return KsResult(D, float(special.kolmogorov(np.sqrt(n) * D)), n)
