"""Statistical primitives: seeded sampling, the Wishart spectrum sampler,
chi-squared / Student-t helpers, and the one-sample Kolmogorov-Smirnov test.

White Wishart matrices are drawn in reduced form, after Dumitriu & Edelman
(2002): ``wishart_top_eigenvalues`` draws the top of the spectrum from the
bidiagonal (Laguerre) model in O(dim) draws, and the simulations draw their
Wishart part as the lower-banded factor that generalises it
(``simulation.draw``), whose band matrix ``linalg.top_band_eigenpairs``
solves.

Random streams are counter-based (Philox keyed by ``(seed, stream)``), so a
draw is a pure function of its seed, its domain tag, and its index --
parallel consumers get bit-identical results regardless of scheduling.
``map_indexed`` is the thread fan-out those consumers share, and
``one_blas_thread`` keeps numpy's OpenBLAS from changing their bits;
``linalg``'s top-r solvers and ``wishart_top_eigenvalues`` find that
library's eigensolvers through the same loader.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

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


def worker_count(threads: int, tasks: int) -> int:
    """Threads worth starting: no more than requested, than the cores this
    process may run on, or than there are tasks; at least one."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(threads, cores, tasks))


# Pool tasks per worker: each task runs a contiguous chunk of indices, so
# the pool is entered a few times per worker instead of once per index.
CHUNKS_PER_WORKER = 4


def map_indexed(func, count: int, threads: int) -> list:
    """``[func(0), ..., func(count - 1)]``, on up to ``threads`` threads.

    Each pool task calls ``func`` on a contiguous chunk of indices in index
    order.  Results are returned in index order, so the output does not
    depend on the number of threads when ``func(i)`` draws only from streams
    keyed by ``i``.
    """
    workers = worker_count(threads, count)
    if workers == 1:
        return [func(i) for i in range(count)]
    chunks = min(count, CHUNKS_PER_WORKER * workers)
    bounds = [count * c // chunks for c in range(chunks + 1)]

    def run_chunk(c):
        return [func(i) for i in range(bounds[c], bounds[c + 1])]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [x for part in pool.map(run_chunk, range(chunks)) for x in part]


class OpenBlas(NamedTuple):
    """Entry points of numpy's bundled OpenBLAS (ILP64, ``64_`` suffix)."""

    get: Callable               # () -> BLAS thread count
    put: Callable               # (count) -> None
    dsyevr: Callable | None     # LAPACKE_dsyevr, where the build exports it
    dstebz: Callable | None     # LAPACKE_dstebz, likewise
    dsbevx: Callable | None     # LAPACKE_dsbevx, likewise


@lru_cache(maxsize=1)
def _openblas():
    """The OpenBLAS that numpy wheels bundle in ``numpy.libs``, as an
    ``OpenBlas``, or None when there is no such library.  Resolved on first
    use, not at import."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)   # the copy numpy loaded: same handle
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        evr = getattr(lib, "scipy_LAPACKE_dsyevr64_", None)
        if evr is not None:
            # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol,
            # m, w, z, ldz, isuppz
            evr.restype = i64
            evr.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                            ctypes.c_char, i64, ptr, i64, f64, f64, i64, i64,
                            f64, ptr, ptr, ptr, i64, ptr]
        ebz = getattr(lib, "scipy_LAPACKE_dstebz64_", None)
        if ebz is not None:
            # range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w,
            # iblock, isplit
            ebz.restype = i64
            ebz.argtypes = [ctypes.c_char, ctypes.c_char, i64, f64, f64, i64,
                            i64, f64, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
        sbx = getattr(lib, "scipy_LAPACKE_dsbevx64_", None)
        if sbx is not None:
            # layout, jobz, range, uplo, n, kd, ab, ldab, q, ldq, vl, vu, il,
            # iu, abstol, m, w, z, ldz, ifail
            sbx.restype = i64
            sbx.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                            ctypes.c_char, i64, i64, ptr, i64, ptr, i64, f64,
                            f64, i64, i64, f64, ptr, ptr, ptr, i64, ptr]
        return OpenBlas(get, put, evr, ebz, sbx)
    return None


# The BLAS thread count is process-wide, so the pin's bookkeeping is too.
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = None


@contextmanager
def one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block, then restore the
    count found on entry.

    A multithreaded BLAS splits its sums differently at different thread
    counts, which changes the low bits of a Monte-Carlo result; and BLAS
    threads compete with the pool's own.  Nested and concurrent blocks share
    one pin, restored when the last one exits.  Without a bundled OpenBLAS
    the block runs unpinned.
    """
    global _blas_depth, _blas_saved
    handle = _openblas()
    if handle is None:
        yield
        return
    get, put = handle.get, handle.put
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                put(_blas_saved)


def wishart_top_eigenvalues(rng: np.random.Generator, dim: int, dof: int,
                            reps: int, r: int) -> np.ndarray:
    """Top r eigenvalues, descending, shape (reps, r), of ``reps`` draws of
    W ~ Wishart_dim(dof, I) with dof >= dim.

    W's spectrum has the law of that of T = B B' (Dumitriu & Edelman 2002,
    beta = 1), with B lower bidiagonal: sqrt(chi2_{dof - i}) on the diagonal
    and sqrt(chi2_{dim - 1 - i}) below it.  T is tridiagonal, so a draw costs
    2 dim - 1 chi-squares and a tridiagonal eigensolve instead of dim^2
    normals and a dense one.  The diagonal's chi-squares are drawn first,
    then the subdiagonal's, each as one (reps, .) array.
    """
    if not (0 <= r <= dim <= dof and reps >= 1):
        raise ValueError(f"need 0 <= r <= dim <= dof and reps >= 1, got "
                         f"r={r}, dim={dim}, dof={dof}, reps={reps}")
    i = np.arange(dim)
    diag_sq = rng.chisquare(dof - i, size=(reps, dim))            # B_ii^2
    sub_sq = rng.chisquare(dim - 1 - i[:-1], size=(reps, dim - 1))  # B_i+1,i^2
    d = diag_sq.copy()
    d[:, 1:] += sub_sq                      # T_ii = B_ii^2 + B_i,i-1^2
    e = np.sqrt(diag_sq[:, :-1] * sub_sq)   # T_i+1,i = B_ii B_i+1,i
    return _tridiagonal_top(d, e, r)


def _tridiagonal_top(d: np.ndarray, e: np.ndarray, r: int) -> np.ndarray:
    """Top r eigenvalues, descending, shape (reps, r), of the symmetric
    tridiagonal matrices with diagonals d (reps, n) and off-diagonals
    e (reps, n - 1).

    Each is solved by LAPACKE ``dstebz`` (bisection, range ``I``, eigenvalues
    n - r + 1 ... n only) in numpy's bundled OpenBLAS; without it, by a
    stacked ``np.linalg.eigvalsh`` of the dense matrices.  Raises
    ``LinAlgError`` when the solver fails.
    """
    reps, n = d.shape
    if r == 0:
        return np.zeros((reps, 0))
    blas = _openblas()
    if blas is None or blas.dstebz is None:
        T = np.zeros((reps, n, n))
        i = np.arange(n)
        T[:, i, i] = d
        T[:, i[1:], i[:-1]] = e     # eigvalsh reads the lower triangle
        return np.linalg.eigvalsh(T)[:, ::-1][:, :r]
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.ascontiguousarray(e, dtype=np.float64)
    # Draw k's r eigenvalues land, ascending, at w[k r:]; dstebz may use up
    # to n slots of w, and the slots past its r are the next draw's.
    w = np.empty(reps * r + n)
    ints = np.empty(2 + 2 * n, dtype=np.int64)   # m, nsplit, iblock, isplit
    dp, ep, wp, ip = d.ctypes.data, e.ctypes.data, w.ctypes.data, ints.ctypes.data
    solve = blas.dstebz
    for k in range(reps):
        info = solve(b"I", b"E", n, 0.0, 0.0, n - r + 1, n, 0.0,
                     dp + 8 * n * k, ep + 8 * (n - 1) * k, ip, ip + 8,
                     wp + 8 * r * k, ip + 16, ip + 16 + 8 * n)
        if info != 0 or ints[0] != r:
            raise np.linalg.LinAlgError(
                f"dstebz failed with info={info}, found {ints[0]} of {r}")
    return w[:reps * r].reshape(reps, r)[:, ::-1]


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


def kolmogorov_sf(y: float, terms: int = 25) -> float:
    """Asymptotic Kolmogorov tail P(sup|B| > y) = 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2)."""
    if y <= 0:
        return 1.0
    k = np.arange(1, terms + 1)
    total = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * y) ** 2))
    return float(min(max(total, 0.0), 1.0))


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
    return KsResult(D, kolmogorov_sf(np.sqrt(n) * D), n)
