"""Monte-Carlo engine for the degrees-of-freedom simulation study.

The model is Y = sqrt(n) U D V' + sigma E with D and V fixed, U Haar-uniform
and E standard normal (n x m).  The df depends on D and sigma only through
mu = D^2 / sigma^2, the factor strength in units of sigma^2, so the engine
takes mu and draws Y / sigma: every quantity below is in units of sigma
(of sigma^2 for squares).  A replicate fits r_hat factors and measures the
observed df along a test direction s.  It needs only YY' and Ys, and
draws them in reduced form instead of the n x m matrix:

- W1 (m x k, k <= 2) is an orthonormal basis of span(v, s), fixed per
  config.  Then Ys = Y1 a with Y1 = Y W1 and a = W1's, and
  YY' = Y1 Y1' + W with W ~ Wishart_n(m - k) independent of Y1.
  Y1's law needs W1 only through V'W1 and a, which depend on v and s only
  through the squared projection (v's)^2 / s's, so the plan holds W1 in
  coordinates of span(v, s) (``sampling_plan``), at O(1) cost in m.
- U is Haar and independent of the noise, whose law is invariant under
  rotations of the rows, so the RSS has the same law with U fixed to the
  first r coordinate vectors; no rotation is drawn.
- An orthogonal H with H Y1 = [R; 0] (R from the QR of Y1, min(n, k) rows)
  leaves H W H' ~ Wishart_n(m - k), independent of Y1.  Householder
  reflections that fix e_1 ... e_k reduce it to B B' (Dumitriu & Edelman
  2002, generalised from k = 1): B is lower banded with independent entries,
  chi_{m-k-j} at B[j, j], chi_{n-k-j} at B[j+k, j], N(0, 1) between them,
  and nothing outside the n x (m - k) matrix.
- So YY' is similar to M = B B' + [R R' 0; 0 0], a band matrix of
  bandwidth k and order p = min(n, m) (B's rows past m are zero), under a
  rotation that fixes the first k coordinates, where Ys is [R a; 0].  The
  RSS is ||R a||^2 minus the squares of the top eigenvectors' first k
  coordinates against R a.

A replicate draws about 2p chi's and (k - 1) p normals for B, and Y1
(n k normals; without signal, R = ||Y1|| is one more chi): ``run_replicate``
is that draw.  Replicate i draws from the counter-based stream keyed by
(seed, ``DOMAIN_SIM``, i), which ``run_replicate`` sets its thread's one
Philox generator to instead of building a new one, with the same bits.
Replicates are drawn one after another in the calling thread and solved a
chunk at a time (``solve``).  With k = 1, M is tridiagonal and the chunk is
solved in one numpy pass, O(p r_hat) a replicate: each top eigenvalue by
the Sturm-certified Laguerre iteration of ``distributions._tridiagonal_top``
and its eigenvector's first coordinate z by one bottom-up pivot sweep,
z^2 = -1 / f_1'(lambda) (Golub 1973), with no LAPACK call.  A replicate whose
sweep its check does not trust, and every replicate with k >= 2, goes to
LAPACK ``dsbevx`` (``linalg.top_band_eigenpairs``, O(p^2 k)).  A replicate's
result does not depend on the rest of its chunk, so results are
byte-identical on every run.
The BLAS thread count is not pinned: the output bytes were checked equal at
1 and 2 OpenBLAS threads up to order p = 1600 and bandwidth k = 2, on 2
cores, where OpenBLAS caps its count, so higher counts are untried.  The
dense n x m pipeline this replaces is kept as a test oracle.
"""

import json
import threading
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .distributions import (DOMAIN_SIM, KsResult, _rekey, _tridiagonal_top,
                            _tridiagonal_weights, chi2_cdf, ks_test, stream)
from .dof import df_noise, df_signal_total, is_above_transition
from .linalg import RANK_TOL, CodedError, _checked, top_band_eigenpairs


class SignalShape(str, Enum):
    ONES = "ones"
    BASIS = "basis"
    PERP_BASIS = "perp-basis"


# Largest n mu a cell takes.  The RSS is a difference of terms of size n mu,
# so its rounding grows with n mu until, near 1 / ulp(1) = 4.5e15, it shows
# in mean_df; 1e12 stays well short of that.
MAX_N_MU = 1e12


@dataclass(frozen=True)
class SimConfig:
    n: int
    m: int
    r: int
    mu: tuple = ()
    shape: SignalShape = SignalShape.BASIS
    r_hat: int = 1
    replicates: int = 10000
    seed: int = 0

    def __post_init__(self):
        # SignalShape("x") raises ValueError on an unknown shape
        object.__setattr__(self, "shape", SignalShape(self.shape))
        if self.n < 1 or self.m < 1:
            raise CodedError("SIZE_RANGE", f"n and m must be >= 1, got "
                                           f"n={self.n}, m={self.m}")
        if self.r < 0 or len(self.mu) != self.r:
            raise ValueError("mu must have length r")
        mu = " ".join(f"{v:g}" for v in self.mu)
        if self.r > 1:
            raise CodedError("MU_RANGE", f"shape {self.shape.value} defines "
                             f"one loading vector, got mu {mu}")
        if not all(v > 0 for v in self.mu):     # NaN too
            raise CodedError("MU_RANGE", f"mu must be positive, got {mu}")
        if not np.isfinite(self.mu).all():
            raise CodedError("MU_RANGE", f"mu must be finite, got {mu}")
        if any(v > MAX_N_MU / self.n for v in self.mu):
            raise CodedError("MU_RANGE", f"n mu must be <= {MAX_N_MU:g}, "
                             f"got n={self.n}, mu {mu}")
        if not 0 <= self.r_hat <= min(self.n, self.m):
            raise CodedError("R_HAT_RANGE", f"r_hat must be in [0, "
                             f"{min(self.n, self.m)}], got {self.r_hat}")
        if self.r and self.m < 2 and self.shape is SignalShape.PERP_BASIS:
            # a loading orthogonal to s = e_1 needs a second coordinate
            raise CodedError("SIZE_RANGE", f"shape {self.shape.value} needs "
                                           f"m >= 2, got m={self.m}")


def projection(shape: SignalShape, m: int) -> float:
    """(v's)^2 / s's for the unit loading v that ``shape`` names and the test
    direction s = e_1 in R^m: basis's v = e_1, ones' v = (1, ..., 1) /
    sqrt(m) and perp-basis' v = e_2.  A cell depends on v only through this
    projection."""
    if shape is SignalShape.BASIS:
        return 1.0
    if shape is SignalShape.ONES:
        return (1.0 / np.sqrt(m)) ** 2
    return 0.0


@dataclass(frozen=True)
class SamplingPlan:
    """What every replicate of one config shares.

    Replicates draw in units of sigma (mu is in units of sigma^2): Y1 =
    Y W1 is n x k, and ``signal`` is its mean, carried by its first r rows.
    W1 is held in coordinates of span(v, s) (see ``sampling_plan``).
    """

    n: int
    signal: np.ndarray      # sqrt(n mu) V'W1, (r, k)
    direction: np.ndarray   # a = W1's, (k,)
    loading: np.ndarray     # W1'v, (k,); empty when r = 0
    dim: int                # p = min(n, m): M is p x p
    columns: int            # B's nonzero columns, min(n, m - k)
    chi_dof: np.ndarray     # dofs of the chi entries: R's when r = 0,
                            # B's diagonal's, B's k-th subdiagonal's
    chi_at: np.ndarray      # their flat places in F's band storage
    r_hat: int


def sampling_plan(config: SimConfig) -> SamplingPlan:
    """Basis of span(v, s) and the shapes, scalings and band places
    replicates share.

    In coordinates of span(v, s), v is e_1 and s is (sqrt(p), sqrt(1 - p))
    with p = ``projection``, cut to min(m, 2) rows; without signal s alone
    is e_1.  W1 is [v s]'s left singular vectors above the rank cut.
    """
    n, m, r = config.n, config.m, config.r
    if r == 0:
        C = np.ones((1, 1))
    else:
        p = projection(config.shape, m)
        C = np.array([[1.0, np.sqrt(p)], [0.0, np.sqrt(1.0 - p)]])[:min(m, 2)]
    left, sv, _ = np.linalg.svd(C, full_matrices=False)
    k = int(np.sum(sv > RANK_TOL * sv[0]))
    W1 = left[:, :k]
    mu = np.asarray(config.mu, dtype=np.float64)
    V_rows = C[:, :r].T @ W1
    # B's column c is F's column k + c: its diagonal chi_{m-k-c} lands at
    # F[k, k + c], its subdiagonal chi_{n-k-c} at F[0, k + c].  Without
    # signal (r = 0, so k = 1) Y1 is noise alone and R = ||Y1|| ~ chi_n,
    # drawn with them at F[0, 0].  F[t, j] is F's flat place t width + j.
    width = min(n, m) + k
    diag = np.arange(min(n, m - k))
    below = diag[:max(0, n - k)]
    rho = [n] if r == 0 else []
    return SamplingPlan(
        n=n, signal=np.sqrt(n * mu)[:, None] * V_rows,
        direction=W1.T @ C[:, r], loading=V_rows[0] if r > 0 else np.zeros(0),
        dim=min(n, m), columns=len(diag),
        chi_dof=np.concatenate([rho, m - k - diag,
                                n - k - below]).astype(np.float64),
        chi_at=np.concatenate([[0] * len(rho), k * width + k + diag,
                               k + below]).astype(np.intp),
        r_hat=config.r_hat)


def draw(plan: SamplingPlan, rng: np.random.Generator):
    """(R, F): R from the QR of Y1, (min(n, k), k), and the factor
    F = [R B] of M = F F' in upper band storage, F[t, j] = F_{j-t, j},
    (k + 1, p + k), zero past F's columns.

    Draws B's chi-squares (R's first when r = 0; then B's diagonal, then its
    k-th subdiagonal), then Y1's normals when r > 0, then the normals
    between B's two chi diagonals.  Entries of B below M's last row are
    drawn but never read.
    """
    n, k = plan.n, len(plan.direction)
    F = np.zeros((k + 1, plan.dim + k))
    chi = rng.chisquare(plan.chi_dof)
    F.put(plan.chi_at, np.sqrt(chi, out=chi))
    r = len(plan.signal)
    if r == 0:
        R = F[:1, :1]
    else:
        Y1 = rng.standard_normal((n, k))
        Y1[:r] += plan.signal
        if k == 1:
            R = np.sqrt(Y1.T.dot(Y1))
            F[0, 0] = R[0, 0]
        else:
            R = np.linalg.qr(Y1, mode="r")
            for t in range(k):      # R's t-th superdiagonal
                d = R.diagonal(t)
                F[t, t:t + len(d)] = d
    if k > 1:
        c = plan.columns
        F[1:k, k:k + c] = rng.standard_normal((k - 1, c))
    return R, F


def band(F: np.ndarray, p: int) -> np.ndarray:
    """Lower band ab[..., t, i] = M[i + t, i] of M = F F', (..., k + 1, p),
    from F in ``draw``'s band storage or a stack of them (..., k + 1, p + k):
    M[i + t, i] = sum over s = t..k of F[s, i + s] F[s - t, i + s]."""
    k = F.shape[-2] - 1
    ab = F[..., k:k + 1, k:k + p] * F[..., ::-1, k:k + p]
    for s in range(k):
        ab[..., :s + 1, :] += F[..., s:s + 1, s:s + p] * F[..., s::-1, s:s + p]
    return ab


def solve(plan: SamplingPlan, draws: list) -> tuple[np.ndarray, np.ndarray]:
    """Top ``plan.r_hat`` (>= 1) eigenpairs of each draw's M: eigenvalues
    lam (reps, r_hat), descending, and weights (reps, len(R), r_hat), the
    first len(R) coordinates of their unit eigenvectors, whose signs are
    arbitrary.  ``draws`` is a list of ``draw`` results (R, F).

    With k = 1, M is tridiagonal and every draw is solved in one numpy
    pass: ``_tridiagonal_top`` finds the eigenvalues, each certified by a
    Sturm count, and ``_tridiagonal_weights`` the eigenvectors' squared
    first coordinates z^2, so the weights are |z|.  A draw whose sweep the
    guard does not trust, and every draw with k >= 2, is solved by
    ``top_band_eigenpairs``.  Raises ``FACTOR_RANK`` as that does.
    """
    r, p = plan.r_hat, plan.dim
    ab = band(np.array([F for _, F in draws]), p)
    rows = len(draws[0][0])
    if ab.shape[1] == 2:
        d, e = ab[:, 0], ab[:, 1, :p - 1]
        lam = _tridiagonal_top(d, e, r)
        z_sq, trusted = _tridiagonal_weights(d, e, lam)
        weights = np.sqrt(z_sq)[:, None, :]
        redo = np.flatnonzero(~trusted.all(axis=1))
    else:
        lam = np.empty((len(draws), r))
        weights = np.empty((len(draws), rows, r))
        redo = range(len(draws))
    for i in redo:
        lam[i], vecs = top_band_eigenpairs(ab[i], r)
        weights[i] = vecs[:rows]
    return _checked(lam, weights, r)


class _Generators(threading.local):
    """One Philox generator per thread, re-keyed by every replicate it draws:
    re-keying one takes about a quarter of the time building one does."""

    def __init__(self):
        self.rng = stream(0, DOMAIN_SIM)


_generators = _Generators()


def run_replicate(config: SimConfig, index: int,
                  plan: SamplingPlan | None = None) -> tuple:
    """Replicate ``index``'s draw (R, F) (see ``draw``) from its own stream,
    ``stream(config.seed, DOMAIN_SIM, index)``.

    Runs call it once per replicate, through this module's global, and
    solve the draws a chunk at a time; ``solve(plan, [run_replicate(config,
    index)])`` solves one alone.  ``plan`` is ``sampling_plan(config)``,
    passed in to skip recomputing it.  The draw comes from the calling
    thread's one generator, re-keyed to that stream (the same bits as a new
    one), which no caller sees.
    """
    if not 0 <= index < config.replicates:
        raise ValueError("replicate index out of range")
    if plan is None:
        plan = sampling_plan(config)
    return draw(plan, _rekey(_generators.rng, config.seed, DOMAIN_SIM, index))


@dataclass(frozen=True)
class SimResult:
    mean_df: float
    se_df: float
    theoretical_df: float
    ks: KsResult | None
    replicates_used: int
    alt_theoretical_df: float | None = None
    bracketed: str | None = None     # which candidate lies within 3 SE
    conjectural: bool = False


def theoretical_df(config: SimConfig) -> tuple[float, float | None, bool]:
    """(primary prediction, alternative perp-case candidate or None, conjectural).

    With r_hat = min(n, m) the fit absorbs every direction, so the RSS is 0
    and the df is n exactly.
    """
    if config.r_hat == min(config.n, config.m):
        return float(config.n), None, False
    if config.r == 0:
        return df_noise(config.n, config.m, config.r_hat).total, None, False
    proj = np.array([projection(config.shape, config.m)])
    if config.r_hat == 0:   # unmodeled signal along s inflates the RSS
        extra = -config.n * float(np.asarray(config.mu) @ proj)
        return df_noise(config.n, config.m, 0).total + extra, None, False
    # mu is in units of sigma^2: the formulas at sigma^2 = 1
    est = df_signal_total(config.n, config.m, config.mu, 1.0, proj,
                          config.r_hat)
    alt = None
    if config.r == 1 and proj[0] < 1e-12 and \
            is_above_transition(config.mu[0], config.n, config.m):
        # competing published value for the orthogonal case
        alt = 1.0 + (1.0 / config.mu[0]) ** 2
        alt += est.total - est.per_factor[0]
    return est.total, alt, est.conjectural


# Fewest replicates a run averages, for a standard error and KS p-value.
MIN_REPLICATES = 100
# Band entries, (k + 1) p per replicate, that one chunk of replicates holds
# and solves together: 2 MB of float64, which holds every replicate of a
# 2,000-replicate cell at order p = 65 and bounds memory at any count.
CHUNK_ENTRIES = 1 << 18


def _run_replicates(config: SimConfig, plan: SamplingPlan,
                    measure) -> list[tuple]:
    """(values, mean, standard error) of each output of ``measure(plan,
    draws)`` over every replicate of ``config``.  The replicates are drawn
    one after another in the calling thread by ``run_replicate`` and
    measured a chunk of ``CHUNK_ENTRIES`` band entries at a time."""
    if config.replicates < MIN_REPLICATES:
        raise CodedError("REPLICATES_RANGE", f"replicates must be >= "
                         f"{MIN_REPLICATES}, got {config.replicates}")
    size = max(1, CHUNK_ENTRIES // ((len(plan.direction) + 1) * plan.dim))
    parts = [measure(plan, [run_replicate(config, i, plan) for i in
                            range(start, min(start + size, config.replicates))])
             for start in range(0, config.replicates, size)]
    root = np.sqrt(config.replicates)
    return [(v, float(v.mean()), float(v.std(ddof=1) / root))
            for v in map(np.concatenate, zip(*parts))]


def _rss_and_df(plan: SamplingPlan, draws: list) -> tuple:
    """Each draw's RSS / sigma^2, where the RSS is s' E_hat' E_hat s for the
    rank-r_hat truncation, ||Ys||^2 - ||left' Ys||^2, and its
    df_obs = n - RSS / sigma^2 (s's = 1).

    In M's coordinates Ys is [R a; 0], so left' Ys is the top eigenvectors'
    first rows against R a.  With r_hat = p the fit spans all
    of M's coordinates and the RSS is 0.
    """
    if plan.r_hat == plan.dim:
        rss = np.zeros(len(draws))
    else:
        Ra = np.array([R for R, _ in draws]).dot(plan.direction)
        rss = (Ra * Ra).sum(axis=1)
        if plan.r_hat > 0:
            coef = (Ra[:, :, None] * solve(plan, draws)[1]).sum(axis=1)
            rss -= (coef * coef).sum(axis=1)
    return rss, plan.n - rss


def run_sim(config: SimConfig, threads: int = 1) -> SimResult:
    """Aggregate the replicates and compare against the theoretical df.

    The chi-squared goodness-of-fit test compares RSS / sigma^2 with
    the chi2 distribution on n - df_theory degrees of freedom.

    ``threads`` is not used: replicates run in the calling thread.  A
    replicate is mostly interpreter work under the GIL plus a band solve that
    gains little from a second thread: timed on 2 cores, two threads ran at
    0.45-0.74 times the speed of one at orders min(n, m) = 30-150.
    """
    plan = sampling_plan(config)
    (rss, _, _), (_, mean_df, se_df) = _run_replicates(config, plan,
                                                       _rss_and_df)
    theory, alt, conj = theoretical_df(config)

    chi2_df = config.n - theory
    ks = None
    if chi2_df > 0:
        ks = ks_test(rss, lambda q: chi2_cdf(q, chi2_df))

    bracketed = None
    if alt is not None:
        hit_primary = abs(mean_df - theory) <= 3 * se_df
        hit_alt = abs(mean_df - alt) <= 3 * se_df
        bracketed = {(True, True): "both", (True, False): "primary",
                     (False, True): "alternative", (False, False): "neither"}[
                         (hit_primary, hit_alt)]
    return SimResult(mean_df, se_df, theory, ks, config.replicates,
                     alt, bracketed, conj)


@dataclass(frozen=True)
class GridCell:
    config: SimConfig
    result: SimResult


def run_grid(configs: list[SimConfig], threads: int = 1) -> list[GridCell]:
    """Run every config and pair each with its result."""
    if not configs:
        raise ValueError("no configurations given")
    return [GridCell(cfg, run_sim(cfg, threads=threads)) for cfg in configs]


# Columns of a simulate row in CSV; JSON adds the replicate count.
CSV_COLUMNS = ("n", "m", "mu", "shape", "mean_df", "se_df", "theoretical_df",
               "ks_D", "ks_p", "conjectural", "alt_theoretical_df", "bracketed")


def cell_record(cell: GridCell) -> dict:
    """The one row builder behind every simulate output."""
    cfg, r = cell.config, cell.result
    # a noise cell has no loading, so no strength and no loading shape
    mu, shape = (cfg.mu[0], cfg.shape.value) if cfg.r else (None, None)
    return {
        "n": cfg.n, "m": cfg.m, "mu": mu, "shape": shape,
        "mean_df": r.mean_df, "se_df": r.se_df,
        "theoretical_df": r.theoretical_df,
        "alt_theoretical_df": r.alt_theoretical_df,
        "bracketed": r.bracketed, "conjectural": r.conjectural,
        "ks_D": r.ks.statistic if r.ks else None,
        "ks_p": r.ks.p_value if r.ks else None,
        "replicates": r.replicates_used,
    }


def cell_columns(cells: list[GridCell]) -> list[list]:
    """One list per CSV_COLUMNS entry: the cells' values."""
    records = [cell_record(c) for c in cells]
    return [[rec[k] for rec in records] for k in CSV_COLUMNS]


def grid_to_json(cells: list[GridCell]) -> str:
    return json.dumps([cell_record(c) for c in cells], indent=2) + "\n"


@dataclass(frozen=True)
class SpikeResult:
    """Monte-Carlo means of the top eigenvalue and loading overlap."""

    mean_mu1: float
    se_mu1: float
    mean_overlap_sq: float
    se_overlap_sq: float


def _spike(plan: SamplingPlan, draws: list) -> tuple:
    """Each draw's (mu_hat_1, (vhat_1' v_1)^2), mu_hat_1 = lambda_1 / n in
    units of sigma^2.

    vhat_1' v_1 = left_1' Y v_1 / sing_1, and Y v_1 = Y1 (W1'v_1) is
    [R W1'v_1; 0] in M's coordinates.
    """
    lam, weights = solve(plan, draws)
    Rv = np.array([R for R, _ in draws]).dot(plan.loading)
    overlap = (Rv * weights[:, :, 0]).sum(axis=1)
    return lam[:, 0] / plan.n, overlap ** 2 / lam[:, 0]


def run_spike_sim(config: SimConfig) -> SpikeResult:
    """Means over the replicates of a one-factor model, drawn in the calling
    thread as in ``run_sim``: mu_hat_1, the top eigenvalue of YY' / n, is in
    units of sigma^2 like ``config.mu``."""
    if config.r != 1:
        raise ValueError("spike diagnostics require exactly one true factor")
    plan = replace(sampling_plan(config), r_hat=1)
    (_, mu1, se_mu1), (_, ovl, se_ovl) = _run_replicates(config, plan, _spike)
    return SpikeResult(mu1, se_mu1, ovl, se_ovl)
