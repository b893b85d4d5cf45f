"""Monte-Carlo engine for the degrees-of-freedom simulation study.

The model is Y = sqrt(n) U D V' + sigma E with D and V fixed, U Haar-uniform
and E standard normal (n x m).  A replicate fits r_hat factors and measures
the observed df along a test direction s.  It needs only the Gram matrix of
Y's smaller side and Ys, and draws exactly those from their joint law
instead of the n x m matrix:

- W1 (m x k, k <= r + 1) is an orthonormal basis of span(V, s), fixed per
  config.  Then Ys = Y1 (W1's) with Y1 = Y W1, and YY' = Y1 Y1' + sigma^2 W
  with W ~ Wishart_n(m - k) independent of Y1.
- When n > m the m x m dual is smaller: Y'Y = R1'R1 + sigma^2 W with
  R1 = sqrt(n) D V' + sigma Z1 (r x m) and W ~ Wishart_m(n - r).
- U is Haar and independent of the noise, whose law is invariant under
  rotations of the rows, so the RSS has the same law with U fixed to the
  first r coordinate vectors; no rotation is drawn.

``distributions.wishart_factor`` draws W (``dof.df_mandel`` needs only
W's spectrum and draws it from ``wishart_top_eigenvalues``).  Replicates draw from counter-based streams keyed by (seed,
replicate index), and BLAS runs on one thread during a simulation, so
results are byte-identical at any thread count.  The dense n x m pipeline
this replaces is kept as a test oracle.
"""

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .distributions import (DOMAIN_SIM, KsResult, chi2_cdf, ks_test,
                            map_indexed, one_blas_thread, stream,
                            wishart_factor)
from .dof import df_noise, df_signal_total, is_above_transition
from .linalg import RANK_TOL, top_eigenpairs


class SignalShape(str, Enum):
    ONES = "ones"
    BASIS = "basis"
    PERP_ONES = "perp-ones"
    PERP_BASIS = "perp-basis"
    CUSTOM = "custom"


@dataclass(frozen=True)
class SimConfig:
    n: int
    m: int
    r: int
    mu: tuple = ()
    shape: SignalShape = SignalShape.BASIS
    sigma_sq: float = 1.0
    r_hat: int = 1
    replicates: int = 10000
    seed: int = 0
    custom_loadings: np.ndarray | None = field(default=None, compare=False)
    test_direction: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if self.r < 0 or len(self.mu) != self.r:
            raise ValueError("mu must have length r")
        if self.r > 1 and any(np.diff(self.mu) >= 0):
            raise ValueError("mu must be strictly decreasing")
        if any(v <= 0 for v in self.mu):
            raise ValueError("mu must be positive")
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be positive")
        if not 0 <= self.r_hat <= min(self.n, self.m):
            raise ValueError("r_hat out of range")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.shape is SignalShape.CUSTOM and self.r > 0 \
                and self.custom_loadings is None:
            raise ValueError("custom shape requires custom_loadings")


def loading_matrix(config: SimConfig) -> np.ndarray:
    """Fixed loading vectors V as an (m, r) matrix."""
    m, r = config.m, config.r
    if r == 0:
        return np.zeros((m, 0))
    if config.shape is SignalShape.CUSTOM:
        V = np.asarray(config.custom_loadings, dtype=np.float64)
        if V.shape != (m, r):
            raise ValueError(f"custom_loadings must have shape ({m}, {r})")
        return V
    if r != 1:
        raise ValueError("built-in shapes define a single loading vector")
    v = np.zeros(m)
    if config.shape is SignalShape.ONES:
        v[:] = 1.0 / np.sqrt(m)
    elif config.shape is SignalShape.BASIS:
        v[0] = 1.0
    elif config.shape is SignalShape.PERP_ONES:
        v[1:] = 1.0 / np.sqrt(m - 1)
    elif config.shape is SignalShape.PERP_BASIS:
        v[1] = 1.0
    return v[:, None]


def direction_vector(config: SimConfig) -> np.ndarray:
    if config.test_direction is not None:
        s = np.asarray(config.test_direction, dtype=np.float64)
        if s.shape != (config.m,):
            raise ValueError("test_direction has wrong length")
        return s
    s = np.zeros(config.m)
    s[0] = 1.0
    return s


@dataclass(frozen=True)
class SamplingPlan:
    """What every replicate of one config shares.

    ``first`` below is Y1 = Y W1 (n x k) in the primal, R1 (r x m) in the
    dual; ``signal`` is its mean, carried by its first r rows.
    """

    dual: bool              # n > m: work on the m x m Gram Y'Y
    basis: np.ndarray       # W1, (m, k)
    signal: np.ndarray      # sqrt(n) D V'W1 (r, k), or sqrt(n) D V' (r, m)
    direction: np.ndarray   # W1's (k,), or s (m,)
    loading: np.ndarray     # W1'v_1 (k,), or v_1 (m,); empty when r = 0
    noise_shape: tuple      # shape of first
    dim: int                # W ~ Wishart_dim(dof)
    dof: int
    sigma_sq: float
    s_sq: float             # s's
    r_hat: int


def sampling_plan(config: SimConfig) -> SamplingPlan:
    """Basis of span(V, s) and the shapes and scalings replicates share."""
    n, m, r = config.n, config.m, config.r
    if r > n:
        raise ValueError("r must not exceed n")
    V = loading_matrix(config)
    s = direction_vector(config)
    if not float(s @ s) > 0:
        raise ValueError("test direction must be nonzero")
    # numerical rank of [V s]: custom loadings may be collinear with s
    left, sv, _ = np.linalg.svd(np.column_stack([V, s]), full_matrices=False)
    k = int(np.sum(sv > RANK_TOL * sv[0]))
    W1 = left[:, :k]
    scale = np.sqrt(n * np.asarray(config.mu, dtype=np.float64))[:, None]
    dual = n > m
    V_rows = V.T if dual else V.T @ W1
    return SamplingPlan(
        dual=dual, basis=W1, signal=scale * V_rows,
        direction=s if dual else W1.T @ s,
        loading=V_rows[0] if r > 0 else np.zeros(0),
        noise_shape=(r, m) if dual else (n, k),
        dim=m if dual else n, dof=n - r if dual else m - k,
        sigma_sq=float(config.sigma_sq), s_sq=float(s @ s),
        r_hat=config.r_hat)


def draw(plan: SamplingPlan, rng: np.random.Generator):
    """(first, W): Y1 or R1, and the Wishart part of the Gram matrix."""
    first = np.sqrt(plan.sigma_sq) * rng.standard_normal(plan.noise_shape)
    first[:len(plan.signal)] += plan.signal
    A = wishart_factor(rng, plan.dim, plan.dof, 1)[0]
    return first, A @ A.T


def gram(plan: SamplingPlan, first: np.ndarray, W: np.ndarray) -> np.ndarray:
    """YY' (primal) or Y'Y (dual)."""
    G = first.T @ first if plan.dual else first @ first.T
    G += plan.sigma_sq * W
    return G


def solve(plan: SamplingPlan, first: np.ndarray, W: np.ndarray) -> float:
    """s' E_hat' E_hat s for the rank-r_hat truncation: ||Ys||^2 - ||left' Ys||^2.

    In the dual, with Y'Y = R diag(lam) R', left' Ys = sqrt(lam) R's.
    """
    G = gram(plan, first, W)
    if plan.dual:
        base = float(plan.direction @ G @ plan.direction)
    else:
        Ys = first @ plan.direction
        base = float(Ys @ Ys)
    if plan.r_hat == 0:
        return base
    lam, vecs = top_eigenpairs(G, plan.r_hat)
    if plan.dual:
        return base - float(lam @ (vecs.T @ plan.direction) ** 2)
    coef = vecs.T @ Ys
    return base - float(coef @ coef)


# Cells whose Gram matrix has fewer rows than this run in the calling thread.
# Their replicates hold the GIL for most of their time, so a second thread
# only contends for it.  Timed on 2 cores as speed on two threads relative to
# one (median of 7 run_sim calls per side, 300 replicates, r_hat=1 noise
# cells: primal n=dim, m=1000; dual n=2*dim, m=dim; median of 1-3 passes):
#   dim     30    40    50    60    65    70    75    80    85    90    100
#   primal  0.51  0.59  0.78  0.81  0.95  0.98  1.14  1.15  1.14  1.36  1.35
#   dual    0.47  0.67  0.80  0.87  1.09  1.05  1.00  1.13  1.13  1.12  1.24
# Output is the same either way.
THREADED_MIN_DIM = 80


def _threads_for(plan: SamplingPlan, threads: int) -> int:
    return threads if plan.dim >= THREADED_MIN_DIM else 1


def run_replicate(config: SimConfig, index: int,
                  plan: SamplingPlan | None = None) -> tuple[float, float]:
    """One draw of (RSS(s), df_obs) with df_obs = n - RSS / (sigma^2 s's).

    ``plan`` is ``sampling_plan(config)``, passed in to skip recomputing it.
    """
    if not 0 <= index < config.replicates:
        raise ValueError("replicate index out of range")
    if plan is None:
        plan = sampling_plan(config)
    first, W = draw(plan, stream(config.seed, DOMAIN_SIM, index))
    rss = solve(plan, first, W)
    df_obs = config.n - rss / (config.sigma_sq * plan.s_sq)
    return rss, df_obs


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
    """(primary prediction, alternative perp-case candidate or None, conjectural)."""
    if config.r == 0 or config.r_hat == 0:
        base = df_noise(config.n, config.m, config.r_hat).total
        extra = 0.0
        if config.r > 0:   # unmodeled signal along s inflates the RSS
            V = loading_matrix(config)
            s = direction_vector(config)
            proj = (V.T @ s) ** 2 / float(s @ s)
            extra = -config.n * float((np.asarray(config.mu) / config.sigma_sq) @ proj)
        return base + extra, None, False
    V = loading_matrix(config)
    s = direction_vector(config)
    proj = (V.T @ s) ** 2 / float(s @ s)
    est = df_signal_total(config.n, config.m, config.mu, config.sigma_sq,
                          proj, config.r_hat)
    alt = None
    if config.r == 1 and proj[0] < 1e-12 and \
            is_above_transition(config.mu[0], config.n, config.m, config.sigma_sq):
        # competing published value for the orthogonal case
        alt = 1.0 + (config.sigma_sq / config.mu[0]) ** 2
        alt += est.total - est.per_factor[0]
    return est.total, alt, est.conjectural


def run_sim(config: SimConfig, threads: int = 1) -> SimResult:
    """Aggregate the replicates and compare against the theoretical df.

    The chi-squared goodness-of-fit test compares RSS / (sigma^2 s's) with
    the chi2 distribution on n - df_theory degrees of freedom.
    """
    if config.replicates < 100:
        raise ValueError("replicates must be >= 100")
    with one_blas_thread():
        plan = sampling_plan(config)
        pairs = map_indexed(lambda i: run_replicate(config, i, plan),
                            config.replicates, _threads_for(plan, threads))
        rss = np.array([p[0] for p in pairs])
        dfo = np.array([p[1] for p in pairs])
        mean_df = float(dfo.mean())
        se_df = float(dfo.std(ddof=1) / np.sqrt(config.replicates))
        theory, alt, conj = theoretical_df(config)

        s = direction_vector(config)
        chi2_df = config.n - theory
        ks = None
        if chi2_df > 0:
            scaled = rss / (config.sigma_sq * float(s @ s))
            ks = ks_test(scaled, lambda q: chi2_cdf(q, chi2_df))

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
    n: int
    m: int
    mu: float | None
    shape: str
    result: SimResult


def run_grid(configs: list[SimConfig], threads: int = 1) -> list[GridCell]:
    """Run every config and key the results by (n, m, mu, shape)."""
    if not configs:
        raise ValueError("no configurations given")
    cells = []
    for cfg in configs:
        res = run_sim(cfg, threads=threads)
        mu = cfg.mu[0] if cfg.r > 0 else None
        cells.append(GridCell(cfg.n, cfg.m, mu, cfg.shape.value, res))
    return cells


STUDY_N_GRID = (5, 10, 50, 100)
STUDY_M_GRID = (5, 10, 50, 100, 500, 1000, 5000, 10000)


def noise_preset(seed: int, replicates: int = 10000,
                 n_grid=STUDY_N_GRID, m_grid=STUDY_M_GRID) -> list[SimConfig]:
    """Pure-noise grid (r = 0, r_hat = 1) over the reference (n, m) table."""
    return [SimConfig(n=n, m=m, r=0, r_hat=1, replicates=replicates, seed=seed)
            for n in n_grid for m in m_grid]


def basis_signal_preset(seed: int, mu: float = 3.0, replicates: int = 10000,
                        n_grid=STUDY_N_GRID, m_grid=STUDY_M_GRID) -> list[SimConfig]:
    """One-factor grid with the loading parallel to the test direction."""
    return [SimConfig(n=n, m=m, r=1, mu=(mu,), shape=SignalShape.BASIS,
                      r_hat=1, replicates=replicates, seed=seed)
            for n in n_grid for m in m_grid]


# Columns of a simulate / ks-table row in CSV; JSON adds the replicate count.
CSV_COLUMNS = ("n", "m", "mu", "shape", "mean_df", "se_df", "theoretical_df",
               "ks_D", "ks_p", "conjectural", "alt_theoretical_df", "bracketed")


def cell_record(cell: GridCell) -> dict:
    """The one row builder behind every simulate and ks-table output."""
    r = cell.result
    # a noise cell has no loading, so no loading shape
    shape = None if cell.mu is None else cell.shape
    return {
        "n": cell.n, "m": cell.m, "mu": cell.mu, "shape": shape,
        "mean_df": r.mean_df, "se_df": r.se_df,
        "theoretical_df": r.theoretical_df,
        "alt_theoretical_df": r.alt_theoretical_df,
        "bracketed": r.bracketed, "conjectural": r.conjectural,
        "ks_D": r.ks.statistic if r.ks else None,
        "ks_p": r.ks.p_value if r.ks else None,
        "replicates": r.replicates_used,
    }


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    return f"{x:.10g}"


def cell_columns(cells: list[GridCell]) -> list[list[str]]:
    """One list per CSV_COLUMNS entry: the cells' values as the CSV and the
    table print them."""
    records = [cell_record(c) for c in cells]
    return [[_fmt(rec[k]) for rec in records] for k in CSV_COLUMNS]


def grid_to_json(cells: list[GridCell]) -> str:
    return json.dumps([cell_record(c) for c in cells], indent=2) + "\n"


@dataclass(frozen=True)
class SpikeResult:
    """Monte-Carlo means of the top eigenvalue and loading overlap."""

    mean_mu1: float
    se_mu1: float
    mean_overlap_sq: float
    se_overlap_sq: float
    replicates_used: int


def spike_solve(plan: SamplingPlan, first: np.ndarray,
                W: np.ndarray) -> tuple[float, float]:
    """(lambda_1, (vhat_1' v_1)^2) from one draw.

    vhat_1' v_1 = left_1' Y v_1 / sing_1 with Y v_1 = Y1 (W1'v_1); in the dual
    it is the top eigenvector's projection onto v_1.
    """
    lam, vecs = top_eigenpairs(gram(plan, first, W), 1)
    if plan.dual:
        overlap = float(vecs[:, 0] @ plan.loading)
    else:
        overlap = float(vecs[:, 0] @ (first @ plan.loading)) / np.sqrt(lam[0])
    return float(lam[0]), overlap ** 2


def spike_replicate(config: SimConfig, index: int,
                    plan: SamplingPlan | None = None) -> tuple[float, float]:
    """(mu_hat_1, (vhat_1' v_1)^2) for one replicate of a one-factor model."""
    if config.r != 1:
        raise ValueError("spike diagnostics require exactly one true factor")
    if plan is None:
        plan = sampling_plan(config)
    lam, overlap_sq = spike_solve(
        plan, *draw(plan, stream(config.seed, DOMAIN_SIM, index)))
    return lam / config.n, overlap_sq


def run_spike_sim(config: SimConfig, threads: int = 1) -> SpikeResult:
    with one_blas_thread():
        plan = sampling_plan(config)
        pairs = map_indexed(lambda i: spike_replicate(config, i, plan),
                            config.replicates, _threads_for(plan, threads))
        mu1 = np.array([p[0] for p in pairs])
        ovl = np.array([p[1] for p in pairs])
        root = np.sqrt(config.replicates)
        return SpikeResult(float(mu1.mean()), float(mu1.std(ddof=1) / root),
                           float(ovl.mean()), float(ovl.std(ddof=1) / root),
                           config.replicates)
