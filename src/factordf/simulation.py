"""Monte-Carlo engine for the degrees-of-freedom simulation study.

Generates bilinear data Y = sqrt(n) U D V' + E with a fresh uniform U per
replicate (D and V held fixed), fits r_hat factors, and measures the observed
df along a test direction.  Replicates draw from counter-based streams keyed
by (seed, replicate index), so results are byte-identical at any thread
count.
"""

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .distributions import (DOMAIN_SIM, KsResult, chi2_cdf, ks_test,
                            map_indexed, stream)
from .dof import df_noise, df_signal_total, is_above_transition
from .linalg import canonical_signs, top_factors


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


def _uniform_orthonormal(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    """Haar-uniform n x r column-orthonormal matrix with the sign convention."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return Q * canonical_signs(Q)


def _simulate_response(config: SimConfig, index: int) -> np.ndarray:
    rng = stream(config.seed, DOMAIN_SIM, index)
    n, m = config.n, config.m
    sigma = np.sqrt(config.sigma_sq)
    if config.r > 0:
        U = _uniform_orthonormal(rng, n, config.r)
        V = loading_matrix(config)
        scale = np.sqrt(n * np.asarray(config.mu))
        return (U * scale) @ V.T + sigma * rng.standard_normal((n, m))
    return sigma * rng.standard_normal((n, m))


def _rss_after_truncation(Y: np.ndarray, s: np.ndarray, r_hat: int) -> float:
    """s' E_hat' E_hat s for the rank-r_hat truncation: ||Ys||^2 - ||left' Ys||^2."""
    Ys = Y @ s
    base = float(Ys @ Ys)
    if r_hat == 0:
        return base
    left, _ = top_factors(Y, r_hat)
    coef = left.T @ Ys
    return base - float(coef @ coef)


def run_replicate(config: SimConfig, index: int) -> tuple[float, float]:
    """One draw of (RSS(s), df_obs) with df_obs = n - RSS / (sigma^2 s's)."""
    if not 0 <= index < config.replicates:
        raise ValueError("replicate index out of range")
    Y = _simulate_response(config, index)
    s = direction_vector(config)
    rss = _rss_after_truncation(Y, s, config.r_hat)
    df_obs = config.n - rss / (config.sigma_sq * float(s @ s))
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
    pairs = map_indexed(lambda i: run_replicate(config, i),
                         config.replicates, threads)
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
    return {
        "n": cell.n, "m": cell.m, "mu": cell.mu, "shape": cell.shape,
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


def spike_replicate(config: SimConfig, index: int) -> tuple[float, float]:
    """(mu_hat_1, (vhat_1' v_1)^2) for one replicate of a one-factor model."""
    if config.r != 1:
        raise ValueError("spike diagnostics require exactly one true factor")
    Y = _simulate_response(config, index)
    v = loading_matrix(config)[:, 0]
    left, sing = top_factors(Y, 1)
    vhat = Y.T @ left[:, 0] / sing[0]
    return float(sing[0] ** 2 / Y.shape[0]), float((vhat @ v) ** 2)


def run_spike_sim(config: SimConfig, threads: int = 1) -> SpikeResult:
    pairs = map_indexed(lambda i: spike_replicate(config, i),
                         config.replicates, threads)
    mu1 = np.array([p[0] for p in pairs])
    ovl = np.array([p[1] for p in pairs])
    root = np.sqrt(config.replicates)
    return SpikeResult(float(mu1.mean()), float(mu1.std(ddof=1) / root),
                       float(ovl.mean()), float(ovl.std(ddof=1) / root),
                       config.replicates)
