"""Parametric-bootstrap evaluation of false discovery rates.

Fits the bilinear model once, zeroes the coefficient entries that fail the
significance threshold, and treats the result (coefficients, latent factor
term, per-gene variances) as a fixed generative truth.  Bootstrap datasets
re-simulated from that truth are refit under each df-assignment method, and
the discovery rates are averaged against the truth's nonzero set.
"""

import json
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .distributions import DOMAIN_FDR_DATASET, stream
from .dof import DofMethod, _check_mandel_reps, df_shared
from .inference import (compute_direction_stats, df_totals, response_tests,
                        significant, without_factors)
from .linalg import CodedError
from .model import DatasetBundle

BASELINE = "none"   # the unadjusted (r_hat = 0) comparison row

DEFAULT_METHODS = tuple(DofMethod)


@dataclass(frozen=True)
class BootstrapConfig:
    k_factors: int = 2
    alpha: float = 0.001
    n_datasets: int = 1000
    seed: int = 0
    coef_index: int = 2
    methods: tuple = DEFAULT_METHODS
    mandel_reps: int = 1000
    threads: int = 1

    def __post_init__(self):
        # DofMethod("x") raises ValueError on an unknown method
        object.__setattr__(self, "methods",
                           tuple(DofMethod(m) for m in self.methods))
        allowed = ", ".join(m.value for m in DEFAULT_METHODS)
        if not self.methods:
            raise CodedError("METHODS_RANGE", f"methods must name at least "
                             f"one of {allowed}")
        if len(set(self.methods)) < len(self.methods):
            got = " ".join(m.value for m in self.methods)
            raise CodedError("METHODS_RANGE", f"methods must be distinct and "
                             f"among {allowed}; got {got}")
        if DofMethod.MANDEL in self.methods:
            _check_mandel_reps(self.mandel_reps)
        if not 0 < self.alpha < 1:
            raise CodedError("ALPHA_RANGE",
                             f"alpha must lie in (0, 1), got {self.alpha:g}")
        if self.n_datasets < 10:
            raise CodedError("N_DATASETS_RANGE",
                             f"n_datasets must be >= 10, got {self.n_datasets}")
        if self.k_factors < 1:
            raise CodedError("K_FACTORS_RANGE",
                             f"k_factors must be >= 1, got {self.k_factors}")


@dataclass(frozen=True)
class GenerativeTruth:
    """Thresholded fit used as the fixed truth for the bootstrap."""

    X: np.ndarray
    Z: np.ndarray | None
    beta: np.ndarray          # (M, p), sub-threshold tested entries zeroed
    A_hat: np.ndarray         # (N, q)
    factor_term: np.ndarray   # (N, M), held fixed across datasets
    variances: np.ndarray     # (M,) per-response noise variances
    coef_index: int
    nonzero_mask: np.ndarray  # (M,) bool
    col_ids: tuple = ()
    row_ids: tuple = ()
    # (N, M) fixed mean and (M,) noise scale of every bootstrap dataset,
    # formed once per truth
    mean_surface: np.ndarray = field(init=False, repr=False, compare=False)
    noise_sd: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = self.X @ self.beta.T + self.factor_term
        if self.Z is not None:
            mean = mean + self.A_hat @ self.Z.T
        object.__setattr__(self, "mean_surface", mean)
        object.__setattr__(self, "noise_sd", np.sqrt(self.variances))


def build_generative_truth(data: DatasetBundle, k_factors: int, alpha: float,
                           coef_index: int = 2) -> GenerativeTruth:
    """Fit, threshold the tested coefficients at ``alpha`` with the proposed
    df, estimate variances."""
    stats = compute_direction_stats(data, k_factors)
    df_tot = df_totals(stats, None)
    _, _, _, df_resid, p = response_tests(stats, coef_index, df_tot)
    keep = p < alpha

    coef = stats.coefficients
    beta = coef.B_hat.copy()
    beta[~keep, coef_index] = 0.0

    factor_term = (stats.factor_left * stats.factor_sing) @ stats.factor_loadings.T
    variances = stats.rss / df_resid / stats.s_normsq
    return GenerativeTruth(data.X, data.Z, beta, coef.A_hat, factor_term,
                           variances, coef_index, keep,
                           data.col_ids, data.row_ids)


def simulate_dataset(truth: GenerativeTruth, seed: int, index: int = 0, *,
                     out: np.ndarray | None = None) -> DatasetBundle:
    """One bootstrap dataset: fixed mean surface plus heteroscedastic noise.

    The response matrix is drawn into ``out``, a C-contiguous float (N, M)
    array, when one is given (the bundle's Y is then ``out``), and into a
    new array otherwise; its bytes are the same either way.
    """
    rng = stream(seed, DOMAIN_FDR_DATASET, index)
    Y = np.empty(truth.factor_term.shape) if out is None else out
    rng.standard_normal(out=Y)
    Y *= truth.noise_sd
    Y += truth.mean_surface
    return DatasetBundle(Y, truth.X, truth.Z,
                         row_ids=truth.row_ids, col_ids=truth.col_ids)


@dataclass(frozen=True)
class MethodRates:
    fdr_pct: float | None
    fpr_pct: float
    tpr_pct: float
    fdr_se: float | None
    fpr_se: float
    tpr_se: float


@dataclass(frozen=True)
class FdrReport:
    rates: dict
    n_datasets: int
    alpha: float
    n_signals: int
    n_nulls: int


def _declared_rates(declared: np.ndarray, mask: np.ndarray, n_signals: int,
                    n_nulls: int) -> tuple[float, float, float, int]:
    """(fdr, fpr, tpr, discoveries) of one dataset's decisions against the
    truth's nonzero ``mask``, which holds ``n_signals`` and ``n_nulls``."""
    n_disc = int(np.count_nonzero(declared))
    tp = int(np.count_nonzero(declared & mask))
    fp = n_disc - tp
    fdr = fp / n_disc if n_disc > 0 else 0.0
    fpr = fp / max(n_nulls, 1)
    tpr = tp / max(n_signals, 1)
    return fdr, fpr, tpr, n_disc


def evaluate(config: BootstrapConfig, data: DatasetBundle) -> FdrReport:
    """Run the bootstrap and report averaged FDR / FPR / TPR per method.

    Datasets run on min(``config.threads``, usable cores, datasets) threads,
    one dataset per pool task, and on the calling thread when that is one.
    Dataset d draws only from stream d, so the report is the same at any
    thread count.
    """
    truth = build_generative_truth(data, config.k_factors, config.alpha,
                                   config.coef_index)
    mask = truth.nonzero_mask
    n_signals = int(np.count_nonzero(mask))
    n_nulls = len(mask) - n_signals
    labels = [m.value for m in config.methods] + [BASELINE]

    # Every dataset shares X, Z and the shape, so each method's shared df is
    # computed once here, not per dataset.
    n, m = data.N - data.p, data.M - data.q
    shared = {meth: df_shared(meth, n, m, config.k_factors, config.mandel_reps,
                              config.seed) for meth in config.methods}

    # Each worker thread draws and fits every dataset in one set of (N, M)
    # buffers: Y, the residuals E and a scratch matrix.  A dataset's bundle.Y
    # and stats.residuals alias them until that thread's next dataset, and
    # nothing of either outlives one_dataset.
    buffers = threading.local()

    def one_dataset(d: int):
        bufs = getattr(buffers, "bufs", None)
        if bufs is None:
            bufs = buffers.bufs = tuple(np.empty((data.N, data.M))
                                        for _ in range(3))
        bundle = simulate_dataset(truth, config.seed, d, out=bufs[0])
        stats = compute_direction_stats(bundle, config.k_factors,
                                        out=bufs[1:])
        tests = [(stats, df_totals(stats, shared[meth]))
                 for meth in config.methods]
        tests.append((without_factors(stats), np.zeros(bundle.M)))
        return [_declared_rates(significant(s, config.coef_index, df_tot,
                                            config.alpha), mask, n_signals,
                                n_nulls) for s, df_tot in tests]

    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    workers = min(config.threads, cores, config.n_datasets)
    if workers <= 1:
        all_rows = [one_dataset(d) for d in range(config.n_datasets)]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            all_rows = list(pool.map(one_dataset, range(config.n_datasets)))
    return _summarize(all_rows, labels, config.alpha, mask)


def _summarize(all_rows: list, labels: list, alpha: float,
               mask: np.ndarray) -> FdrReport:
    """Average per-dataset ``_declared_rates`` rows (one per label) into rates
    with standard errors."""
    D = len(all_rows)
    fdr, fpr, tpr, n_disc = np.moveaxis(np.array(all_rows, dtype=float), 2, 0)

    root = np.sqrt(D)
    rates = {}
    for c, label in enumerate(labels):
        any_disc = bool(np.any(n_disc[:, c] > 0))
        rates[label] = MethodRates(
            fdr_pct=100.0 * float(fdr[:, c].mean()) if any_disc else None,
            fpr_pct=100.0 * float(fpr[:, c].mean()),
            tpr_pct=100.0 * float(tpr[:, c].mean()),
            fdr_se=100.0 * float(fdr[:, c].std(ddof=1) / root) if any_disc else None,
            fpr_se=100.0 * float(fpr[:, c].std(ddof=1) / root),
            tpr_se=100.0 * float(tpr[:, c].std(ddof=1) / root),
        )
    return FdrReport(rates, D, alpha, int(mask.sum()), int((~mask).sum()))


# Columns of a bootstrap report in CSV and table output, one row per method.
REPORT_COLUMNS = ("method", "fdr_pct", "fdr_se", "fpr_pct", "fpr_se",
                  "tpr_pct", "tpr_se")


def report_columns(report: FdrReport) -> list[list]:
    """One list per REPORT_COLUMNS entry: the methods' labels and values."""
    rates = report.rates.values()
    return [list(report.rates)] + [[getattr(r, k) for r in rates]
                                   for k in REPORT_COLUMNS[1:]]


def report_to_json(report: FdrReport) -> str:
    rows = {label: {"fdr_pct": r.fdr_pct, "fdr_se": r.fdr_se,
                    "fpr_pct": r.fpr_pct, "fpr_se": r.fpr_se,
                    "tpr_pct": r.tpr_pct, "tpr_se": r.tpr_se}
            for label, r in report.rates.items()}
    return json.dumps({"alpha": report.alpha, "n_datasets": report.n_datasets,
                       "n_signals": report.n_signals, "n_nulls": report.n_nulls,
                       "rates": rows}, indent=2) + "\n"
