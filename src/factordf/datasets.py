"""Synthetic expression-study fixtures.

The real aging study's data are not distributable, so this module generates a
surrogate with the same layout: N = 39 subjects with intercept/sex/age row
covariates, two tissue groups as column covariates, two strong latent
subject factors orthogonal to the observed covariates, heteroscedastic
per-gene noise, and a sparse set of true age effects.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import DOMAIN_GENERATE, stream
from .linalg import CodedError, polar_factors
from .model import DatasetBundle

N_SUBJECTS = 39
AGE_LEVELS = (1.0, 6.0, 16.0, 24.0)
AGE_COEF_INDEX = 2   # column order: intercept, sex, age


def subject_covariates() -> np.ndarray:
    """Deterministic X: intercept, alternating sex (+1/-1), cycled ages."""
    sex = np.where(np.arange(N_SUBJECTS) % 2 == 0, 1.0, -1.0)
    age = np.array([AGE_LEVELS[i % len(AGE_LEVELS)] for i in range(N_SUBJECTS)])
    return np.column_stack([np.ones(N_SUBJECTS), sex, age])


def gene_covariates(m_responses: int) -> np.ndarray:
    """Deterministic Z: intercept plus two tissue groups (+1 then -1)."""
    tissue = np.ones(m_responses)
    tissue[m_responses // 2:] = -1.0
    return np.column_stack([np.ones(m_responses), tissue])


@dataclass(frozen=True)
class SyntheticTruth:
    """Planted ground truth behind a synthetic bundle."""

    beta: np.ndarray          # (M, p) coefficient matrix, age column sparse
    signal_mask: np.ndarray   # (M,) bool, True where the age effect is nonzero
    factor_term: np.ndarray   # (N, M)
    noise_sd: np.ndarray      # (M,)


def synthetic_study(m_responses: int = 2000, seed: int = 0, *,
                    signal_fraction: float = 0.03,
                    age_effect: tuple[float, float] = (0.055, 0.10),
                    factor_to_noise: float = 2.0,
                    unexposed_fraction: float = 0.15,
                    noise_sd_range: tuple[float, float] = (0.8, 1.25),
                    ) -> tuple[DatasetBundle, SyntheticTruth]:
    """Generate one aging-study-shaped dataset plus its planted truth.

    ``factor_to_noise`` sets the mean per-gene ratio of latent-factor variance
    to noise variance among exposed genes; ``unexposed_fraction`` of the genes
    carry no factor loading at all.  Age effects (bounded by ``age_effect``,
    alternating signs) are planted preferentially in factor-exposed genes --
    the latent variation is what masks them from an unadjusted analysis.
    Fewer than 3 responses is a ``SIZE_RANGE``, and a ``signal_fraction``
    outside [0, 1], or one that plants more signals than there are exposed
    genes, a ``SIGNAL_FRACTION_RANGE`` ``CodedError``.
    """
    N, M = N_SUBJECTS, m_responses
    if M < 3:   # Z's two columns need more rows than that
        raise CodedError("SIZE_RANGE", f"m_responses must be >= 3, got {M}")
    if not 0 <= signal_fraction <= 1:
        raise CodedError("SIGNAL_FRACTION_RANGE", f"signal_fraction must lie "
                         f"in [0, 1], got {signal_fraction:g}")
    n_sig = int(round(signal_fraction * M))
    n_off = int(round(unexposed_fraction * M)) if unexposed_fraction > 0 else 0
    if n_off < M and n_sig > M - n_off:
        raise CodedError("SIGNAL_FRACTION_RANGE", f"signal_fraction "
                         f"{signal_fraction:g} plants {n_sig} signals, more "
                         f"than the {M - n_off} exposed genes")
    rng = stream(seed, DOMAIN_GENERATE)
    X = subject_covariates()
    Z = gene_covariates(M)
    p = X.shape[1]

    beta = np.zeros((M, p))
    beta[:, 0] = 8.0 + 0.5 * rng.standard_normal(M)
    beta[:, 1] = 0.05 * rng.standard_normal(M)

    # two latent subject factors, orthogonal to X, unit-norm scores
    G = rng.standard_normal((N, 2))
    Q, _ = polar_factors(X)
    G = G - Q @ (Q.T @ G)
    U, _ = np.linalg.qr(G)
    loadings = rng.standard_normal((M, 2))
    if unexposed_fraction > 0:
        off = rng.choice(M, size=n_off, replace=False)
        loadings[off] = 0.0
    exposure = np.sum(loadings**2, axis=1)
    P, _ = polar_factors(Z)
    loadings = loadings - P @ (P.T @ loadings)
    noise_sd = rng.uniform(noise_sd_range[0], noise_sd_range[1], size=M)
    # per-gene factor energy sum_k d_k^2 L_jk^2 targets factor_to_noise * N * sd^2
    d = np.sqrt(factor_to_noise * N / 2.0)
    factor_term = (U * d) @ loadings.T

    if n_sig > 0:
        weights = exposure / exposure.sum() if exposure.sum() > 0 else None
        sig_idx = rng.choice(M, size=n_sig, replace=False, p=weights)
        sig_idx.sort()
        lo, hi = age_effect
        mag = rng.uniform(lo, hi, size=n_sig)
        sign = np.where(rng.random(n_sig) < 0.5, -1.0, 1.0)
        beta[sig_idx, AGE_COEF_INDEX] = sign * mag
    else:
        sig_idx = np.zeros(0, dtype=int)
    mask = np.zeros(M, dtype=bool)
    mask[sig_idx] = True

    A = 0.3 * rng.standard_normal((N, Z.shape[1]))

    E = noise_sd[None, :] * rng.standard_normal((N, M))
    Y = X @ beta.T + A @ Z.T + factor_term + E

    row_ids = tuple(f"subject{i + 1:02d}" for i in range(N))
    col_ids = tuple(f"gene{j + 1:05d}" for j in range(M))
    bundle = DatasetBundle(Y, X, Z, row_ids=row_ids, col_ids=col_ids)
    return bundle, SyntheticTruth(beta, mask, factor_term, noise_sd)
