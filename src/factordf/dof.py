"""Degrees of freedom assigned to estimated latent factors.

Implements every scheme under comparison: the asymptotic noise value, the
asymptotic signal-case values (with the below-transition conjecture branch),
the proposed conservative estimator, and the classical Gollob, Mandel, and
naive parameter-counting rules.  All inputs are post-reduction sizes
(n = N - p rows, m = M - q columns).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import DOMAIN_MANDEL, stream, wishart_top_eigenvalues
from .linalg import CodedError


class DofMethod(str, Enum):
    PROPOSED = "proposed"
    GOLLOB = "gollob"
    MANDEL = "mandel"
    NAIVE = "naive"


@dataclass(frozen=True)
class DofEstimate:
    """Per-factor and total degrees of freedom for one test direction."""

    per_factor: np.ndarray
    total: float
    conjectural: bool = False      # below-transition values are a conjecture
    mc_se: float | None = None     # Monte-Carlo SE of the total (Mandel only)


def _estimate(per_factor, conjectural=False, mc_se=None) -> DofEstimate:
    per_factor = np.asarray(per_factor, dtype=np.float64)
    return DofEstimate(per_factor, float(per_factor.sum()), conjectural,
                       mc_se)


def noise_floor(n: int, m: int) -> float:
    """(1 + sqrt(n/m))^2, the asymptotic cost of one pure-noise factor."""
    return (1.0 + np.sqrt(n / m)) ** 2


def is_above_transition(mu_k: float, n: int, m: int, sigma_sq: float = 1.0) -> bool:
    """Whether a factor strength exceeds the phase transition sigma^2 sqrt(m/n).

    Exact equality sits on the below-transition (conjecture) side because the
    above-transition expressions degenerate there.
    """
    return mu_k / sigma_sq > np.sqrt(m / n)


def df_noise(n: int, m: int, r_hat: int) -> DofEstimate:
    """Asymptotic df when the data are pure noise: r_hat copies of the floor."""
    if n < 1 or m < 1 or r_hat < 0:
        raise ValueError("n, m must be >= 1 and r_hat >= 0")
    return _estimate(np.full(r_hat, noise_floor(n, m)))


def df_signal_k(n: int, m: int, mu_k: float, sigma_sq: float,
                proj_sq: float) -> float:
    """Asymptotic df of one estimated factor of true strength mu_k.

    ``proj_sq`` is the squared projection (v_k's)^2 / s's of the test
    direction onto the factor loading.  Above the phase transition the full
    signal-case expression applies; at or below it the conjectured value
    (noise floor minus the captured signal energy) is returned.
    """
    if mu_k <= 0 or sigma_sq <= 0:
        raise ValueError("mu_k and sigma_sq must be positive")
    if not -1e-12 <= proj_sq <= 1 + 1e-12:
        raise ValueError("proj_sq must lie in [0, 1]")
    proj_sq = min(max(proj_sq, 0.0), 1.0)
    if is_above_transition(mu_k, n, m, sigma_sq):
        parallel = n * (1.0 - m * sigma_sq / (n * mu_k)
                        - m * sigma_sq**2 / (n * mu_k**2))
        perp = (1.0 + sigma_sq / mu_k) ** 2
        return parallel * proj_sq + perp * (1.0 - proj_sq)
    return noise_floor(n, m) - n * (mu_k / sigma_sq) * proj_sq


def df_signal_total(n: int, m: int, mu, sigma_sq: float, proj_sqs,
                    r_hat: int) -> DofEstimate:
    """Total asymptotic signal-case df for r_hat estimated factors.

    When r_hat exceeds the true rank, each surplus factor costs the noise
    floor.  When r_hat falls short, the unremoved factors inflate the RSS;
    that (negative) adjustment is folded into the last per-factor entry so
    the total matches the sum.
    """
    mu = np.asarray(mu, dtype=np.float64)
    proj_sqs = np.asarray(proj_sqs, dtype=np.float64)
    r = len(mu)
    if len(proj_sqs) != r:
        raise ValueError("mu and proj_sqs must have equal length")
    if r > 1 and np.any(np.diff(mu) >= 0):
        raise ValueError("mu must be strictly decreasing")
    if np.any(mu <= 0):
        raise ValueError("mu must be positive")
    if proj_sqs.sum() > 1 + 1e-9:
        raise ValueError("projections sum to more than 1")
    if r_hat < r and r_hat == 0:
        raise ValueError("r_hat = 0 with true factors has no per-factor split")

    per = [df_signal_k(n, m, mu[k], sigma_sq, proj_sqs[k])
           for k in range(min(r, r_hat))]
    if r_hat > r:
        per.extend([noise_floor(n, m)] * (r_hat - r))
    elif r_hat < r:
        err = -n * float((mu[r_hat:] / sigma_sq) @ proj_sqs[r_hat:])
        per[-1] += err
    conj = any(not is_above_transition(mu[k], n, m, sigma_sq)
               for k in range(min(r, r_hat)))
    return _estimate(per, conjectural=conj)


def df_conservative(n: int, m: int, vhat_proj_sqs) -> DofEstimate:
    """The proposed estimator: n (vhat_k's)^2 / s's + noise floor per factor.

    Depends only on observable quantities; asymptotically an upper bound for
    the true per-factor df.
    """
    proj = np.asarray(vhat_proj_sqs, dtype=np.float64)
    if np.any(proj < -1e-12) or np.any(proj > 1 + 1e-12):
        raise ValueError("projections must lie in [0, 1]")
    if proj.sum() > 1 + 1e-9:
        raise ValueError("projections sum to more than 1")
    proj = np.clip(proj, 0.0, 1.0)
    return _estimate(n * proj + noise_floor(n, m))


def df_gollob(n: int, m: int, r_hat: int) -> DofEstimate:
    """Gollob's parameter count, spread evenly over the m directions.

    Factor k is charged (n - k + 1) + (m - k + 1) - 1 parameters in total,
    i.e. that amount divided by m per direction.
    """
    if r_hat >= min(n, m):
        raise ValueError("r_hat must be below min(n, m)")
    k = np.arange(1, r_hat + 1)
    return _estimate(((n - k + 1) + (m - k + 1) - 1) / m)


# Most Mandel draws sampled and solved at once: their tridiagonals and the
# solve's working arrays take about 2 KB a draw at dim 36, r_hat 2.
_MANDEL_CHUNK = 1 << 16


def df_mandel(n: int, m: int, r_hat: int, mc_reps: int = 1000,
              seed: int | None = None) -> DofEstimate:
    """Mandel's allocation: E[lambda_k] / m, estimated by Monte Carlo.

    lambda_k is the kth largest eigenvalue of an m-dimensional white Wishart
    matrix with n degrees of freedom (the law of G'G for G an n x m standard
    normal matrix).  The equivalent min(n, m)-dimensional Wishart has the
    same nonzero spectrum; its top r_hat eigenvalues are drawn from the
    Dumitriu-Edelman bidiagonal model (``wishart_top_eigenvalues``), so no
    matrix is formed, and all draws' tridiagonals are solved together by a
    deflated Laguerre iteration whose every value a Sturm count certifies
    to LAPACK's bisection tolerance (bisection finds any it cannot).
    Results are deterministic for a fixed seed.  The draws come in chunks
    of at most ``_MANDEL_CHUNK``, chunk c from ``stream(seed, DOMAIN_MANDEL,
    c)``, so memory holds one chunk's tridiagonals and every draw's top
    eigenvalues, 8 r_hat bytes a draw.  ``mc_se`` is the
    Monte-Carlo standard error of the total.  Fewer than 100 draws is a
    ``MANDEL_REPS_RANGE`` and a missing seed a ``SEED_REQUIRED``
    ``CodedError``.
    """
    if r_hat > min(n, m):
        raise ValueError("r_hat must not exceed min(n, m)")
    _check_mandel_reps(mc_reps)
    if seed is None:
        raise CodedError("SEED_REQUIRED", "df_mandel requires an explicit seed")
    dim, dof = min(n, m), max(n, m)
    top = np.concatenate([
        wishart_top_eigenvalues(stream(seed, DOMAIN_MANDEL, c), dim, dof,
                                min(_MANDEL_CHUNK, mc_reps - start), r_hat)
        for c, start in enumerate(range(0, mc_reps, _MANDEL_CHUNK))]) / m
    per = top.mean(axis=0)
    # SE of the per-draw totals: the top eigenvalues are correlated
    se = float(np.sqrt(top.sum(axis=1).var(ddof=1) / mc_reps))
    return _estimate(per, mc_se=se)


def _check_mandel_reps(mc_reps: int) -> None:
    """``MANDEL_REPS_RANGE`` for fewer than 100 Mandel draws."""
    if mc_reps < 100:
        raise CodedError("MANDEL_REPS_RANGE",
                         f"mc_reps must be >= 100, got {mc_reps}")


def df_naive(r_hat: int) -> DofEstimate:
    """One df per estimated factor, as if U_hat were observed covariates."""
    if r_hat < 0:
        raise ValueError("r_hat must be >= 0")
    return _estimate(np.ones(r_hat))


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Predicted top-eigenvalue location and squared loading overlap."""

    mu_bar_k: float
    rho_bar_kk_sq: float
    above_transition: bool


def asymptotic_predictions(mu_k: float, n: int, m: int,
                           sigma_sq: float = 1.0) -> AsymptoticPrediction:
    """Where mu_hat_k concentrates and how much of v_k the estimate captures.

    Above the transition: mu_bar = (t + 1)(m/(n t) + 1) sigma^2 and
    rho_bar^2 = (1 - m/(n t^2)) / (1 + m/(n t)) with t = mu_k / sigma^2.
    At or below it the eigenvalue sticks to the bulk edge and the overlap
    is clamped to zero.
    """
    if mu_k <= 0 or sigma_sq <= 0:
        raise ValueError("mu_k and sigma_sq must be positive")
    t = mu_k / sigma_sq
    above = is_above_transition(mu_k, n, m, sigma_sq)
    if above:
        mu_bar = (t + 1.0) * (m / (n * t) + 1.0) * sigma_sq
        rho2 = (1.0 - m / (n * t**2)) / (1.0 + m / (n * t))
    else:
        mu_bar = (1.0 + np.sqrt(m / n)) ** 2 * sigma_sq
        rho2 = 0.0
    return AsymptoticPrediction(float(mu_bar), float(rho2), above)
