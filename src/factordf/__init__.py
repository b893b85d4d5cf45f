"""Bilinear regression with latent factors and direction-wise df adjustment."""

__version__ = "0.1.0"

from .distributions import KsResult, chi2_cdf, ks_test
from .dof import (AsymptoticPrediction, DofEstimate, DofMethod,
                  asymptotic_predictions, df_conservative, df_gollob,
                  df_mandel, df_naive, df_noise, df_signal_k, df_signal_total,
                  noise_floor)
from .factors import ScreeTable, variance_explained
from .fdr import (BootstrapConfig, FdrReport, GenerativeTruth,
                  build_generative_truth, evaluate, simulate_dataset)
from .inference import (DirectionStats, TestResult, compute_direction_stats,
                        test_all_responses)
from .linalg import polar_factors
from .model import CoefficientEstimates, DatasetBundle, fit_two_sided
from .simulation import (GridCell, SignalShape, SimConfig, SimResult,
                         SpikeResult, run_grid, run_replicate, run_sim,
                         run_spike_sim)

__all__ = [
    "AsymptoticPrediction", "BootstrapConfig", "CoefficientEstimates",
    "DatasetBundle", "DirectionStats", "DofEstimate", "DofMethod",
    "FdrReport", "GenerativeTruth", "GridCell", "KsResult",
    "ScreeTable", "SignalShape", "SimConfig", "SimResult",
    "SpikeResult", "TestResult", "asymptotic_predictions",
    "build_generative_truth", "chi2_cdf",
    "compute_direction_stats", "df_conservative", "df_gollob", "df_mandel",
    "df_naive", "df_noise", "df_signal_k", "df_signal_total", "evaluate",
    "fit_two_sided", "ks_test", "noise_floor", "polar_factors",
    "run_grid", "run_replicate", "run_sim", "run_spike_sim",
    "simulate_dataset", "test_all_responses", "variance_explained",
]
