import concurrent.futures
import inspect
import os

import numpy as np
import pytest

from factordf import dof as dof_mod
from factordf import inference, model
from factordf.datasets import AGE_COEF_INDEX, synthetic_study
from factordf.dof import DofMethod
from factordf.fdr import (BASELINE, BootstrapConfig, _declared_rates, _summarize,
                          build_generative_truth, evaluate, report_to_json,
                          simulate_dataset)
from factordf.inference import (compute_direction_stats, df_totals,
                                response_tests)


def test_truth_null_input_retains_few():
    # pure-noise age effects: retained coefficients bounded by 3x alpha M
    bundle, _ = synthetic_study(m_responses=800, seed=7, signal_fraction=0.0)
    alpha = 0.01
    truth = build_generative_truth(bundle, 2, alpha, AGE_COEF_INDEX)
    assert truth.nonzero_mask.sum() <= 3 * alpha * bundle.M
    zeroed = truth.beta[~truth.nonzero_mask, AGE_COEF_INDEX]
    assert np.all(zeroed == 0.0)


def test_truth_strong_signals_survive():
    # strong planted signals in 5% of responses: >= 90% recall
    bundle, planted = synthetic_study(m_responses=800, seed=8,
                                      signal_fraction=0.05,
                                      age_effect=(0.15, 0.25))
    truth = build_generative_truth(bundle, 2, 0.001, AGE_COEF_INDEX)
    hits = truth.nonzero_mask & planted.signal_mask
    assert hits.sum() / planted.signal_mask.sum() >= 0.90


def test_truth_recovers_variances():
    bundle, _ = synthetic_study(m_responses=400, seed=9, signal_fraction=0.0,
                                noise_sd_range=(2.0, 2.0))   # sigma^2 = 4
    truth = build_generative_truth(bundle, 2, 0.001, AGE_COEF_INDEX)
    assert abs(truth.variances[0] - 4.0) <= 2.0          # within 50%
    med = np.median(truth.variances)
    assert abs(med - 4.0) <= 1.0


def small_truth(seed=11, m=120):
    bundle, _ = synthetic_study(m_responses=m, seed=seed)
    return build_generative_truth(bundle, 2, 0.001, AGE_COEF_INDEX)


def test_simulate_zero_noise_reproduces_mean_surface():
    truth = small_truth()
    silent = type(truth)(truth.X, truth.Z, truth.beta, truth.A_hat,
                         truth.factor_term, np.zeros_like(truth.variances),
                         truth.coef_index, truth.nonzero_mask)
    bundle = simulate_dataset(silent, seed=3, index=0)
    np.testing.assert_allclose(bundle.Y, truth.mean_surface, atol=1e-12)


def test_simulate_seeds_differ_but_share_mean():
    truth = small_truth()
    a = simulate_dataset(truth, seed=3, index=0)
    b = simulate_dataset(truth, seed=3, index=1)
    assert not np.array_equal(a.Y, b.Y)
    # difference is pure noise: column means within wide noise bands
    diff = (a.Y - b.Y).mean(axis=0)
    bound = 8 * np.sqrt(2 * truth.variances / truth.X.shape[0])
    assert np.all(np.abs(diff) <= bound)
    c = simulate_dataset(truth, seed=3, index=0)
    np.testing.assert_array_equal(a.Y, c.Y)


def test_simulate_marginal_variance():
    truth = small_truth(m=60)
    j = 5
    reps = 1000
    vals = np.empty(reps)
    for d in range(reps):
        vals[d] = simulate_dataset(truth, seed=5, index=d).Y[0, j]
    assert abs(vals.var(ddof=1) / truth.variances[j] - 1.0) <= 0.10


@pytest.fixture(scope="module")
def small_report():
    bundle, _ = synthetic_study(m_responses=300, seed=21)
    cfg = BootstrapConfig(k_factors=2, alpha=0.001, n_datasets=40, seed=77,
                          coef_index=AGE_COEF_INDEX,
                          methods=(DofMethod.PROPOSED, DofMethod.NAIVE),
                          mandel_reps=200)
    return evaluate(cfg, bundle), cfg, bundle


def test_evaluate_reports_rates(small_report):
    report, cfg, _ = small_report
    assert set(report.rates) == {"proposed", "naive", "none"}
    for rates in report.rates.values():
        assert 0.0 <= rates.fpr_pct <= 100.0
        assert 0.0 <= rates.tpr_pct <= 100.0
        if rates.fdr_pct is not None:
            assert 0.0 <= rates.fdr_pct <= 100.0
    assert report.n_signals + report.n_nulls == 300


def test_evaluate_baseline_loses_power(small_report):
    report, _, _ = small_report
    assert report.rates["none"].tpr_pct < report.rates["proposed"].tpr_pct


def test_evaluate_deterministic_across_threads(small_report):
    report, cfg, bundle = small_report
    threaded = evaluate(BootstrapConfig(k_factors=2, alpha=0.001,
                                        n_datasets=40, seed=77,
                                        coef_index=AGE_COEF_INDEX,
                                        methods=(DofMethod.PROPOSED,
                                                 DofMethod.NAIVE),
                                        mandel_reps=200, threads=8), bundle)
    assert threaded == report


@pytest.mark.parametrize("cores, threads, n_datasets, pool", [
    (4, 8, 12, 4),          # capped by usable cores
    (4, 2, 12, 2),          # capped by the request
    (16, 64, 10, 10),       # capped by the dataset count
    (None, 8, 10, 3),       # no sched_getaffinity: os.cpu_count() cores
    (4, 1, 10, None),       # one worker runs in the caller, with no pool
    (1, 8, 10, None),
    (4, 0, 10, None),       # below one thread: still the caller's
], ids=["cores", "request", "datasets", "cpu-count", "one-thread", "one-core",
        "zero-threads"])
def test_evaluate_pool_size(small_report, monkeypatch, cores, threads,
                            n_datasets, pool):
    _, _, bundle = small_report
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    cfg = dict(k_factors=2, alpha=0.001, n_datasets=n_datasets, seed=77,
               coef_index=AGE_COEF_INDEX, methods=(DofMethod.NAIVE,))
    report = evaluate(BootstrapConfig(**cfg, threads=threads), bundle)
    assert sizes == ([] if pool is None else [pool])
    # one dataset per task, results in dataset order: the serial report
    assert report == evaluate(BootstrapConfig(**cfg), bundle)


ALL_METHODS = (DofMethod.PROPOSED, DofMethod.GOLLOB, DofMethod.MANDEL,
               DofMethod.NAIVE)


def reference_report(cfg, bundle):
    """Per-dataset loop that recomputes everything for every dataset: the df
    of every scheme (Mandel included) and a fresh r_hat = 0 fit for the
    baseline."""
    truth = build_generative_truth(bundle, cfg.k_factors, cfg.alpha,
                                   cfg.coef_index)
    mask = truth.nonzero_mask
    n_signals = int(np.count_nonzero(mask))
    n_nulls = len(mask) - n_signals
    all_rows = []
    for d in range(cfg.n_datasets):
        data = simulate_dataset(truth, cfg.seed, d)
        stats = compute_direction_stats(data, cfg.k_factors)
        rows = []
        for meth in cfg.methods:
            df_tot = df_totals(stats, meth, cfg.mandel_reps, cfg.seed)
            p = response_tests(stats, cfg.coef_index, df_tot)[4]
            rows.append(_declared_rates(p < cfg.alpha, mask, n_signals,
                                        n_nulls))
        stats0 = compute_direction_stats(data, 0)
        p0 = response_tests(stats0, cfg.coef_index, np.zeros(data.M))[4]
        rows.append(_declared_rates(p0 < cfg.alpha, mask, n_signals, n_nulls))
        all_rows.append(rows)
    labels = [m.value for m in cfg.methods] + [BASELINE]
    return _summarize(all_rows, labels, cfg.alpha, mask)


@pytest.mark.parametrize("threads", [1, 2])
def test_evaluate_matches_per_dataset_reference(small_report, threads):
    _, _, bundle = small_report
    cfg = BootstrapConfig(k_factors=2, alpha=0.001, n_datasets=10, seed=91,
                          coef_index=AGE_COEF_INDEX, methods=ALL_METHODS,
                          mandel_reps=200, threads=threads)
    expected = report_to_json(reference_report(cfg, bundle))
    assert report_to_json(evaluate(cfg, bundle)) == expected


@pytest.mark.parametrize("methods, calls", [
    (ALL_METHODS, 1),
    ((DofMethod.PROPOSED, DofMethod.GOLLOB, DofMethod.NAIVE), 0),
])
def test_evaluate_draws_mandel_once(small_report, monkeypatch, methods, calls):
    _, _, bundle = small_report
    seen = []
    real = dof_mod.df_mandel

    def counting(*args, **kwargs):
        seen.append(inspect.signature(real).bind(*args, **kwargs).args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dof_mod, "df_mandel", counting)
    evaluate(BootstrapConfig(k_factors=2, alpha=0.001, n_datasets=10, seed=5,
                             coef_index=AGE_COEF_INDEX, methods=methods,
                             mandel_reps=100), bundle)
    # the one draw is the one every dataset would have made
    n, m = bundle.N - bundle.p, bundle.M - bundle.q
    assert seen == [(n, m, 2, 100, 5)] * calls


def test_truth_fits_once(monkeypatch):
    bundle, _ = synthetic_study(m_responses=120, seed=11)
    calls = []
    real = inference.fit_two_sided

    def counting(data, **kwargs):
        calls.append(data)
        return real(data, **kwargs)

    for mod in (inference, model):
        monkeypatch.setattr(mod, "fit_two_sided", counting)
    truth = build_generative_truth(bundle, 2, 0.001, AGE_COEF_INDEX)
    assert len(calls) == 1 and calls[0] is bundle
    # the coefficients are those of that one fit
    coef, _ = real(bundle)
    np.testing.assert_array_equal(truth.A_hat, coef.A_hat)
    kept = truth.nonzero_mask
    np.testing.assert_array_equal(truth.beta[kept], coef.B_hat[kept])


def test_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(alpha=0.0)
    with pytest.raises(ValueError):
        BootstrapConfig(n_datasets=5)


def test_config_methods_by_name():
    cfg = BootstrapConfig(methods=("proposed", DofMethod.NAIVE))
    assert cfg.methods == (DofMethod.PROPOSED, DofMethod.NAIVE)
    assert all(isinstance(m, DofMethod) for m in cfg.methods)
    with pytest.raises(ValueError, match="not a valid DofMethod"):
        BootstrapConfig(methods=("bonferroni",))


@pytest.mark.parametrize("methods, got", [
    (("naive", "gollob", "naive"), "naive gollob naive"),
], ids=["repeated"])
def test_config_methods_adjusting_and_distinct(methods, got):
    with pytest.raises(ValueError) as err:
        BootstrapConfig(methods=methods)
    assert str(err.value) == ("METHODS_RANGE: methods must be distinct and "
                              "among proposed, gollob, mandel, naive; got "
                              + got)
