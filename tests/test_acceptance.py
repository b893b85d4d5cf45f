"""Acceptance suite: one test per criterion, one printed line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Every tolerance is pinned here; the Monte-Carlo checks use
fixed seeds so the whole suite is deterministic.
"""

import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest

from factordf.datasets import AGE_COEF_INDEX, subject_covariates, synthetic_study
from factordf.distributions import ks_test, stream
from factordf.dof import (df_conservative, df_gollob, df_mandel, df_noise,
                          noise_floor)
from factordf.fdr import BootstrapConfig, evaluate
from factordf.inference import compute_direction_stats, response_tests
from factordf.model import DatasetBundle, fit_two_sided
from factordf.simulation import (SignalShape, SimConfig, run_sim,
                                 run_spike_sim)
from oracles import (FactorModelTruth, adjusted_residuals, extract_factors,
                     reduce_to_covariate_free, rss, rss_expansion_oracle, t_cdf)
from oracles import test_direction as direction_for

THREADS = min(4, os.cpu_count() or 1)


def report(criterion: int, ok: bool, msg: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {msg}")
    return ok


def test_criterion_1_noise_df():
    """Asymptotic noise-case df: mean simulated df within 3 SE of theory."""
    checks = []
    for n, m in ((10, 500), (50, 1000), (100, 5000)):
        cfg = SimConfig(n=n, m=m, r=0, r_hat=1, replicates=2000, seed=1601)
        res = run_sim(cfg, threads=THREADS)
        theory = df_noise(n, m, 1).total
        ok = abs(res.mean_df - theory) <= 3 * res.se_df
        checks.append(report(
            1, ok, f"noise (n={n}, m={m}): mean={res.mean_df:.4f} "
                   f"theory={theory:.4f} 3SE={3 * res.se_df:.4f}"))
    assert all(checks)


SIGNAL_CELLS = [(m, mu, shape)
                for m in (50, 500)
                for mu in (1.5, 3.0, 21.0)
                for shape in (SignalShape.ONES, SignalShape.BASIS,
                              SignalShape.PERP_BASIS)]


def test_criterion_2_signal_df():
    """Signal-case df: 3 SE agreement, Perp cells adjudicated between the
    two published candidates."""
    n = 100
    checks = []
    for m, mu, shape in SIGNAL_CELLS:
        cfg = SimConfig(n=n, m=m, r=1, mu=(mu,), shape=shape, r_hat=1,
                        replicates=2000, seed=1602)
        res = run_sim(cfg, threads=THREADS)
        if res.alt_theoretical_df is not None:
            # adjudication cell: must bracket one candidate and record which
            ok = res.bracketed in ("primary", "alternative", "both")
            checks.append(report(
                2, ok, f"signal perp (m={m}, mu={mu}): mean={res.mean_df:.4f} "
                       f"candidates=({res.theoretical_df:.4f}, "
                       f"{res.alt_theoretical_df:.4f}) "
                       f"3SE={3 * res.se_df:.4f} bracketed={res.bracketed}"))
        else:
            ok = abs(res.mean_df - res.theoretical_df) <= 3 * res.se_df
            tag = " (conjecture)" if res.conjectural else ""
            # basis df is n times a function of (m/n, mu): the per-row gap
            # reads as a finite-size number
            gap = (f" gap/n={(res.mean_df - res.theoretical_df) / n:+.4f} "
                   f"3SE/n={3 * res.se_df / n:.4f}"
                   if shape is SignalShape.BASIS else "")
            checks.append(report(
                2, ok, f"signal {shape.value} (m={m}, mu={mu}){tag}: "
                       f"mean={res.mean_df:.4f} theory={res.theoretical_df:.4f} "
                       f"3SE={3 * res.se_df:.4f}{gap}"))
    assert all(checks)


def test_criterion_3_chi2_agreement_pattern():
    """KS pattern: good fit for large (n, m) noise cells, rejection for the
    small noise cells and every Basis-signal cell."""
    seed = 60601
    checks = []
    for n in (50, 100):
        for m in (500, 1000, 5000, 10000):
            cfg = SimConfig(n=n, m=m, r=0, r_hat=1, replicates=2000, seed=seed)
            p = run_sim(cfg, threads=THREADS).ks.p_value
            checks.append(report(3, p > 0.05,
                                 f"noise (n={n}, m={m}): KS p={p:.4f} > 0.05"))
    for n in (5, 10):
        for m in (5, 10, 50, 100):
            cfg = SimConfig(n=n, m=m, r=0, r_hat=1, replicates=10000, seed=seed)
            p = run_sim(cfg, threads=THREADS).ks.p_value
            checks.append(report(3, p < 0.01,
                                 f"noise (n={n}, m={m}): KS p={p:.5f} < 0.01"))
    for n in (50, 100):
        for m in (50, 100, 500):
            cfg = SimConfig(n=n, m=m, r=1, mu=(3.0,), shape=SignalShape.BASIS,
                            r_hat=1, replicates=2000, seed=seed)
            p = run_sim(cfg, threads=THREADS).ks.p_value
            checks.append(report(3, p < 0.01,
                                 f"basis (n={n}, m={m}): KS p={p:.6f} < 0.01"))
    assert all(checks)


def test_criterion_4_published_scalars():
    """Published df values at study dimensions n=36, m=17862, r_hat=2.

    Mandel's total is E[lambda_1 + lambda_2] / m at this finite size, so it is
    held to a direct draw of that definition.  The published 2.184 is its
    n -> infinity limit, checked as an upper bound at this size.
    """
    n, m = 36, 17862
    checks = []
    gollob = df_gollob(n, m, 2).total
    checks.append(report(4, abs(gollob - 2.004) <= 0.001,
                         f"Gollob total={gollob:.4f} vs 2.004 +- 0.001"))
    mandel = df_mandel(n, m, 2, mc_reps=10000, seed=1604)
    # reference: top two eigenvalues of G G' for dense standard-normal G,
    # from a generator of its own (not the DOMAIN_MANDEL stream)
    rng = np.random.default_rng(987654)
    reps = 800
    direct = np.empty(reps)
    for i in range(reps):
        G = rng.standard_normal((n, m))
        direct[i] = np.linalg.eigvalsh(G @ G.T)[-2:].sum() / m
    direct_se = direct.std(ddof=1) / np.sqrt(reps)
    combined = np.hypot(mandel.mc_se, direct_se)
    checks.append(report(
        4, abs(mandel.total - direct.mean()) <= 3 * combined,
        f"Mandel total={mandel.total:.5f} (mc_se={mandel.mc_se:.2e}) vs "
        f"direct Wishart {direct.mean():.5f} (se={direct_se:.2e}) "
        f"3SE={3 * combined:.5f}"))
    # E[s_max(G)] <= sqrt(n) + sqrt(m) (Gordon), Var(s_max) <= 1 (Gaussian
    # Poincare), lambda_2 <= lambda_1: the total is at most this at any size
    bound = 2 * ((np.sqrt(n) + np.sqrt(m)) ** 2 + 1) / m
    checks.append(report(
        4, mandel.total - 3 * mandel.mc_se <= bound,
        f"Mandel total - 3 mc_se={mandel.total - 3 * mandel.mc_se:.5f} <= "
        f"finite-n bound {bound:.5f}; gap to asymptote 2.184 = "
        f"{mandel.total - 2.184:+.4f}"))
    envelope = df_conservative(n, m, [0.0, 0.0]).total
    checks.append(report(4, abs(envelope - 2.184) <= 0.001,
                         f"proposed lower envelope={envelope:.4f} vs 2.184 +- 0.001"))
    assert all(checks)


def test_criterion_5_exact_identities():
    """The covariate-reduction equality and the RSS expansion identity, 100+ seeds."""
    worst_reduce = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        N, M, p, q = 6, 8, 2, 1
        X = np.column_stack([np.ones(N), rng.standard_normal(N)])
        Z = np.ones((M, 1))
        bundle = DatasetBundle(rng.standard_normal((N, M)), X, Z)
        j = seed % M
        r_hat = 1 + seed % 2
        s = direction_for(bundle, j)
        _, E_hat = fit_two_sided(bundle)
        est = extract_factors(E_hat, r_hat)
        full = rss(adjusted_residuals(E_hat, est), s)
        reduced, s2 = reduce_to_covariate_free(bundle, s)
        est2 = extract_factors(reduced.Y22, r_hat)
        red = rss(adjusted_residuals(reduced.Y22, est2), s2)
        worst_reduce = max(worst_reduce, abs(full - red) / max(full, 1e-30))
    ok1 = worst_reduce <= 1e-8
    report(5, ok1, f"covariate reduction equality: worst relative error {worst_reduce:.2e}")

    worst_expand = 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        n, m = 6, 9
        r = 1 + seed % 2
        r_hat = 1 + (seed // 2) % 2
        U = np.linalg.qr(rng.standard_normal((n, r)))[0]
        V = np.linalg.qr(rng.standard_normal((m, r)))[0]
        mu = np.sort(rng.uniform(1.0, 6.0, size=r))[::-1] + np.arange(r, 0, -1)
        truth = FactorModelTruth(U, mu, V)
        E = rng.standard_normal((n, m))
        from oracles import TestDirection
        s = TestDirection(rng.standard_normal(m))
        Y = truth.signal_matrix() + E
        est = extract_factors(Y, r_hat)
        direct = rss(adjusted_residuals(Y, est), s)
        oracle = rss_expansion_oracle(truth, E, s, r_hat)
        worst_expand = max(worst_expand, abs(direct - oracle) / max(abs(direct), 1e-30))
    ok2 = worst_expand <= 1e-8
    report(5, ok2, f"RSS expansion identity: worst relative error {worst_expand:.2e}")
    assert ok1 and ok2


def test_criterion_6_null_t_calibration():
    """10,000 null replicates at N=39, p=3, r_hat=0: t values follow t_36 and
    the coefficient component is uncorrelated with the RSS."""
    N, M = 39, 12
    X = subject_covariates()
    tissue = np.ones(M)
    tissue[M // 2:] = -1.0
    Z = np.column_stack([np.ones(M), tissue])
    reps = 10000
    rng = stream(1606, 7, 0)
    t_vals = np.empty(reps)
    coefs = np.empty(reps)
    rss_vals = np.empty(reps)
    for i in range(reps):
        bundle = DatasetBundle(rng.standard_normal((N, M)), X, Z)
        stats = compute_direction_stats(bundle, 0)
        est, _, t, df_resid, _ = response_tests(stats, AGE_COEF_INDEX, np.zeros(M))
        t_vals[i] = t[0]
        coefs[i] = est[0]
        rss_vals[i] = stats.rss[0]
        assert df_resid[0] == N - 3
    ks = ks_test(t_vals, lambda q: t_cdf(q, N - 3))
    ok1 = ks.p_value > 0.01
    report(6, ok1, f"KS of 10^4 null t values vs t_36: p={ks.p_value:.4f} > 0.01")
    corr = float(np.corrcoef(coefs, rss_vals)[0, 1])
    ok2 = abs(corr) < 0.05
    report(6, ok2, f"|corr(coefficient, RSS)| = {abs(corr):.4f} < 0.05")
    assert ok1 and ok2


def test_criterion_7_bootstrap_fdr():
    """Desk-scale parametric bootstrap reproduces the method comparison."""
    bundle, _ = synthetic_study(m_responses=2000, seed=20240809)
    cfg = BootstrapConfig(k_factors=2, alpha=0.001, n_datasets=200,
                          seed=314159, coef_index=AGE_COEF_INDEX,
                          threads=THREADS)
    rates = evaluate(cfg, bundle).rates
    adjusting = ["proposed", "gollob", "mandel", "naive"]
    alpha_pct = 100 * cfg.alpha

    checks = []
    for a in adjusting:
        r = rates[a]
        ok = abs(r.fpr_pct - alpha_pct) <= 3 * r.fpr_se
        checks.append(report(
            7, ok, f"FPR({a})={r.fpr_pct:.4f}% vs alpha={alpha_pct:.1f}% "
                   f"(3SE={3 * r.fpr_se:.4f})"))
    gap = min(rates[a].tpr_pct - rates["none"].tpr_pct for a in adjusting)
    checks.append(report(7, gap >= 20.0,
                         f"min TPR gap over baseline = {gap:.2f} >= 20 points"))
    fdr_none, fdr_prop = rates["none"].fdr_pct, rates["proposed"].fdr_pct
    ok = fdr_none is not None and fdr_none > fdr_prop
    checks.append(report(7, ok, f"FDR(none)={fdr_none:.2f}% > "
                                f"FDR(proposed)={fdr_prop:.2f}%"))
    spread_ok = True
    for stat in ("fdr_pct", "fpr_pct", "tpr_pct"):
        vals = [getattr(rates[a], stat) for a in adjusting]
        spread = max(vals) - min(vals)
        spread_ok &= spread <= 1.5
        checks.append(report(7, spread <= 1.5,
                             f"adjusting-method spread in {stat} = "
                             f"{spread:.3f} <= 1.5 points"))
    assert all(checks)


def test_criterion_8_asymptotic_predictions():
    """Top eigenvalue and loading overlap at n=m=100, mu=3, 5000 replicates."""
    cfg = SimConfig(n=100, m=100, r=1, mu=(3.0,), shape=SignalShape.BASIS,
                    replicates=5000, seed=2026)
    res = run_spike_sim(cfg)
    mu_bar, rho2 = 16 / 3, 2 / 3
    ok1 = abs(res.mean_mu1 - mu_bar) <= 3 * res.se_mu1
    report(8, ok1, f"mean mu_hat_1={res.mean_mu1:.4f} vs {mu_bar:.4f} "
                   f"(3SE={3 * res.se_mu1:.4f})")
    ok2 = abs(res.mean_overlap_sq - rho2) <= 3 * res.se_overlap_sq
    report(8, ok2, f"mean (vhat'v)^2={res.mean_overlap_sq:.4f} vs {rho2:.4f} "
                   f"(3SE={3 * res.se_overlap_sq:.4f})")
    assert ok1 and ok2


def run_cli(args, outfile):
    cmd = [sys.executable, "-m", "factordf.cli"] + args + ["--output", str(outfile)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return outfile


def test_criterion_9_determinism(tmp_path):
    """Every stochastic command, run three times, is byte-identical;
    bootstrap, the one command with threads, runs at 1, 1 and 8."""
    fix = tmp_path / "fix"
    subprocess.run([sys.executable, "-m", "factordf.cli", "generate",
                    "--out-dir", str(fix), "--m", "200", "--seed", "5"],
                   check=True, capture_output=True)
    fix2 = tmp_path / "fix2"
    subprocess.run([sys.executable, "-m", "factordf.cli", "generate",
                    "--out-dir", str(fix2), "--m", "200", "--seed", "5"],
                   check=True, capture_output=True)
    same = all(filecmp.cmp(fix / f, fix2 / f, shallow=False)
               for f in ("y.csv", "x.csv", "z.csv", "truth.json"))
    checks = [report(9, same, "generate: repeated runs byte-identical")]

    data = ["--y", str(fix / "y.csv"), "--x", str(fix / "x.csv"),
            "--z", str(fix / "z.csv")]
    commands = {
        "simulate": ["simulate", "--n", "20", "--m", "100", "--r-hat", "1",
                     "--replicates", "400", "--seed", "11", "--format", "csv"],
        "simulate-grid": ["simulate", "--n", "10", "20", "--m", "50",
                          "--replicates", "300", "--seed", "12",
                          "--format", "csv"],
        "test-mandel": ["test"] + data + ["--coef-index", "2", "--r-hat", "2",
                                          "--method", "mandel", "--seed", "13",
                                          "--mandel-reps", "300",
                                          "--format", "csv"],
        "bootstrap": ["bootstrap"] + data + ["--coef-index", "2",
                                             "--n-datasets", "10",
                                             "--mandel-reps", "200",
                                             "--seed", "14", "--format", "csv"],
    }
    for name, args in commands.items():
        outs = []
        threaded = name == "bootstrap"
        for run, threads in (("a", 1), ("b", 1), ("c", 8)):
            path = tmp_path / f"{name}-{run}.csv"
            run_cli(args + (["--threads", str(threads)] if threaded else []),
                    path)
            outs.append(path.read_bytes())
        ok = outs[0] == outs[1] == outs[2]
        what = "runs and thread counts" if threaded else "runs"
        checks.append(report(9, ok, f"{name}: identical across {what}"))
    assert all(checks)
