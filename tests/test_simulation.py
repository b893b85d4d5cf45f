import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from factordf.dof import df_noise, df_signal_k, noise_floor
from factordf.cli import _fmt
from factordf import linalg, simulation
from factordf.linalg import top_factors
from oracles import (_rss_after_truncation, _simulate_response,
                     adjusted_residuals, band_reduce, extract_factors, rss)
from oracles import TestDirection as Direction
from factordf.simulation import (CSV_COLUMNS, SignalShape,
                                 SimConfig, cell_columns, cell_record,
                                 direction_vector, grid_to_json,
                                 loading_matrix, run_grid, run_replicate,
                                 run_sim, run_spike_sim, sampling_plan, solve,
                                 noise_preset, theoretical_df)


def noise_cfg(**kw):
    base = dict(n=20, m=100, r=0, r_hat=1, replicates=400, seed=9)
    base.update(kw)
    return SimConfig(**base)


def test_shapes_are_unit_vectors():
    for shape in (SignalShape.ONES, SignalShape.BASIS,
                  SignalShape.PERP_ONES, SignalShape.PERP_BASIS):
        cfg = SimConfig(n=5, m=12, r=1, mu=(2.0,), shape=shape,
                        replicates=100, seed=0)
        v = loading_matrix(cfg)[:, 0]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    perp = loading_matrix(SimConfig(n=5, m=12, r=1, mu=(2.0,),
                                    shape=SignalShape.PERP_BASIS,
                                    replicates=100, seed=0))[:, 0]
    assert perp[0] == 0.0 and perp[1] == 1.0


def rss_of(plan, draws):
    """The RSS run_sim takes from each of ``draws``."""
    return simulation._rss_and_df(plan, draws)[0]


def test_replicate_deterministic():
    cfg = noise_cfg()
    (R, F), (R2, F2) = run_replicate(cfg, 7), run_replicate(cfg, 7)
    assert R.tobytes() == R2.tobytes() and F.tobytes() == F2.tobytes()
    assert run_replicate(cfg, 8)[1].tobytes() != F.tobytes()


def custom_cell(n, m, **kw):
    # one loading, a direction outside its span: span(V, s) has k = 2
    rng = np.random.default_rng(n * 100 + m)
    v = rng.standard_normal(m)
    s = rng.standard_normal(m)
    return SimConfig(n=n, m=m, r=1, mu=(2.5,), shape=SignalShape.CUSTOM,
                     custom_loadings=(v / np.linalg.norm(v))[:, None],
                     test_direction=s, replicates=20, **kw)


def assert_solve_matches_dense(cfg, indices=range(4)):
    plan = sampling_plan(cfg)
    s = direction_vector(cfg)
    for i in indices:
        Y = _simulate_response(cfg, i)
        got = rss_of(plan, [band_reduce(plan, Y)])[0]
        want = _rss_after_truncation(Y, s, cfg.r_hat)
        assert got == pytest.approx(want, rel=1e-8)
        if cfg.r_hat > 0:   # and the explicit truncation pipeline
            est = extract_factors(Y, cfg.r_hat)
            full = rss(adjusted_residuals(Y, est), Direction(s))
            assert got == pytest.approx(full, rel=1e-8)
    return plan


def test_replicate_matches_factor_module():
    # wide and near-square: solve on the (R, F) that Householder reflections
    # make of a dense draw reproduces the dense pipeline's RSS
    cells = [
        SimConfig(n=8, m=14, r=1, mu=(3.0,), shape=SignalShape.ONES,
                  r_hat=2, replicates=20, seed=0),
        SimConfig(n=8, m=14, r=1, mu=(3.0,), shape=SignalShape.PERP_ONES,
                  r_hat=1, replicates=20, seed=1),
        SimConfig(n=10, m=10, r=1, mu=(2.0,), shape=SignalShape.BASIS,
                  sigma_sq=2.5, r_hat=1, replicates=20, seed=2),
        SimConfig(n=6, m=20, r=0, r_hat=2, replicates=20, seed=3),
        custom_cell(7, 25, r_hat=1, seed=4),
        custom_cell(7, 25, r_hat=2, seed=5),
    ]
    for cfg in cells:
        plan = assert_solve_matches_dense(cfg)
        assert plan.dim == cfg.n
    assert sampling_plan(cells[-1]).basis.shape == (25, 2)
    assert sampling_plan(cells[0]).basis.shape == (14, 2)
    assert sampling_plan(cells[2]).basis.shape == (10, 1)   # v = s


def test_replicate_matches_factor_module_tall():
    # n > m: M has order m, B's rows past m vanish
    cells = [
        SimConfig(n=15, m=6, r=1, mu=(2.5,), shape=SignalShape.BASIS,
                  r_hat=1, replicates=20, seed=3),
        SimConfig(n=15, m=6, r=1, mu=(2.5,), shape=SignalShape.ONES,
                  sigma_sq=0.5, r_hat=2, replicates=20, seed=4),
        SimConfig(n=20, m=7, r=0, r_hat=2, replicates=20, seed=5),
        custom_cell(12, 5, r_hat=1, seed=6),
        custom_cell(12, 5, r_hat=2, seed=7),
    ]
    for cfg in cells:
        assert assert_solve_matches_dense(cfg).dim == cfg.m


def test_spike_solve_matches_dense():
    for n, m in ((12, 30), (30, 12), (10, 10)):
        cfg = SimConfig(n=n, m=m, r=1, mu=(3.0,), shape=SignalShape.ONES,
                        replicates=20, seed=8)
        plan = sampling_plan(cfg)
        v = loading_matrix(cfg)[:, 0]
        for i in range(3):
            Y = _simulate_response(cfg, i)
            left, sing = top_factors(Y, 1)
            vhat = Y.T @ left[:, 0] / sing[0]
            [mu1], [overlap_sq] = simulation._spike(
                replace(plan, r_hat=1), [band_reduce(plan, Y)])
            assert mu1 * n == pytest.approx(sing[0] ** 2, rel=1e-10)
            assert overlap_sq == pytest.approx((vhat @ v) ** 2, rel=1e-8)


# Engine vs dense oracle in law.  Seeds fixed before the first run; the
# oracle uses other seeds than the engine, so the two samples share no draws.
# k = dim span(V, s) is M's bandwidth.
LAW_CELLS = [
    # (label, k, config keywords): noise, signal along s, near-square,
    # n > m, n > m with two factors and s outside their span (k = 3)
    ("primal-noise", 1, dict(n=10, m=60, r=0, r_hat=1)),
    ("primal-basis", 1, dict(n=20, m=80, r=1, mu=(3.0,), r_hat=1)),
    ("near-square", 1, dict(n=12, m=12, r=1, mu=(2.0,), r_hat=1)),
    ("dual-basis", 1, dict(n=30, m=10, r=1, mu=(2.0,), r_hat=1)),
    ("dual-dense", 3, dict(n=11, m=10, r=2, mu=(4.0, 2.0), r_hat=2,
                           shape=SignalShape.CUSTOM)),
    # the band at k = 2: ones, perp-basis with n > m, a custom loading with
    # s outside its span, two fitted factors, sigma^2 != 1, a band cut short
    # by m - k < n, and m = k, where M = R R' has no Wishart part
    ("ones-k2", 2, dict(n=20, m=60, r=1, mu=(3.0,), r_hat=1,
                        shape=SignalShape.ONES)),
    ("perp-basis-tall", 2, dict(n=30, m=12, r=1, mu=(2.0,), r_hat=1,
                                shape=SignalShape.PERP_BASIS)),
    ("custom-outside", 2, dict(n=15, m=40, r=1, mu=(2.5,), r_hat=1,
                               shape=SignalShape.CUSTOM)),
    ("r-hat-2", 2, dict(n=15, m=40, r=1, mu=(3.0,), r_hat=2,
                        shape=SignalShape.ONES)),
    ("sigma-sq", 1, dict(n=20, m=60, r=1, mu=(2.0,), r_hat=1,
                         sigma_sq=2.5)),
    ("truncated-band", 2, dict(n=20, m=21, r=1, mu=(2.0,), r_hat=1,
                               shape=SignalShape.ONES)),
    ("m-equals-k", 2, dict(n=10, m=2, r=1, mu=(2.0,), r_hat=1,
                           shape=SignalShape.ONES)),
]
LAW_SEED, ORACLE_SEED, LAW_REPS = 7100, 7200, 1000


def law_config(kw, seed):
    kw = dict(kw)
    if kw.get("shape") is SignalShape.CUSTOM:
        m, r = kw["m"], kw["r"]
        V = np.zeros((m, r))
        if r == 2:
            V[0, 0] = V[1, 1] = 1.0
            kw["test_direction"] = np.eye(m)[0] + np.eye(m)[2]
        else:
            V[:, 0] = np.cos(np.arange(m))
            V /= np.linalg.norm(V)
            kw["test_direction"] = np.eye(m)[0] + np.eye(m)[1]
        kw["custom_loadings"] = V
    return SimConfig(replicates=LAW_REPS, seed=seed, **kw)


@pytest.mark.parametrize("label,k,kw", LAW_CELLS,
                         ids=[c[0] for c in LAW_CELLS])
def test_engine_rss_law_matches_dense_oracle(label, k, kw):
    cfg = law_config(kw, LAW_SEED)
    plan = sampling_plan(cfg)
    assert plan.basis.shape[1] == k
    assert plan.dim == min(cfg.n, cfg.m)
    engine = rss_of(plan, [run_replicate(cfg, i, plan)
                           for i in range(LAW_REPS)])
    ref_cfg = law_config(kw, ORACLE_SEED)
    s = direction_vector(ref_cfg)
    dense = [_rss_after_truncation(_simulate_response(ref_cfg, i), s,
                                   cfg.r_hat) for i in range(LAW_REPS)]
    assert stats.ks_2samp(engine, dense).pvalue > 0.01


# k = 1 noise and basis cells, a k = 2 cell and two fitted factors
CHUNK_CELLS = [noise_cfg(replicates=100),
               SimConfig(n=30, m=12, r=1, mu=(2.0,), replicates=100, seed=3),
               SimConfig(n=20, m=60, r=1, mu=(3.0,), shape=SignalShape.ONES,
                         replicates=100, seed=4),
               noise_cfg(r_hat=2, replicates=100)]


@pytest.mark.parametrize("per_chunk", [1, 7])
def test_chunking_does_not_change_bytes(monkeypatch, per_chunk):
    # a replicate's solve depends on its own draw alone, whatever else its
    # chunk holds
    def rss(cfg, plan):
        (values, _, _), _ = simulation._run_replicates(
            cfg, plan, simulation._rss_and_df)
        return values.tobytes()

    for cfg in CHUNK_CELLS:
        plan = sampling_plan(cfg)
        want = rss(cfg, plan)
        monkeypatch.setattr(simulation, "CHUNK_ENTRIES",
                            per_chunk * (len(plan.direction) + 1) * plan.dim)
        assert rss(cfg, plan) == want
        monkeypatch.undo()


def test_split_tridiagonal_goes_to_lapack(monkeypatch):
    # M[2, 1] = 0 splits M into two blocks, and M's top eigenvalue is the
    # lower block's: its eigenvector has first coordinate 0, but the pivot
    # sweep at that eigenvalue sees only the upper block
    cfg = SimConfig(n=4, m=10, r=0, replicates=100, seed=0)
    plan = sampling_plan(cfg)
    F = np.zeros((2, 5))
    F[0, :4] = [1.0, 0.5, 0.0, 0.5]
    F[1, 1:] = [1.0, 1.0, 3.0, 3.0]
    ab = simulation.band(F, plan.dim)
    assert ab[1, 1] == 0.0
    d, e = ab[None, 0], ab[None, 1, :3]
    lam = simulation._tridiagonal_top(d, e, 1)
    assert not simulation._tridiagonal_weights(d, e, lam)[1].any()
    calls = []
    real = simulation.top_band_eigenpairs

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simulation, "top_band_eigenpairs", spy)
    got_lam, got_w = solve(plan, [(F[:1, :1], F)])
    want_lam, vecs = linalg.top_band_eigenpairs(ab, 1)
    assert len(calls) == 1
    assert got_lam[0] == pytest.approx(want_lam, rel=1e-12)
    assert np.abs(got_w[0]) == pytest.approx(np.abs(vecs[:1]), abs=1e-12)
    assert abs(got_w[0, 0, 0]) < 1e-12
    # so the fitted factor leaves all of s's energy: RSS = ||R a||^2
    assert rss_of(plan, [(F[:1, :1], F)])[0] == pytest.approx(1.0, rel=1e-12)


def test_null_df_mean_is_zero():
    cfg = noise_cfg(r_hat=0, replicates=800)
    res = run_sim(cfg)
    assert res.theoretical_df == 0.0
    assert abs(res.mean_df) <= 3 * res.se_df


def test_noise_df_matches_theory():
    cfg = noise_cfg(replicates=800)
    res = run_sim(cfg)
    theory = df_noise(20, 100, 1).total
    assert res.theoretical_df == pytest.approx(theory)
    assert abs(res.mean_df - theory) <= 3 * res.se_df


def test_sigma_invariance_paired_seed():
    a = run_sim(noise_cfg(replicates=300))
    b = run_sim(noise_cfg(replicates=300, sigma_sq=4.0))
    assert abs(a.mean_df - b.mean_df) <= 1e-6 * max(1.0, abs(a.mean_df))


def test_thread_count_does_not_change_bytes():
    cfg = noise_cfg(replicates=300)
    r1 = run_sim(cfg, threads=1)
    r8 = run_sim(cfg, threads=8)
    assert r1 == r8


@pytest.mark.parametrize("entry,spike", [("run_replicate", False),
                                         ("run_replicate", True)])
def test_replicates_run_in_the_calling_thread(monkeypatch, entry, spike):
    # every replicate goes through the module global, on this thread, at
    # any thread count
    seen = []
    real = getattr(simulation, entry)

    def recording(*args):
        seen.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(simulation, entry, recording)
    cfg = SimConfig(n=20, m=60, r=1, mu=(3.0,), shape=SignalShape.ONES,
                    r_hat=1, replicates=100, seed=4)
    (run_spike_sim if spike else run_sim)(cfg, threads=8)
    assert seen == [threading.get_ident()] * cfg.replicates


def test_single_cell_grid_equals_run_sim():
    cfg = noise_cfg(replicates=300)
    cell = run_grid([cfg])[0]
    assert cell.result == run_sim(cfg)
    assert (cell.n, cell.m, cell.mu, cell.shape) == (20, 100, None, "basis")


def test_theoretical_df_routes_to_dof_module():
    cfg = SimConfig(n=100, m=50, r=1, mu=(3.0,), shape=SignalShape.BASIS,
                    r_hat=1, replicates=100, seed=1)
    th, alt, conj = theoretical_df(cfg)
    assert th == pytest.approx(df_signal_k(100, 50, 3.0, 1.0, 1.0))
    assert alt is None and not conj


def test_perp_cell_records_alternative():
    cfg = SimConfig(n=100, m=50, r=1, mu=(3.0,), shape=SignalShape.PERP_BASIS,
                    r_hat=1, replicates=400, seed=5)
    res = run_sim(cfg)
    assert res.alt_theoretical_df == pytest.approx(1 + (1 / 3.0) ** 2)
    assert res.theoretical_df == pytest.approx((1 + 1 / 3.0) ** 2)
    assert res.bracketed in ("primary", "alternative", "both", "neither")


def test_below_transition_flagged_conjectural():
    cfg = SimConfig(n=100, m=500, r=1, mu=(1.5,), shape=SignalShape.BASIS,
                    r_hat=1, replicates=100, seed=2)
    th, alt, conj = theoretical_df(cfg)
    assert conj
    assert th == pytest.approx(noise_floor(100, 500) - 100 * 1.5)


def test_unmodeled_signal_theory():
    # r = 1 but r_hat = 0: df is minus the signal energy along s
    cfg = SimConfig(n=50, m=20, r=1, mu=(2.0,), shape=SignalShape.BASIS,
                    r_hat=0, replicates=400, seed=11)
    th, _, _ = theoretical_df(cfg)
    assert th == pytest.approx(-50 * 2.0)
    res = run_sim(cfg)
    assert abs(res.mean_df - th) <= 4 * res.se_df


@pytest.mark.parametrize("mu", [(), (3.0,)], ids=["noise", "signal"])
def test_full_rank_fit_theory_is_exact(mu):
    # r_hat = min(n, m) absorbs every direction: RSS 0 and df n exactly,
    # so no chi-squared law is left to test
    cfg = SimConfig(n=10, m=1, r=len(mu), mu=mu, r_hat=1, replicates=100,
                    seed=1)
    assert theoretical_df(cfg) == (10.0, None, False)
    res = run_sim(cfg)
    assert res.theoretical_df == 10.0 and res.ks is None
    assert res.mean_df == pytest.approx(10.0, abs=1e-12)


def test_full_rank_fit_rss_is_exactly_zero(monkeypatch):
    # with r_hat = min(n, m) the fit spans all of M's coordinates: no solve
    # runs and the RSS is 0, not rounding
    monkeypatch.setattr(simulation, "solve", None)
    res = run_sim(SimConfig(n=2, m=2, r=0, r_hat=2, replicates=100, seed=1))
    assert (res.mean_df, res.se_df, res.theoretical_df) == (2.0, 0.0, 2.0)


def test_spike_sim_tracks_predictions():
    cfg = SimConfig(n=60, m=60, r=1, mu=(3.0,), shape=SignalShape.BASIS,
                    replicates=600, seed=21)
    res = run_spike_sim(cfg)
    assert abs(res.mean_mu1 - 16 / 3) <= 5 * res.se_mu1 + 0.05
    assert abs(res.mean_overlap_sq - 2 / 3) <= 5 * res.se_overlap_sq + 0.02


def test_noise_cell_record_has_no_shape():
    noise, signal = run_grid([
        noise_cfg(replicates=100),
        SimConfig(n=20, m=100, r=1, mu=(3.0,), shape=SignalShape.ONES,
                  replicates=100, seed=9)])
    assert noise.shape == "basis"           # the config's shape is kept
    assert cell_record(noise)["shape"] is None
    assert cell_record(signal)["shape"] == "ones"
    assert '"shape": null' in grid_to_json([noise])
    columns = {k: [_fmt(v) for v in col] for k, col in
               zip(CSV_COLUMNS, cell_columns([noise, signal]))}
    assert columns["shape"] == ["", "ones"] and columns["mu"] == ["", "3"]


def test_grid_csv_shape():
    cells = run_grid([noise_cfg(replicates=150), noise_cfg(m=50, replicates=150)])
    columns = cell_columns(cells)
    assert ",".join(CSV_COLUMNS) == ("n,m,mu,shape,mean_df,se_df,theoretical_df,"
                                     "ks_D,ks_p,conjectural,alt_theoretical_df,"
                                     "bracketed")
    assert len(columns) == len(CSV_COLUMNS)
    assert all(len(col) == 2 for col in columns)


def test_noise_preset_covers_paper_grid():
    cfgs = noise_preset(seed=1, replicates=100)
    assert len(cfgs) == 32
    assert {c.n for c in cfgs} == {5, 10, 50, 100}
    assert {c.m for c in cfgs} == {5, 10, 50, 100, 500, 1000, 5000, 10000}


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=10, m=10, r=1, mu=(), replicates=100, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=10, m=10, r=2, mu=(1.0, 2.0), replicates=100, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=10, m=10, r=0, r_hat=11, replicates=100, seed=0)


@pytest.mark.parametrize("runner", [run_sim, run_spike_sim])
def test_runs_need_min_replicates(runner):
    # one bound for both runs; a config itself takes any count, so that a
    # lone replicate can be drawn
    cfg = SimConfig(n=10, m=20, r=1, mu=(3.0,), replicates=99, seed=0)
    with pytest.raises(simulation.CodedError) as err:
        runner(cfg)
    assert err.value.code == "REPLICATES_RANGE"
    assert err.value.message.endswith(">= 100, got 99")
    run_replicate(SimConfig(n=10, m=20, r=1, mu=(3.0,), replicates=1), 0)


def test_config_shape_string_is_the_enum():
    # a plain string once matched none of loading_matrix's `is` branches and
    # gave a signal-free cell
    kw = dict(n=100, m=50, r=1, mu=(21.0,), replicates=200, seed=1)
    by_name = SimConfig(shape="basis", **kw)
    assert by_name.shape is SignalShape.BASIS
    assert by_name == SimConfig(shape=SignalShape.BASIS, **kw)
    assert run_sim(by_name) == run_sim(SimConfig(shape=SignalShape.BASIS, **kw))
    with pytest.raises(ValueError, match="not a valid SignalShape"):
        SimConfig(shape="diagonal", **kw)
