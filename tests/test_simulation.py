import numpy as np
import pytest
from scipy import stats

from factordf.dof import df_noise, df_signal_k, noise_floor
from factordf.linalg import top_factors
from oracles import (_rss_after_truncation, _simulate_response,
                     adjusted_residuals, extract_factors, rss)
from oracles import TestDirection as Direction
from factordf.simulation import (CSV_COLUMNS, SignalShape,
                                 SimConfig, cell_columns, cell_record,
                                 direction_vector, grid_to_json,
                                 loading_matrix, run_grid, run_replicate,
                                 run_sim, run_spike_sim, sampling_plan, solve,
                                 spike_solve, noise_preset, theoretical_df)


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


def test_replicate_deterministic():
    cfg = noise_cfg()
    a = run_replicate(cfg, 7)
    b = run_replicate(cfg, 7)
    assert a == b
    assert run_replicate(cfg, 8) != a


def split_dense(plan, Y, r):
    """(first, W) of a dense response Y: the primal column rotation onto
    [W1 W2], or the dual split of Y's rows after the first r."""
    if plan.dual:
        return Y[:r], Y[r:].T @ Y[r:] / plan.sigma_sq
    k = plan.basis.shape[1]
    W2 = np.linalg.qr(plan.basis, mode="complete")[0][:, k:]
    YW2 = Y @ W2
    return Y @ plan.basis, YW2 @ YW2.T / plan.sigma_sq


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
        got = solve(plan, *split_dense(plan, Y, cfg.r))
        want = _rss_after_truncation(Y, s, cfg.r_hat)
        assert got == pytest.approx(want, rel=1e-8)
        if cfg.r_hat > 0:   # and the explicit truncation pipeline
            est = extract_factors(Y, cfg.r_hat)
            full = rss(adjusted_residuals(Y, est), Direction(s))
            assert got == pytest.approx(full, rel=1e-8)
    return plan


def test_replicate_matches_factor_module():
    # wide and near-square: solve on (Y W1, (Y W2)(Y W2)') of a dense draw
    # reproduces the dense pipeline's RSS
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
        assert not plan.dual
    assert sampling_plan(cells[-1]).basis.shape == (25, 2)
    assert sampling_plan(cells[0]).basis.shape == (14, 2)
    assert sampling_plan(cells[2]).basis.shape == (10, 1)   # v = s


def test_replicate_matches_factor_module_tall():
    # n > m: solve on the row split (R1, R2'R2) works on the m x m dual
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
        assert assert_solve_matches_dense(cfg).dual


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
            lam, overlap_sq = spike_solve(plan, *split_dense(plan, Y, 1))
            assert lam == pytest.approx(sing[0] ** 2, rel=1e-10)
            assert overlap_sq == pytest.approx((vhat @ v) ** 2, rel=1e-8)


# Engine vs dense oracle in law.  Seeds fixed before the first run; the
# oracle uses other seeds than the engine, so the two samples share no draws.
LAW_CELLS = [
    # (label, config keywords): primal Bartlett, primal signal, near-square
    # (dense Wishart factor), dual Bartlett, dual dense factor with two
    # factors and s partly outside their span
    ("primal-noise", dict(n=10, m=60, r=0, r_hat=1)),
    ("primal-basis", dict(n=20, m=80, r=1, mu=(3.0,), r_hat=1)),
    ("near-square", dict(n=12, m=12, r=1, mu=(2.0,), r_hat=1)),
    ("dual-basis", dict(n=30, m=10, r=1, mu=(2.0,), r_hat=1)),
    ("dual-dense", dict(n=11, m=10, r=2, mu=(4.0, 2.0), r_hat=2,
                        shape=SignalShape.CUSTOM)),
]
LAW_SEED, ORACLE_SEED, LAW_REPS = 7100, 7200, 1000


def law_config(kw, seed):
    kw = dict(kw)
    if kw.get("shape") is SignalShape.CUSTOM:
        m = kw["m"]
        V = np.zeros((m, 2))
        V[0, 0] = V[1, 1] = 1.0
        kw["custom_loadings"] = V
        kw["test_direction"] = np.eye(m)[0] + np.eye(m)[2]
    return SimConfig(replicates=LAW_REPS, seed=seed, **kw)


@pytest.mark.parametrize("label,kw", LAW_CELLS, ids=[c[0] for c in LAW_CELLS])
def test_engine_rss_law_matches_dense_oracle(label, kw):
    cfg = law_config(kw, LAW_SEED)
    plan = sampling_plan(cfg)
    assert plan.dual == label.startswith("dual")
    assert (plan.dof < plan.dim) == (label in ("near-square", "dual-dense"))
    engine = [run_replicate(cfg, i, plan)[0] for i in range(LAW_REPS)]
    ref_cfg = law_config(kw, ORACLE_SEED)
    s = direction_vector(ref_cfg)
    dense = [_rss_after_truncation(_simulate_response(ref_cfg, i), s,
                                   cfg.r_hat) for i in range(LAW_REPS)]
    assert stats.ks_2samp(engine, dense).pvalue > 0.01


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
    columns = dict(zip(CSV_COLUMNS, cell_columns([noise, signal])))
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
