import numpy as np
import pytest

from factordf.dof import df_noise, df_signal_k, noise_floor
from oracles import adjusted_residuals, extract_factors, rss
from oracles import TestDirection as Direction
from factordf.simulation import (CSV_COLUMNS, SignalShape, SimConfig,
                                 _simulate_response, cell_columns,
                                 loading_matrix, run_grid, run_replicate,
                                 run_sim, run_spike_sim,
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


def test_replicate_deterministic():
    cfg = noise_cfg()
    a = run_replicate(cfg, 7)
    b = run_replicate(cfg, 7)
    assert a == b
    assert run_replicate(cfg, 8) != a


def test_replicate_matches_factor_module():
    # the Gram shortcut agrees with the explicit truncation pipeline
    for seed in range(10):
        cfg = SimConfig(n=8, m=14, r=1, mu=(3.0,), shape=SignalShape.ONES,
                        r_hat=2, replicates=20, seed=seed)
        got, _ = run_replicate(cfg, seed % 20)
        Y = _simulate_response(cfg, seed % 20)
        est = extract_factors(Y, 2)
        want = rss(adjusted_residuals(Y, est), Direction(np.eye(14)[0]))
        assert got == pytest.approx(want, rel=1e-8)


def test_replicate_matches_factor_module_tall():
    cfg = SimConfig(n=15, m=6, r=1, mu=(2.5,), shape=SignalShape.BASIS,
                    r_hat=1, replicates=20, seed=3)
    got, _ = run_replicate(cfg, 4)
    Y = _simulate_response(cfg, 4)
    est = extract_factors(Y, 1)
    want = rss(adjusted_residuals(Y, est), Direction(np.eye(6)[0]))
    assert got == pytest.approx(want, rel=1e-8)


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
