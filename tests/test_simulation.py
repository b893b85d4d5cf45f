import json
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from factordf.dof import df_noise, df_signal_k, noise_floor
from factordf.cli import _fmt, main
from factordf import linalg, simulation
from factordf.linalg import top_factors
from oracles import (_rss_after_truncation, _simulate_response,
                     adjusted_residuals, band_reduce, direction_vector,
                     extract_factors, loading_matrix, reference_plan, rss)
from oracles import TestDirection as Direction
from factordf.simulation import (CSV_COLUMNS, SignalShape,
                                 SimConfig, cell_columns, cell_record,
                                 grid_to_json, projection, run_grid,
                                 run_replicate, run_sim, run_spike_sim,
                                 sampling_plan, solve, theoretical_df)


def noise_cfg(**kw):
    base = dict(n=20, m=100, r=0, r_hat=1, replicates=400, seed=9)
    base.update(kw)
    return SimConfig(**base)


def test_shapes_are_unit_vectors():
    for shape in SignalShape:
        cfg = SimConfig(n=5, m=12, r=1, mu=(2.0,), shape=shape,
                        replicates=100, seed=0)
        v = loading_matrix(cfg)[:, 0]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        # the engine's projection is the dense vectors' (v's)^2 / s's
        s = direction_vector(cfg)
        assert projection(shape, cfg.m) == (v @ s) ** 2 / float(s @ s)
    perp = loading_matrix(SimConfig(n=5, m=12, r=1, mu=(2.0,),
                                    shape=SignalShape.PERP_BASIS,
                                    replicates=100, seed=0))[:, 0]
    assert perp[0] == 0.0 and perp[1] == 1.0


def rss_of(plan, draws):
    """The RSS / sigma^2 that run_sim takes from each of ``draws``."""
    return simulation._rss_and_df(plan, draws)[0]


def test_plan_matches_m_row_reference():
    # the plan's coordinates of span(v, s) against the SVD of [V s] in R^m:
    # k = 1 plans byte for byte; k = 2 plans up to a rotation of the plane,
    # so through their inner products, to 1e-12 relative (the m-row SVD's own
    # rounding reaches 3e-13 at m = 17862); mu = 1.2 is 3 at sigma^2 = 2.5
    for mu in (3.0, 1.2):
        for m in (1, 2, 3, 50, 500, 17862):
            cells = [SimConfig(n=7, m=m, r=0)] + [
                SimConfig(n=7, m=m, r=1, mu=(mu,), shape=shape)
                for shape in SignalShape if m > 1 or "perp" not in shape.value]
            for cfg in cells:
                plan = sampling_plan(cfg)
                signal, direction, loading = reference_plan(cfg)
                assert len(plan.direction) == len(direction)
                if cfg.r == 0 or cfg.shape is SignalShape.BASIS:
                    assert plan.signal.tobytes() == signal.tobytes()
                    assert plan.direction.tobytes() == direction.tobytes()
                    assert plan.loading.tobytes() == loading.tobytes()
                    continue
                for got, want in [
                        (plan.signal @ plan.signal.T, signal @ signal.T),
                        (plan.signal @ plan.direction, signal @ direction),
                        (plan.direction @ plan.direction,
                         direction @ direction)]:
                    np.testing.assert_allclose(got, want, rtol=1e-12,
                                               atol=1e-12)


def test_replicate_deterministic():
    cfg = noise_cfg()
    (R, F), (R2, F2) = run_replicate(cfg, 7), run_replicate(cfg, 7)
    assert R.tobytes() == R2.tobytes() and F.tobytes() == F2.tobytes()
    assert run_replicate(cfg, 8)[1].tobytes() != F.tobytes()


def k2_cell(n, m, shape, **kw):
    # one loading, the direction outside its span: span(v, s) has k = 2
    return SimConfig(n=n, m=m, r=1, mu=(2.5,), shape=shape, replicates=20,
                     **kw)


def assert_solve_matches_dense(cfg, indices=range(4)):
    plan = sampling_plan(cfg)
    s = direction_vector(cfg)
    for i in indices:
        Y = _simulate_response(cfg, i)
        got = rss_of(plan, [band_reduce(cfg, Y)])[0]
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
        SimConfig(n=8, m=14, r=1, mu=(3.0,), shape=SignalShape.PERP_BASIS,
                  r_hat=1, replicates=20, seed=1),
        SimConfig(n=10, m=10, r=1, mu=(0.8,), shape=SignalShape.BASIS,
                  r_hat=1, replicates=20, seed=2),
        SimConfig(n=6, m=20, r=0, r_hat=2, replicates=20, seed=3),
        k2_cell(7, 25, SignalShape.PERP_BASIS, r_hat=1, seed=4),
        k2_cell(7, 25, SignalShape.ONES, r_hat=2, seed=5),
    ]
    for cfg in cells:
        plan = assert_solve_matches_dense(cfg)
        assert plan.dim == cfg.n
    assert len(sampling_plan(cells[-1]).direction) == 2
    assert len(sampling_plan(cells[0]).direction) == 2
    assert len(sampling_plan(cells[2]).direction) == 1   # v = s


def test_replicate_matches_factor_module_tall():
    # n > m: M has order m, B's rows past m vanish
    cells = [
        SimConfig(n=15, m=6, r=1, mu=(2.5,), shape=SignalShape.BASIS,
                  r_hat=1, replicates=20, seed=3),
        SimConfig(n=15, m=6, r=1, mu=(5.0,), shape=SignalShape.ONES,
                  r_hat=2, replicates=20, seed=4),
        SimConfig(n=20, m=7, r=0, r_hat=2, replicates=20, seed=5),
        k2_cell(12, 5, SignalShape.PERP_BASIS, r_hat=1, seed=6),
        k2_cell(12, 5, SignalShape.PERP_BASIS, r_hat=2, seed=7),
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
                replace(plan, r_hat=1), [band_reduce(cfg, Y)])
            assert mu1 * n == pytest.approx(sing[0] ** 2, rel=1e-10)
            assert overlap_sq == pytest.approx((vhat @ v) ** 2, rel=1e-8)


# Engine vs dense oracle in law.  Seeds fixed before the first run; the
# oracle uses other seeds than the engine, so the two samples share no draws.
# k = dim span(v, s) is M's bandwidth.
LAW_CELLS = [
    # (label, k, config keywords): noise, signal along s, near-square, n > m
    ("primal-noise", 1, dict(n=10, m=60, r=0, r_hat=1)),
    ("primal-basis", 1, dict(n=20, m=80, r=1, mu=(3.0,), r_hat=1)),
    ("near-square", 1, dict(n=12, m=12, r=1, mu=(2.0,), r_hat=1)),
    ("dual-basis", 1, dict(n=30, m=10, r=1, mu=(2.0,), r_hat=1)),
    # the band at k = 2: ones, perp-basis with n > m, two fitted factors,
    # mu = 2 at sigma^2 = 2.5 (so 0.8 in units of sigma^2), a band cut short
    # by m - k < n, and m = k, where M = R R' has no Wishart part
    ("ones-k2", 2, dict(n=20, m=60, r=1, mu=(3.0,), r_hat=1,
                        shape=SignalShape.ONES)),
    ("perp-basis-tall", 2, dict(n=30, m=12, r=1, mu=(2.0,), r_hat=1,
                                shape=SignalShape.PERP_BASIS)),
    ("r-hat-2", 2, dict(n=15, m=40, r=1, mu=(3.0,), r_hat=2,
                        shape=SignalShape.ONES)),
    ("sigma-sq", 1, dict(n=20, m=60, r=1, mu=(0.8,), r_hat=1)),
    ("truncated-band", 2, dict(n=20, m=21, r=1, mu=(2.0,), r_hat=1,
                               shape=SignalShape.ONES)),
    ("m-equals-k", 2, dict(n=10, m=2, r=1, mu=(2.0,), r_hat=1,
                           shape=SignalShape.ONES)),
]
LAW_SEED, ORACLE_SEED, LAW_REPS = 7100, 7200, 1000


def law_config(kw, seed):
    return SimConfig(replicates=LAW_REPS, seed=seed, **kw)


@pytest.mark.parametrize("label,k,kw", LAW_CELLS,
                         ids=[c[0] for c in LAW_CELLS])
def test_engine_rss_law_matches_dense_oracle(label, k, kw):
    cfg = law_config(kw, LAW_SEED)
    plan = sampling_plan(cfg)
    assert len(plan.direction) == k
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
    run_spike_sim(cfg) if spike else run_sim(cfg, threads=8)
    assert seen == [threading.get_ident()] * cfg.replicates


def run_threads(work, count):
    """Start ``count`` threads running ``work(j)`` together, with a short
    switch interval; join each with a timeout."""
    barrier = threading.Barrier(count, timeout=60)
    threads = [threading.Thread(target=lambda j=j: (barrier.wait(), work(j)))
               for j in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_threads_drawing_at_once_match_serial_draws():
    # each thread re-keys its own generator: more threads than cores, each
    # on its own cell, draw the bytes one thread draws serially
    cells = [noise_cfg(replicates=150), noise_cfg(replicates=150, seed=2**63),
             SimConfig(n=20, m=60, r=1, mu=(3.0,), shape=SignalShape.ONES,
                       replicates=150, seed=4),
             SimConfig(n=30, m=10, r=1, mu=(2.0,), replicates=150, seed=-1)]

    def draws(cfg):
        return [b"".join(a.tobytes() for a in run_replicate(cfg, i))
                for i in range(cfg.replicates)]

    want = [draws(cfg) for cfg in cells]
    got = [None] * len(cells)

    def work(j):
        got[j] = draws(cells[j])

    run_threads(work, len(cells))
    assert got == want


def test_run_sim_builds_at_most_one_generator_per_thread(monkeypatch):
    # replicates re-key their thread's generator instead of building one
    built = []
    real = np.random.Philox

    def spy(*args, **kw):
        built.append(threading.get_ident())
        return real(*args, **kw)

    monkeypatch.setattr(np.random, "Philox", spy)
    cfg = noise_cfg(replicates=300)
    results = [run_sim(cfg), None, None]

    def work(j):
        results[j + 1] = run_sim(replace(cfg, seed=cfg.seed + j))

    run_threads(work, 2)
    assert results[1] == results[0] and results[2] is not None
    assert max(Counter(built).values(), default=0) <= 1


def test_single_cell_grid_equals_run_sim():
    cfg = noise_cfg(replicates=300)
    cell = run_grid([cfg])[0]
    assert cell.config == cfg and cell.result == run_sim(cfg)


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
    assert noise.config.shape is SignalShape.BASIS  # the config is kept
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


def test_noise_preset_covers_paper_grid(capsys):
    # the paper's noise grid: one cell per (n, m), n the outer loop
    assert main(["simulate", "--n", "5", "10", "50", "100",
                 "--m", "5", "10", "50", "100", "500", "1000", "5000", "10000",
                 "--replicates", "100", "--seed", "1", "--format", "json"]) == 0
    cells = json.loads(capsys.readouterr().out)
    assert [(c["n"], c["m"]) for c in cells] == [
        (n, m) for n in (5, 10, 50, 100)
        for m in (5, 10, 50, 100, 500, 1000, 5000, 10000)]
    assert {(c["mu"], c["shape"], c["replicates"]) for c in cells} == {
        (None, None, 100)}


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=10, m=10, r=1, mu=(), replicates=100, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=10, m=10, r=2, mu=(1.0, 2.0), replicates=100, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=10, m=10, r=0, r_hat=11, replicates=100, seed=0)
    # n mu up to 1e12 is a cell
    SimConfig(n=100, m=10, r=1, mu=(1e10,))
    with pytest.raises(simulation.CodedError, match="MU_RANGE: n mu must be"):
        SimConfig(n=100, m=10, r=1, mu=(1.0000001e10,))


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
    # a plain string once matched none of the shape's `is` branches and
    # gave a signal-free cell
    kw = dict(n=100, m=50, r=1, mu=(21.0,), replicates=200, seed=1)
    by_name = SimConfig(shape="basis", **kw)
    assert by_name.shape is SignalShape.BASIS
    assert by_name == SimConfig(shape=SignalShape.BASIS, **kw)
    assert run_sim(by_name) == run_sim(SimConfig(shape=SignalShape.BASIS, **kw))
    with pytest.raises(ValueError, match="not a valid SignalShape"):
        SimConfig(shape="diagonal", **kw)
