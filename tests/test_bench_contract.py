"""What the benchmark's traced mc-grid run needs of the simulation engine.

``perfbench/tracing.py`` wraps ``simulation.run_replicate`` and ``run_sim``
under their module names, and ``perfbench/run.py`` reads its per-layer
Monte-Carlo metrics from those spans: replicate counts and durations, and
``run_sim``'s self time.  A run whose replicates no longer pass through that
module global, whose spans do not nest, or whose output differs traced,
untraced or at one thread is marked incorrect.  The benchmark's files are
loaded here read-only.
"""

import importlib.util
import os

from factordf import simulation
from factordf.simulation import SignalShape, SimConfig, grid_to_json, run_grid

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# two k = 1 cells (noise; signal along s) and one k = 2 cell (ones)
CELLS = [SimConfig(n=10, m=30, r=0, replicates=100, seed=5),
         SimConfig(n=30, m=12, r=1, mu=(2.0,), replicates=120, seed=6),
         SimConfig(n=12, m=40, r=1, mu=(3.0,), shape=SignalShape.ONES,
                   replicates=100, seed=7)]


def test_traced_grid_keeps_the_replicate_spans():
    tracing = bench_module("tracing")
    untraced = grid_to_json(run_grid(CELLS, threads=2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.bind_main()
        root = tracer.open("bench.round")
        traced = grid_to_json(simulation.run_grid(CELLS, threads=2))
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert grid_to_json(run_grid(CELLS, threads=1)) == untraced

    tree = tracing.SpanTree(tracer.spans)
    assert tree.nesting_errors(root) == []
    sims = [s for s in tracer.spans if s[2] == "simulation.run_sim"]
    assert len(sims) == len(CELLS)
    by_id = {s[0]: s for s in tracer.spans}
    replicates = [s for s in tracer.spans
                  if s[2] == "simulation.run_replicate"]
    assert len(replicates) == sum(c.replicates for c in CELLS)
    assert all(by_id[s[1]][2] == "simulation.run_sim" for s in replicates)
    for sim, cfg in zip(sorted(sims, key=lambda s: s[3]), CELLS):
        kids = [k for k in tree.kids[sim[0]]
                if k[2] == "simulation.run_replicate"]
        assert len(kids) == cfg.replicates


def test_mc_grid_cells_make_no_lapack_call(monkeypatch):
    # every mc-grid cell has bandwidth k = 1: its replicates are solved in
    # numpy, without top_band_eigenpairs
    workloads = bench_module("workloads")
    calls = []

    monkeypatch.setattr(simulation, "top_band_eigenpairs",
                        lambda *args: calls.append(args))
    for kw in workloads.MC_CELLS.values():
        cfg = SimConfig(r_hat=1, replicates=100, seed=3, **kw)
        assert simulation.sampling_plan(cfg).basis.shape[1] == 1
        simulation.run_sim(cfg)
    assert calls == []
