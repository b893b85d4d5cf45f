"""What the benchmark's traced runs need of the program.

``perfbench/tracing.py`` wraps public functions under the module names their
callers look them up by, and ``perfbench/run.py`` reads its per-layer
metrics from the spans: replicate counts and durations and ``run_sim``'s
self time on mc-grid; the stage calls of ``cmd_test`` and ``fdr.evaluate``
on study-test and bootstrap-fdr.  A run where a call no longer passes
through the wrapped binding, whose spans do not nest, or whose output
differs traced, untraced or at one thread is marked incorrect, or reads a
per-layer metric of 0.  The benchmark's files are loaded here read-only.
"""

import ast
import importlib.util
import json
import os

from factordf import cli, fdr, simulation
from factordf.datasets import synthetic_study
from factordf.dof import DofMethod
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


def traced(run):
    """``run()`` under the benchmark's tracer: its result and the spans it
    opened, which must nest."""
    tracing = bench_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.bind_main()
        root = tracer.open("bench.round")
        result = run()
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert tracing.SpanTree(tracer.spans).nesting_errors(root) == []
    return result, tracer.spans


def test_traced_grid_keeps_the_replicate_spans():
    untraced = grid_to_json(run_grid(CELLS, threads=2))
    output, spans = traced(
        lambda: grid_to_json(simulation.run_grid(CELLS, threads=2)))
    assert output == untraced
    assert grid_to_json(run_grid(CELLS, threads=1)) == untraced

    tree = bench_module("tracing").SpanTree(spans)
    sims = [s for s in spans if s[2] == "simulation.run_sim"]
    assert len(sims) == len(CELLS)
    by_id = {s[0]: s for s in spans}
    replicates = [s for s in spans if s[2] == "simulation.run_replicate"]
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
        assert len(simulation.sampling_plan(cfg).direction) == 1
        simulation.run_sim(cfg)
    assert calls == []


def layer_spans(workload):
    """The span behind each per-layer metric that ``layers.json`` says should
    move on ``workload``: the ``SELF_TIME`` and ``CALLS`` tables of
    ``run.py``, read from its source.  ``cli.import`` is left out, since
    ``cli_child.py`` records it outside ``cli.main``."""
    with open(os.path.join(BENCH, "run.py")) as fh:
        tables = {node.targets[0].id: ast.literal_eval(node.value)
                  for node in ast.parse(fh.read()).body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) in ("SELF_TIME",
                                                               "CALLS")}
    spans = tables["SELF_TIME"] | tables["CALLS"]
    with open(os.path.join(BENCH, "layers.json")) as fh:
        layers = json.load(fh)["per_layer"]
    return {spans[name] for name, doc in layers.items() if name in spans
            and any(m["workload"] == workload for m in doc["should_move"])
            } - {"cli.import"}


def test_traced_test_command_opens_every_study_test_span(tmp_path):
    fixture = str(tmp_path / "fixture")
    assert cli.main(["generate", "--out-dir", fixture, "--m", "200",
                     "--seed", "3"]) == 0
    data = [f"--{k}={os.path.join(fixture, k + '.csv')}" for k in "yxz"]
    test_args = bench_module("workloads").TEST_ARGS
    assert test_args == ["--coef-index", "2", "--r-hat", "2", "--method",
                         "proposed", "--format", "csv"]

    def run(name):
        out = tmp_path / name
        assert cli.main(["test", *data, *test_args, "--output", str(out)]) == 0
        return out.read_bytes()

    untraced = run("untraced.csv")
    output, spans = traced(lambda: run("traced.csv"))
    assert output == untraced
    missing = layer_spans("study-test") - {s[2] for s in spans}
    assert not missing, f"study-test spans never opened: {sorted(missing)}"


def test_traced_evaluate_opens_every_bootstrap_fdr_span():
    bundle, _ = synthetic_study(m_responses=300, seed=11)
    cfg = fdr.BootstrapConfig(n_datasets=10, seed=4, methods=tuple(DofMethod),
                              mandel_reps=100)
    untraced = fdr.report_to_json(fdr.evaluate(cfg, bundle))
    report, spans = traced(lambda: fdr.evaluate(cfg, bundle))
    assert fdr.report_to_json(report) == untraced
    names = [s[2] for s in spans]
    missing = layer_spans("bootstrap-fdr") - set(names)
    assert not missing, f"bootstrap-fdr spans never opened: {sorted(missing)}"
    assert names.count("dof.df_mandel") == names.count("fdr.evaluate") == 1
