"""In-process workloads (mc-grid, bootstrap-fdr), one phase per process.

    python3 perfbench/worker.py --phase setup|timed --workload W --seed S \
        --seconds R --trace 0|1 --scale full|smoke --dir WORKDIR --out OUT.json

``setup`` imports the library, builds the fixture and warms up; the
orchestrator runs it several times and times each process.  ``timed`` loads
the fixture, warms up with the same small calls, and then runs whole rounds
(a ``run_grid`` pass over the five cells, or one ``evaluate`` call) in a
closed loop until ``R`` seconds of round time have passed.  With --trace 1
it then replays the same rounds with the tracer installed, and for mc-grid
once more at threads=1, and checks that every replay reproduces the first
results byte for byte.  The orchestrator reads OUT.json.
"""

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np

from factordf import datasets, fdr, simulation
from factordf.dof import DofMethod
from factordf.model import DatasetBundle
from factordf.simulation import SignalShape, SimConfig

import refcheck
import workloads as W
from tracing import Tracer


def sim_config(name, replicates, seed):
    kw = dict(W.MC_CELLS[name])
    if "shape" in kw:
        kw["shape"] = SignalShape(kw["shape"])
    return SimConfig(r_hat=1, replicates=replicates, seed=seed, **kw)


def mc_configs(scale, seed):
    return [sim_config(name, W.MC_REPLICATES[scale][name], seed)
            for name in W.MC_CELLS]


def boot_config(n_datasets, seed, mandel_reps=W.BOOT_MANDEL_REPS):
    return fdr.BootstrapConfig(
        k_factors=2, alpha=0.001, n_datasets=n_datasets, seed=seed,
        coef_index=W.BOOT_COEF_INDEX,
        methods=tuple(DofMethod(m) for m in W.BOOT_METHODS),
        mandel_reps=mandel_reps, threads=1)


class McGrid:
    """One round is a run_grid pass; each cell is an operation."""

    ops_per_round = len(W.MC_CELLS)

    def __init__(self, args, reference):
        self.args, self.reference = args, reference

    def warm_up(self):
        cfg = mc_configs("smoke", 0)
        simulation.run_sim(cfg[2], threads=W.MC_THREADS)
        for c in cfg:
            simulation.run_replicate(c, 0)

    def run(self, seed, threads=W.MC_THREADS):
        cells = simulation.run_grid(mc_configs(self.args.scale, seed),
                                    threads=threads)
        return cells, sum(c.result.replicates_used for c in cells)

    def check(self, cells):
        errors = []
        for name, cell in zip(W.MC_CELLS, cells):
            r = cell.result
            want = W.MC_REPLICATES[self.args.scale][name]
            if r.replicates_used != want:
                errors.append(f"{name}: {r.replicates_used} replicates, expected {want}")
                continue
            err = refcheck.check_mc_cell(name, r.mean_df, r.se_df, self.reference)
            if err:
                errors.append(err)
        return errors

    @staticmethod
    def fingerprint(cells):
        return [simulation.grid_to_json([c]) for c in cells]


class BootstrapFdr:
    """One round is an evaluate call, which is the operation."""

    ops_per_round = 1

    def __init__(self, args, reference):
        self.args, self.reference = args, reference
        with np.load(os.path.join(args.dir, "study.npz")) as f:
            self.bundle = DatasetBundle(f["Y"], f["X"], f["Z"],
                                        row_ids=tuple(f["row_ids"]),
                                        col_ids=tuple(f["col_ids"]))

    def warm_up(self):
        warm_up_bootstrap(self.bundle)

    def run(self, seed):
        cfg = boot_config(W.BOOT_DATASETS[self.args.scale], seed)
        return fdr.evaluate(cfg, self.bundle), cfg.n_datasets

    def check(self, report):
        rates = {k: (r.fpr_pct, r.fpr_se, r.tpr_pct, r.tpr_se)
                 for k, r in report.rates.items()}
        err = refcheck.check_bootstrap(rates, report.n_datasets, self.reference)
        return [err] if err else []

    @staticmethod
    def fingerprint(report):
        return [fdr.report_to_json(report)]


def warm_up_bootstrap(bundle):
    fdr.evaluate(boot_config(10, 0, mandel_reps=100), bundle)


def setup_phase(args, tracer):
    if args.workload == "mc-grid":
        McGrid(args, None).warm_up()
        return
    # called through the module so that the tracer's wrapper is the one run
    bundle, _ = datasets.synthetic_study(m_responses=W.BOOT_STUDY_M,
                                         seed=W.BOOT_STUDY_SEED)
    np.savez(os.path.join(args.dir, "study.npz"), Y=bundle.Y, X=bundle.X,
             Z=bundle.Z, row_ids=np.array(bundle.row_ids),
             col_ids=np.array(bundle.col_ids))
    if tracer:
        tracer.uninstall()
    warm_up_bootstrap(bundle)


def run_rounds(work, seeds, errors, fingerprints=None, tracer=None, **kw):
    """Run one round per seed; returns per-round records."""
    rounds = []
    for i, seed in enumerate(seeds):
        span = tracer.open("bench.round") if tracer else None
        t0 = time.perf_counter()
        result, units, prints = None, 0, None
        try:
            result, units = work.run(seed, **kw)
        except Exception:
            errors.append(traceback.format_exc(limit=3))
        t1 = time.perf_counter()
        if span:
            tracer.close(span)
        failed = work.ops_per_round
        if result is not None:
            problems = work.check(result)
            prints = work.fingerprint(result)
            failed = len(problems)
            errors.extend(problems)
        if fingerprints is not None and prints is not None and prints != fingerprints[i]:
            errors.append(f"round {i}: result differs from the first run")
            failed = max(failed, 1)
        rounds.append({"seed": seed, "wall": t1 - t0, "units": units,
                       "ops": work.ops_per_round, "failed": failed,
                       "fingerprint": prints})
    return rounds


def timed_phase(args):
    reference = refcheck.load_reference()
    work = (McGrid if args.workload == "mc-grid" else BootstrapFdr)(args, reference)
    work.warm_up()
    errors = []
    seeds, rounds, busy = [], [], 0.0
    while not rounds or busy < args.seconds:
        seed = W.run_seed(args.seed, len(rounds))
        seeds.append(seed)
        rounds.extend(run_rounds(work, [seed], errors))
        busy += rounds[-1]["wall"]
    out = {"rounds": rounds, "errors": errors}
    if args.trace:
        prints = [r["fingerprint"] for r in rounds]
        tracer = Tracer()
        tracer.install()
        tracer.bind_main()
        out["traced_rounds"] = run_rounds(work, seeds, errors, prints, tracer)
        tracer.uninstall()
        out["spans"] = tracer.spans
        if args.workload == "mc-grid":
            out["serial_rounds"] = run_rounds(work, seeds, errors, prints,
                                              threads=1)
    for key in ("rounds", "traced_rounds", "serial_rounds"):
        for r in out.get(key, ()):
            r.pop("fingerprint")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--phase", choices=["setup", "timed"], required=True)
    ap.add_argument("--workload", choices=["mc-grid", "bootstrap-fdr"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "smoke"], default="full")
    ap.add_argument("--dir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    if args.phase == "setup":
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.bind_main()
        setup_phase(args, tracer)
        out = {"spans": tracer.spans if tracer else []}
    else:
        out = timed_phase(args)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
