"""Regenerate perfbench/reference.json, the statistical references that the
mc-grid and bootstrap-fdr output checks compare against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It takes a few minutes on two cores.  Rerun it only when the law of the
Monte-Carlo draws or the bootstrap truth is meant to change; a faster
sampler of the same law must pass against the existing file.
"""

import json
import os
import sys
import time

from factordf.datasets import synthetic_study
from factordf.fdr import evaluate
from factordf.simulation import run_sim

import workloads as W
from worker import boot_config, sim_config

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    out = {"check_sigmas": W.CHECK_SIGMAS, "seed": W.REFERENCE_SEED,
           "mc_grid": {}, "bootstrap_fdr": {}}
    for name, reps in W.MC_REFERENCE_REPLICATES.items():
        t = time.perf_counter()
        res = run_sim(sim_config(name, reps, W.REFERENCE_SEED), threads=1)
        out["mc_grid"][name] = {"mean_df": res.mean_df, "se_df": res.se_df,
                                "replicates": reps}
        print(f"{name}: mean_df={res.mean_df:.4f} se={res.se_df:.4f} "
              f"({time.perf_counter() - t:.1f} s)", file=sys.stderr)

    bundle, _ = synthetic_study(m_responses=W.BOOT_STUDY_M,
                                seed=W.BOOT_STUDY_SEED)
    cfg = boot_config(W.BOOT_REFERENCE_DATASETS, W.REFERENCE_SEED)
    rates = evaluate(cfg, bundle).rates
    for label, r in rates.items():
        out["bootstrap_fdr"][label] = {
            "fpr_pct": r.fpr_pct, "fpr_se": r.fpr_se,
            "tpr_pct": r.tpr_pct, "tpr_se": r.tpr_se,
            "datasets": W.BOOT_REFERENCE_DATASETS}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
