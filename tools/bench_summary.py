"""Summarize paired benchmark runs of two checkouts into one JSON record.

    python3 tools/bench_summary.py --parent PARENT_CHECKOUT \
        --change CHANGE_CHECKOUT --out BENCH_N.json

Each checkout's ``.perfbench_run/results/*-trace0.json`` files (written by
``perfbench/run.py --trace 0``) are read and paired by workload and seed,
so run both sides with the same seeds.  For every workload and end-to-end
metric of the change's BENCHMARK.json the output holds each side's median
and quartiles [q1, q3] over the paired runs, the pair count, the pairs the
change wins (strictly better in the metric's direction), and whether the
gap between the medians exceeds the parent's interquartile range.  The
provenance of both sides (commit, source digest, library versions, BLAS
build, cores, thread variables, seeds) is kept alongside.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# provenance fields that must agree across one side's runs to be reported
SHARED = ("git_commit", "src_sha256", "python", "numpy", "scipy", "blas",
          "thread_env", "nproc", "affinity", "seconds", "scale")


def load_runs(checkout):
    """(workload, seed) -> result record of every untraced run."""
    runs = {}
    pattern = os.path.join(checkout, ".perfbench_run", "results", "*-trace0.json")
    for path in sorted(glob.glob(pattern)):
        with open(path) as fh:
            record = json.load(fh)
        prov = record["provenance"]
        runs[(prov["workload"], prov["seed"])] = record
    return runs


def spread(values):
    """median and [q1, q3] (inclusive quartiles; one value is its own)."""
    if len(values) == 1:
        return values[0], [values[0], values[0]]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, [q1, q3]


def provenance(records):
    out = {}
    for key in SHARED:
        values = {json.dumps(r["provenance"].get(key), sort_keys=True)
                  for r in records}
        out[key] = (json.loads(values.pop()) if len(values) == 1
                    else "differs between runs")
    out["seeds"] = sorted(r["provenance"]["seed"] for r in records)
    return out


def summarize(parent, change, metrics):
    workloads = {}
    for workload in sorted({w for w, _ in change}):
        seeds = sorted(s for w, s in change if w == workload and (w, s) in parent)
        if not seeds:
            continue
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        rows = {}
        for name, better in metrics.items():
            before = [p["metrics"][name] for p, _ in pairs]
            after = [c["metrics"][name] for _, c in pairs]
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
            (pm, piqr), (cm, ciqr) = spread(before), spread(after)
            rows[name] = {
                "parent": {"median": pm, "q1_q3": piqr},
                "change": {"median": cm, "q1_q3": ciqr},
                "ratio": cm / pm if pm else None,
                "pairs": len(pairs), "wins": wins,
                "median_gap_exceeds_parent_iqr":
                    sign * (cm - pm) > piqr[1] - piqr[0],
            }
        workloads[workload] = {
            "seeds": seeds, "metrics": rows,
            "correct": {"parent": all(p["details"]["failed"] == 0 for p, _ in pairs),
                        "change": all(c["details"]["failed"] == 0 for _, c in pairs)},
            "provenance": {"parent": provenance([p for p, _ in pairs]),
                           "change": provenance([c for _, c in pairs])},
        }
    return workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = summarize(parent, change, metrics)
    if not workloads:
        print("error: no workload has runs on both sides with the same seed",
              file=sys.stderr)
        return 1
    record = {"command": "perfbench/run.py --workload W --seed S --trace 0",
              "pairing": "parent and change runs with the same workload and seed",
              "workloads": workloads}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for w, data in workloads.items():
        for name, row in data["metrics"].items():
            print(f"{w} {name}: {row['parent']['median']:.4g} -> "
                  f"{row['change']['median']:.4g} "
                  f"({row['wins']}/{row['pairs']} wins)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
