"""factordf benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload study-test|mc-grid|bootstrap-fdr \
        --seed N --seconds R --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the repository root; it puts ``src`` on the children's
PYTHONPATH and writes only under ``.perfbench_run/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The line before it holds
provenance and details, and ``.perfbench_run/results/`` keeps the full
record, spans included.

The process layout keeps set-up out of the timed phase's peak RSS: set-up
runs in its own child processes (repeated; ``setup_s`` is their median),
and the timed phase runs in a fresh child (mc-grid, bootstrap-fdr) or as
one cold child per ``test`` command (study-test).  No BLAS or thread
variable is set; they are recorded as found.

--smoke runs every workload at a toy size, untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads as W

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
CHILD_TIMEOUT = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "FACTORDF_THREADS")

# per-layer metric -> span whose self time it sums per round
SELF_TIME = {
    "cli.import_s": "cli.import",
    "cli.ingest_s": "cli.ingest",
    "cli.output_s": "cli.cmd_test",
    "model.fit_two_sided_s": "model.fit_two_sided",
    "linalg.polar_factors_s": "linalg.polar_factors",
    "inference.compute_direction_stats_s": "inference.compute_direction_stats",
    "inference.df_totals_s": "inference.df_totals",
    "inference.response_tests_s": "inference.response_tests",
    "distributions.t_sf_s": "distributions.t_sf",
    "distributions.ks_test_s": "distributions.ks_test",
    "dof.df_mandel_s": "dof.df_mandel",
    "fdr.build_generative_truth_s": "fdr.build_generative_truth",
    "fdr.simulate_dataset_s": "fdr.simulate_dataset",
    "fdr.evaluate_self_s": "fdr.evaluate",
    "simulation.run_sim_self_s": "simulation.run_sim",
}
# per-layer metric -> span counted per round
CALLS = {
    "linalg.polar_factors_calls": "linalg.polar_factors",
    "dof.df_mandel_calls": "dof.df_mandel",
    "simulation.run_replicate_calls": "simulation.run_replicate",
}


class SetupError(RuntimeError):
    pass


class Child:
    """A finished child process: exit code, wall interval, peak RSS."""

    def __init__(self, cmd, stderr_path, env):
        with open(stderr_path, "w") as err:
            self.t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            lock, done = threading.Lock(), []

            def kill():
                with lock:
                    if not done:
                        proc.kill()
            timer = threading.Timer(CHILD_TIMEOUT, kill)
            timer.start()
            try:
                # wait without reaping, so the timer can never signal a
                # recycled pid; then reap with the child's own rusage
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                with lock:
                    done.append(True)
                timer.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.t1 = time.perf_counter()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.wall = self.t1 - self.t0
        self.peak_mb = usage.ru_maxrss / 1024.0
        self.stderr_path = stderr_path

    def stderr_tail(self):
        with open(self.stderr_path) as fh:
            return fh.read()[-2000:]


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(values):
    """Highest percentile with at least 10 samples beyond it (nearest rank)."""
    xs, n = sorted(values), len(values)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n,
                "note": "fewer than 11 samples, so no percentile has 10 beyond it"}
    return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


# ---------------------------------------------------------------- study-test

def cli_cmd(spans, args):
    return [sys.executable, os.path.join(BENCH, "cli_child.py"), spans] + args


def run_study_test(args, work, env):
    fixture = os.path.join(work, "fixture")
    out_csv = os.path.join(work, "out.csv")
    log = os.path.join(work, "child.log")
    gen_spans = os.path.join(work, "gen-spans.json") if args.trace else "-"
    gen = Child(cli_cmd(gen_spans, ["generate", "--out-dir", fixture,
                                    "--m", str(W.STUDY_M[args.scale]),
                                    "--seed", str(args.seed)]), log, env)
    if gen.rc != 0:
        raise SetupError(f"generate failed: {gen.stderr_tail()}")
    data = [f"--{k}={os.path.join(fixture, k + '.csv')}" for k in ("y", "x", "z")]
    test_args = ["test"] + data + W.TEST_ARGS + ["--output", out_csv]
    warm = Child(cli_cmd("-", test_args), log, env)
    if warm.rc != 0:
        raise SetupError(f"warm-up test failed: {warm.stderr_tail()}")
    setup = {"walls": [gen.wall + warm.wall], "peaks": [max(gen.peak_mb, warm.peak_mb)],
             "generate_walls": [gen.wall], "spans": []}
    if args.trace:
        with open(gen_spans) as fh:
            setup["spans"] = json.load(fh)

    from refcheck import TestOutputCheck
    check = TestOutputCheck(fixture, W.TEST_COEF_INDEX, W.TEST_R_HAT,
                            W.TEST_SAMPLE, args.seed, W.TEST_RTOL)
    errors = []

    def one(spans_path):
        child = Child(cli_cmd(spans_path, test_args), log, env)
        if child.rc != 0:
            problem = f"exit {child.rc}: {child.stderr_tail()}"
        else:
            problem = check(out_csv)
        if problem:
            errors.append(problem)
        if os.path.exists(out_csv):
            os.remove(out_csv)
        return child, problem

    rounds, busy = [], 0.0
    while not rounds or busy < args.seconds:
        child, problem = one("-")
        rounds.append({"wall": child.wall, "units": 1, "ops": 1,
                       "failed": int(bool(problem)), "peak_mb": child.peak_mb})
        busy += child.wall
    result = {"setup": setup, "rounds": rounds, "errors": errors,
              "input_bytes": sum(os.path.getsize(os.path.join(fixture, f))
                                 for f in ("y.csv", "x.csv", "z.csv"))}
    if args.trace:
        # child spans hang under a root spanning the child's whole life
        spans, traced, last_id = [], [], 0
        for i in range(len(rounds)):
            path = os.path.join(work, f"spans-{i}.json")
            child, problem = one(path)
            traced.append({"wall": child.wall, "units": 1, "ops": 1,
                           "failed": int(bool(problem))})
            root = last_id = last_id + 1
            spans.append([root, None, "bench.round", child.t0, child.t1, 0, None, root])
            if os.path.exists(path):
                with open(path) as fh:
                    for s in json.load(fh):
                        s[1] = root if s[1] is None else s[1] + root
                        s[0] += root
                        s[7] = root
                        last_id = max(last_id, s[0])
                        spans.append(s)
        result["traced_rounds"] = traced
        result["spans"] = spans
    return result


# ------------------------------------------------------ mc-grid, bootstrap-fdr

def worker_cmd(phase, args, work, out):
    return [sys.executable, os.path.join(BENCH, "worker.py"), "--phase", phase,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale, "--dir", work, "--out", out]


def run_in_process(args, work, env):
    log = os.path.join(work, "child.log")
    setup = {"walls": [], "peaks": [], "generate_walls": [], "spans": []}
    for k in range(W.SETUP_REPEATS[args.workload]):
        out = os.path.join(work, f"setup-{k}.json")
        child = Child(worker_cmd("setup", args, work, out), log, env)
        if child.rc != 0:
            raise SetupError(f"set-up failed: {child.stderr_tail()}")
        setup["walls"].append(child.wall)
        setup["peaks"].append(child.peak_mb)
        with open(out) as fh:
            setup["spans"].extend(json.load(fh)["spans"])
    out = os.path.join(work, "timed.json")
    child = Child(worker_cmd("timed", args, work, out), log, env)
    if child.rc != 0:
        raise SetupError(f"timed phase failed: {child.stderr_tail()}")
    with open(out) as fh:
        result = json.load(fh)
    result["setup"] = setup
    result["peak_mb"] = child.peak_mb
    return result


# ------------------------------------------------------------------ metrics

def end_to_end(args, result, attempted, failed):
    rounds = result["rounds"]
    walls = [r["wall"] for r in rounds]
    if args.workload == "study-test":
        peak = max(r["peak_mb"] for r in rounds)
    else:
        peak = result["peak_mb"]
    metrics = {
        "setup_s": median(result["setup"]["walls"]),
        "setup_peak_rss_mb": max(result["setup"]["peaks"]),
        "units_per_s": sum(r["units"] for r in rounds) / sum(walls),
        "cmd_p50_s": median(walls),
        "peak_rss_mb": peak,
        "success_rate": 1.0 - failed / attempted,
    }
    return metrics, {"cmd_tail_s": tail(walls)}


def layer_metrics(args, result):
    from tracing import SpanTree
    tree = SpanTree(result.get("spans", []))
    roots = [s for s in tree.roots() if s[2] == "bench.round"]
    per_round = {k: [] for k in list(SELF_TIME) + list(CALLS)}
    startup, ingest_wall, replicate_ms, datasets = [], [], {}, []
    busy = sim_wall = 0.0
    nesting = []
    for root in roots:
        spans = tree.descendants(root)
        nesting.extend(tree.nesting_errors(root))
        for key, name in SELF_TIME.items():
            per_round[key].append(sum(tree.self_time[s[0]] for s in spans if s[2] == name))
        for key, name in CALLS.items():
            per_round[key].append(sum(1 for s in spans if s[2] == name))
        if args.workload == "study-test":
            startup.append(tree.self_time[root[0]])
            ingest_wall.append(sum(s[4] - s[3] for s in spans if s[2] == "cli.ingest"))
        for s in spans:
            if s[2] == "simulation.run_sim":
                sim_wall += s[4] - s[3]
                reps = [k[4] - k[3] for k in tree.kids.get(s[0], ())
                        if k[2] == "simulation.run_replicate"]
                replicate_ms.setdefault(s[6], []).extend(reps)
                busy += sum(reps)
        starts = sorted(s[3] for s in spans if s[2] == "fdr.simulate_dataset")
        if starts:
            ends = starts[1:] + [max(s[4] for s in spans
                                     if s[2] != "fdr.evaluate" and s is not root)]
            datasets.extend(e - b for b, e in zip(starts, ends))

    metrics = {"cli.startup_s": median(startup)}
    for key in SELF_TIME:
        metrics[key] = median(per_round[key])
    ingest = median(ingest_wall)
    metrics["cli.ingest_mb_per_s"] = (result["input_bytes"] / 1e6 / ingest
                                      if ingest > 0 else 0.0)
    for key in CALLS:
        metrics[key] = median(per_round[key])
    metrics["fdr.dataset_ms"] = 1000.0 * median(datasets)
    for name in W.MC_CELLS:
        metrics[f"simulation.{name}.replicate_ms"] = 1000.0 * median(
            replicate_ms.get(name, []))
    metrics["simulation.parallel_efficiency"] = (
        busy / (W.MC_THREADS * sim_wall) if sim_wall > 0 else 0.0)
    serial = result.get("serial_rounds")
    if serial:
        rate = lambda rs: sum(r["units"] for r in rs) / sum(r["wall"] for r in rs)
        metrics["simulation.thread_speedup"] = rate(result["rounds"]) / rate(serial)
    else:
        metrics["simulation.thread_speedup"] = 0.0
    setup = result["setup"]
    metrics["datasets.generate_s"] = median(setup["generate_walls"])
    setup_tree = SpanTree(setup["spans"])
    metrics["datasets.synthetic_study_s"] = median(
        [setup_tree.self_time[s[0]] for s in setup["spans"]
         if s[2] == "datasets.synthetic_study"])
    metrics["trace.overhead_frac"] = (
        sum(r["wall"] for r in result["traced_rounds"])
        / sum(r["wall"] for r in result["rounds"]) - 1.0)
    counts_fixed = all(len(set(v)) <= 1 for k, v in per_round.items() if k in CALLS)
    details = {"nesting_errors": nesting[:10],
               "zero_layer_metrics": silent_layers(args.workload, metrics),
               "calls_identical_across_rounds": counts_fixed,
               "traced_rounds": len(roots)}
    return metrics, details


def silent_layers(workload, metrics):
    """Per-layer metrics that read 0 on a workload layers.json says they
    should move; such a metric is not measuring its layer."""
    with open(os.path.join(BENCH, "layers.json")) as fh:
        documented = json.load(fh)["per_layer"]
    return sorted(name for name, doc in documented.items()
                  if metrics.get(name) == 0
                  and any(m["workload"] == workload for m in doc["should_move"]))


# --------------------------------------------------------------- provenance

def provenance(args):
    import numpy as np
    import scipy
    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "factordf", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {"study-test": 1, "mc-grid": W.MC_THREADS, "bootstrap-fdr": 1}
    return {
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": threads[args.workload], "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
    }


# -------------------------------------------------------------------- smoke

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def smoke():
    spec = load_spec()
    with open(os.path.join(BENCH, "layers.json")) as fh:
        documented = set(json.load(fh)["per_layer"])
    ok = documented == {m["name"] for m in spec["per_layer"]}
    if not ok:
        print("smoke: layers.json and BENCHMARK.json name different per-layer metrics")
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--scale", "smoke"], cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            problems = []
            try:
                lines = proc.stdout.strip().splitlines()
                last = json.loads(lines[-1])
                got = {k: v.get("unit") for k, v in last["metrics"].items()}
                if set(last) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"keys {sorted(last)}")
                if not last["correct"] or last["failed"]:
                    details = json.loads(lines[-2])["details"]
                    problems.append("not correct: " + json.dumps(
                        {k: details.get(k) for k in ("errors", "nesting_errors",
                                                     "zero_layer_metrics")}))
                if got != want:
                    problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                    f"extra {sorted(set(got) - set(want))}, units "
                                    f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            except (IndexError, KeyError, ValueError, AttributeError):
                problems.append(f"no result line (exit {proc.returncode}): "
                                f"{proc.stderr[-1500:]}")
            ok &= not problems
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if not problems else 'FAIL ' + '; '.join(problems)} "
                  f"({time.perf_counter() - t:.1f} s)")
    return 0 if ok else 1


# --------------------------------------------------------------------- main

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "smoke"], default="full")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size, traced and untraced")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "factordf", "cli.py")):
        print(f"error: no factordf sources under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(RUN_DIR, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = run_study_test if args.workload == "study-test" else run_in_process
        result = runner(args, work, child_env())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = result["rounds"] + result.get("traced_rounds", []) + result.get("serial_rounds", [])
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        values, details = layer_metrics(args, result)
        correct = (failed == 0 and not details["nesting_errors"]
                   and not details["zero_layer_metrics"]
                   and details["calls_identical_across_rounds"])
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        values, details = end_to_end(args, result, attempted, failed)
        correct = failed == 0
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    details.update(rounds=len(result["rounds"]), attempted=attempted, failed=failed,
                   error_rate=failed / attempted,
                   units_done=sum(r["units"] for r in result["rounds"]),
                   errors=result["errors"][:10])
    for msg in result["errors"][:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name in details.get("zero_layer_metrics", ()):
        print(f"check failed: {name} reads 0 on {args.workload}", file=sys.stderr)
    for msg in details.get("nesting_errors", ()):
        print(f"check failed: {msg}", file=sys.stderr)
    record = {"provenance": provenance(args), "details": details,
              "metrics": values, "setup_walls": result["setup"]["walls"],
              "round_walls": [r["wall"] for r in result["rounds"]]}
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    with open(os.path.join(RUN_DIR, "results", tag + ".json"), "w") as fh:
        json.dump(dict(record, spans=result.get("spans", [])), fh)
    print(json.dumps(record))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
