import json
import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import bench_summary  # noqa: E402


def write_run(checkout, workload, seed, units, commit):
    results = os.path.join(checkout, ".perfbench_run", "results")
    os.makedirs(results, exist_ok=True)
    record = {"provenance": {"workload": workload, "seed": seed,
                             "git_commit": commit, "nproc": 2},
              "details": {"failed": 0},
              "metrics": {"setup_s": 1.0, "setup_peak_rss_mb": 50.0,
                          "units_per_s": units, "cmd_p50_s": 10.0 / units,
                          "peak_rss_mb": 60.0, "success_rate": 1.0}}
    with open(os.path.join(results, f"{workload}-seed{seed}-trace0.json"),
              "w") as fh:
        json.dump(record, fh)


def test_summary_pairs_by_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(10, 50), (12, 45), (11, 9),
                                            (9, 48), (13, 52)]):
        write_run(parent, "mc-grid", seed, before, "aaa")
        write_run(change, "mc-grid", seed, after, "bbb")
    write_run(change, "study-test", 0, 1.0, "bbb")      # no parent pair
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), change / "BENCHMARK.json")
    out = tmp_path / "bench.json"
    assert bench_summary.main(["--parent", str(parent), "--change", str(change),
                               "--out", str(out)]) == 0
    data = json.loads(out.read_text())["workloads"]
    assert list(data) == ["mc-grid"]
    units = data["mc-grid"]["metrics"]["units_per_s"]
    assert units["pairs"] == 5 and units["wins"] == 4
    assert units["parent"]["median"] == 11
    assert units["parent"]["q1_q3"] == [10, 12]
    assert units["change"]["median"] == 48
    assert units["median_gap_exceeds_parent_iqr"]
    p50 = data["mc-grid"]["metrics"]["cmd_p50_s"]
    assert p50["wins"] == 4                       # lower is better here
    assert data["mc-grid"]["metrics"]["success_rate"]["wins"] == 0
    prov = data["mc-grid"]["provenance"]
    assert prov["parent"]["git_commit"] == "aaa"
    assert prov["change"]["seeds"] == [0, 1, 2, 3, 4]


def test_summary_without_pairs_fails(tmp_path, capsys):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    with pytest.raises(FileNotFoundError):
        bench_summary.main(["--parent", str(tmp_path / "none"), "--change",
                            str(tmp_path / "none"), "--out", "x"])
    assert bench_summary.main(["--parent", str(tmp_path), "--change",
                               str(tmp_path), "--out",
                               str(tmp_path / "o.json")]) == 1
