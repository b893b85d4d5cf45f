import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

from factordf import cli, distributions
from factordf.cli import EXIT_CLOSED_PIPE, FORMATS, _write_csv, ingest, main
from factordf.datasets import synthetic_study
from factordf.dof import df_mandel
from factordf.linalg import CodedError


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        for row in rows:
            w.writerow(row)


@pytest.fixture
def toy_files(tmp_path):
    y = tmp_path / "y.csv"
    x = tmp_path / "x.csv"
    z = tmp_path / "z.csv"
    write_csv(y, [["id", "g1", "g2", "g3", "g4"],
                  ["s1", "1.25", "-0.5", "0.75", "2.0"],
                  ["s2", "0.1", "0.2", "0.3", "0.4"],
                  ["s3", "-1.0", "1.0", "-1.0", "1.0"]])
    write_csv(x, [["id", "intercept", "age"],
                  ["s1", "1", "2"], ["s2", "1", "5"], ["s3", "1", "9"]])
    write_csv(z, [["id", "intercept"],
                  ["g1", "1"], ["g2", "1"], ["g3", "1"], ["g4", "1"]])
    return str(y), str(x), str(z)


def test_ingest_roundtrip(toy_files):
    y, x, z = toy_files
    bundle = ingest(y, x, z)
    np.testing.assert_array_equal(
        bundle.Y, [[1.25, -0.5, 0.75, 2.0], [0.1, 0.2, 0.3, 0.4],
                   [-1.0, 1.0, -1.0, 1.0]])
    assert bundle.row_ids == ("s1", "s2", "s3")
    assert bundle.col_ids == ("g1", "g2", "g3", "g4")
    assert bundle.p == 2 and bundle.q == 1


def test_ingest_dim_mismatch(tmp_path, toy_files):
    y, x, z = toy_files
    bad = tmp_path / "bad.csv"
    write_csv(bad, [["id", "g1", "g2"], ["s1", "1", "2"], ["s2", "3"]])
    with pytest.raises(CodedError) as err:
        ingest(str(bad))
    assert err.value.code == "DIM_MISMATCH"


def test_ingest_duplicate_ids(tmp_path):
    bad = tmp_path / "dup.csv"
    write_csv(bad, [["id", "g1", "g1"], ["s1", "1", "2"], ["s2", "3", "4"]])
    with pytest.raises(CodedError) as err:
        ingest(str(bad))
    assert err.value.code == "DUP_ID"


def test_ingest_id_mismatch(tmp_path, toy_files):
    y, x, z = toy_files
    bad_x = tmp_path / "bad_x.csv"
    write_csv(bad_x, [["id", "v"], ["sA", "1"], ["s2", "2"], ["s3", "3"]])
    with pytest.raises(CodedError) as err:
        ingest(y, str(bad_x))
    assert err.value.code == "ID_MISMATCH"


def test_ingest_parse_error(tmp_path):
    bad = tmp_path / "nan.csv"
    write_csv(bad, [["id", "g1"], ["s1", "abc"], ["s2", "1"]])
    with pytest.raises(CodedError) as err:
        ingest(str(bad))
    assert err.value.code == "PARSE_ERROR"


# (file, data rows of the toy fixture) for the fault tests below
TOY_ROWS = {
    "y": [["id", "g1", "g2", "g3", "g4"],
          ["s1", "1.25", "-0.5", "0.75", "2.0"],
          ["s2", "0.1", "0.2", "0.3", "0.4"],
          ["s3", "-1.0", "1.0", "-1.0", "1.0"]],
    "x": [["id", "intercept", "age"],
          ["s1", "1", "2"], ["s2", "1", "5"], ["s3", "1", "9"]],
    "z": [["id", "intercept"],
          ["g1", "1"], ["g2", "1"], ["g3", "1"], ["g4", "1"]],
}


@pytest.mark.parametrize("which", ["y", "x", "z"])
@pytest.mark.parametrize("fault, code, message", [
    ("ragged", "DIM_MISMATCH", "row 3 has {fields} fields, expected {width}"),
    ("abc", "PARSE_ERROR", "unparseable number 'abc' at row 3"),
    ("\x1c7", "PARSE_ERROR", "unparseable number '\\x1c7' at row 3"),
    ("nan", "PARSE_ERROR", "non-finite value at row 3"),
    ("inf", "PARSE_ERROR", "non-finite value at row 3"),
    ("1e400", "PARSE_ERROR", "non-finite value at row 3"),
])
def test_ingest_fault_messages(tmp_path, which, fault, code, message):
    # one fault in the second data row (file row 3) of one of the three files
    paths = {}
    for name, rows in TOY_ROWS.items():
        rows = [list(r) for r in rows]
        if name == which:
            if fault == "ragged":
                rows[2].append("9")
            else:
                rows[2][-1] = fault
        paths[name] = str(tmp_path / f"{name}.csv")
        write_csv(paths[name], rows)
    width = len(TOY_ROWS[which][0])
    expected = f"{code}: {paths[which]}: " + message.format(fields=width + 1,
                                                            width=width)
    with pytest.raises(CodedError) as err:
        ingest(paths["y"], paths["x"], paths["z"])
    assert err.value.code == code
    assert str(err.value) == expected


def test_ingest_quoted_id_with_comma(tmp_path):
    y, z = tmp_path / "y.csv", tmp_path / "z.csv"
    write_csv(y, [["id", "g,1", "g2"], ["s,1", "1", "2"], ["s2", "3", "5"]])
    write_csv(z, [["id", "intercept"], ["g,1", "1"], ["g2", "1"]])
    assert '"g,1"' in y.read_text()
    bundle = ingest(str(y), z_path=str(z))
    assert bundle.col_ids == ("g,1", "g2")
    assert bundle.row_ids == ("s,1", "s2")
    np.testing.assert_array_equal(bundle.Y, [[1.0, 2.0], [3.0, 5.0]])


def test_ingest_numbers_follow_float_syntax(tmp_path):
    cells = [["1_0", " 1.5", "+3", "1E5"], ["-0", "2.5e-3", ".5", "7."]]
    y = tmp_path / "y.csv"
    write_csv(y, [["id", "a", "b", "c", "d"]]
              + [[f"s{i}"] + row for i, row in enumerate(cells)])
    bundle = ingest(str(y))
    expected = np.array([[float(c) for c in row] for row in cells])
    assert bundle.Y.dtype == np.float64
    assert bundle.Y.tobytes() == expected.tobytes()


def read_reference(path):
    """Column ids, row ids and values as csv.reader splits and float() parses."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    block = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    return rows[0][1:], [r[0] for r in rows[1:]], block


@pytest.mark.parametrize("text", [
    "id,a,b\ns1,1.5,2\ns2,3,4\n",
    "id,a,b\r\ns1,1.5,2\r\ns2,3,4\r\n",
    "id,a,b\ns1,1.5,2\ns2,3,4",
    "id,a,b\r\ns1,1.5,2\r\ns2,3,4",
    "id,a,b\rs1,1.5,2\rs2,3,4\r",
    'id,"a,1","b""2"\n"s,1",1,2\n"s""2",3,4\n',
    'id,a,b\r\n"s\r\n1",1,2\r\ns2,3,4\r\n',
    "id,a,b\ns1,1_0,\u0663\ns2,\u0661.5,4\n",
    "id,a,b,c\ns1, 1.5 ,+2,1E5\ns2,\t-2.5e-3,7.,+.5e+1\n",
], ids=["lf", "crlf", "no-final-newline", "crlf-no-final-newline", "cr",
        "quoted-ids", "quoted-crlf-in-id", "float-only-syntax",
        "whitespace-sign-exponent"])
def test_reader_matches_csv_reader_and_float(tmp_path, text):
    y = tmp_path / "y.csv"
    y.write_bytes(text.encode())
    bundle = ingest(str(y))
    col_ids, row_ids, block = read_reference(y)
    assert bundle.Y.tobytes() == block.tobytes()
    assert list(bundle.row_ids) == row_ids
    assert list(bundle.col_ids) == col_ids


@pytest.mark.parametrize("text, message", [
    ("id,a,b\ns1,1,2\n\ns2,3,4\n", "row 3 has 0 fields, expected 3"),
    ("id,a,b\r\ns1,1,2\r\n\r\ns2,3,4\r\n", "row 3 has 0 fields, expected 3"),
    ("id,a,b\ns1,1,2\ns2,3,4\n\n", "row 4 has 0 fields, expected 3"),
    ("id,a,b\ns1\ns2\n", "row 2 has 1 fields, expected 3"),
])
def test_reader_blank_or_id_only_row_is_dim_mismatch(tmp_path, text, message):
    y = tmp_path / "y.csv"
    y.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # nothing but the error reaches stderr
        with pytest.raises(CodedError) as err:
            ingest(str(y))
    assert str(err.value) == f"DIM_MISMATCH: {y}: {message}"


@pytest.mark.parametrize("which", ["y", "x", "z"])
@pytest.mark.parametrize("fault", ["short", "abc"])
def test_ingest_reports_row_faults_before_non_finite(tmp_path, which, fault):
    # file row 2 holds a non-finite value, file row 3 a short row or bad cell
    paths = {}
    for name, rows in TOY_ROWS.items():
        rows = [list(r) for r in rows]
        if name == which:
            rows[1][-1] = "inf"
            if fault == "short":
                rows[2].pop()
            else:
                rows[2][-1] = "abc"
        paths[name] = str(tmp_path / f"{name}.csv")
        write_csv(paths[name], rows)
    width = len(TOY_ROWS[which][0])
    expected = (f"DIM_MISMATCH: {paths[which]}: row 3 has {width - 1} fields, "
                f"expected {width}" if fault == "short" else
                f"PARSE_ERROR: {paths[which]}: unparseable number 'abc' at row 3")
    with pytest.raises(CodedError) as err:
        ingest(paths["y"], paths["x"], paths["z"])
    assert str(err.value) == expected


def test_csv_writer_matches_csv_module():
    header = ["id,x", 'va"l', "label"]
    ids = ["plain", "g,1", 'g"2', "g\n3", "g\r4", "", " sp ", '"q"']
    values = np.array([0.1, -2.5e-12, 3.0, 1e300, -0.0, 123456789.123, 7.25,
                       2.0 / 3.0])
    labels = ["a", "b,c", "d", 'e"', "f", "g\nh", "", "i"]
    out = io.StringIO()
    _write_csv(out, header, [ids, values, labels])
    expected = io.StringIO()
    w = csv.writer(expected, lineterminator="\n")
    w.writerow(header)
    w.writerows(zip(ids, [f"{v:.10g}" for v in values], labels))
    assert out.getvalue() == expected.getvalue()


def test_ingest_rank_deficient(tmp_path, toy_files):
    y, _, _ = toy_files
    bad_x = tmp_path / "rank.csv"
    write_csv(bad_x, [["id", "a", "b"], ["s1", "1", "2"], ["s2", "1", "2"],
                      ["s3", "1", "2"]])
    with pytest.raises(CodedError) as err:
        ingest(y, str(bad_x))
    assert err.value.code == "RANK_DEFICIENT"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_ingest(tmp_path, capsys):
    out = tmp_path / "fixture"
    code, _, err = run_cli(["generate", "--out-dir", str(out), "--m", "120",
                            "--seed", "5"], capsys)
    assert code == 0
    bundle = ingest(str(out / "y.csv"), str(out / "x.csv"), str(out / "z.csv"))
    assert bundle.N == 39 and bundle.M == 120
    assert bundle.p == 3 and bundle.q == 2
    truth = json.loads((out / "truth.json").read_text())
    assert truth["age_coef_index"] == 2
    # every value is written as %.12g and read back by float()
    study, _ = synthetic_study(m_responses=120, seed=5, signal_fraction=0.03)
    for got, written in ((bundle.Y, study.Y), (bundle.X, study.X),
                         (bundle.Z, study.Z)):
        expected = np.array([[float("%.12g" % v) for v in row]
                             for row in written.tolist()])
        assert got.tobytes() == expected.tobytes()


# SHA-256 of synthetic_study's Y, X, Z and signal mask (C order, native
# bytes), taken from the fixture as it stood when its unexposed share became
# a module constant, keyed by (M, seed, signal fraction).  M = 3 plants no
# signal and unexposes no gene: both of its choices are zero-size.  The
# signal-free (200, 3, 0) pin was taken while no-signal studies skipped the
# signal draws.
PINNED_STUDY_SHA256 = {
    (3, 1, 0.03): ("89cfbc24e38ae6925828d7f1faaa2a31d65567b749922ea00e0db66cfba46df4",
             "ed1b58b63199ce69ab57d259e07ae1e5741142841516226942db2490a397490d",
             "b1752452a78f2e41301a8b1cf314189c7c1afac21c9145a26131d68be48b21f5",
             "709e80c88487a2411e1ee4dfb9f22a861492d20c4765150c0c794abd70f8147c"),
    (200, 3, 0.03): (
        "61ec093bc28f7bc45749c17dd1e57c91c2d9c2a595d31172f64f0a3e0a344abc",
        "ed1b58b63199ce69ab57d259e07ae1e5741142841516226942db2490a397490d",
        "3bce6eb63060590c0a64afe65927a56f5c9754cdd53ab2ba532ca706fa64fd1e",
        "40799e8a38845b3d8989fad671659988842aa936677731b51917861ae5e5758f"),
    (200, 3, 0.0): (
        "9b8346a362e832afca570b9c14dfbef4475b7b422d4e299f4a08812890fc3f71",
        "ed1b58b63199ce69ab57d259e07ae1e5741142841516226942db2490a397490d",
        "3bce6eb63060590c0a64afe65927a56f5c9754cdd53ab2ba532ca706fa64fd1e",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
}


@pytest.mark.parametrize("m, seed, fraction", list(PINNED_STUDY_SHA256),
                         ids=["3-1", "200-3", "200-3-no-signal"])
def test_synthetic_study_bytes_are_pinned(m, seed, fraction):
    bundle, truth = synthetic_study(m_responses=m, seed=seed,
                                    signal_fraction=fraction)
    arrays = (bundle.Y, bundle.X, bundle.Z, truth.signal_mask)
    digests = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes())
                    .hexdigest() for a in arrays)
    assert digests == PINNED_STUDY_SHA256[m, seed, fraction]


# `test` output on a toy study, as written before the CSV writer was rebuilt
PINNED_TEST_CSV = """\
response,estimate,se,t,df_resid,p,method
g1,-0.4044117647,0.1299787041,-3.111369415,3,0.05282513515,naive
"g""3",-0.2058823529,0.1263353357,-1.629649787,3,0.2016664005,naive
g4,0.1323529412,0.1053953738,1.255775623,3,0.2980996381,naive
"g,2",-0.02941176471,0.06035402871,-0.4873206534,3,0.6594206645,naive
"""
PINNED_TEST_TABLE = """\
response  estimate        se             t              df_resid  p              method
g1        -0.4044117647   0.1299787041   -3.111369415   3         0.05282513515  naive
g"3       -0.2058823529   0.1263353357   -1.629649787   3         0.2016664005   naive
g4        0.1323529412    0.1053953738   1.255775623    3         0.2980996381   naive
g,2       -0.02941176471  0.06035402871  -0.4873206534  3         0.6594206645   naive
"""


def test_cmd_test_output_is_pinned(tmp_path, capsys):
    y, x = tmp_path / "y.csv", tmp_path / "x.csv"
    write_csv(y, [["id", "g1", "g,2", 'g"3', "g4"],
                  ["s1", "1.25", "-0.5", "0.75", "2.0"],
                  ["s2", "0.1", "0.2", "0.3", "0.4"],
                  ["s3", "-1.0", "1.0", "-1.0", "1.0"],
                  ["s4", "2.5", "0.5", "1.5", "-0.5"],
                  ["s5", "0.0", "-2.0", "1.0", "3.0"],
                  ["s6", "1.0", "1.5", "-0.25", "0.5"]])
    write_csv(x, [["id", "intercept", "age"], ["s1", "1", "2"],
                  ["s2", "1", "5"], ["s3", "1", "9"], ["s4", "1", "3"],
                  ["s5", "1", "7"], ["s6", "1", "4"]])
    args = ["test", "--y", str(y), "--x", str(x), "--coef-index", "1",
            "--r-hat", "1", "--method", "naive", "--format"]
    outs = {fmt: run_cli(args + [fmt], capsys)[1] for fmt in FORMATS}
    assert outs["csv"] == PINNED_TEST_CSV
    assert outs["table"] == PINNED_TEST_TABLE
    # JSON keeps full precision; pin its layout, and its values to 10 digits
    records = json.loads(outs["json"])
    assert outs["json"] == json.dumps(records, indent=2) + "\n"
    pinned = list(csv.reader(io.StringIO(PINNED_TEST_CSV)))
    assert [list(r) for r in records] == [pinned[0]] * len(records)
    assert [[f"{v:.10g}" if isinstance(v, float) else v for v in r.values()]
            for r in records] == pinned[1:]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fix")
    assert main(["generate", "--out-dir", str(out), "--m", "400",
                 "--seed", "11"]) == 0
    return out


def test_cmd_test_deterministic(fixture_dir, capsys):
    args = ["test", "--y", str(fixture_dir / "y.csv"),
            "--x", str(fixture_dir / "x.csv"),
            "--z", str(fixture_dir / "z.csv"),
            "--coef-index", "2", "--r-hat", "2", "--method", "proposed",
            "--format", "csv"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "response,estimate,se,t,df_resid,p,method"


def test_cmd_test_sorted_by_p(fixture_dir, capsys):
    args = ["test", "--y", str(fixture_dir / "y.csv"),
            "--x", str(fixture_dir / "x.csv"),
            "--z", str(fixture_dir / "z.csv"),
            "--coef-index", "2", "--r-hat", "2", "--format", "csv"]
    _, out, err = run_cli(args, capsys)
    ps = [float(r.split(",")[5]) for r in out.splitlines()[1:]]
    assert ps == sorted(ps)
    assert "significant at alpha" in err


def test_cmd_test_null_level_calibration(tmp_path, capsys):
    # no factors, no signals: discoveries at alpha track alpha * M
    out = tmp_path / "null"
    assert main(["generate", "--out-dir", str(out), "--m", "500",
                 "--seed", "13", "--signal-fraction", "0"]) == 0
    import factordf.datasets as ds
    from factordf.cli import ingest as _ingest
    # rebuild the same fixture without factors for a calibrated null
    bundle, _ = ds.synthetic_study(m_responses=500, seed=13,
                                   signal_fraction=0.0, factor_to_noise=0.0)
    from factordf.inference import test_all_responses
    res = test_all_responses(bundle, 2, r_hat=0, method=None)
    alpha = 0.05
    hits = int(np.sum(res.p_value < alpha))
    expected = alpha * bundle.M
    assert abs(hits - expected) <= 3 * np.sqrt(expected)


def test_cmd_test_proposed_beats_none(fixture_dir, capsys):
    base = ["test", "--y", str(fixture_dir / "y.csv"),
            "--x", str(fixture_dir / "x.csv"),
            "--z", str(fixture_dir / "z.csv"),
            "--coef-index", "2", "--format", "csv", "--alpha", "0.001"]
    _, out_adj, err_adj = run_cli(base + ["--r-hat", "2",
                                          "--method", "proposed"], capsys)
    _, out_raw, err_raw = run_cli(base + ["--r-hat", "2",
                                          "--method", "none"], capsys)
    n_adj = int(err_adj.split(":")[-1].split("of")[0])
    n_raw = int(err_raw.split(":")[-1].split("of")[0])
    assert n_adj > n_raw


def test_cmd_scree_table(fixture_dir, capsys):
    code, out, _ = run_cli(["scree", "--y", str(fixture_dir / "y.csv"),
                            "--x", str(fixture_dir / "x.csv"),
                            "--z", str(fixture_dir / "z.csv"),
                            "--format", "csv"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "factor,variance_pct,residual_pct"
    assert len(rows) - 1 == 36    # min(N - p, M - q)
    pcts = [float(r.split(",")[1]) for r in rows[1:]]
    assert abs(sum(pcts) - 100.0) < 1e-6
    # two strong planted factors dominate
    assert pcts[0] + pcts[1] > 40.0


def test_cmd_simulate_csv(capsys):
    args = ["simulate", "--n", "20", "--m", "100", "--r-hat", "1",
            "--replicates", "300", "--seed", "3", "--format", "csv"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("n,m,mu,shape")
    assert row.startswith("20,100,")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cmd_simulate_flags_conjectural_cell(capsys, fmt):
    # mu = 1.5 sits below the transition sqrt(m/n) = 3.16 at n=50, m=500
    args = ["simulate", "--n", "50", "--m", "500", "--mu", "1.5",
            "--replicates", "100", "--seed", "4", "--format", fmt]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    if fmt == "json":
        row, = json.loads(out)
    else:
        row, = csv.DictReader(io.StringIO(out))
    assert row["conjectural"] in (True, "true")
    assert row["n"] in (50, "50") and row["shape"] == "basis"


def test_simulate_and_ks_table_rows_agree(capsys):
    # a grid prints each cell's row as a one-cell run does, n the outer loop
    # and m the inner
    flags = ["--r-hat", "1", "--replicates", "150", "--seed", "6",
             "--format", "csv"]
    _, grid, _ = run_cli(["simulate", "--n", "12", "9", "--m", "40", "30",
                          *flags], capsys)
    header, *rows = grid.splitlines()
    assert header.endswith(",ks_p,conjectural,alt_theoretical_df,bracketed")
    cells = []
    for n in ("12", "9"):
        for m in ("40", "30"):
            _, sim, _ = run_cli(["simulate", "--n", n, "--m", m, *flags],
                                capsys)
            assert sim.splitlines()[0] == header
            cells += sim.splitlines()[1:]
    assert rows == cells
    assert [r.split(",")[:2] for r in rows] == [
        ["12", "40"], ["12", "30"], ["9", "40"], ["9", "30"]]


def test_simulate_and_ks_table_share_table_layout(capsys):
    # a grid's table is its CSV aligned, one line per cell
    sizes = ["--n", "10", "20", "--m", "30"]
    cell = ["--r-hat", "1", "--replicates", "120", "--seed", "2"]
    _, table, _ = run_cli(["simulate", *sizes, *cell], capsys)
    _, csv_out, _ = run_cli(["simulate", *sizes, *cell, "--format", "csv"],
                            capsys)
    header, *rows = table.splitlines()
    assert header.split() == ["n", "m", "mu", "shape", "mean_df", "se_df",
                              "theoretical_df", "ks_D", "ks_p", "conjectural",
                              "alt_theoretical_df", "bracketed"]
    assert "," not in header
    assert [row.split() for row in rows] == [
        [v for v in line.split(",") if v]
        for line in csv_out.splitlines()[1:]]
    start = header.index("mean_df")
    assert all(row[start - 1] == " " != row[start] for row in rows)


# SHA-256 of the paper's (n, m) grid in CSV (100 replicates, seed 2), pure
# noise and one basis factor at mu = 3, taken when each grid had its own
# config builder in the simulation module
PAPER_GRID = ["--n", "5", "10", "50", "100",
              "--m", "5", "10", "50", "100", "500", "1000", "5000", "10000"]
PINNED_PRESET_SHA256 = {
    "paper-noise":
        "204ad7a6157daae6f035621519ea258fa5934c93f9cdb0f9c28188cde49ca937",
    "paper-basis":
        "866be350d7c510213380c85e90de159461d6859db326880b9c6a7b6ac717d2c6",
}


@pytest.mark.parametrize("preset", list(PINNED_PRESET_SHA256))
def test_ks_table_presets_are_pinned(capsys, preset):
    mu = ["--mu", "3"] if preset == "paper-basis" else []
    code, out, err = run_cli(["simulate", *PAPER_GRID, *mu, "--replicates",
                              "100", "--seed", "2", "--format", "csv"],
                             capsys)
    assert code == 0 and err == ""
    assert (hashlib.sha256(out.encode()).hexdigest()
            == PINNED_PRESET_SHA256[preset])


def test_cmd_bootstrap_table_aligns_the_csv(fixture_dir, capsys):
    base = ["bootstrap", "--y", str(fixture_dir / "y.csv"),
            "--x", str(fixture_dir / "x.csv"),
            "--z", str(fixture_dir / "z.csv"), "--coef-index", "2",
            "--n-datasets", "10", "--methods", "proposed", "naive",
            "--seed", "3"]
    code, table, _ = run_cli(base, capsys)
    _, csv_out, _ = run_cli(base + ["--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["method", "fdr_pct", "fdr_se", "fpr_pct", "fpr_se",
                       "tpr_pct", "tpr_se"]
    assert [r[0] for r in rows[1:]] == ["proposed", "naive", "none"]
    lines = table.splitlines()
    assert "," not in table and len(lines) == len(rows)
    for line, row in zip(lines, rows):
        # empty CSV fields (no discovery) leave blanks in the table
        assert line.split() == [v for v in row if v]
    starts = {lines[0].index(h) for h in rows[0]}
    assert len(starts) == len(rows[0])   # one aligned column per field


def test_ingest_study_scale_is_fast(tmp_path):
    import time
    out = tmp_path / "big"
    assert main(["generate", "--out-dir", str(out), "--m", "2000",
                 "--seed", "3"]) == 0
    t0 = time.perf_counter()
    bundle = ingest(str(out / "y.csv"), str(out / "x.csv"), str(out / "z.csv"))
    elapsed = time.perf_counter() - t0
    assert bundle.N == 39 and bundle.M == 2000
    assert elapsed < 1.0


def test_cli_error_exit_status(tmp_path, capsys):
    code, out, err = run_cli(["test", "--y", str(tmp_path / "missing.csv"),
                              "--coef-index", "0"], capsys)
    assert code == 1
    assert "IO_ERROR" in err
    assert out == ""


def test_cli_error_line_names_code_once(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, out, err = run_cli(["test", "--y", str(missing), "--coef-index", "0"],
                             capsys)
    assert code == 1 and out == ""
    assert err == (f"error [IO_ERROR]: cannot read {missing}: [Errno 2] "
                   f"No such file or directory: '{missing}'\n")


@pytest.mark.parametrize("which", ["y", "x", "z"])
def test_cli_non_utf8_input_is_parse_error(tmp_path, capsys, which):
    # a 0xff byte in the last row's id; the file's other bytes are ASCII
    paths = {}
    for name, rows in TOY_ROWS.items():
        paths[name] = tmp_path / f"{name}.csv"
        write_csv(paths[name], rows)
    raw = paths[which].read_bytes()
    last = raw.rindex(b"\n", 0, len(raw) - 1) + 1
    paths[which].write_bytes(raw[:last] + b"\xff" + raw[last:])
    code, out, err = run_cli(["test", "--y", str(paths["y"]),
                              "--x", str(paths["x"]), "--z", str(paths["z"]),
                              "--coef-index", "1", "--r-hat", "0"], capsys)
    assert code == 1 and out == ""
    assert err == (f"error [PARSE_ERROR]: {paths[which]}: byte 0xff at "
                   f"position {last} is not valid utf-8\n")


def test_non_utf8_position_is_absolute(tmp_path):
    # the bad byte lies past the first 8 KB, where a chunked decoder would
    # count from its chunk
    y = tmp_path / "y.csv"
    body = b"id,g1,g2\n" + b"".join(b"s%d,1,2\n" % i for i in range(2000))
    y.write_bytes(body + b"s\xfe,1,2\n")
    with pytest.raises(CodedError) as err:
        ingest(str(y))
    assert str(err.value) == (f"PARSE_ERROR: {y}: byte 0xfe at position "
                              f"{len(body) + 1} is not valid utf-8")


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_noise_cell_prints_no_shape(capsys, fmt):
    code, out, _ = run_cli(["simulate", "--n", "10", "--m", "20",
                            "--replicates", "100", "--seed", "1",
                            "--format", fmt], capsys)
    assert code == 0
    if fmt == "json":
        row, = json.loads(out)
        assert row["mu"] is None and row["shape"] is None
    elif fmt == "csv":
        row, = csv.DictReader(io.StringIO(out))
        assert row["mu"] == "" and row["shape"] == ""
    else:
        header, row = out.splitlines()
        start = header.index("mu")
        assert row[start:header.index("mean_df")].strip() == ""


def test_monte_carlo_output_independent_of_blas_threads(tmp_path):
    # OpenBLAS may split a sum by its thread count, which nothing in the
    # package sets: the environment's count must not reach the output, at
    # k = 1 and, in "simulate-k2", at bandwidth k = 2 and order 400
    commands = {
        "simulate": ["simulate", "--n", "100", "--m", "2000", "--replicates",
                     "200", "--seed", "3", "--format", "json"],
        "simulate-k2": ["simulate", "--n", "400", "--m", "2000", "--mu", "3",
                        "--shape", "ones", "--r-hat", "2", "--replicates",
                        "100", "--seed", "3", "--format", "json"],
        "simulate-grid": ["simulate", "--n", "30", "100", "--m", "60", "500",
                          "--replicates", "150", "--seed", "4",
                          "--format", "csv"],
    }
    for name, args in commands.items():
        outs = []
        for blas in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
            proc = subprocess.run([sys.executable, "-m", "factordf.cli"] + args,
                                  capture_output=True, env=env, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], name


def test_cli_output_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "absent" / "out.csv"
    code, out, err = run_cli(["simulate", "--n", "10", "--m", "10",
                              "--replicates", "20", "--seed", "1",
                              "--output", str(target)], capsys)
    assert code == 1
    assert err.startswith("error [IO_ERROR]: ")
    assert "Traceback" not in err
    assert out == ""
    assert not target.parent.exists()


def test_cli_seed_required_for_stochastic(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--n", "10", "--m", "10"])


# Six subjects, X = (intercept, age): n = 4 and m = 4 residual dimensions.
SIX_X = [["id", "intercept", "age"], ["s1", "1", "2"], ["s2", "1", "5"],
         ["s3", "1", "9"], ["s4", "1", "3"], ["s5", "1", "7"],
         ["s6", "1", "4"]]
SIX_Y = [["id", "g1", "g2", "g3", "g4"],
         ["s1", "1.25", "-0.5", "0.75", "2.0"],
         ["s2", "0.1", "0.2", "0.3", "0.4"],
         ["s3", "-1.0", "1.0", "-1.0", "1.0"],
         ["s4", "2.5", "0.5", "1.5", "-0.5"],
         ["s5", "0.0", "-2.0", "1.0", "3.0"],
         ["s6", "1.0", "1.5", "-0.25", "0.5"]]
# every response the same: the residual matrix has rank 1
SIX_Y_RANK1 = [SIX_Y[0]] + [[r[0]] + [r[1]] * 4 for r in SIX_Y[1:]]


@pytest.mark.parametrize("y_rows, flags, line", [
    (SIX_Y, ["--coef-index", "1", "--r-hat", "1"],
     "error [DF_EXHAUSTED]: degrees of freedom exhausted: n = 4, "
     "max df(s) = 6.0166"),
    (SIX_Y, ["--coef-index", "1", "--r-hat", "100"],
     "error [R_HAT_RANGE]: r_hat must be in [0, 4), got 100"),
    (SIX_Y, ["--coef-index", "9", "--r-hat", "1", "--method", "naive"],
     "error [COEF_INDEX_RANGE]: coef_index 9 out of range [0, 2)"),
    (SIX_Y_RANK1, ["--coef-index", "1", "--r-hat", "2", "--method", "naive"],
     "error [FACTOR_RANK]: matrix rank is below the requested 2 factors"),
], ids=["DF_EXHAUSTED", "R_HAT_RANGE", "COEF_INDEX_RANGE", "FACTOR_RANK"])
def test_cli_model_fault_codes(tmp_path, capsys, y_rows, flags, line):
    y, x = tmp_path / "y.csv", tmp_path / "x.csv"
    write_csv(y, y_rows)
    write_csv(x, SIX_X)
    code, out, err = run_cli(["test", "--y", str(y), "--x", str(x), *flags],
                             capsys)
    assert code == 1 and out == ""
    assert err == line + "\n"


# every response scaled by 1e160: their squares overflow float64
SIX_Y_HUGE = [SIX_Y[0]] + [[r[0]] + [f"{float(v) * 1e160!r}" for v in r[1:]]
                           for r in SIX_Y[1:]]
# every response scaled by 1e-170: their squares underflow to zero
SIX_Y_TINY = [SIX_Y[0]] + [[r[0]] + [f"{float(v) * 1e-170!r}" for v in r[1:]]
                           for r in SIX_Y[1:]]
# the commands that read Y, each of which a Y out of range used to derail
Y_COMMANDS = pytest.mark.parametrize("command", [
    ["test", "--coef-index", "1", "--r-hat", "1", "--method", "naive"],
    ["test", "--coef-index", "1", "--method", "none"],
    ["fit"], ["scree"]], ids=["test", "test-none", "fit", "scree"])


def run_on_six(tmp_path, capsys, command, y_rows, x_rows=SIX_X):
    """Run a command that fails on six subjects' files; (Y's path, stderr)."""
    y, x = tmp_path / "y.csv", tmp_path / "x.csv"
    write_csv(y, y_rows)
    write_csv(x, x_rows)
    code, out, err = run_cli([*command, "--y", str(y), "--x", str(x)], capsys)
    assert code == 1 and out == ""
    return y, err


@pytest.mark.filterwarnings("error")    # a numpy RuntimeWarning fails it
@Y_COMMANDS
def test_cli_overflowing_y_is_coded(tmp_path, capsys, command):
    y, err = run_on_six(tmp_path, capsys, command, SIX_Y_HUGE)
    assert err == (f"error [OVERFLOW]: {y}: the sum of squared values "
                   "exceeds the float64 range\n")


@pytest.mark.filterwarnings("error")
@Y_COMMANDS
def test_cli_underflowing_y_is_coded(tmp_path, capsys, command):
    # before, test --method none printed t = inf for every response, and
    # test --r-hat 1 a FACTOR_RANK
    y, err = run_on_six(tmp_path, capsys, command, SIX_Y_TINY)
    assert err == (f"error [UNDERFLOW]: {y}: the sum of squared values "
                   "falls below the float64 range\n")


def test_cli_scree_of_zero_y_is_no_variance(tmp_path, capsys):
    zero_y = [SIX_Y[0]] + [[r[0]] + ["0"] * 4 for r in SIX_Y[1:]]
    _, err = run_on_six(tmp_path, capsys, ["scree"], zero_y)
    assert err == ("error [NO_VARIANCE]: zero matrix has no variance to "
                   "explain\n")


# every command that takes --seed, on paths nothing exists at: a fault found
# after reading or writing them would be an IO_ERROR or leave a directory
SEED_COMMANDS = pytest.mark.parametrize("command", [
    ["test", "--y", "{dir}/y.csv", "--coef-index", "0"],
    ["simulate", "--n", "10", "--m", "20", "--replicates", "100"],
    ["simulate", "--n", "10", "20", "--m", "20", "30", "--replicates", "100"],
    ["bootstrap", "--y", "{dir}/y.csv", "--coef-index", "0"],
    ["generate", "--out-dir", "{dir}/fixture"],
], ids=["test", "simulate", "simulate-grid", "bootstrap", "generate"])


@SEED_COMMANDS
@pytest.mark.parametrize("seed", [2**64, -2**63 - 1, -2**64])
def test_cli_seed_past_64_bits_is_seed_range(tmp_path, capsys, command,
                                              seed):
    # such seeds once ran, aliased to the seed of their low 64 bits
    args = [a.format(dir=tmp_path) for a in command]
    code, out, err = run_cli([*args, "--seed", str(seed)], capsys)
    assert code == 1 and out == ""
    assert err == (f"error [SEED_RANGE]: --seed must lie in [-2^63, 2^64), "
                   f"got {seed}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag", [
    (["fit", "--y", "{dir}/y.csv"], ["--seed", "1"]),
    (["scree", "--y", "{dir}/y.csv"], ["--seed", "1"]),
    (["generate", "--out-dir", "{dir}/fixture", "--seed", "1"],
     ["--format", "json"]),
    (["generate", "--out-dir", "{dir}/fixture", "--seed", "1"],
     ["--output", "{dir}/kept"]),
], ids=["fit-seed", "scree-seed", "generate-format", "generate-output"])
def test_cli_unread_flags_are_usage_errors(tmp_path, capsys, command, flag):
    # each was once accepted and never read; generate --output emptied its
    # file and wrote nothing to it
    kept = tmp_path / "kept"
    kept.write_bytes(b"kept data")
    args = [a.format(dir=tmp_path) for a in command + flag]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == ("factordf: error: unrecognized "
                                    f"arguments: {' '.join(args[-2:])}")
    assert kept.read_bytes() == b"kept data"
    assert list(tmp_path.iterdir()) == [kept]


def test_cli_seed_range_ends_keep_their_64_bit_words(capsys):
    # -2^63 and 2^64 - 1 are accepted, and a negative seed is its two's
    # complement word
    runs = {}
    for seed in (-2**63, 2**63, -1, 2**64 - 1):
        code, out, _ = run_cli(["simulate", "--n", "10", "--m", "20",
                                "--replicates", "100", "--format", "csv",
                                "--seed", str(seed)], capsys)
        assert code == 0
        runs[seed] = out
    assert runs[-2**63] == runs[2**63] and runs[-1] == runs[2**64 - 1]
    assert runs[2**63] != runs[-1]


@pytest.mark.parametrize("width, message", [
    (6, "X must have fewer columns than rows"),
    (0, "X must have at least one row and column"),
], ids=["as-wide-as-tall", "no-columns"])
def test_cli_x_shape_is_dim_mismatch(tmp_path, capsys, width, message):
    x_rows = [["id", *(f"c{j}" for j in range(width))]] + [
        [f"s{i + 1}", *("1" if i == j else "0" for j in range(width))]
        for i in range(6)]
    _, err = run_on_six(tmp_path, capsys, ["fit"], SIX_Y, x_rows)
    assert err == f"error [DIM_MISMATCH]: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, line", [
    (["--m", "0"], "error [SIZE_RANGE]: m_responses must be >= 3, got 0"),
    (["--m", "1"], "error [SIZE_RANGE]: m_responses must be >= 3, got 1"),
    (["--m", "2"], "error [SIZE_RANGE]: m_responses must be >= 3, got 2"),
    (["--signal-fraction", "2"], "error [SIGNAL_FRACTION_RANGE]: "
     "signal_fraction must lie in [0, 1], got 2"),
    (["--signal-fraction", "-1"], "error [SIGNAL_FRACTION_RANGE]: "
     "signal_fraction must lie in [0, 1], got -1"),
    (["--signal-fraction", "nan"], "error [SIGNAL_FRACTION_RANGE]: "
     "signal_fraction must lie in [0, 1], got nan"),
    (["--signal-fraction", "1"], "error [SIGNAL_FRACTION_RANGE]: "
     "signal_fraction 1 plants 50 signals, more than the 42 exposed genes"),
], ids=["SIZE_RANGE-0", "SIZE_RANGE-1", "SIZE_RANGE-2",
        "SIGNAL_FRACTION_RANGE-2", "SIGNAL_FRACTION_RANGE-neg",
        "SIGNAL_FRACTION_RANGE-nan", "SIGNAL_FRACTION_RANGE-1"])
def test_cli_generate_range_fault_codes(tmp_path, capsys, flags, line):
    out_dir = tmp_path / "fixture"
    code, out, err = run_cli(["generate", "--out-dir", str(out_dir),
                              "--m", "50", "--seed", "1", *flags], capsys)
    assert code == 1 and out == ""
    assert err == line + "\n"
    assert not out_dir.exists()


def test_generate_smallest_sizes_and_fractions(tmp_path, capsys):
    # m = 3, no signal, and 42 signals in the 42 exposed of 50 genes are
    # in range
    for flags in (["--m", "3"], ["--signal-fraction", "0"],
                  ["--signal-fraction", "0.84"]):
        code, _, _ = run_cli(["generate", "--out-dir", str(tmp_path),
                              "--m", "50", "--seed", "1", *flags], capsys)
        assert code == 0


@pytest.mark.parametrize("flags, line", [
    (["--method", "mandel", "--mandel-reps", "5", "--seed", "1"],
     "error [MANDEL_REPS_RANGE]: mc_reps must be >= 100, got 5"),
    (["--method", "mandel"],
     "error [SEED_REQUIRED]: --method mandel requires --seed"),
    (["--alpha", "2"], "error [ALPHA_RANGE]: alpha must lie in (0, 1), got 2"),
    (["--alpha", "0"], "error [ALPHA_RANGE]: alpha must lie in (0, 1), got 0"),
], ids=["MANDEL_REPS_RANGE", "SEED_REQUIRED", "ALPHA_RANGE-2", "ALPHA_RANGE-0"])
def test_cli_argument_fault_codes(tmp_path, capsys, flags, line):
    y, x = tmp_path / "y.csv", tmp_path / "x.csv"
    write_csv(y, SIX_Y)
    write_csv(x, SIX_X)
    code, out, err = run_cli(["test", "--y", str(y), "--x", str(x),
                              "--coef-index", "1", "--r-hat", "1", *flags],
                             capsys)
    assert code == 1 and out == ""
    assert err == line + "\n"


@pytest.mark.parametrize("command, line", [
    (["bootstrap", "--alpha", "2"],
     "error [ALPHA_RANGE]: alpha must lie in (0, 1), got 2"),
    (["bootstrap", "--threads", "0"],
     "error [THREADS_RANGE]: --threads must be >= 1, got 0"),
    (["bootstrap", "--threads", "-3"],
     "error [THREADS_RANGE]: --threads must be >= 1, got -3"),
    (["bootstrap", "--methods", "naive", "naive"],
     "error [METHODS_RANGE]: methods must be distinct and among proposed, "
     "gollob, mandel, naive; got naive naive"),
    (["simulate", "--mu", "-1"],
     "error [MU_RANGE]: mu must be positive, got -1"),
    (["simulate", "--mu", "1", "2"],
     "error [MU_RANGE]: shape basis defines one loading vector, got mu 1 2"),
    (["simulate", "--mu", "3", "2"],
     "error [MU_RANGE]: shape basis defines one loading vector, got mu 3 2"),
    (["simulate", "--mu", "nan"],
     "error [MU_RANGE]: mu must be positive, got nan"),
    (["simulate", "--mu", "inf"],
     "error [MU_RANGE]: mu must be finite, got inf"),
], ids=["bootstrap-ALPHA_RANGE", "bootstrap-THREADS_RANGE",
        "bootstrap-THREADS_RANGE-neg", "bootstrap-METHODS_RANGE-repeated",
        "simulate-MU_RANGE-positive",
        "simulate-MU_RANGE-decreasing", "simulate-MU_RANGE-shape",
        "simulate-MU_RANGE-nan", "simulate-MU_RANGE-inf"])
def test_cli_stochastic_argument_fault_codes(fixture_dir, capsys, command,
                                             line):
    name, *flags = command
    if name == "bootstrap":
        args = ["bootstrap", "--y", str(fixture_dir / "y.csv"),
                "--x", str(fixture_dir / "x.csv"), "--coef-index", "2",
                "--n-datasets", "10"]
    else:
        args = ["simulate", "--n", "10", "--m", "20", "--replicates", "100"]
    code, out, err = run_cli([*args, "--seed", "1", *flags], capsys)
    assert code == 1 and out == ""
    assert err == line + "\n"


@pytest.mark.parametrize("flags, line", [
    (["--methods"], "error [METHODS_RANGE]: methods must name at least one "
                    "of proposed, gollob, mandel, naive"),
    (["--mandel-reps", "5"],
     "error [MANDEL_REPS_RANGE]: mc_reps must be >= 100, got 5"),
], ids=["METHODS_RANGE-empty", "MANDEL_REPS_RANGE"])
def test_cli_bootstrap_faults_before_ingest(tmp_path, capsys, flags, line):
    # the response file does not exist: the fault is found before any work
    code, out, err = run_cli(["bootstrap", "--y", str(tmp_path / "none.csv"),
                              "--coef-index", "2", "--n-datasets", "10",
                              "--seed", "1", *flags], capsys)
    assert code == 1 and out == ""
    assert err == line + "\n"


@pytest.mark.parametrize("command, line", [
    (["simulate", "--n", "0", "--m", "20"],
     "error [SIZE_RANGE]: n and m must be >= 1, got n=0, m=20"),
    (["simulate", "--n", "10", "--m", "20", "--replicates", "5"],
     "error [REPLICATES_RANGE]: replicates must be >= 100, got 5"),
    (["simulate", "--n", "10", "--m", "20", "--replicates", "0"],
     "error [REPLICATES_RANGE]: replicates must be >= 100, got 0"),
    (["simulate", "--n", "10", "--m", "1", "--mu", "3", "--shape",
      "perp-basis"],
     "error [SIZE_RANGE]: shape perp-basis needs m >= 2, got m=1"),
    (["simulate", "--n", "10", "--m", "20", "--r-hat", "11"],
     "error [R_HAT_RANGE]: r_hat must be in [0, 10], got 11"),
    (["bootstrap", "--n-datasets", "3"],
     "error [N_DATASETS_RANGE]: n_datasets must be >= 10, got 3"),
    (["bootstrap", "--k-factors", "0"],
     "error [K_FACTORS_RANGE]: k_factors must be >= 1, got 0"),
    # every cell of a grid is checked before any runs
    (["simulate", "--n", "10", "0", "--m", "20"],
     "error [SIZE_RANGE]: n and m must be >= 1, got n=0, m=20"),
    (["simulate", "--n", "10", "--m", "20", "0", "--replicates", "5"],
     "error [SIZE_RANGE]: n and m must be >= 1, got n=10, m=0"),
], ids=["SIZE_RANGE", "REPLICATES_RANGE", "REPLICATES_RANGE-0",
        "SIZE_RANGE-perp-basis", "R_HAT_RANGE",
        "N_DATASETS_RANGE", "K_FACTORS_RANGE", "SIZE_RANGE-n-list",
        "SIZE_RANGE-m-list"])
def test_cli_size_argument_fault_codes(fixture_dir, capsys, command, line):
    name, *flags = command
    if name == "bootstrap":
        flags = ["--y", str(fixture_dir / "y.csv"),
                 "--x", str(fixture_dir / "x.csv"), "--coef-index", "2",
                 *flags]
    code, out, err = run_cli([name, *flags, "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err == line + "\n"


@pytest.mark.parametrize("command", [
    ["fit"], ["test", "--coef-index", "0"],
    ["bootstrap", "--coef-index", "0", "--n-datasets", "10", "--seed", "1"],
], ids=["fit", "test", "bootstrap"])
def test_cli_x_required(fixture_dir, capsys, command):
    code, out, err = run_cli([*command, "--y", str(fixture_dir / "y.csv")],
                             capsys)
    assert code == 1 and out == ""
    assert err == ("error [X_REQUIRED]: estimating coefficients requires X, "
                   "the row covariates (--x)\n")


def test_cli_bootstrap_threads_default_to_one(fixture_dir, capsys,
                                              monkeypatch):
    seen = []
    real = cli.evaluate

    def spy(cfg, data):
        seen.append(cfg.threads)
        return real(cfg, data)

    monkeypatch.setattr(cli, "evaluate", spy)
    args = ["bootstrap", "--y", str(fixture_dir / "y.csv"),
            "--x", str(fixture_dir / "x.csv"), "--coef-index", "2",
            "--n-datasets", "10", "--methods", "naive", "--seed", "1",
            "--format", "csv"]
    for flags in ([], ["--threads", "2"]):
        code, _, err = run_cli([*args, *flags], capsys)
        assert code == 0 and err == ""
    assert seen == [1, 2]


@pytest.mark.parametrize("command, line", [
    (["ks-table", "--n-list", "30", "--m-list", "60", "--seed", "4"],
     "factordf: error: argument command: invalid choice: 'ks-table'"),
    (["simulate", "--n", "--m", "5", "--seed", "1"],
     "factordf simulate: error: argument --n: expected at least one argument"),
    (["simulate", "--n", "5", "--m", "--seed", "1"],
     "factordf simulate: error: argument --m: expected at least one argument"),
    (["simulate", "--n", "5", "--m", "5", "--seed", "1", "--sigma-sq", "1"],
     "factordf: error: unrecognized arguments: --sigma-sq 1"),
    (["simulate", "--n", "5", "--m", "5", "--seed", "1", "--mu", "3",
      "--shape", "perp-ones"],
     "factordf simulate: error: argument --shape: invalid choice: "
     "'perp-ones'"),
], ids=["ks-table", "empty-n", "empty-m", "sigma-sq", "perp-ones"])
def test_cli_grid_usage_errors(capsys, command, line):
    # simulate is the one Monte-Carlo command, each size list names at least
    # one size, and a cell is named by mu in units of sigma^2 and one of the
    # three shapes
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].startswith(line)


@pytest.mark.parametrize("flags, line", [
    (["--n", "40", "--m", "60", "--mu", "1e200", "--shape", "ones"],
     "error [MU_RANGE]: n mu must be <= 1e+12, got n=40, mu 1e+200"),
    (["--n", "40", "--m", "60", "--mu", "1e308"],
     "error [MU_RANGE]: n mu must be <= 1e+12, got n=40, mu 1e+308"),
    # every cell of a grid is checked before any runs
    (["--n", "5", "400", "--m", "60", "--mu", "3e9"],
     "error [MU_RANGE]: n mu must be <= 1e+12, got n=400, mu 3e+09"),
], ids=["ones-1e200", "basis-1e308", "grid"])
def test_cli_simulate_mu_past_bound(capsys, flags, line):
    # the RSS is a difference of terms of size n mu, which rounding spoils
    # long before they overflow: such a cell is an argument fault, with no
    # row and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["simulate", *flags, "--replicates", "100",
                                  "--seed", "5"], capsys)
    assert code == 1 and out == ""
    assert err == line + "\n"


@pytest.mark.parametrize("command", [
    ["fit", "--y", "y.csv"], ["scree", "--y", "y.csv"],
    ["test", "--y", "y.csv", "--coef-index", "0"],
    ["simulate", "--n", "10", "--m", "20", "--seed", "1"],
    ["simulate", "--n", "10", "20", "--m", "20", "30", "--seed", "1"],
    ["generate", "--out-dir", "out", "--seed", "1"],
], ids=["fit", "scree", "test", "simulate", "simulate-grid", "generate"])
def test_cli_threads_only_on_bootstrap(capsys, command):
    # the other commands run on the calling thread and take no --threads
    with pytest.raises(SystemExit) as exc:
        main([*command, "--threads", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == ("factordf: error: unrecognized "
                                    "arguments: --threads 2")


@pytest.mark.parametrize("method", ["theoretical-noise", "bogus"])
def test_cli_bootstrap_methods_are_choices(capsys, method):
    # only the four adjusting methods; argparse rejects any other name
    with pytest.raises(SystemExit) as exc:
        main(["bootstrap", "--y", "y.csv", "--coef-index", "2", "--seed", "1",
              "--methods", "naive", method])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"factordf bootstrap: error: argument --methods: invalid choice: "
        f"'{method}' (choose from 'proposed', 'gollob', 'mandel', 'naive')")


def test_cli_simulate_has_no_custom_shape(capsys):
    # no shape takes loadings from the command line
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "10", "--m", "20", "--mu", "3",
              "--shape", "custom", "--seed", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'custom'" in capsys.readouterr().err


def test_cli_solver_failure_code(tmp_path, capsys, monkeypatch):
    # a tridiagonal the Sturm bisection cannot solve reaches the CLI coded
    solve = distributions._tridiagonal_top

    def poisoned(d, e, r):
        d = d.copy()
        d[0, 0] = np.nan
        return solve(d, e, r)

    monkeypatch.setattr(distributions, "_tridiagonal_top", poisoned)
    y, x = tmp_path / "y.csv", tmp_path / "x.csv"
    write_csv(y, SIX_Y)
    write_csv(x, SIX_X)
    code, out, err = run_cli(["test", "--y", str(y), "--x", str(x),
                              "--coef-index", "1", "--r-hat", "1",
                              "--method", "mandel", "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err == ("error [SOLVER_FAILED]: Sturm bisection did not converge: "
                   "the tridiagonal is not finite\n")


def test_cli_mandel_provenance_on_stderr(fixture_dir, capsys):
    files = [str(fixture_dir / f"{k}.csv") for k in "yxz"]
    args = ["test", "--y", files[0], "--x", files[1], "--z", files[2],
            "--coef-index", "2", "--r-hat", "2", "--method", "mandel",
            "--mandel-reps", "200", "--seed", "3", "--format", "csv"]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    bundle = ingest(*files)
    est = df_mandel(bundle.N - bundle.p, bundle.M - bundle.q, 2, 200, 3)
    first, second = err.splitlines()
    assert first == (f"mandel df: total={est.total:.10g} "
                     f"mc_se={est.mc_se:.10g} draws=200 seed=3")
    assert second.startswith("significant at alpha=0.001: ")
    df_resid = {row.split(",")[4] for row in out.splitlines()[1:]}
    assert df_resid == {f"{bundle.N - bundle.p - est.total:.10g}"}


def cli_process(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "factordf.cli", *args],
                          stderr=subprocess.PIPE, **kwargs)


SIMULATE_ARGS = ["simulate", "--n", "10", "--m", "20", "--replicates", "100",
                 "--seed", "1", "--format", "csv"]


@pytest.mark.parametrize("mu", [[], ["--mu", "3"]], ids=["noise", "basis"])
def test_cli_simulate_huge_m_runs_in_bounded_memory(mu):
    # a cell's plan and draws take O(1) memory in m: m = 10^12 runs under a
    # 4 GiB address-space cap, which one float64 m-vector (8 TB) would break
    cap = 4 << 30
    proc = cli_process(
        ["simulate", "--n", "5", "--m", "1000000000000", "--replicates", "100",
         "--seed", "1", "--format", "json", *mu], stdout=subprocess.PIPE,
        timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    [row] = json.loads(proc.stdout)
    assert np.isfinite(row["mean_df"])


@pytest.mark.parametrize("command", ["simulate", "test"])
def test_cli_closed_stdout_pipe_exits_quietly(fixture_dir, command):
    args = SIMULATE_ARGS if command == "simulate" else [
        "test", "--y", str(fixture_dir / "y.csv"),
        "--x", str(fixture_dir / "x.csv"), "--z", str(fixture_dir / "z.csv"),
        "--coef-index", "2", "--r-hat", "2", "--format", "csv"]
    read, write = os.pipe()
    os.close(read)      # the reader is gone before the first byte is written
    try:
        proc = cli_process(args, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_CLOSED_PIPE == 141
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("where", ["stdout", "--output"])
def test_cli_full_device_is_io_error(where):
    if where == "stdout":
        with open("/dev/full", "w") as full:
            proc = cli_process(SIMULATE_ARGS, stdout=full)
        target = "standard output"
    else:
        proc = cli_process(SIMULATE_ARGS + ["--output", "/dev/full"],
                           stdout=subprocess.DEVNULL)
        target = "/dev/full"
    assert proc.returncode == 1
    assert proc.stderr.decode() == (f"error [IO_ERROR]: cannot write {target}: "
                                    "[Errno 28] No space left on device\n")


@pytest.mark.parametrize("command, line", [
    (["test", "--y", "{dir}/y.csv", "--coef-index", "0"],
     "error [PARSE_ERROR]: {dir}/y.csv: unparseable number 'x' at row 2"),
    (["simulate", "--n", "10", "--m", "20", "--replicates", "5", "--seed",
      "1"],
     "error [REPLICATES_RANGE]: replicates must be >= 100, got 5"),
], ids=["test-PARSE_ERROR", "simulate-REPLICATES_RANGE"])
def test_cli_failed_command_keeps_output_file(tmp_path, capsys, command,
                                              line):
    # the file is opened before the work but cut only after a success
    write_csv(tmp_path / "y.csv", [["id", "g1", "g2"], ["s1", "x", "1"],
                                   ["s2", "2", "3"]])
    target = tmp_path / "out.csv"
    target.write_bytes(b"earlier results\n")
    args = [a.format(dir=tmp_path) for a in command]
    code, out, err = run_cli([*args, "--output", str(target)], capsys)
    assert code == 1 and out == ""
    assert err == line.format(dir=tmp_path) + "\n"
    assert target.read_bytes() == b"earlier results\n"


def test_cli_output_rewrite_leaves_no_tail(tmp_path, capsys):
    _, expected, _ = run_cli(SIMULATE_ARGS, capsys)
    target = tmp_path / "out.csv"
    target.write_text("x" * (3 * len(expected)))
    code, out, err = run_cli(SIMULATE_ARGS + ["--output", str(target)],
                             capsys)
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == expected


def test_cli_null_device_output(capsys):
    # a device is written but not truncated: /dev/null takes the data
    code, out, err = run_cli(SIMULATE_ARGS + ["--output", os.devnull], capsys)
    assert (code, out, err) == (0, "", "")


def test_cli_read_only_stdout_is_io_error(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("")
    with open(target) as read_only:     # writes to this descriptor fail
        proc = cli_process(SIMULATE_ARGS, stdout=read_only)
    assert proc.returncode == 1
    assert proc.stderr.decode() == ("error [IO_ERROR]: cannot write standard "
                                    "output: [Errno 9] Bad file descriptor\n")


def test_cli_read_only_output_is_io_error(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("")
    target.chmod(0o444)
    if os.access(target, os.W_OK):
        pytest.skip("file modes do not bind this user (root)")
    proc = cli_process(SIMULATE_ARGS + ["--output", str(target)],
                       stdout=subprocess.PIPE)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.decode() == (
        f"error [IO_ERROR]: cannot write {target}: [Errno 13] Permission "
        f"denied: '{target}'\n")
    assert target.read_text() == ""


def test_cli_generate_write_fault_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "fixture"    # a directory inside a regular file
    code, out, err = run_cli(["generate", "--out-dir", str(target), "--m",
                              "20", "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err == (f"error [IO_ERROR]: cannot write {target}: [Errno 20] "
                   f"Not a directory: '{target}'\n")
