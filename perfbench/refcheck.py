"""Output checks.  Each returns None when the output is right and a short
reason when it is not.

The ``test`` command is checked against a dense numpy reference written
here: QR and SVD instead of the library's polar factors and Gram
eigenproblem, and the regularized incomplete beta function for p-values.
It deliberately uses no ``factordf`` code, so it stays valid when the
library's own oracles move.  The Monte-Carlo and bootstrap checks compare
against ``reference.json`` within a stated number of combined standard
errors.
"""

import csv
import json
import math
import os

import numpy as np
from scipy.special import betainc

HERE = os.path.dirname(os.path.abspath(__file__))
COLUMNS = ["response", "estimate", "se", "t", "df_resid", "p", "method"]


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _read_matrix(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ids = [r[0] for r in rows[1:]]
    return ids, np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def load_fixture(fixture_dir):
    """(col_ids, Y, X, Z) from the CSVs ``factordf generate`` writes."""
    _, X = _read_matrix(os.path.join(fixture_dir, "x.csv"))
    z_ids, Z = _read_matrix(os.path.join(fixture_dir, "z.csv"))
    with open(os.path.join(fixture_dir, "y.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    col_ids = rows[0][1:]
    if col_ids != z_ids:
        raise ValueError("fixture z.csv ids do not match y.csv columns")
    Y = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return col_ids, Y, X, Z


def dense_test_reference(Y, X, Z, coef_index, r_hat):
    """estimate, se, t, df_resid, p per response for the proposed df."""
    N, M = Y.shape
    n, m = N - X.shape[1], M - Z.shape[1]
    Qx, _ = np.linalg.qr(X)
    Qz, _ = np.linalg.qr(Z)
    B = np.linalg.lstsq(X, Y, rcond=None)[0]           # (p, M)
    Yx = Y - Qx @ (Qx.T @ Y)
    E = Yx - (Yx @ Qz) @ Qz.T
    b = B[coef_index]
    est = b - Qz @ (Qz.T @ b)
    s_normsq = 1.0 - np.sum(Qz**2, axis=1)
    U, S, Vt = np.linalg.svd(E, full_matrices=False)
    adjusted = E - (U[:, :r_hat] * S[:r_hat]) @ Vt[:r_hat]
    rss = np.sum(adjusted**2, axis=0)
    proj = np.sum(Vt[:r_hat].T ** 2, axis=1) / s_normsq
    df_resid = n - (n * proj + r_hat * (1.0 + math.sqrt(n / m)) ** 2)
    cvar = np.linalg.inv(X.T @ X)[coef_index, coef_index]
    se = np.sqrt(rss / df_resid * cvar)
    t = est / se
    p = betainc(df_resid / 2.0, 0.5, df_resid / (df_resid + t * t))
    # The estimate is a difference of two terms and can cancel to near zero;
    # its rounding error, and that of t, is relative to the larger term.
    est_scale = np.maximum(np.abs(b), np.abs(b - est))
    values = {"estimate": est, "se": se, "t": t, "df_resid": df_resid, "p": p}
    scales = {"estimate": est_scale, "se": np.abs(se), "t": est_scale / se,
              "df_resid": np.abs(df_resid), "p": np.abs(p)}
    return values, scales


class TestOutputCheck:
    """Checks one ``test --format csv`` output file against the reference on
    a fixed sample of responses chosen by the seed."""

    def __init__(self, fixture_dir, coef_index, r_hat, sample, seed, rtol):
        col_ids, Y, X, Z = load_fixture(fixture_dir)
        ref, scales = dense_test_reference(Y, X, Z, coef_index, r_hat)
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(col_ids), size=min(sample, len(col_ids)),
                           replace=False)
        self.M = len(col_ids)
        self.expected = {col_ids[j]: {k: (float(v[j]), float(scales[k][j]))
                                      for k, v in ref.items()}
                         for j in picks}
        self.rtol = rtol

    def __call__(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != COLUMNS:
            return "wrong header"
        if len(rows) - 1 != self.M:
            return f"{len(rows) - 1} rows, expected {self.M}"
        got = {r[0]: r for r in rows[1:]}
        if len(got) != self.M:
            return "duplicated response ids"
        for rid, want in self.expected.items():
            row = got.get(rid)
            if row is None:
                return f"response {rid} missing"
            if row[6] != "proposed":
                return f"{rid}: method {row[6]!r}"
            for k, col in zip(COLUMNS[1:6], row[1:6]):
                v = float(col)
                ref, scale = want[k]
                if not abs(v - ref) <= self.rtol * max(abs(v), scale):
                    return f"{rid}.{k} = {v!r}, reference {ref!r}"
        return None


def within(value, se, ref_value, ref_se, sigmas):
    """Whether value lies within ``sigmas`` combined standard errors."""
    if not (math.isfinite(value) and math.isfinite(se)):
        return False
    return abs(value - ref_value) <= sigmas * math.hypot(se, ref_se)


def check_mc_cell(name, mean_df, se_df, reference):
    ref = reference["mc_grid"][name]
    if within(mean_df, se_df, ref["mean_df"], ref["se_df"],
              reference["check_sigmas"]):
        return None
    return (f"{name}: mean_df {mean_df:.4f} (se {se_df:.4f}) vs reference "
            f"{ref['mean_df']:.4f} (se {ref['se_df']:.4f})")


def check_bootstrap(rates, n_datasets, reference):
    """rates: label -> (fpr_pct, fpr_se, tpr_pct, tpr_se).  The run's
    standard error is at least the reference spread scaled to its dataset
    count, so a lucky small-sample spread does not tighten the check."""
    sig = reference["check_sigmas"]
    for label, ref in reference["bootstrap_fdr"].items():
        if label not in rates:
            return f"method {label} missing"
        scale = math.sqrt(ref["datasets"] / n_datasets)
        fpr, fpr_se, tpr, tpr_se = rates[label]
        for stat, v, se in (("fpr", fpr, fpr_se), ("tpr", tpr, tpr_se)):
            ref_se = ref[f"{stat}_se"]
            if not within(v, max(se, ref_se * scale), ref[f"{stat}_pct"],
                          ref_se, sig):
                return (f"{label} {stat} {v:.4f}% vs reference "
                        f"{ref[stat + '_pct']:.4f}% (se {ref_se:.4f})")
    return None
