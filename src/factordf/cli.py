"""Command-line front door: ingestion, fitting, testing, simulation, bootstrap.

Every command is a pure function of its files, flags, and seed.  simulate,
bootstrap and generate require --seed, and test reads one for --method
mandel; output is byte-identical on every run, at any bootstrap
--threads setting.  generate writes only its fixture files; every other
command prints data to stdout or --output, a file that a failed command
leaves as it was.  Diagnostics and errors go to stderr.
"""

import argparse
import csv
import io
import json
import os
import stat
import sys

import numpy as np

from . import __version__
from .datasets import AGE_COEF_INDEX, synthetic_study
from .dof import DofMethod, df_shared
from .factors import variance_explained
from .fdr import (DEFAULT_METHODS, REPORT_COLUMNS, BootstrapConfig, evaluate,
                  report_columns, report_to_json)
from .inference import compute_direction_stats, df_totals, response_tests
from .linalg import CodedError
from .model import DatasetBundle, fit_two_sided
from .simulation import (CSV_COLUMNS, SignalShape, SimConfig, cell_columns,
                         grid_to_json, run_grid)

FORMATS = ("table", "csv", "json")

# Exit status when standard output is a pipe whose reader has gone: 128 +
# SIGPIPE, the status a shell reports for a process that signal ends.
EXIT_CLOSED_PIPE = 141


# Text that np.loadtxt would read otherwise than csv.reader and float() do:
# quotes, bare CRs, and the separators \x1c-\x1f, which loadtxt strips from a
# number as whitespace and float() rejects.
_NOT_PLAIN = '"\r\x1c\x1d\x1e\x1f'


def _read_csv(path: str) -> tuple[list[str], list[str], np.ndarray | list]:
    """Header, row ids and value block of one CSV file, read once.

    Plain text (LF or CRLF lines, no quotes, no blank lines) is split here
    and its values parsed by one np.loadtxt call, which reads every number
    it accepts bit for bit as float() does.  Any other file, or a block that
    loadtxt refuses, is read by csv.reader and its value rows are returned
    as strings for ``_parse_block``, which parses them with float() and
    raises the faults.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise CodedError("IO_ERROR", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CodedError(
            "PARSE_ERROR", f"{path}: byte 0x{exc.object[exc.start]:02x} at "
                           f"position {exc.start} is not valid {exc.encoding}") from None
    lf = text.replace("\r\n", "\n") if "\r" in text else text
    lines = lf.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) >= 2 and not any(c in lf for c in _NOT_PLAIN):
        header = lines[0].split(",")
        parts = [line.partition(",") for line in lines[1:]]
        values = [p[2] for p in parts]
        if "" not in values:    # loadtxt skips empty lines, warning if all are
            try:
                block = np.loadtxt(values, delimiter=",", comments=None,
                                   ndmin=2)
            except ValueError:
                block = None
            if block is not None and block.shape == (len(values), len(header) - 1):
                return header, [p[0] for p in parts], block
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if len(rows) < 2:
        raise CodedError("PARSE_ERROR", f"{path}: need a header row and data")
    return rows[0], [r[0] if r else "" for r in rows[1:]], rows[1:]


def _parse_block(path: str, body: np.ndarray | list, width: int) -> np.ndarray:
    """The checked value block: rows of strings parsed with float(), then
    every value checked finite."""
    out = body
    if isinstance(body, list):
        out = np.empty((len(body), width))
        for i, row in enumerate(body):
            if len(row) != width + 1:
                raise CodedError(
                    "DIM_MISMATCH",
                    f"{path}: row {i + 2} has {len(row)} fields, expected {width + 1}")
            try:
                out[i] = row[1:]    # numpy parses each str with float()
            except ValueError:
                for cell in row[1:]:
                    try:
                        float(cell)
                    except ValueError:
                        raise CodedError(
                            "PARSE_ERROR",
                            f"{path}: unparseable number {cell!r} at row {i + 2}") from None
                raise
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise CodedError("PARSE_ERROR",
                         f"{path}: non-finite value at row {np.argmin(finite) + 2}")
    return out


def _check_ids(ids: list[str], path: str) -> None:
    seen = set()
    for x in ids:
        if x in seen:
            raise CodedError("DUP_ID", f"{path}: duplicated id {x!r}")
        seen.add(x)


def ingest(y_path: str, x_path: str | None = None, z_path: str | None = None,
           add_intercepts: bool = False) -> DatasetBundle:
    """Load Y (and optional X / Z) CSVs into a validated bundle.

    Y is N rows by M named columns with a leading row-id column; X rows must
    carry the same ids in the same order, and Z rows must match Y's column
    names.  Intercept columns are added only when ``add_intercepts`` is set.
    """
    header, row_ids, body = _read_csv(y_path)
    col_ids = header[1:]
    if not col_ids:
        raise CodedError("DIM_MISMATCH", f"{y_path}: no response columns")
    _check_ids(col_ids, y_path)
    _check_ids(row_ids, y_path)
    Y = _parse_block(y_path, body, len(col_ids))
    # Y's sum of squares bounds every residual sum of squares, Gram-matrix
    # entry and squared singular value formed from Y: none may overflow, and
    # a nonzero Y's may not underflow to zero
    with np.errstate(over="ignore"):
        sum_sq = Y.ravel() @ Y.ravel()
    if not np.isfinite(sum_sq):
        raise CodedError("OVERFLOW", f"{y_path}: the sum of squared values "
                                     "exceeds the float64 range")
    if sum_sq < np.finfo(np.float64).tiny and Y.any():
        raise CodedError("UNDERFLOW", f"{y_path}: the sum of squared values "
                                      "falls below the float64 range")

    X = None if x_path is None else _read_covariates(
        x_path, row_ids, y_path, add_intercepts)
    Z = None if z_path is None else _read_covariates(
        z_path, col_ids, f"{y_path} columns", add_intercepts)
    return DatasetBundle(Y, X, Z, row_ids=tuple(row_ids),
                         col_ids=tuple(col_ids))


def _read_covariates(path: str, ids: list[str], owner: str,
                     add_intercept: bool) -> np.ndarray:
    """The covariate block of one X or Z file, whose row ids must be ``ids``
    (those of ``owner``), with an intercept column first if asked."""
    header, row_ids, body = _read_csv(path)
    if row_ids != ids:
        raise CodedError("ID_MISMATCH",
                         f"{path}: row ids do not match {owner}")
    block = _parse_block(path, body, len(header) - 1)
    if add_intercept:
        block = np.column_stack([np.ones(block.shape[0]), block])
    return block


# csv.writer (default dialect, "\n" line ends) quotes a field holding any of
# these and writes every other field as it is.
_CSV_QUOTED = ',"\n'


def _fmt(x) -> str:
    """One printed cell: None empty, a bool true or false, a float %.10g,
    anything else str()."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _csv_fields(values) -> list[str]:
    """``_fmt`` of each value, quoted where csv.writer would quote it."""
    strs = [_fmt(v) for v in values]
    if not any(c in "".join(strs) for c in _CSV_QUOTED):
        return strs
    return ['"' + s.replace('"', '""') + '"'
            if any(c in s for c in _CSV_QUOTED) else s for s in strs]


def _write_csv(out, header: list[str], columns: list,
               float_fmt: str = "%.10g") -> None:
    """Write a header and equal-length columns (two or more) as CSV, with
    the bytes csv.writer would write.

    A float ndarray column prints as ``float_fmt`` and any other column's
    values with ``_fmt``; each row is formatted by one %-template.
    """
    is_float = [isinstance(c, np.ndarray) and c.dtype.kind == "f"
                for c in columns]
    values = [c.tolist() if f else
              _csv_fields(c.tolist() if isinstance(c, np.ndarray) else c)
              for c, f in zip(columns, is_float)]
    template = ",".join(float_fmt if f else "%s" for f in is_float) + "\n"
    out.write(",".join(_csv_fields(header)) + "\n")
    out.writelines(template % row for row in zip(*values))


def _emit_rows(header: list[str], columns: list, fmt: str, out) -> None:
    """Write equal-length columns as an aligned table, CSV or JSON records.

    Table and CSV print each value with ``_fmt``; JSON keeps the values'
    own types.
    """
    if fmt == "csv":
        _write_csv(out, header, columns)
        return
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in zip(*values)]
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    table = []
    for h, vals in zip(header, values):
        col = [h, *map(_fmt, vals)]
        width = max(map(len, col))
        table.append([v.ljust(width) for v in col])
    out.writelines("  ".join(row).rstrip() + "\n" for row in zip(*table))


def _open_output(args):
    """The data stream, and whether it is an --output file to close.  The
    file is opened before any work, so that a bad path faults first, but it
    is cut to the new data only once they are written (``main``)."""
    if args.output:
        try:
            return open(args.output, "w", opener=lambda path, flags: os.open(
                path, flags & ~os.O_TRUNC, 0o666)), True
        except OSError as exc:
            raise CodedError("IO_ERROR",
                             f"cannot write {args.output}: {exc}") from exc
    return sys.stdout, False


def _add_output_args(sp) -> None:
    sp.add_argument("--format", choices=FORMATS, default="table")
    sp.add_argument("--output", default=None, help="write data here instead of stdout")


def _add_seed_arg(sp, required: bool = True) -> None:
    sp.add_argument("--seed", type=int, required=required, default=None,
                    help="random seed" + (" (required)" if required else ""))


def _add_data_args(sp) -> None:
    sp.add_argument("--y", required=True, help="response matrix CSV")
    sp.add_argument("--x", default=None, help="row covariates CSV")
    sp.add_argument("--z", default=None, help="column covariates CSV")
    sp.add_argument("--add-intercepts", action="store_true",
                    help="prepend intercept columns to X and Z")


def cmd_fit(args, out) -> None:
    bundle = ingest(args.y, args.x, args.z, args.add_intercepts)
    stats = compute_direction_stats(bundle, 0)
    header = ["response"] + [f"coef{k}" for k in range(bundle.p)]
    _emit_rows(header, [bundle.col_ids, *stats.estimates], args.format, out)
    print(f"residual frobenius norm: {np.linalg.norm(stats.residuals):.10g}",
          file=sys.stderr)


def cmd_scree(args, out) -> None:
    bundle = ingest(args.y, args.x, args.z, args.add_intercepts)
    _, E_hat = fit_two_sided(bundle)
    k = min(bundle.N - bundle.p, bundle.M - bundle.q)
    table = variance_explained(E_hat, rows=k)
    header = ["factor", "variance_pct", "residual_pct"]
    columns = [range(1, len(table.variance_pct) + 1), table.variance_pct,
               table.residual_pct]
    _emit_rows(header, columns, args.format, out)


def cmd_test(args, out) -> None:
    bundle = ingest(args.y, args.x, args.z, args.add_intercepts)
    r_hat = 0 if args.method == "none" else args.r_hat
    method = DofMethod(args.method) if r_hat > 0 else None
    if method is DofMethod.MANDEL and args.seed is None:
        raise CodedError("SEED_REQUIRED", "--method mandel requires --seed")
    stats = compute_direction_stats(bundle, r_hat)
    shared = df_shared(method, stats.n, stats.m, r_hat, args.mandel_reps,
                       args.seed)
    if shared is not None and shared.mc_se is not None:
        # Mandel's df is one Monte-Carlo number: report where it came from
        print(f"mandel df: total={shared.total:.10g} mc_se={shared.mc_se:.10g} "
              f"draws={args.mandel_reps} seed={args.seed}", file=sys.stderr)
    df_tot = df_totals(stats, shared)
    est, se, t, df_resid, p = response_tests(stats, args.coef_index, df_tot)
    order = np.lexsort((np.array(bundle.col_ids), p))
    header = ["response", "estimate", "se", "t", "df_resid", "p", "method"]
    label = method.value if method else "none"
    columns = [[bundle.col_ids[j] for j in order.tolist()], est[order],
               se[order], t[order], df_resid[order], p[order],
               [label] * bundle.M]
    _emit_rows(header, columns, args.format, out)
    n_sig = int(np.sum(p < args.alpha))
    print(f"significant at alpha={args.alpha:g}: {n_sig} of {bundle.M}",
          file=sys.stderr)


def cmd_simulate(args, out) -> None:
    # one cell per (n, m), n the outer loop
    mu = tuple(args.mu or ())
    configs = [SimConfig(n=n, m=m, r=len(mu), mu=mu, shape=args.shape,
                         r_hat=args.r_hat, replicates=args.replicates,
                         seed=args.seed)
               for n in args.n for m in args.m]
    cells = run_grid(configs)
    if args.format == "json":
        out.write(grid_to_json(cells))
    else:
        _emit_rows(list(CSV_COLUMNS), cell_columns(cells), args.format, out)


def cmd_bootstrap(args, out) -> None:
    cfg = BootstrapConfig(k_factors=args.k_factors, alpha=args.alpha,
                          n_datasets=args.n_datasets, seed=args.seed,
                          coef_index=args.coef_index, methods=args.methods,
                          mandel_reps=args.mandel_reps, threads=args.threads)
    bundle = ingest(args.y, args.x, args.z, args.add_intercepts)
    report = evaluate(cfg, bundle)
    if args.format == "json":
        out.write(report_to_json(report))
    else:
        _emit_rows(list(REPORT_COLUMNS), report_columns(report), args.format,
                   out)


def cmd_generate(args, out) -> None:
    bundle, truth = synthetic_study(m_responses=args.m, seed=args.seed,
                                    signal_fraction=args.signal_fraction)

    def write(name, header, columns):
        with open(os.path.join(args.out_dir, name), "w", newline="") as fh:
            _write_csv(fh, header, columns, "%.12g")

    try:
        os.makedirs(args.out_dir, exist_ok=True)
        write("y.csv", ["id", *bundle.col_ids], [bundle.row_ids, *bundle.Y.T])
        write("x.csv", ["id", "intercept", "sex", "age"],
              [bundle.row_ids, *bundle.X.T])
        write("z.csv", ["id", "intercept", "tissue"],
              [bundle.col_ids, *bundle.Z.T])
        with open(os.path.join(args.out_dir, "truth.json"), "w") as fh:
            json.dump({"signal_genes": [bundle.col_ids[j] for j in
                                        np.nonzero(truth.signal_mask)[0]],
                       "age_coef_index": AGE_COEF_INDEX,
                       "seed": args.seed}, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise CodedError("IO_ERROR",
                         f"cannot write {args.out_dir}: {exc}") from exc
    print(f"wrote y.csv, x.csv, z.csv, truth.json to {args.out_dir}",
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="factordf",
        description="Bilinear regression with latent-factor df adjustment. "
                    "CSV layouts: Y is N rows x M named columns with a leading "
                    "row-id column; X rows align with Y row ids; Z rows align "
                    "with Y column names.  See docs/formats.md.")
    ap.add_argument("--version", action="version", version=__version__)
    # a command without the flag reads as one that was not given it
    ap.set_defaults(seed=None, output=None)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="fit the two-sided model, emit coefficients")
    _add_data_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("scree", help="residual variance explained per factor")
    _add_data_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=cmd_scree)

    sp = sub.add_parser("test", help="per-response t tests with df adjustment")
    _add_data_args(sp)
    sp.add_argument("--coef-index", type=int, required=True,
                    help="0-based column of X to test")
    sp.add_argument("--r-hat", type=int, default=0)
    sp.add_argument("--method", choices=[m.value for m in DofMethod] + ["none"],
                    default="proposed",
                    help="df scheme; 'none' skips factor adjustment "
                         "(ignores --r-hat)")
    sp.add_argument("--alpha", type=float, default=0.001)
    sp.add_argument("--mandel-reps", type=int, default=1000)
    _add_output_args(sp)
    _add_seed_arg(sp, required=False)
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("simulate",
                        help="Monte-Carlo df cells, one per (n, m) pair")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--m", type=int, nargs="+", required=True)
    sp.add_argument("--mu", type=float, nargs="*", default=[])
    sp.add_argument("--shape", choices=[s.value for s in SignalShape],
                    default="basis")
    sp.add_argument("--r-hat", type=int, default=1)
    sp.add_argument("--replicates", type=int, default=10000)
    _add_output_args(sp)
    _add_seed_arg(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("bootstrap", help="parametric-bootstrap FDR evaluation")
    _add_data_args(sp)
    sp.add_argument("--coef-index", type=int, required=True)
    sp.add_argument("--k-factors", type=int, default=2)
    sp.add_argument("--alpha", type=float, default=0.001)
    sp.add_argument("--n-datasets", type=int, default=1000)
    sp.add_argument("--methods", nargs="*",
                    choices=[m.value for m in DEFAULT_METHODS],
                    default=[m.value for m in DEFAULT_METHODS])
    sp.add_argument("--mandel-reps", type=int, default=1000)
    sp.add_argument("--threads", type=int, default=1,
                    help="threads the datasets run on; default: 1")
    _add_output_args(sp)
    _add_seed_arg(sp)
    sp.set_defaults(func=cmd_bootstrap)

    sp = sub.add_parser("generate", help="write a synthetic study fixture")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--m", type=int, default=2000)
    sp.add_argument("--signal-fraction", type=float, default=0.03)
    _add_seed_arg(sp)
    sp.set_defaults(func=cmd_generate)
    return ap


def _drop_stdout() -> None:
    """Point standard output's descriptor at the null device, so that the
    flush at interpreter exit has no fault to report."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _check_ranges(args) -> None:
    """Reject flag values outside their ranges, before any work is done."""
    # the library keys on the seed's 64-bit word, so wider seeds would alias
    if args.seed is not None and not -2**63 <= args.seed < 2**64:
        raise CodedError("SEED_RANGE",
                         f"--seed must lie in [-2^63, 2^64), got {args.seed}")
    if args.command == "bootstrap" and args.threads < 1:
        raise CodedError("THREADS_RANGE",
                         f"--threads must be >= 1, got {args.threads}")
    if args.command == "test" and not 0 < args.alpha < 1:
        raise CodedError("ALPHA_RANGE",
                         f"alpha must lie in (0, 1), got {args.alpha:g}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = None
    try:
        _check_ranges(args)
        out, close = _open_output(args)
        try:
            args.func(args, out)
            # a device such as /dev/null cannot be truncated
            if close and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()
        finally:    # write out what is buffered, so that its faults show here
            (out.close if close else out.flush)()
        return 0
    except OSError as exc:
        if out is sys.stdout:
            _drop_stdout()
            if isinstance(exc, BrokenPipeError):
                return EXIT_CLOSED_PIPE
        print(f"error [IO_ERROR]: cannot write "
              f"{args.output or 'standard output'}: {exc}", file=sys.stderr)
        return 1
    except CodedError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"error [SOLVER_FAILED]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
