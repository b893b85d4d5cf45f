"""The command lines the documentation shows parse under the CLI's parser,
the error codes it lists are the ones the program prints, and README's
library quick start runs, so that a deleted command, flag, code or call
cannot linger in the docs, nor a new code go unlisted."""

import glob
import inspect
import os
import re
import shlex
import warnings

import pytest

import factordf
from factordf.cli import build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", os.path.join("docs", "formats.md")]


def command_lines(text: str) -> list[str]:
    """Every line of ``text``'s fenced blocks that starts with ``factordf ``,
    its backslash continuations joined."""
    lines, fenced, joined = [], False, ""
    for line in text.splitlines():
        if line.startswith("```"):
            fenced, joined = not fenced, ""
            continue
        if not fenced:
            continue
        joined += line
        if joined.endswith("\\"):
            joined = joined[:-1]
            continue
        if joined.startswith("factordf "):
            lines.append(joined)
        joined = ""
    return lines


def test_command_lines_join_continuations():
    text = ("factordf fit --y a.csv\n"
            "```\nfactordf test --y y.csv \\\n    --coef-index 2\n"
            "python demo.py\n```\n"
            "```\nfactordf scree --y y.csv  # a comment\n```\n")
    assert command_lines(text) == ["factordf test --y y.csv     --coef-index 2",
                                   "factordf scree --y y.csv  # a comment"]


@pytest.mark.parametrize("doc", DOCS)
def test_documented_command_lines_parse(doc):
    with open(os.path.join(ROOT, doc)) as fh:
        lines = command_lines(fh.read())
    assert lines
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{doc}: {line!r} does not parse")


def printed_codes() -> set[str]:
    """The codes the package can print: every ``CodedError("X"`` literal in
    its source, and the ``error [X]`` literals of ``cli.main``."""
    codes = set(re.findall(r"error \[([A-Z_]+)\]", inspect.getsource(main)))
    for path in glob.glob(os.path.join(os.path.dirname(factordf.__file__),
                                       "*.py")):
        with open(path) as fh:
            codes |= set(re.findall(r'CodedError\(\s*"([A-Z_]+)"', fh.read()))
    return codes


def documented_codes(text: str) -> set[str]:
    """The codes named in the fault paragraphs of ``text``, those above its
    Determinism section: every ``error [X]`` line but the ``error [CODE]``
    placeholder, and every backticked UPPER_CASE word."""
    faults = re.sub(r"```.*?```", "", text.split("\n## Determinism")[0],
                    flags=re.S)
    lines = set(re.findall(r"`error\s+\[([A-Z_]+)\]", faults)) - {"CODE"}
    return lines | set(re.findall(r"`([A-Z][A-Z_]*)`", faults))


def test_documented_codes_read_fault_paragraphs():
    text = ("Faults print `error [CODE]: ...`: a short row is a `DIM_MISMATCH`"
            "\nand a bad value an `error\n[PARSE_ERROR]: y.csv: ...`.\n\n"
            "```\n`NOT_PROSE`\n```\n\n## Determinism\n\n"
            "`OPENBLAS_NUM_THREADS` sets the BLAS threads.\n")
    assert documented_codes(text) == {"DIM_MISMATCH", "PARSE_ERROR"}


def test_documented_error_codes_are_the_printed_ones():
    with open(os.path.join(ROOT, "docs", "formats.md")) as fh:
        documented = documented_codes(fh.read())
    printed = printed_codes()
    assert documented == printed, (
        f"printed but not documented: {sorted(printed - documented)}; "
        f"documented but not printed: {sorted(documented - printed)}")


def test_readme_quick_start_runs_without_warnings():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(),
                            flags=re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert [str(w.message) for w in caught] == []
    assert len(namespace["results"].p_value) == 2000
