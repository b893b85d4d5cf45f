"""The command lines the documentation shows parse under the CLI's parser,
so that a deleted command or flag cannot linger in the docs."""

import os
import shlex

import pytest

from factordf.cli import build_parser

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
