import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
import size_report  # noqa: E402


def report(all_names, flags):
    return {"lines": 10, "__all__": all_names,
            "kinds": {"public-function defaults": ["m.f(a)"],
                      "CLI flags": flags}}


def test_diff_names_each_added_and_removed_value(capsys):
    size_report.print_diff(report(["a", "b"], ["fit --seed", "fit --y"]),
                           report(["a", "c"], ["fit --y", "test --seed"]))
    assert capsys.readouterr().out == (
        "  __all__:\n    - b\n    + c\n"
        "  CLI flags:\n    - fit --seed\n    + test --seed\n")


def test_diff_of_a_tree_with_itself_names_nothing(capsys):
    # each side is measured in a new interpreter, so the test's own import
    # of factordf does not stand in for either
    src = os.path.join(ROOT, "src")
    size_report.main(["--src", src, "--diff", src])
    reports, diff = capsys.readouterr().out.split("differences")
    parent, change = reports.split(f"change ({src}):\n")
    assert parent == f"parent ({src}):\n" + change
    assert change.startswith("src/factordf lines: ")
    assert diff == " (- parent only, + change only):\n"
