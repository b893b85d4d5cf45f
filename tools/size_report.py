"""Print the size of the factordf package: its lines, its public names and
the values a caller can set.

    python3 tools/size_report.py [--src SRC_DIR] [--list] [--diff PARENT_SRC]

``SRC_DIR`` is the directory holding the ``factordf`` package (default: the
``src`` next to this script's ``tools``), so one checkout's script can
measure another checkout.  The report gives:

- the line count of ``factordf``'s ``.py`` files, as ``wc -l`` counts them;
- the length of ``factordf.__all__``;
- the settable values, by kind: the defaulted parameters of the public
  module-level functions (names without a leading underscore, counted in
  the module that defines them), the fields of ``SimConfig`` and
  ``BootstrapConfig``, the command line's flags (counted per command, help
  flags excluded) and the ``FACTORDF_*`` environment variables its source
  names.

``--list`` prints every settable value under its kind.  ``--diff
PARENT_SRC`` prints the report of ``PARENT_SRC`` and then of ``SRC_DIR``,
each measured in its own interpreter since both are ``factordf``, and names
every settable value and ``__all__`` name one has and the other lacks
(``-`` only in the parent, ``+`` only in ``SRC_DIR``).
"""

import argparse
import dataclasses
import importlib
import inspect
import multiprocessing
import os
import pkgutil
import re
import sys
from concurrent.futures import ProcessPoolExecutor


def function_defaults(package):
    """``module.function(parameter)`` of every defaulted parameter."""
    names = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) or \
                    obj.__module__ != module.__name__:
                continue
            names += [f"{info.name}.{name}({p.name})"
                      for p in inspect.signature(obj).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    return sorted(names)


def cli_flags(parser):
    """``command --flag`` of every flag, the top-level ones first."""
    flags = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                flags += [f"{command} {flag}" for flag in cli_flags(sub)]
        elif not isinstance(action, argparse._HelpAction):
            flags.append(max(action.option_strings, key=len))
    return flags


def measure(src):
    """Lines, ``__all__`` and settable values, by kind, of the ``factordf``
    package in ``src``, imported into this process."""
    sys.path.insert(0, src)
    import factordf
    from factordf import cli, fdr, simulation
    pkg_dir = os.path.dirname(os.path.abspath(factordf.__file__))
    if os.path.dirname(pkg_dir) != src:
        sys.exit(f"factordf was imported from {pkg_dir}, not from {src}")

    source = ""
    for root, _, files in os.walk(pkg_dir):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(root, name)) as fh:
                    source += fh.read()
    kinds = {
        "public-function defaults": function_defaults(factordf),
        "SimConfig fields": [f.name for f in
                             dataclasses.fields(simulation.SimConfig)],
        "BootstrapConfig fields": [f.name for f in
                                   dataclasses.fields(fdr.BootstrapConfig)],
        "CLI flags": cli_flags(cli.build_parser()),
        "FACTORDF_* variables": sorted(set(re.findall(r"FACTORDF_\w+",
                                                      source))),
    }
    return {"lines": source.count("\n"), "__all__": list(factordf.__all__),
            "kinds": kinds}


def measure_apart(src):
    """``measure(src)`` in a new interpreter of its own."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        return pool.submit(measure, src).result()


def print_report(report, list_values=False):
    kinds = report["kinds"]
    print(f"src/factordf lines: {report['lines']}")
    print(f"__all__ names: {len(report['__all__'])}")
    print(f"settable values: {sum(map(len, kinds.values()))}")
    for kind, names in kinds.items():
        print(f"  {kind}: {len(names)}")
        if list_values:
            print("".join(f"    {name}\n" for name in names), end="")


def print_diff(parent, change):
    """Each name in only one of the reports, under its kind."""
    pairs = {"__all__": (parent["__all__"], change["__all__"])}
    pairs.update((kind, (parent["kinds"][kind], names))
                 for kind, names in change["kinds"].items())
    for kind, (old, new) in pairs.items():
        removed = sorted(set(old) - set(new))
        added = sorted(set(new) - set(old))
        if removed or added:
            print(f"  {kind}:")
            print("".join(f"    - {name}\n" for name in removed), end="")
            print("".join(f"    + {name}\n" for name in added), end="")


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    ap.add_argument("--list", action="store_true",
                    help="print every settable value")
    ap.add_argument("--diff", metavar="PARENT_SRC", default=None,
                    help="compare with the factordf package in PARENT_SRC")
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    if args.diff is None:
        print_report(measure(src), args.list)
        return
    parent_src = os.path.abspath(args.diff)
    parent, change = measure_apart(parent_src), measure_apart(src)
    print(f"parent ({parent_src}):")
    print_report(parent, args.list)
    print(f"change ({src}):")
    print_report(change, args.list)
    print("differences (- parent only, + change only):")
    print_diff(parent, change)


if __name__ == "__main__":
    main()
