"""Run one ``factordf`` CLI command in a fresh process, the way
``python -m factordf.cli`` does, optionally traced.

    python3 perfbench/cli_child.py <spans.json | -> <factordf arguments...>

With ``-`` the child imports ``factordf.cli`` and calls ``main`` and does
nothing else, so the untraced and traced runs differ only in tracing.  With a
path, it records the import and ``cli.main`` spans plus the wrapped layers
and writes them there as JSON before exiting.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    if spans_path == "-":
        import factordf.cli
        return factordf.cli.main(argv)

    t0 = time.perf_counter()
    import factordf.cli
    t1 = time.perf_counter()
    import json
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.add("cli.import", t0, t1)
    span = tracer.open("cli.main")
    try:
        rc = factordf.cli.main(argv)
    finally:
        tracer.close(span)
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
