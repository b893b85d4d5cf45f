"""Spans recorded from outside the program, and the self-time arithmetic.

The tracer replaces a public function with a timing wrapper under the name
its callers look it up by (``factordf.cli.ingest``, ``factordf.dof.df_mandel``,
``factordf.simulation.run_replicate`` ...).  No program file is changed.
Spans are kept in memory and written out when the run ends.

A span is a list ``[id, parent, name, start, end, lane, label, op]``; times are
``time.perf_counter()`` seconds, which on Linux is CLOCK_MONOTONIC and so
comparable between a parent process and its children.  ``lane`` is 0 on the
thread that opened the operation and 1 on pool threads; ``label`` names the
Monte-Carlo cell of a ``run_sim`` span; ``op`` is the id of the root span of
the operation the span belongs to.
"""

import importlib
import threading
import time

# (module, attribute callers look up, span name).  A function imported into
# several modules is wrapped under each binding that a caller uses.
TARGETS = (
    ("factordf.cli", "ingest", "cli.ingest"),
    ("factordf.cli", "cmd_test", "cli.cmd_test"),
    ("factordf.cli", "compute_direction_stats", "inference.compute_direction_stats"),
    ("factordf.cli", "df_totals", "inference.df_totals"),
    ("factordf.cli", "response_tests", "inference.response_tests"),
    ("factordf.cli", "synthetic_study", "datasets.synthetic_study"),
    ("factordf.inference", "fit_two_sided", "model.fit_two_sided"),
    ("factordf.inference", "t_sf", "distributions.t_sf"),
    ("factordf.model", "fit_two_sided", "model.fit_two_sided"),
    ("factordf.model", "polar_factors", "linalg.polar_factors"),
    ("factordf.linalg", "polar_factors", "linalg.polar_factors"),
    ("factordf.dof", "df_mandel", "dof.df_mandel"),
    ("factordf.fdr", "evaluate", "fdr.evaluate"),
    ("factordf.fdr", "build_generative_truth", "fdr.build_generative_truth"),
    ("factordf.fdr", "simulate_dataset", "fdr.simulate_dataset"),
    ("factordf.fdr", "compute_direction_stats", "inference.compute_direction_stats"),
    ("factordf.fdr", "df_totals", "inference.df_totals"),
    ("factordf.fdr", "response_tests", "inference.response_tests"),
    ("factordf.simulation", "run_grid", "simulation.run_grid"),
    ("factordf.simulation", "run_sim", "simulation.run_sim"),
    ("factordf.simulation", "run_replicate", "simulation.run_replicate"),
    ("factordf.simulation", "ks_test", "distributions.ks_test"),
    ("factordf.datasets", "synthetic_study", "datasets.synthetic_study"),
)


def _sim_label(args, kwargs):
    cfg = args[0] if args else kwargs["config"]
    kind = "noise" if cfg.r == 0 else cfg.shape.value
    return f"{kind}-n{cfg.n}-m{cfg.m}"


LABELS = {"simulation.run_sim": _sim_label}


class Tracer:
    """In-memory span recorder.  ``install`` wraps every target module that
    is importable; ``uninstall`` restores the original functions."""

    def __init__(self):
        self.spans = []
        self._next = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_main(self):
        """Make the calling thread the one operations are opened on; spans
        opened on other threads hang under its innermost open span."""
        self._main_stack = self._stack()

    def _new_id(self):
        with self._id_lock:
            self._next += 1
            return self._next

    def open(self, name, label=None):
        stack = self._stack()
        top, lane = (stack[-1], stack[-1][5]) if stack else (None, 0)
        if top is None and self._main_stack is not None and stack is not self._main_stack:
            try:
                top, lane = self._main_stack[-1], 1
            except IndexError:
                pass
        span_id = self._new_id()
        parent, op = (top[0], top[7]) if top else (None, span_id)
        span = [span_id, parent, name, time.perf_counter(), None, lane, label, op]
        stack.append(span)
        return span

    def close(self, span):
        span[4] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def add(self, name, start, end):
        """Record a root span timed elsewhere (an import, say)."""
        span_id = self._new_id()
        span = [span_id, None, name, start, end, 0, None, span_id]
        self.spans.append(span)
        return span

    def wrap(self, fn, name):
        label_fn = LABELS.get(name)

        def traced(*args, **kwargs):
            span = self.open(name, label_fn(args, kwargs) if label_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod_name, attr, name in TARGETS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []


def _union(intervals):
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanTree:
    """Self times over a list of spans.

    A span's self time is its duration minus the union of the intervals its
    child spans cover.  So by definition the self times under an operation
    sum to its duration (concurrent siblings counted once, by their union)
    whenever the spans nest; ``nesting_errors`` checks that they do.
    """

    def __init__(self, spans):
        self.kids = {}
        for s in spans:
            self.kids.setdefault(s[1], []).append(s)
        self.self_time = {}
        for s in spans:
            ivs = [(max(k[3], s[3]), min(k[4], s[4]))
                   for k in self.kids.get(s[0], ())]
            self.self_time[s[0]] = (s[4] - s[3]) - _union(
                [iv for iv in ivs if iv[1] > iv[0]])

    def roots(self):
        return self.kids.get(None, [])

    def descendants(self, span):
        out, todo = [], [span]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.kids.get(s[0], ()))
        return out

    def nesting_errors(self, span):
        """Ways the spans under ``span`` fail to nest: a child that leaves
        its parent's interval, or a span that overlaps a sibling (concurrent
        pool work) and has children of its own."""
        errors = []
        for s in self.descendants(span):
            kids = sorted(self.kids.get(s[0], ()), key=lambda k: k[3])
            end = None
            for i, k in enumerate(kids):
                if k[3] < s[3] - 1e-9 or k[4] > s[4] + 1e-9:
                    errors.append(f"{k[2]} lies outside {s[2]}")
                overlaps = (end is not None and k[3] < end) or (
                    i + 1 < len(kids) and kids[i + 1][3] < k[4])
                if overlaps and k[0] in self.kids:
                    errors.append(f"concurrent {k[2]} under {s[2]} has children")
                end = k[4] if end is None else max(end, k[4])
        return errors
