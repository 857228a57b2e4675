"""Span recorder, self-time arithmetic and percentiles for the benchmark.

Spans are recorded from outside the program: ``install`` replaces the module
attributes that betauto's callers look up with thin wrappers, so the code
under ``src/`` is never edited.  Wrappers record only while an op is open
(``Recorder.op``), which keeps the benchmark's own correctness checks out of
the trace.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter

# a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10

# fields of one span record
NAME, START, END, PARENT, OP, SIZE = range(6)


class Recorder:
    """Spans kept in memory as lists ``[name, start_ns, end_ns, parent, op,
    size]``; ``parent`` is the index of the enclosing span or -1, ``size`` the
    state count of an automaton result (or None)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, size=None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter_ns()
        span[SIZE] = size
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span ``name`` per call while an op is open.
        ``hook(recorder, result, exc)`` sees each outcome, to update counts."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            i = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec.close(i)
                if hook is not None:
                    hook(rec, None, exc)
                raise
            rec.close(i, getattr(result, "n_states", None))
            if hook is not None:
                hook(rec, result, None)
            return result

        return traced


def layer_of(name: str) -> str:
    """``automata.minimize`` -> ``automata``; the benchmark's own root span
    ``op`` covers whatever no layer span covers."""
    return "unattributed" if name == "op" else name.split(".", 1)[0]


def self_times(spans) -> dict:
    """Total self time in seconds per span name: each span's duration minus
    the time covered by its direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict = {}
    for s, c in zip(spans, child):
        out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START] - c) / 1e9
    return out


def total_times(spans) -> dict:
    """Total inclusive time in seconds per span name, counting only spans
    not nested in a span of the same name."""
    out: dict = {}
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) / 1e9
    return out


def tail_percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile, refused unless at least ``MIN_BEYOND``
    samples lie beyond it (p80 needs 50 samples, p90 needs 100)."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    beyond = len(xs) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {len(xs)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}")
    return xs[rank - 1]


# ---------------------------------------------------------------------------
# wrappers on betauto's module attributes

AUTOMATA_FUNCS = (
    "accepts", "adjacency", "append_letter", "char_poly", "complement",
    "count_series", "determinize", "dominant_eigenvalue", "intersect",
    "lex_pair_automaton", "minimize", "product", "project", "to_dot",
    "to_json", "transpose", "trim",
)


def _relations_hook(rec, result, exc):
    """Counts from ``RelAutomaton.stats``, or ``CapExceeded.stats`` when the
    exploration was capped (that one has only states/depth/pruned)."""
    if result is not None:
        st = result.stats
        rec.counts["relations.closed_explored"] += st["states_explored"]
        rec.counts["relations.closed_kept"] += st["states"]
        explored, depth = st["states_explored"], st["max_depth_reached"]
    else:
        st = getattr(exc, "stats", None)
        if not st:
            return
        explored, depth = st["states"], st["depth"]
    rec.counts["relations.states_explored"] += explored
    rec.counts["relations.pruned"] += st["pruned"]
    rec.counts["relations.max_depth"] = max(rec.counts["relations.max_depth"], depth)
    rec.counts["numfield.precision_refinements"] += st.get("precision_refinements", 0)
    rec.counts["numfield.undecided_keeps"] += st.get("undecided_keeps", 0)


def install(rec: Recorder):
    """Wrap the betauto entry points each layer is called through.  Returns a
    function that puts the originals back."""
    from betauto import automata, cli, numfield, reducer, relations, structure

    saved = []

    def patch(owner, attr, name, hook=None):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, rec.wrap(name, orig, hook))

    # automata functions under every binding a caller resolves at call time
    for fn in AUTOMATA_FUNCS:
        orig = getattr(automata, fn)
        for mod in (automata, structure, relations, cli):
            if getattr(mod, fn, None) is orig:
                patch(mod, fn, f"automata.{fn}")
    patch(automata.Automaton, "delta", "automata.delta")
    patch(automata.Automaton, "ddelta", "automata.ddelta")

    for mod in (cli, numfield):
        patch(mod, "context_from_config", "numfield.context")
    for mod in (cli, relations):
        patch(mod, "build_relation_automaton", "relations.build", _relations_hook)
    for fn in ("quick_free_sufficient", "mahler_nonfree_check", "is_free"):
        patch(cli, fn, f"relations.certificate.{fn}")
    patch(cli, "kenyon_criterion", "relations.kenyon_criterion")

    for mod in (cli, structure):
        patch(mod, "build_reduced_automaton", "structure.reduced")
    patch(cli, "build_multiplier", "structure.multiplier")
    patch(cli, "growth", "structure.growth")

    patch(reducer, "accepts", "reducer.accepts")
    patch(reducer.ReducerTable, "__init__", "reducer.table_init")
    patch(reducer.ReducerTable, "reduce", "reducer.reduce")
    patch(reducer.ReducerTable, "equivalent", "reducer.equivalent")

    patch(cli, "main", "cli.main")
    for cmd in ("relations", "structure", "free"):
        patch(cli, f"cmd_{cmd}", f"cli.{cmd}")

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return restore


def span_cost_ns(rec: Recorder, calls: int = 20000) -> float:
    """Measured cost of one recorded span, from timing a wrapped no-op
    against the bare one; used to estimate the tracing overhead."""

    def noop():
        return None

    wrapped = rec.wrap("calibrate", noop)
    saved_op, saved_spans = rec.op, rec.spans
    rec.op, rec.spans = "calibrate", []
    try:
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter_ns()
    finally:
        rec.op, rec.spans = saved_op, saved_spans
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)
