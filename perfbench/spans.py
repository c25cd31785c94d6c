"""Spans and counters recorded from the benchmark's side of each layer call.

The traced run never reaches into lieext: it calls the same public functions
`h2` calls, one layer at a time, with a span around each call.  Spans stay in
memory (name, start, end, parent span, op id) and are written out once, when
the run ends; only then are their durations converted and summed, so that
the caller can convert them with samples taken after the last span.
Counters are summed by metric name at the same boundaries.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

from lieext import (
    AlgebraSpec,
    assemble_constraints,
    coboundary_space,
    enumerate_pairs,
    is_coboundary,
    match_known,
    nullspace,
    project_dimension,
    verify_cocycle,
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.totals: defaultdict = defaultdict(int)
        self._stack: list = []
        self._op = 0
        self.replayed: list = []  # ((start, end) of an untraced op, root span of its replay)

    def new_op(self):
        """Start a new op id; later spans carry it."""
        self._op += 1

    @contextmanager
    def span(self, name: str):
        """Time the body as one span; `finish` adds it to `<name>.ms`."""
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "name": name,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record["start"], record["end"] = start, end

    def count(self, name: str, amount):
        self.totals[name] += amount

    def finish(self, seconds):
        """Add every span to `<name>.ms`, and compare each replay with its
        untraced op: `h2.unattributed_ms` sums untraced time less the layer
        spans, `trace.overhead_ms` the replay's root span less untraced time.
        `seconds(start, end)` converts an interval."""
        ms = {s["id"]: seconds(s["start"], s["end"]) * 1000 for s in self.spans}
        for s in self.spans:
            self.totals[s["name"] + ".ms"] += ms[s["id"]]
        for untraced, root in self.replayed:
            untraced_ms = seconds(*untraced) * 1000
            layers_ms = sum(ms[s["id"]] for s in self.spans if s["parent"] == root["id"])
            self.count("h2.unattributed_ms", untraced_ms - layers_ms)
            self.count("trace.overhead_ms", ms[root["id"]] - untraced_ms)

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


@contextmanager
def counting_brackets(tracer: Tracer):
    """Count AlgebraSpec.bracket calls into `algebra.bracket.calls`.

    The wrapper costs time on every call, so it is installed only around
    extra, untimed passes, never around a span or an untraced op.
    """
    original = AlgebraSpec.bracket

    def bracket(self, x, y, params):
        tracer.totals["algebra.bracket.calls"] += 1
        return original(self, x, y, params)

    AlgebraSpec.bracket = bracket
    try:
        yield
    finally:
        AlgebraSpec.bracket = original


def distinct_rows(matrix) -> int:
    """Rows that differ after scaling each by its leading entry."""
    seen = set()
    for row in matrix.rows():
        lead = row[min(row)]
        seen.add(tuple((col, value / lead) for col, value in sorted(row.items())))
    return len(seen)


def replay_h2(tracer: Tracer, spec, params, window) -> tuple:
    """`h2` at degree 0 with 3 stabilization windows, rebuilt from its public
    layers, one span per layer call.

    Returns the fields of the H2Report the replay can reproduce, so the
    caller can assert that it equals the untraced report, and the constraint
    matrix of each window, for counts too slow to take inside a span.
    """
    degree = Fraction(0)
    history, matrices = [], []
    first = None
    for step in range(3):
        grown = window.grown(2 * step)
        with tracer.span("engine.enumerate_pairs"):
            pairs = enumerate_pairs(spec, params, grown, degree)
        with tracer.span("engine.assemble_constraints"):
            matrix = assemble_constraints(spec, params, grown, degree, pairs)
        with tracer.span("sparse.nullspace"):
            cocycles = nullspace(matrix)
        with tracer.span("engine.coboundary_space"):
            bounds = coboundary_space(spec, params, grown, degree, pairs)
        core = pairs.core_columns()
        with tracer.span("sparse.project_dimension"):
            core_h2 = project_dimension(cocycles, core) - project_dimension(bounds, core)
        history.append((grown.n, core_h2))
        matrices.append(matrix)
        tracer.count("engine.enumerate_pairs.pairs", len(pairs))
        tracer.count("engine.assemble_constraints.rows", matrix.n_rows)
        tracer.count("engine.assemble_constraints.nnz", len(matrix.entries))
        tracer.count("sparse.nullspace.rank", matrix.n_cols - len(cocycles))
        tracer.count("sparse.nullspace.nullity", len(cocycles))
        tracer.count("engine.coboundary_space.dim", len(bounds))
        if first is None:
            first = (pairs, cocycles, bounds)
    pairs, cocycles, bounds = first
    with tracer.span("engine.match_known"):
        matched = match_known(spec, params, window, degree, pairs, cocycles, bounds)
    tracer.count("engine.match_known.applicable", len(matched))
    tracer.count("engine.match_known.matched", sum(m.matched for m in matched))
    return {
        "cocycle_dim": len(cocycles),
        "coboundary_dim": len(bounds),
        "core_h2_dim": history[0][1],
        "core_history": history,
        "matched_known": matched,
    }, matrices


def replay_verify(tracer: Tracer, spec, params, window, known) -> tuple:
    """`verify` of a registry class rebuilt from its public layers: returns
    (VerifyReport, nontrivial or None when the identity failed)."""
    with tracer.span("engine.instantiate"):
        psi = known.instantiate(spec, params, window)
    with tracer.span("engine.verify_cocycle"):
        report = verify_cocycle(spec, params, window, psi)
    tracer.count("engine.verify_cocycle.triples_checked", report.triples_checked)
    if not report.passed:
        return report, None
    with tracer.span("engine.is_coboundary"):
        trivial = is_coboundary(spec, params, window, report.assignment)
    return report, not trivial
