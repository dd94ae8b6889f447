"""Spans for the traced run and the per-layer metrics read from them.

The package has no tracing of its own yet, so for the length of one traced
pass ``patched`` swaps module attributes for timing wrappers: the public
functions the jobs call, and the names the package's modules import from
one another.  Untraced passes run the package untouched.  Spans stay in
memory as [name, start, end, parent index (-1 at top level), work].
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import defaultdict

DIGITS = "search.digit_chunks"
ENUMERATE = "graphs.enumerate_ghz_graphs"

# (module, attribute, span name, work of one call from (args, result))
CALLS = [
    # public functions the jobs call
    ("ghzgraphs.paradox", "constraint_system", "paradox.constraint_system", None),
    ("ghzgraphs.paradox", "check_infeasible_exhaustive", "paradox.check_infeasible_exhaustive", None),
    ("ghzgraphs.paradox", "mermin_table", "paradox.mermin_table", None),
    ("ghzgraphs.bounds", "bell_classical_max", "bounds.bell_classical_max", None),
    ("ghzgraphs.bounds", "ks_classical_max", "bounds.ks_classical_max", None),
    ("ghzgraphs.bounds", "lattice_bound_brute", "bounds.lattice_bound_brute", None),
    ("ghzgraphs.bounds", "bell_quantum", "bounds.bell_quantum", None),
    ("ghzgraphs.bounds", "ks_quantum", "bounds.ks_quantum", None),
    ("ghzgraphs.states", "verify_stabilizers", "states.verify_stabilizers", None),
    ("ghzgraphs.graphs", "find_ghz_subgraphs", "graphs.find_ghz_subgraphs", None),
    # names imported across modules; states' own names catch verify_stabilizers
    ("ghzgraphs.bounds", "to_matrix", "pauli.to_matrix", lambda args, out: out.nbytes),
    ("ghzgraphs.states", "to_matrix", "pauli.to_matrix", lambda args, out: out.nbytes),
    ("ghzgraphs.bounds", "build_state", "states.build_state", None),
    ("ghzgraphs.states", "build_state", "states.build_state", None),
    ("ghzgraphs.bounds", "eigenvalue_of", "states.eigenvalue_of", None),
    ("ghzgraphs.states", "eigenvalue_of", "states.eigenvalue_of", None),
    ("ghzgraphs.graphs", "classify_ghz", "graphs.classify_ghz", None),
    ("ghzgraphs.graphs", "canonical_code", "graphs.canonical_code", lambda args, out: math.factorial(args[0].n)),
    ("ghzgraphs.graphs", "is_connected", "graphs.is_connected", None),
    ("ghzgraphs.graphs", "graph_from_code", "graphs.graph_from_code", None),
    ("numpy.linalg", "eigvalsh", "bounds.eigvalsh", lambda args, out: args[0].shape[-1]),
]

# (module, attribute, span name, work of one item); a span covers one next()
GENERATORS = [
    ("ghzgraphs.paradox", "digit_chunks", DIGITS, lambda item: item[1].shape[1]),
    ("ghzgraphs.bounds", "digit_chunks", DIGITS, lambda item: item[1].shape[1]),
    ("ghzgraphs.graphs", "digit_chunks", DIGITS, lambda item: item[1].shape[1]),
    ("ghzgraphs.graphs", "enumerate_ghz_graphs", ENUMERATE, lambda item: 1),
]

# name -> (unit, better); every metric whose unit is not s or 1/s is a count
# that must repeat exactly across traced passes of one seed.
PER_LAYER = {
    "search.digit_chunks.s": ("s", "lower"),
    "search.digit_chunks.values": ("count", "lower"),
    "search.values_per_s": ("1/s", "higher"),
    "paradox.check_infeasible_exhaustive.self_s": ("s", "lower"),
    "bounds.bell_classical_max.self_s": ("s", "lower"),
    "bounds.ks_classical_max.self_s": ("s", "lower"),
    "bounds.lattice_bound_brute.self_s": ("s", "lower"),
    "bounds.bell_quantum.self_s": ("s", "lower"),
    "bounds.eigvalsh.s": ("s", "lower"),
    "bounds.eigvalsh.dim": ("count", "lower"),
    "bounds.ks_quantum.self_s": ("s", "lower"),
    "pauli.to_matrix.s": ("s", "lower"),
    "pauli.to_matrix.calls": ("count", "lower"),
    "pauli.to_matrix.bytes": ("B", "lower"),
    "states.build_state.s": ("s", "lower"),
    "states.eigenvalue_of.s": ("s", "lower"),
    "states.eigenvalue_of.calls": ("count", "lower"),
    "graphs.enumerate_ghz_graphs.self_s": ("s", "lower"),
    "graphs.enumerate_ghz_graphs.yielded": ("count", "lower"),
    "graphs.graph_from_code.calls": ("count", "lower"),
    "graphs.enumerate.yield_ratio": ("ratio", "higher"),
    "graphs.canonical_code.s": ("s", "lower"),
    "graphs.canonical_code.permutations": ("count", "lower"),
    "graphs.classify_ghz.s": ("s", "lower"),
    "graphs.classify_ghz.calls": ("count", "lower"),
    "graphs.is_connected.s": ("s", "lower"),
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.command_s": ("s", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
COUNTS = [name for name, (unit, _) in PER_LAYER.items() if unit not in ("s", "1/s")]


class Tracer:
    """Collects the spans of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if work:
                rec[4] = work(args, out)
            return out
        return traced

    def wrap_generator(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                with self.span(name) as rec:
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                rec[4] = work(item)
                yield item
        return traced

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the CALLS and GENERATORS names through the tracer's wrappers."""
    saved = []
    try:
        for table, wrap in ((CALLS, tracer.wrap), (GENERATORS, tracer.wrap_generator)):
            for module, attr, name, work in table:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrap(name, getattr(mod, attr), work))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; self time is a span minus its children."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    total, own, calls, work = (defaultdict(float) for _ in range(4))
    for i, (name, start, end, _, w) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_s[i]
        calls[name] += 1
        work[name] += w
    # values per second of the scans that consume the counter blocks: the
    # whole time of every span named like a consumer (the parent of some
    # digit_chunks span), counting a consumer nested in another one once
    consumers = {spans[parent][0] for name, _, _, parent, _ in spans if name == DIGITS and parent >= 0}
    in_consumer = [False] * len(spans)
    scan_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        outer = parent >= 0 and (in_consumer[parent] or spans[parent][0] in consumers)
        in_consumer[i] = outer
        if name in consumers and not outer:
            scan_s += end - start
    enumerated = sum(w for name, _, _, parent, w in spans
                     if name == DIGITS and parent >= 0 and spans[parent][0] == ENUMERATE)
    return {
        "search.digit_chunks.s": total[DIGITS],
        "search.digit_chunks.values": work[DIGITS],
        "search.values_per_s": work[DIGITS] / scan_s if scan_s else 0.0,
        "paradox.check_infeasible_exhaustive.self_s": own["paradox.check_infeasible_exhaustive"],
        "bounds.bell_classical_max.self_s": own["bounds.bell_classical_max"],
        "bounds.ks_classical_max.self_s": own["bounds.ks_classical_max"],
        "bounds.lattice_bound_brute.self_s": own["bounds.lattice_bound_brute"],
        "bounds.bell_quantum.self_s": own["bounds.bell_quantum"],
        "bounds.eigvalsh.s": total["bounds.eigvalsh"],
        "bounds.eigvalsh.dim": work["bounds.eigvalsh"],
        "bounds.ks_quantum.self_s": own["bounds.ks_quantum"],
        "pauli.to_matrix.s": total["pauli.to_matrix"],
        "pauli.to_matrix.calls": calls["pauli.to_matrix"],
        "pauli.to_matrix.bytes": work["pauli.to_matrix"],
        "states.build_state.s": total["states.build_state"],
        "states.eigenvalue_of.s": total["states.eigenvalue_of"],
        "states.eigenvalue_of.calls": calls["states.eigenvalue_of"],
        "graphs.enumerate_ghz_graphs.self_s": own[ENUMERATE],
        "graphs.enumerate_ghz_graphs.yielded": work[ENUMERATE],
        "graphs.graph_from_code.calls": calls["graphs.graph_from_code"],
        "graphs.enumerate.yield_ratio": work[ENUMERATE] / enumerated if enumerated else 0.0,
        "graphs.canonical_code.s": total["graphs.canonical_code"],
        "graphs.canonical_code.permutations": work["graphs.canonical_code"],
        "graphs.classify_ghz.s": total["graphs.classify_ghz"],
        "graphs.classify_ghz.calls": calls["graphs.classify_ghz"],
        "graphs.is_connected.s": total["graphs.is_connected"],
    }
