"""The narrow adjacency against an int64 one: every public function that takes
a graph, and every subcommand, gives the same reprs and stdout bytes.

``WeightedGraph`` stores ``adj`` in the narrowest signed type that holds d
(``graphs._adj_dtype``); patching that rule to int64 gives the same graph
stored the old way, which is the oracle here.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ghzgraphs import bounds, cli, graphs, paradox, pauli, states  # noqa: E402
from ghzgraphs.graphs import WeightedGraph, enumerate_ghz_graphs, k4, odd_loop, triangle  # noqa: E402

# each dtype boundary of d, and moduli near 2^62
MODULI = [126, 127, 128, 32766, 32767, 32768, 2**31 - 2, 2**31 - 1, 2**31, 2**62 - 2, 2**62, 2**62 + 2]
GHZ_SEEDS = [triangle(2), triangle(4), triangle(6), k4(4, 1, 1, 0), k4(6, 1, 1, 1), k4(6, 2, 1, 0), odd_loop(3),
             odd_loop(5), *enumerate_ghz_graphs(4, 4)]
CAP = 10**5


def int64_rule():
    return patch.object(graphs, "_adj_dtype", lambda d: np.dtype(np.int64))


@st.composite
def adjacency_inputs(draw):
    """(d, adj) as nested lists: a GHZ graph scaled from Z_d0 to Z_d when d0
    divides d (scaling keeps every test of the definition), or weights drawn
    as wide as WeightedGraph admits at their n."""
    d = draw(st.integers(2, 8) | st.sampled_from(MODULI))
    seeds = [g for g in GHZ_SEEDS if d % g.d == 0]
    if seeds and draw(st.booleans()):
        g = draw(st.sampled_from(seeds))
        return d, (g.adj.astype(np.int64) * (d // g.d)).tolist()
    n = draw(st.integers(1, 5))
    top = min(d - 1, (2**63 - 1) // n**2)
    adj = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            adj[u][v] = adj[v][u] = draw(st.sampled_from([0, 0, top, draw(st.integers(1, top))]))
    return d, adj


def outcome(call) -> str:
    """The repr of what ``call`` returns or raises; arrays with their dtype."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001  a refusal must match too
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, paradox.ParadoxSystem):
        value = (value.coeffs, value.rhs)
    elif isinstance(value, states.PhaseState):
        value = value.exponents
    return repr(value)


def library_outcomes(d, adj) -> list:
    """Every public function that takes a graph, on the graph of (d, adj)."""
    try:
        g = WeightedGraph(d, adj)
    except Exception as exc:  # noqa: BLE001
        return [f"{type(exc).__name__}: {exc}"]
    every = range(g.n)
    assignment = bounds.ClassicalAssignment(d, (0,) * g.n, tuple(v % d for v in every))
    small = d**g.n <= 64
    calls = {
        "repr": lambda: g, "edges": g.edges, "dict": lambda: graphs.graph_to_dict(g), "adj": lambda: g.adj.tolist(),
        "degree": lambda: [graphs.degree(g, v) for v in every], "total_weight": lambda: graphs.total_weight(g),
        "is_connected": lambda: graphs.is_connected(g), "classify_ghz": lambda: graphs.classify_ghz(g),
        "require_ghz": lambda: graphs.require_ghz(g, "x"), "subgraph": lambda: graphs.subgraph(g, every[::2]),
        "find_ghz_subgraphs": lambda: graphs.find_ghz_subgraphs(g), "canonical_code": lambda: graphs.canonical_code(g),
        "vertex_stabilizer": lambda: [pauli.vertex_stabilizer(g, v) for v in every],
        "stabilizer_product": lambda: pauli.stabilizer_product(g, every),
        "to_matrix": lambda: pauli.to_matrix(pauli.vertex_stabilizer(g, 0)).tobytes() if small else None,
        "build_state": lambda: states.build_state(g), "verify_stabilizers": lambda: states.verify_stabilizers(g),
        "joint_plus_one_dimension": lambda: states.joint_plus_one_dimension(g) if small else None,
        "constraint_system": lambda: paradox.constraint_system(g),
        "subgraph_paradox": lambda: paradox.subgraph_paradox(g, every),
        "check_infeasible_algebraic": lambda: paradox.check_infeasible_algebraic(paradox.constraint_system(g)),
        "check_infeasible_exhaustive": lambda: paradox.check_infeasible_exhaustive(paradox.constraint_system(g), CAP),
        "mermin_table": lambda: paradox.mermin_table(g), "genuineness": lambda: paradox.genuineness(g),
        # its cosine series has d/2 terms in Python, so it runs only at a small d
        "bell_classical_value": lambda: bounds.bell_classical_value(g, assignment) if d <= 2**10 else None,
        "bell_classical_max": lambda: bounds.bell_classical_max(g, CAP), "bell_quantum": lambda: bounds.bell_quantum(g),
        "ks_classical_max": lambda: bounds.ks_classical_max(g, CAP), "ks_quantum": lambda: bounds.ks_quantum(g),
        "enumerate": lambda: list(enumerate_ghz_graphs(min(g.n, 3), d, cap=CAP)),
    }
    return [(name, outcome(call)) for name, call in calls.items()]


def cli_outcomes(path: Path, n: int, d: int) -> list:
    """(argv, exit code, stdout bytes) of every subcommand on the graph file."""
    out = []
    graph_argvs = [[cmd, str(path)] for cmd in ("check", "state-verify")]
    graph_argvs += [[cmd, str(path), "--cap", str(CAP)] for cmd in ("paradox", "bell", "ks")]
    for argv in [*graph_argvs, ["enumerate", str(min(n, 3)), str(d), "--cap", str(CAP)], ["lemma", "3", "4"]]:
        for fmt in ("json", "text"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--format", fmt])
            out.append((argv[0], fmt, code, stdout.getvalue().encode()))
    return out


def scaled_k4(d):
    """k4(6, 1, 1, 1) scaled to Z_d, a GHZ graph whose degree 12 d / 6 = 2d passes the
    largest value of the narrow type at d = 126, 32766 and 2^31 - 2."""
    return d, (k4(6, 1, 1, 1).adj.astype(np.int64) * (d // 6)).tolist()


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(adjacency_inputs())
@example((70, [[0, 69, 69], [69, 0, 69], [69, 69, 0]]))  # degrees 138 pass int8's 127, and the state is built
@example(scaled_k4(126))
@example(scaled_k4(32766))
@example(scaled_k4(2**31 - 2))
def test_narrow_and_int64_adjacency_give_the_same_results(case):
    d, adj = case
    n = len(adj)
    narrow = library_outcomes(d, adj)
    with int64_rule():
        wide = library_outcomes(d, adj)
        assert WeightedGraph(2, [[0]]).adj.dtype == np.int64  # the patch reaches the constructor
    assert narrow == wide
    edges = [[u, v, adj[u][v] % d] for u in range(n) for v in range(u + 1, n) if adj[u][v] % d]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(json.dumps({"d": d, "n": n, "edges": edges}))
        narrow = cli_outcomes(path, n, d)
        with int64_rule():
            wide = cli_outcomes(path, n, d)
    assert narrow == wide
