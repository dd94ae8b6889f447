"""Property tests: closed forms and fast paths against their brute-force oracles."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ghzgraphs.bounds import bell_classical_max, bell_quantum  # noqa: E402
from ghzgraphs.graphs import (  # noqa: E402
    WeightedGraph,
    _coprime_pair,
    classify_ghz,
    complete_4j3,
    enumerate_ghz_graphs,
    k4,
    odd_loop,
    triangle,
)

PROPERTY = settings(derandomize=True, deadline=None, database=None)

GHZ_POOLS = [
    list(enumerate_ghz_graphs(4, 4)),
    list(enumerate_ghz_graphs(5, 2)),
    list(enumerate_ghz_graphs(4, 6)),
    [triangle(2), triangle(4), triangle(6), k4(4, 1, 1, 0), k4(6, 1, 1, 1), k4(6, 2, 1, 0),
     odd_loop(3), odd_loop(5), odd_loop(7), complete_4j3(0), complete_4j3(1)],
]


def relabel(g, perm):
    """The graph with vertex perm[v] renamed v."""
    idx = np.array(perm)
    return WeightedGraph(g.d, g.adj[np.ix_(idx, idx)])


@st.composite
def relabelled_ghz_graphs(draw):
    g = draw(st.sampled_from(draw(st.sampled_from(GHZ_POOLS))))
    return relabel(g, draw(st.permutations(range(g.n))))


@st.composite
def weighted_graphs(draw):
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 7))
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            adj[u, v] = adj[v, u] = draw(st.sampled_from([0, 0, draw(st.integers(1, d - 1))]))
    return WeightedGraph(d, adj)


def pair_loop_coprime_pair(weights, d, skip, strict):
    """Oracle: the first pair b < c (both != skip) in lexicographic order."""
    others = [u for u in range(len(weights)) if u != skip]
    for i, b in enumerate(others):
        for c in others[i + 1:]:
            wb, wc = int(weights[b]), int(weights[c])
            if (math.gcd(wb, wc) if strict else math.gcd(wb, wc, d)) == 1:
                return (b, c)
    return None


@PROPERTY
@given(relabelled_ghz_graphs())
def test_bell_scan_maximum_is_the_closed_form(g):
    scan = bell_classical_max(g)
    assert scan.classical_bound == g.n - 1 == bell_quantum(g, dense_cap=1).classical_bound
    assert scan.witness == {"a_exp": [0] * g.n, "b_exp": [0] * g.n}


@settings(PROPERTY, max_examples=12)
@given(relabelled_ghz_graphs())
def test_bell_value_agrees_with_dense_oracle(g):
    report = bell_quantum(g)
    assert report.quantum_value == g.n + 1
    assert report.oracle_agreement is True


@PROPERTY
@given(weighted_graphs(), st.data())
def test_classification_is_invariant_under_relabelling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    rep, moved = classify_ghz(g), classify_ghz(relabel(g, perm))
    for name in ("connected", "total_weight", "degrees_divisible", "weight_nondivisible", "is_ghz",
                 "is_primary", "is_weakly_primary", "strict_primary", "strict_weakly_primary",
                 "failure_reasons"):
        assert getattr(moved, name) == getattr(rep, name), name
    assert moved.degrees == tuple(rep.degrees[p] for p in perm)
    assert [w is None for w in moved.primary_witnesses] == [rep.primary_witnesses[p] is None for p in perm]


@PROPERTY
@given(st.integers(2, 40).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.sampled_from([0, 0, 1, d // 2, d - 1]) | st.integers(0, d - 1), min_size=1, max_size=12))),
    st.data(), st.booleans())
def test_coprime_pair_matches_pair_loop(case, data, strict):
    d, weights = case
    skip = data.draw(st.integers(0, len(weights) - 1))
    row = np.array(weights, dtype=np.int64)
    assert _coprime_pair(row, d, skip, strict) == pair_loop_coprime_pair(weights, d, skip, strict)
