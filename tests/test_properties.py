"""Property tests: closed forms and fast paths against their brute-force oracles."""

import itertools
import math
import time
from functools import reduce

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ghzgraphs._search import CHUNK, scan_max  # noqa: E402
from ghzgraphs.bounds import _flip_delta, bell_classical_max, bell_quantum  # noqa: E402
from ghzgraphs.graphs import (  # noqa: E402
    WeightedGraph,
    _coprime_pair,
    canonical_code,
    classify_ghz,
    complete_4j3,
    enumerate_ghz_graphs,
    find_ghz_subgraphs,
    k4,
    odd_loop,
    subgraph,
    triangle,
)
from ghzgraphs.paradox import (  # noqa: E402
    check_infeasible_algebraic,
    check_infeasible_exhaustive,
    subgraph_paradox,
)
from ghzgraphs.pauli import (  # noqa: E402
    PauliWord,
    power,
    product_action,
    stabilizer_product,
    to_matrix,
    vertex_stabilizer,
    word_action,
)
from ghzgraphs.states import build_state, to_dense  # noqa: E402
from test_search import loop_scan_max  # noqa: E402

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


@st.composite
def factor_lists(draw):
    """One to four random Weyl words on a common (d, n)."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, 3))
    exponents = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    word = st.builds(lambda x, z, p: PauliWord(d, x, z, p), exponents, exponents, st.integers(0, d - 1))
    return draw(st.lists(word, min_size=1, max_size=4))


def monomial_matrix(index, phase, d):
    """Dense matrix of a monomial action, its entries written as to_matrix writes them."""
    mat = np.zeros((index.size, index.size), dtype=complex)
    mat[index, np.arange(index.size)] = np.exp(2j * np.pi * phase / d)
    return mat


def pair_loop_edges(g):
    """Oracle: every pair u < v in row-major order whose weight is nonzero."""
    return [(u, v, int(g.adj[u, v])) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u, v]]


def permutation_loop_code(g):
    """Oracle: the least edge-slot code over every relabelling, one permutation at a time."""
    pairs = list(itertools.combinations(range(g.n), 2))
    return min(tuple(int(g.adj[p[u], p[v]]) for u, v in pairs) for p in itertools.permutations(range(g.n)))


def subset_loop_ghz(g, lo, hi):
    """Oracle: one classify_ghz per induced subgraph, sizes lo..hi in order."""
    return [vs for k in range(lo, hi + 1) for vs in itertools.combinations(range(g.n), k)
            if classify_ghz(subgraph(g, vs)).is_ghz]


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
    assert scan.classical_bound == g.n - 1 == bell_quantum(g).classical_bound
    assert scan.witness == {"a_exp": [0] * g.n, "b_exp": [0] * g.n}


@PROPERTY
@given(relabelled_ghz_graphs())
def test_reduced_bell_scan_is_the_classical_maximum(g):
    # bell_quantum's bound proof: the site exponents s = a + adj b range over Z_d^n
    # and the collective exponent is sum(s), so the d^n scan of
    # sum_v delta(s_v) - delta(sum(s)) gives the d^(2n) scan's maximum
    delta = _flip_delta(g.d)
    forms = np.vstack([np.eye(g.n, dtype=np.int64), np.ones(g.n, dtype=np.int64)])
    best, witness = scan_max(forms, [delta] * g.n + [-delta], g.d)
    assert best == bell_classical_max(g).classical_bound == g.n - 1
    assert witness == (0,) * g.n


@settings(PROPERTY, max_examples=12)
@given(relabelled_ghz_graphs())
def test_bell_value_agrees_with_dense_oracle(g):
    report = bell_quantum(g)
    assert report.quantum_value == g.n + 1
    assert report.oracle_agreement is True
    # the dense Bell operator, from the matrices of its term words
    d, n = g.d, g.n
    assert d**n <= 1296
    coll = PauliWord.all_x(d, n)
    bell = sum((2 / d) * (sum(to_matrix(power(vertex_stabilizer(g, v), k)) for v in range(n))
                          - to_matrix(power(coll, k)))
               for k in range(1, d, 2))
    assert np.abs(bell - bell.conj().T).max() <= 1e-12
    # its spectrum is lambda(s) = sum_v delta(s_v) + delta(sum(s)) over Z_d^n
    s = np.indices((d,) * n).reshape(n, -1)

    def delta(t):
        return (t % d == 0).astype(int) - (t % d == d // 2)

    lam = delta(s).sum(axis=0) + delta(s.sum(axis=0))
    assert np.abs(np.linalg.eigvalsh(bell) - np.sort(lam)).max() <= 1e-12
    assert report.notes["spectral_max"] == lam.max()
    vec = to_dense(build_state(g))
    assert abs(vec.conj() @ bell @ vec - report.oracle_value) <= 1e-9


@PROPERTY
@given(factor_lists())
def test_word_actions_match_dense_matrices(words):
    first = words[0]
    assert np.array_equal(monomial_matrix(*word_action(first), first.d), to_matrix(first))
    product = reduce(np.matmul, [to_matrix(w) for w in words])
    assert np.abs(monomial_matrix(*product_action(words), first.d) - product).max() <= 1e-12


@PROPERTY
@given(weighted_graphs())
def test_stabilizer_product_is_the_closed_form_word(g):
    assume(g.d**g.n <= 4096)
    rep = classify_ghz(g)
    product = stabilizer_product(g, range(g.n))
    assert product == PauliWord(g.d, np.ones(g.n, dtype=np.int64), rep.degrees, rep.total_weight)
    index, phase = word_action(product)
    stab_index, stab_phase = product_action([vertex_stabilizer(g, v) for v in range(g.n)])
    assert np.array_equal(index, stab_index) and np.array_equal(phase, stab_phase)


@st.composite
def planted_ghz_graphs(draw):
    """A pool graph planted as an induced subgraph among one or two extra
    vertices, small enough (d^(2n) <= 4^10) for the exhaustive paradox scan."""
    g = draw(relabelled_ghz_graphs())
    extra = [k for k in (1, 2) if g.d ** (2 * (g.n + k)) <= 4**10]
    assume(extra)
    n = g.n + draw(st.sampled_from(extra))
    adj = np.zeros((n, n), dtype=np.int64)
    adj[:g.n, :g.n] = g.adj
    for u in range(n):
        for v in range(max(u + 1, g.n), n):
            adj[u, v] = adj[v, u] = draw(st.integers(0, g.d - 1))
    perm = draw(st.permutations(range(n)))
    planted = tuple(sorted(perm.index(v) for v in range(g.n)))
    return relabel(WeightedGraph(g.d, adj), perm), planted


@settings(PROPERTY, max_examples=10)
@given(planted_ghz_graphs())
def test_subgraph_paradoxes_are_infeasible_both_ways(case):
    g, planted = case
    found = find_ghz_subgraphs(g)
    assert planted in found
    for vs in found:
        system = subgraph_paradox(g, vs)
        algebraic = check_infeasible_algebraic(system)
        exhaustive = check_infeasible_exhaustive(system)
        assert algebraic.infeasible and exhaustive.infeasible
        assert algebraic.max_satisfied_rows == exhaustive.max_satisfied_rows


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


@PROPERTY
@given(weighted_graphs())
def test_edges_match_pair_loop(g):
    edges = g.edges()
    assert edges == pair_loop_edges(g)
    assert all(type(x) is int for edge in edges for x in edge)


@st.composite
def tie_heavy_graphs(draw):
    """Z_d graphs with n <= 7 and d in {2, 3, 4, 6}: random weights, or a tie-heavy
    shape (edgeless, complete with one weight, one weight on a random edge set)."""
    d = draw(st.sampled_from([2, 3, 4, 6]))
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["random", "edgeless", "complete", "one_weight"]))
    w = draw(st.integers(1, d - 1))
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            if kind == "random":
                x = draw(st.integers(0, d - 1))
            elif kind == "one_weight":
                x = draw(st.sampled_from([0, w]))
            else:
                x = w if kind == "complete" else 0
            adj[u, v] = adj[v, u] = x
    return WeightedGraph(d, adj)


@settings(PROPERTY, max_examples=150)
@given(tie_heavy_graphs())
def test_canonical_code_matches_permutation_loop(g):
    code = canonical_code(g)
    assert code == permutation_loop_code(g)
    assert all(type(x) is int for x in code)


def test_canonical_code_refuses_n9_before_building_tables():
    g = WeightedGraph(2, np.ones((9, 9), dtype=np.int64) - np.eye(9, dtype=np.int64))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="n <= 8"):
        canonical_code(g)
    assert time.perf_counter() - start < 0.1


PLANTS = {2: [triangle(2)], 4: [triangle(4), k4(4, 1, 1, 0)], 6: [triangle(6), k4(6, 1, 1, 1), k4(6, 2, 1, 0)]}


@st.composite
def windowed_planted_graphs(draw):
    """Random Z_d graphs (n <= 12, d in {2, 4, 6}), some with a triangle or k4 planted
    as an induced subgraph, and a min_size..max_size window."""
    d = draw(st.sampled_from([2, 4, 6]))
    n = draw(st.integers(3, 12))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.floats(0, 1)) < density:
                adj[u, v] = adj[v, u] = draw(st.integers(1, d - 1))
    planted = None
    plants = [p for p in PLANTS[d] if p.n <= n]
    if draw(st.booleans()):
        plant = draw(st.sampled_from(plants))
        planted = tuple(sorted(draw(st.permutations(range(n)))[:plant.n]))
        adj[np.ix_(planted, planted)] = plant.adj
    lo = draw(st.just(3) | st.integers(3, n))
    hi = draw(st.just(n) | st.integers(lo, n))
    return WeightedGraph(d, adj), lo, hi, planted


@settings(PROPERTY, max_examples=60)
@given(windowed_planted_graphs())
def test_find_ghz_subgraphs_matches_subset_loop(case):
    g, lo, hi, planted = case
    found = find_ghz_subgraphs(g, lo, hi)
    assert found == subset_loop_ghz(g, lo, hi)
    if planted is not None and lo <= len(planted) <= hi:
        assert planted in found


@st.composite
def scan_cases(draw):
    """Small forms, often with repeated residue vectors (small-order
    entries, a row summing the others), int or float tables, any chunk."""
    base = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 4))
    num_digits = draw(st.integers(0, 4))
    coeff = st.sampled_from([0, 1, base // 2, base - 1, base + 2]) | st.integers(-2 * base, 2 * base)
    forms = np.array([[draw(coeff) for _ in range(num_digits)] for _ in range(rows)], dtype=np.int64)
    if rows > 1 and draw(st.booleans()):
        forms[-1] = forms[:-1].sum(axis=0)
    if draw(st.booleans()):
        tables = np.array([[draw(st.integers(-2, 2)) for _ in range(base)] for _ in range(rows)])
    else:
        entry = st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.3, -1.25])
        tables = np.array([[draw(entry) for _ in range(base)] for _ in range(rows)])
    chunk = draw(st.integers(1, 40) | st.just(CHUNK))
    return forms, tables, base, chunk


@settings(PROPERTY, max_examples=200)
@given(scan_cases())
def test_scan_max_matches_counter_loop(case):
    forms, tables, base, chunk = case
    got = scan_max(forms, tables, base, chunk=chunk)
    want = loop_scan_max(forms, tables, base)
    assert got == want
    assert repr(got[0]) == repr(want[0])
