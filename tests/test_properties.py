"""Property tests: closed forms and fast paths against their brute-force oracles."""

import itertools
import math
import time
from functools import reduce
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ghzgraphs import _search, bounds, paradox, pauli  # noqa: E402
from ghzgraphs._search import BLOCK, counter_digits, digit_chunks, lattice_max, scan_max  # noqa: E402
from ghzgraphs.bounds import _bell_terms, _flip_delta, _ks_rows, bell_classical_max, bell_quantum, ks_quantum  # noqa: E402
from ghzgraphs.errors import InvariantError, NotGhzGraphError  # noqa: E402
from ghzgraphs.graphs import (  # noqa: E402
    WeightedGraph,
    _coprime_pair,
    _drop_swap_beaten,
    _swap_tables,
    canonical_code,
    classify_ghz,
    complete_4j3,
    enumerate_ghz_graphs,
    find_ghz_subgraphs,
    graph_from_code,
    is_connected,
    k4,
    odd_loop,
    require_ghz,
    subgraph,
    triangle,
)
from ghzgraphs.paradox import (  # noqa: E402
    check_infeasible_algebraic,
    check_infeasible_exhaustive,
    mermin_table,
    subgraph_paradox,
)
from ghzgraphs.pauli import (  # noqa: E402
    PauliWord,
    _composed_actions,
    _dagger_entry,
    _entry_stack,
    _identity_rows,
    _power_stack,
    _sparse_product,
    _word_stack,
    dagger,
    stabilizer_product,
    to_matrix,
    vertex_stabilizer,
)
from ghzgraphs.states import (  # noqa: E402
    PhaseState,
    _stack_exponents,
    build_state,
    eigenvalue_of,
    verify_stabilizers,
)
from oracles import (  # noqa: E402
    _entry_word,
    apply_word,
    commutation_phase,
    identity,
    is_identity,
    multiply,
    power,
    product_action,
    single_x,
    single_z,
    to_dense,
    word_action,
)
from test_search import assert_chunk_contract, blocked_scan, loop_scan_max  # noqa: E402

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
def wide_graphs(draw):
    """Graphs at a modulus up to 2^63 - 1, weights as wide as WeightedGraph admits at their n."""
    n = draw(st.integers(1, 7))
    d = draw(st.one_of(st.integers(2, 2**63 - 1), st.integers(2**63 - 2**10, 2**63 - 1)))
    top = min(d - 1, (2**63 - 1) // n**2)
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            adj[u, v] = adj[v, u] = draw(st.sampled_from([0, 0, top, draw(st.integers(1, top))]))
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


def swap_loop_beaten(g):
    """Oracle: whether swapping some vertex pair gives a lexicographically smaller edge-slot code."""
    pairs = list(itertools.combinations(range(g.n), 2))
    own = [int(g.adj[u, v]) for u, v in pairs]
    for a, b in pairs:
        p = list(range(g.n))
        p[a], p[b] = b, a
        if [int(g.adj[p[u], p[v]]) for u, v in pairs] < own:
            return True
    return False


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


@st.composite
def factor_triples(draw):
    """d, n and up to 40 factors (x, z, p) on n <= 8 qudits: sparse exponent
    vectors and phases of any size."""
    d = draw(st.integers(2, 12))
    n = draw(st.integers(1, 8))
    exponent = st.one_of(st.just(0), st.integers(0, d - 1))
    exponents = st.lists(exponent, min_size=n, max_size=n)
    size = draw(st.integers(1, 40))
    factors = draw(st.lists(st.tuples(exponents, exponents, st.integers(-10**6, 10**6)), min_size=size, max_size=size))
    return d, n, factors


@PROPERTY
@given(factor_triples(), st.booleans())
def test_sparse_product_is_the_left_fold_of_multiply(case, scalar_sites):
    # entries list each factor's support only; a one-site factor may be given
    # by a plain index and plain exponents, as ks_quantum gives its X_v and Z_u;
    # each entry's dagger is checked against dagger on its word
    d, n, factors = case
    entries = []
    for x, z, p in factors:
        x, z = np.array(x, dtype=np.int64), np.array(z, dtype=np.int64)
        cols = np.flatnonzero(x | z)
        if scalar_sites and cols.size == 1:
            v = int(cols[0])
            entries.append((v, int(x[v]), int(z[v]), p))
        else:
            entries.append((cols, x[cols], z[cols], p))
    assert PauliWord(d, *_sparse_product(d, n, entries)) == reduce(multiply, [PauliWord(d, x, z, p) for x, z, p in factors])
    for entry, (x, z, p) in zip(entries, factors):
        assert _entry_word(d, n, _dagger_entry(d, entry)) == dagger(PauliWord(d, x, z, p))


def apply_word_eigenvalue(w, state):
    """Oracle: move the state with apply_word and read the exponent shift."""
    diff = (apply_word(w, state).exponents - state.exponents) % state.d
    k = int(diff[0])
    return k if (diff == k).all() else None


@st.composite
def states_and_words(draw):
    """A state (graph, constant or random exponents) and one to six words on
    its qudits: random words, pure phases, or phased powers of a vertex
    stabilizer, so eigenstates and non-eigenstates both occur."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, 4))
    g = None
    kind = draw(st.sampled_from(["graph", "constant", "random"]))
    if kind == "graph":
        adj = np.zeros((n, n), dtype=np.int64)
        for u, v in itertools.combinations(range(n), 2):
            adj[u, v] = adj[v, u] = draw(st.integers(0, d - 1))
        g = WeightedGraph(d, adj)
        state = build_state(g)
    elif kind == "constant":
        state = PhaseState(d, n, [draw(st.integers(0, d - 1))] * d**n)
    else:
        state = PhaseState(d, n, draw(st.lists(st.integers(0, d - 1), min_size=d**n, max_size=d**n)))
    exponents = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    phases = st.integers(0, d - 1)
    word = st.one_of(
        st.builds(lambda x, z, p: PauliWord(d, x, z, p), exponents, exponents, phases),
        st.builds(lambda x, p: PauliWord(d, x, [0] * n, p), exponents, phases),
        st.builds(lambda p: PauliWord(d, [0] * n, [0] * n, p), phases))
    if g is not None:
        word = st.one_of(word, st.builds(lambda v, k, p: multiply(PauliWord(d, [0] * n, [0] * n, p),
                                                                  power(vertex_stabilizer(g, v), k)),
                                         st.integers(0, n - 1), st.integers(0, d), phases))
    return state, draw(st.lists(word, min_size=1, max_size=6))


@PROPERTY
@given(states_and_words())
def test_eigen_exponents_match_the_apply_word_route(case):
    state, words = case
    expected = [apply_word_eigenvalue(w, state) for w in words]
    assert [eigenvalue_of(w, state) for w in words] == expected
    assert _stack_exponents(_word_stack(words), state) == expected


@PROPERTY
@given(states_and_words(), st.sampled_from([(0, 1), (1, 0), (1, 1)]))
def test_eigenvalue_of_keeps_the_dimension_mismatch_error(case, offset):
    state, _ = case
    word = identity(state.d + offset[0], state.n + offset[1])
    with pytest.raises(ValueError) as applied:
        apply_word(word, state)
    with pytest.raises(ValueError) as measured:
        eigenvalue_of(word, state)
    assert str(measured.value) == str(applied.value)
    assert str(applied.value) == (f"dimension mismatch: word (d={word.d}, n={word.n}) "
                                  f"vs state (d={state.d}, n={state.n})")


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


def stack_words(stack):
    """(x, z, phase) of each word of a stack as it is stored, unreduced."""
    return [(x.tolist(), z.tolist(), int(p)) for x, z, p in zip(*stack)]


def word_rows(words):
    """(x, z, phase) of each word, reduced as ``PauliWord`` keeps them."""
    return [(w.x_exp.tolist(), w.z_exp.tolist(), w.phase_exp) for w in words]


@PROPERTY
@given(factor_lists(), st.data())
def test_power_stack_is_power_word_by_word(words, data):
    # any exponent per word, or one for all; the identity flags of the d-th
    # powers are the hermiticity test of bell_quantum
    d = words[0].d
    ks = data.draw(st.lists(st.integers(0, 2 * d + 1), min_size=len(words), max_size=len(words)))
    stack = _word_stack(words)
    assert stack_words(_power_stack(d, stack, np.array(ks))) == word_rows(power(w, k) for w, k in zip(words, ks))
    assert stack_words(_power_stack(d, stack, d)) == word_rows(power(w, d) for w in words)
    assert _identity_rows(_power_stack(d, stack, d)).tolist() == [is_identity(power(w, d)) for w in words]


@PROPERTY
@given(weighted_graphs(), st.data())
def test_bell_term_stack_matches_the_per_word_route(g, data):
    # odd d and non-GHZ weights too: the term stack is every odd power of every
    # vertex stabilizer, then of X_V, as power builds them word by word, and
    # its eigen-exponents on the graph state are eigenvalue_of's, also when a
    # small budget splits the stack
    d, n = g.d, g.n
    bases = [vertex_stabilizer(g, v) for v in range(n)] + [PauliWord.all_x(d, n)]
    words = [power(base, k) for base in bases for k in range(1, d, 2)]
    terms = _bell_terms(g)
    assert stack_words(terms) == word_rows(words)
    assert _identity_rows(_power_stack(d, terms, d)).tolist() == [is_identity(power(w, d)) for w in words]
    assume(d**n <= 4096)
    psi = build_state(g)
    expected = [eigenvalue_of(w, psi) for w in words]
    assert expected == [apply_word_eigenvalue(w, psi) for w in words]
    assert _stack_exponents(terms, psi) == expected
    with patch.object(pauli, "BLOCK", data.draw(st.integers(1, 3 * d**n))):
        assert _stack_exponents(terms, psi) == expected


@PROPERTY
@given(weighted_graphs(), st.data())
def test_verify_stabilizers_measures_as_eigenvalue_of(g, data):
    assume(g.d**g.n <= 4096)
    d, n = g.d, g.n
    psi = build_state(g)
    flip = PauliWord(d, np.ones(n, dtype=np.int64), g.adj.sum(axis=0))
    report = verify_stabilizers(g)
    assert report.vertex_exponents == tuple(eigenvalue_of(vertex_stabilizer(g, v), psi) for v in range(n))
    assert report.flip_exponent == eigenvalue_of(flip, psi) == apply_word_eigenvalue(flip, psi)
    with patch.object(pauli, "BLOCK", data.draw(st.integers(1, 3 * d**n))):
        assert verify_stabilizers(g) == report


@st.composite
def entry_runs(draw):
    """d, n <= 4 with d^n <= 1296, and one to five runs of one to six
    ``_sparse_product`` entries: random words, not commuting in general."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, 4))
    exponents = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    factor = st.tuples(exponents, exponents, st.integers(-50, 50))
    runs = draw(st.lists(st.lists(factor, min_size=1, max_size=6), min_size=1, max_size=5))
    entries = []
    for run in runs:
        entries.append([])
        for x, z, p in run:
            x, z = np.array(x, dtype=np.int64), np.array(z, dtype=np.int64)
            cols = np.flatnonzero(x | z)
            entries[-1].append((cols, x[cols], z[cols], p))
    return d, n, entries


@PROPERTY
@given(entry_runs(), st.data())
def test_composed_actions_are_the_products_of_each_run(case, data):
    # one stack holds every run; each run's action is its product's, formed
    # by multiply word by word, whatever the budget splitting the stack
    d, n, runs = case
    stack = _entry_stack(d, n, [entry for run in runs for entry in run])
    with patch.object(pauli, "BLOCK", data.draw(st.integers(1, 3 * d**n))):
        actions = _composed_actions(d, stack, [len(run) for run in runs])
    assert len(actions) == len(runs)
    for run, (index, phase) in zip(runs, actions):
        words = [_entry_word(d, n, entry) for entry in run]
        for want_index, want_phase in (word_action(reduce(multiply, words)), product_action(words)):
            assert np.array_equal(index, want_index) and np.array_equal(phase % d, want_phase)


@PROPERTY
@given(relabelled_ghz_graphs(), st.data())
def test_ks_rows_compose_as_their_entry_words(g, data):
    # the rows are the operator rows of the contextuality expression word by
    # word; ks_quantum's dense oracle composes exactly these rows, and no
    # report depends on the budget that splits its stacks
    assume(g.d**g.n <= 4096)
    d, n = g.d, g.n
    rows = [(name, list(factors), phase) for name, factors, phase in _ks_rows(g)]
    coll_dagger = dagger(PauliWord.all_x(d, n))
    stabilizers = [vertex_stabilizer(g, v) for v in range(n)]
    expected = [[coll_dagger] + [single_x(d, n, v) for v in range(n)]]
    expected += [[dagger(s), single_x(d, n, v)]
                 + [single_z(d, n, int(u), int(g.adj[v, u])) for u in np.flatnonzero(g.adj[v])]
                 for v, s in enumerate(stabilizers)]
    expected.append([coll_dagger] + stabilizers)
    assert [[_entry_word(d, n, f) for f in factors] for _, factors, _ in rows] == expected
    assert [name for name, _, _ in rows] == (["shift_row"] + [f"stabilizer_row_{v}" for v in range(n)]
                                              + ["product_row"])

    composed = []
    real = bounds._composed_actions
    reports = [repr(f(g)) for f in (bell_quantum, ks_quantum, verify_stabilizers)]
    with patch.object(bounds, "_composed_actions", lambda *args: composed.append(real(*args)) or composed[-1]), \
            patch.object(pauli, "BLOCK", data.draw(st.integers(1, 3 * d**n))):
        assert [repr(f(g)) for f in (bell_quantum, ks_quantum, verify_stabilizers)] == reports
    [actions] = composed
    assert len(actions) == len(rows)
    for (_, factors, _), (index, phase) in zip(rows, actions):
        want_index, want_phase = product_action([_entry_word(d, n, f) for f in factors])
        assert np.array_equal(index, want_index) and np.array_equal(phase % d, want_phase)


@PROPERTY
@given(relabelled_ghz_graphs(), st.data())
def test_mermin_check_matches_pair_loop(g, data):
    # one row gets a stray word: random, a pure phase, or a power of a vertex
    # stabilizer, which commutes with every row; the oracle is the pair loop
    d, n = g.d, g.n
    exponents = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    stray = data.draw(st.one_of(
        st.builds(lambda x, z, p: PauliWord(d, x, z, p), exponents, exponents, st.integers(0, d - 1)),
        st.builds(lambda p: PauliWord(d, [0] * n, [0] * n, p), st.integers(0, d - 1)),
        st.builds(lambda u, k: power(vertex_stabilizer(g, u), k), st.integers(0, n - 1), st.integers(1, d - 1))))
    target = data.draw(st.integers(0, n - 1))

    def with_stray(h, v):
        return multiply(vertex_stabilizer(h, v), stray) if v == target else vertex_stabilizer(h, v)

    words = [with_stray(g, v) for v in range(n)] + [dagger(PauliWord.all_x(d, n))]
    labels = [f"g_{v}" for v in range(n)] + ["X_V^†"]
    phases = ((i, j, commutation_phase(words[i], words[j])) for i, j in itertools.combinations(range(n + 1), 2))
    first = next(((i, j, c) for i, j, c in phases if c), None)
    with patch.object(paradox, "vertex_stabilizer", with_stray):
        if first is None:
            assert [row.word for row in mermin_table(g).rows] == words
        else:
            i, j, c = first
            with pytest.raises(InvariantError) as err:
                mermin_table(g)
            assert str(err.value) == f"table rows {labels[i]} and {labels[j]} fail to commute (phase {c})"


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
@given(weighted_graphs())
def test_require_ghz_raises_exactly_for_non_ghz_graphs(g):
    rep = classify_ghz(g)
    if rep.is_ghz:
        require_ghz(g, "gate")
    else:
        with pytest.raises(NotGhzGraphError) as err:
            require_ghz(g, "gate")
        assert str(err.value) == f"gate needs a GHZ graph; failed: {', '.join(rep.failure_reasons)}"
    assert rep.is_ghz == (not rep.failure_reasons)


@PROPERTY
@given(st.integers(2, 40).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.sampled_from([0, 0, 1, d // 2, d - 1]) | st.integers(0, d - 1), min_size=1, max_size=12))),
    st.data(), st.booleans())
def test_coprime_pair_matches_pair_loop(case, data, strict):
    d, weights = case
    skip = data.draw(st.integers(0, len(weights) - 1))
    row = np.array(weights, dtype=np.int64)
    assert _coprime_pair(row, d, skip, strict) == pair_loop_coprime_pair(weights, d, skip, strict)


@st.composite
def long_rows(draw):
    """(d, weights, skip): 13 to 80 weights below d <= 2^62, the skipped vertex
    often first or last.  In a "shared factor" row d is even and every weight but
    the odd last one is even, so the last entry is the only possible partner."""
    n = draw(st.integers(13, 80))
    d = draw(st.integers(2, 40) | st.integers(2, 2**62) | st.integers(2**61, 2**62))
    skip = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    if draw(st.booleans()):
        d += d % 2
        evens = st.integers(0, d // 2 - 1).map(lambda h: 2 * h)
        last = st.just(1) | st.integers(0, d // 2 - 1).map(lambda h: 2 * h + 1)
        weights = draw(st.lists(evens, min_size=n - 1, max_size=n - 1)) + [draw(last)]
    else:
        entry = st.sampled_from([0, 1, d // 2, d - 1]) | st.integers(0, d - 1)
        weights = draw(st.lists(entry, min_size=n, max_size=n))
    return d, weights, skip


@PROPERTY
@given(long_rows(), st.booleans())
def test_coprime_pair_matches_pair_loop_on_long_rows(case, strict):
    d, weights, skip = case
    row = np.array(weights, dtype=np.int64)
    assert _coprime_pair(row, d, skip, strict) == pair_loop_coprime_pair(weights, d, skip, strict)


@PROPERTY
@given(weighted_graphs())
def test_edges_match_pair_loop(g):
    edges = g.edges()
    assert edges == pair_loop_edges(g)
    assert all(type(x) is int for edge in edges for x in edge)


@PROPERTY
@given(st.one_of(weighted_graphs(), wide_graphs()))
def test_edges_match_the_upper_triangle_route(g):
    # the route edges() took before it stopped building a second n x n array
    us, vs = np.nonzero(np.triu(g.adj, 1))
    assert g.edges() == list(zip(us.tolist(), vs.tolist(), g.adj[us, vs].tolist()))


@PROPERTY
@given(weighted_graphs())
def test_is_connected_matches_plain_walk(g):
    adj = g.adj.tolist()
    reach, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for v in range(g.n):
            if adj[u][v] and v not in reach:
                reach.add(v)
                frontier.append(v)
    assert is_connected(g) is (len(reach) == g.n)


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


@settings(PROPERTY, max_examples=150)
@given(tie_heavy_graphs().filter(lambda g: g.n <= 6))
def test_swap_filter_keeps_canonical_codes_and_drops_only_swap_beaten_ones(g):
    canon = graph_from_code(g.n, g.d, canonical_code(g))
    us, vs = np.triu_indices(g.n, 1)
    codes = np.stack([g.adj[us, vs], canon.adj[us, vs]], axis=1)
    kept = _drop_swap_beaten(codes, _swap_tables(g.n)).T.tolist()
    assert kept == [h.adj[us, vs].tolist() for h in (g, canon) if not swap_loop_beaten(h)]
    assert kept[-1] == list(canonical_code(g))


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
def chunk_cases(draw):
    """Counters of up to 9^6 values and blocks of 1 to 600, with at most 4096 blocks."""
    base = draw(st.integers(2, 9))
    num_digits = draw(st.integers(0, 6))
    chunk = draw(st.integers(max(1, -(-base**num_digits // 4096)), 600))
    return num_digits, base, chunk


@settings(PROPERTY, max_examples=150)
@given(chunk_cases())
@example((3, 9, 5))  # base > chunk: one-value blocks
@example((4, 3, 81))  # the whole counter in one block
@example((0, 2, 1))
def test_digit_chunks_join_to_the_counter(case):
    num_digits, base, chunk = case
    blocks = list(digit_chunks(num_digits, base, chunk))
    assert_chunk_contract(blocks, base**num_digits, chunk)
    joined = np.concatenate([digits for _, digits in blocks], axis=1)
    assert np.array_equal(joined, counter_digits(np.arange(base**num_digits), num_digits, base))


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
    chunk = draw(st.integers(1, 40) | st.just(1 << 18))
    return forms, tables, base, chunk


@settings(PROPERTY, max_examples=200)
@given(scan_cases())
def test_scan_max_matches_counter_loop(case):
    forms, tables, base, chunk = case
    got = blocked_scan(forms, tables, base, chunk)
    want = loop_scan_max(forms, tables, base)
    assert got == want
    assert repr(got[0]) == repr(want[0])


@st.composite
def blocked_scan_cases(draw):
    """Forms over up to 2^13 counter values, with rows that vanish on their
    last digits so that blocks see them as constant, and int or float
    tables."""
    base = draw(st.integers(2, 8))
    rows = draw(st.integers(2, 6))
    top = 1
    while base ** (top + 1) <= 2**13:
        top += 1
    num_digits = draw(st.integers(top - 1, top))
    coeff = st.sampled_from([0, 1, base // 2, base - 1]) | st.integers(-base, base)
    forms = np.array([[draw(coeff) for _ in range(num_digits)] for _ in range(rows)], dtype=np.int64)
    for r in range(rows):
        if draw(st.booleans()):
            forms[r, draw(st.integers(0, num_digits)):] = 0
    if draw(st.booleans()):
        tables = np.array([[draw(st.integers(-2, 2)) for _ in range(base)] for _ in range(rows)])
    else:
        entry = st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.3, -1.25])
        tables = np.array([[draw(entry) for _ in range(base)] for _ in range(rows)])
    return forms, tables, base


@settings(PROPERTY, max_examples=40)
@given(blocked_scan_cases())
def test_scan_max_does_not_depend_on_the_block_size(case):
    forms, tables, base = case
    want = blocked_scan(forms, tables, base, 1 << 18)
    for chunk in (1, 16, 2**10, BLOCK):
        got = blocked_scan(forms, tables, base, chunk)
        assert got == want
        assert repr(got) == repr(want)


@st.composite
def lattice_cases(draw):
    """Tables of magnitude at most 1 with repeated entries, signed zeros and
    sums that round differently in different orders, over up to 7^5 counter
    values, with any block size; lattice_max takes n >= 2."""
    base = draw(st.integers(2, 7))
    n = draw(st.integers(2, 5))
    entry = st.sampled_from([-0.0, 0.0, 0.1, 0.2, 0.3, 0.7, -1.0, 1.0])
    table = np.array([draw(entry) for _ in range(base)])
    chunk = draw(st.integers(1, 40) | st.just(1 << 18))
    return table, n, base, chunk


@settings(PROPERTY, max_examples=150)
@given(lattice_cases())
def test_lattice_max_matches_scan(case):
    table, n, base, chunk = case
    forms = np.vstack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    want = scan_max(forms, [table] * n + [-table], base)
    with patch.object(_search, "BLOCK", chunk):
        got = lattice_max(table, n, base)
    assert repr(got) == repr(want)
