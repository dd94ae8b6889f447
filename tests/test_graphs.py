"""Structural predicates, families, enumeration, and the graph file format."""

import itertools
import math
import time

import numpy as np
import pytest

from ghzgraphs import graphs
from ghzgraphs.bounds import bell_quantum, ks_classical_max, ks_quantum
from ghzgraphs.errors import CapExceededError, GraphFormatError
from ghzgraphs.graphs import (
    WeightedGraph,
    canonical_code,
    classify_ghz,
    complete_4j3,
    enumerate_ghz_graphs,
    find_ghz_subgraphs,
    graph_from_code,
    graph_from_dict,
    graph_to_dict,
    is_connected,
    k4,
    load_graph,
    odd_loop,
    require_ghz,
    save_graph,
    subgraph,
    total_weight,
    triangle,
)
from oracles import degree
from ghzgraphs.paradox import constraint_system, genuineness, mermin_table, subgraph_paradox


def brute_ghz_scan(n, d):
    """Independent enumeration oracle: check the defining conditions edge
    tuple by edge tuple, with its own connectivity walk."""
    pairs = list(itertools.combinations(range(n), 2))
    hits = []
    for code in itertools.product(range(d), repeat=len(pairs)):
        adj = [[0] * n for _ in range(n)]
        for (u, v), w in zip(pairs, code):
            adj[u][v] = adj[v][u] = w
        degs = [sum(adj[u][v] for u in range(n)) for v in range(n)]
        if any(dv % d for dv in degs):
            continue
        if sum(code) % d == 0:
            continue
        reach = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in range(n):
                if adj[u][v] and v not in reach:
                    reach.add(v)
                    frontier.append(v)
        if len(reach) == n:
            hits.append(code)
    return hits


class TestBasics:
    def test_triangle_degrees(self):
        g = triangle(2)
        assert [degree(g, v) for v in range(3)] == [2, 2, 2]

    def test_k4_degree_matches_adjacency_sum(self):
        g = k4(4, 1, 1, 0)
        # oracle: direct adjacency column sums
        for v in range(4):
            assert degree(g, v) == int(sum(g.adj[u, v] for u in range(4)))
        assert degree(g, 1) == 8

    def test_single_vertex_degree(self):
        g = WeightedGraph(2, [[0]])
        assert degree(g, 0) == 0

    def test_degree_bad_vertex(self):
        with pytest.raises(IndexError):
            degree(triangle(2), 3)

    def test_total_weight(self):
        assert total_weight(triangle(2)) == 3
        # oracle: direct edge sum 3+1+0+2+3+1
        g = k4(4, 1, 1, 0)
        assert total_weight(g) == sum(w for _, _, w in g.edges()) == 10
        assert total_weight(WeightedGraph(3, np.zeros((4, 4)))) == 0

    def test_handshake_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(2, 9))
            a = rng.integers(0, d, size=(n, n))
            a = np.triu(a, 1)
            g = WeightedGraph(d, a + a.T)
            assert sum(degree(g, v) for v in range(n)) == 2 * total_weight(g)

    def test_connectivity(self):
        assert is_connected(triangle(2))
        assert is_connected(k4(4, 1, 1, 0))  # the weight-0 pair is bridged
        two_edges = WeightedGraph.from_edges(2, 4, [(0, 1, 1), (2, 3, 1)])
        assert not is_connected(two_edges)
        assert is_connected(WeightedGraph(5, [[0]]))

    def test_weights_stored_reduced(self):
        g = WeightedGraph(4, [[0, 5], [5, 0]])
        assert g.weight(0, 1) == 1

    @pytest.mark.parametrize("d", [5, 127, 128, 200, 256])
    def test_input_types_build_equal_graphs(self, d):
        # list, int8, uint8 and int64 input reduce mod d to one graph: at d <= 127 int8 and uint8
        # are reduced in their own type, above it they are widened to int16 first (d = 256 fits
        # neither), and negative int8 weights wrap into [0, d)
        weights = [[0, 5, 120], [5, 0, 127], [120, 127, 0]]
        reference = WeightedGraph.from_edges(d, 3, [(0, 1, 5), (0, 2, 120), (1, 2, 127)])
        for adj in [weights, *(np.array(weights, dtype=t) for t in (np.int8, np.uint8, np.int64))]:
            g = WeightedGraph(d, adj)
            assert g == reference and hash(g) == hash(reference) and g.adj.dtype == reference.adj.dtype
        signed = WeightedGraph(d, np.array([[0, -5, 120], [-5, 0, -1], [120, -1, 0]], dtype=np.int8))
        assert signed.edges() == [(u, v, w % d) for u, v, w in [(0, 1, -5), (0, 2, 120), (1, 2, -1)] if w % d]

    def test_wide_weights_reduced_before_narrowing(self):
        # d = 5 stores int8; 301 and -1001 would wrap to 45 and 23 if narrowed first
        assert WeightedGraph(5, [[0, 301], [301, 0]]).weight(0, 1) == 1
        assert WeightedGraph(5, np.array([[0, -1001], [-1001, 0]])).weight(0, 1) == 4
        assert WeightedGraph(5, np.array([[0, 2**40 + 1], [2**40 + 1, 0]], dtype=np.uint64)).weight(0, 1) == 2
        assert WeightedGraph.from_edges(5, 2, [(0, 1, 301)]).weight(0, 1) == 1
        assert WeightedGraph.from_edges(5, 2, [(0, 1, -1001)]).weight(0, 1) == 4

    def test_fractional_weights_refused(self):
        with pytest.raises(ValueError, match="weights must be integers"):
            WeightedGraph(4, [[0, 1.7], [1.7, 0]])
        with pytest.raises(ValueError, match="weights must be integers"):
            WeightedGraph(4, np.array([[0, 0.5], [0.5, 0]], dtype=np.float32))
        with pytest.raises(ValueError, match="non-integer weight 2.5"):
            WeightedGraph.from_edges(4, 2, [(0, 1, 2.5)])
        # a Python int past int64 overflows as before, though np.asarray would read it as a float
        with pytest.raises(OverflowError):
            WeightedGraph(5, [[0, 2**63 + 1], [2**63 + 1, 0]])
        # integral floats are integers
        assert WeightedGraph(4, [[0, 6.0], [6.0, 0]]) == WeightedGraph(4, [[0, 2], [2, 0]])
        assert WeightedGraph.from_edges(4, 2, [(0, 1, 3.0)]).edges() == [(0, 1, 3)]
        assert graph_from_code(2, 4, [3.0]).edges() == [(0, 1, 3)]
        with pytest.raises(ValueError, match="weights must be integers"):
            graph_from_code(2, 4, [1.25])

    def test_invalid_adjacency(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [[0, 1], [0, 0]])  # asymmetric
        with pytest.raises(ValueError):
            WeightedGraph(2, [[1, 0], [0, 1]])  # nonzero diagonal
        with pytest.raises(ValueError):
            WeightedGraph(1, [[0]])  # modulus too small

    def test_weights_that_could_wrap_int64_sums_refused(self):
        cycle = [(v, (v + 1) % 5, 2**61) for v in range(5)]
        with pytest.raises(ValueError, match="n\\^2 times the largest weight must be below 2\\^63"):
            WeightedGraph.from_edges(2**62, 5, cycle)  # total weight 5 * 2^61 wraps int64
        # the bound reads the stored weights, so a wide modulus alone is accepted
        g = WeightedGraph.from_edges(2**62, 5, [(0, 1, 2**58)])
        assert total_weight(g) == degree(g, 0) == 2**58


class TestClassification:
    def test_triangle_d2_primary(self):
        rep = classify_ghz(triangle(2))
        assert rep.is_ghz and rep.is_primary and rep.is_weakly_primary
        assert rep.failure_reasons == ()
        assert all(w is not None for w in rep.primary_witnesses)

    def test_k4_d6_weakly_primary_only(self):
        rep = classify_ghz(k4(6, 1, 1, 1))
        assert rep.is_ghz
        assert not rep.is_primary
        assert rep.is_weakly_primary
        # the all-even vertex is index 1 (edges 4, 4, 4)
        assert rep.primary_witnesses[1] is None

    def test_triangle_d4_not_weakly_primary(self):
        rep = classify_ghz(triangle(4))
        assert rep.is_ghz
        assert not rep.is_weakly_primary and not rep.is_primary

    def test_primary_implies_weakly(self):
        for g in [triangle(2), k4(4, 1, 1, 0), k4(6, 1, 1, 1), odd_loop(5), triangle(6)]:
            rep = classify_ghz(g)
            assert not rep.is_primary or rep.is_weakly_primary
            assert not rep.strict_primary or rep.strict_weakly_primary

    def test_operative_vs_strict_can_differ(self):
        # weights 3 and 3 share a factor but generate 1 mod 8
        g = WeightedGraph.from_edges(8, 3, [(0, 1, 3), (0, 2, 3)])
        rep = classify_ghz(g)
        assert rep.primary_witnesses[0] == (1, 2)
        assert not rep.strict_weakly_primary or rep.is_weakly_primary  # strict never exceeds operative
        assert rep.is_weakly_primary

    def test_strict_weakly_primary_needs_one_vertex(self):
        # vertex 0 has weights 1 and 5, coprime over the integers; vertex 1 has 2 and 4,
        # which share the factor 2, and gcd(2, 4, 6) = 2 too
        g = WeightedGraph.from_edges(6, 4, [(0, 2, 1), (0, 3, 5), (1, 2, 2), (1, 3, 4), (2, 3, 3)])
        rep = classify_ghz(g)
        assert not rep.strict_primary
        assert rep.strict_weakly_primary

    def test_rows_sharing_a_prime_are_refused_by_their_gcd(self):
        # 32640 distinct even weights: every row's keys share the prime 2, which one gcd
        # shows; trying key by key, each row of 255 distinct keys took O(n^2) gcds
        n = 256
        us, vs = np.triu_indices(n, 1)
        adj = np.zeros((n, n), dtype=np.int64)
        adj[us, vs] = adj[vs, us] = 2 * np.arange(1, us.size + 1)
        start = time.perf_counter()
        rep = classify_ghz(WeightedGraph(2**21, adj))
        assert time.perf_counter() - start < 0.5
        assert not rep.is_weakly_primary and not rep.strict_weakly_primary
        assert rep.primary_witnesses == (None,) * n

    def test_odd_modulus_reason(self):
        g = WeightedGraph.from_edges(3, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        rep = classify_ghz(g)
        assert not rep.is_ghz
        assert "odd_modulus" in rep.failure_reasons

    def test_path_failure_reasons(self):
        g = WeightedGraph.from_edges(2, 2, [(0, 1, 1)])
        rep = classify_ghz(g)
        assert not rep.is_ghz
        assert "degree_not_divisible" in rep.failure_reasons

    def test_is_ghz_is_the_conjunction(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 7))
            a = np.triu(rng.integers(0, d, size=(n, n)), 1)
            rep = classify_ghz(WeightedGraph(d, a + a.T))
            assert rep.is_ghz == (rep.connected and rep.degrees_divisible and rep.weight_nondivisible)


class TestGhzGate:
    """GHZ preconditions test the definition only; the primality witnesses
    (``_coprime_pair``) are computed by classify_ghz alone."""

    def test_gated_calls_do_not_compute_primality(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("primality witnesses computed")
        monkeypatch.setattr(graphs, "_coprime_pair", refuse)
        g = k4(4, 1, 1, 0)
        constraint_system(g)
        mermin_table(g)
        subgraph_paradox(g, range(4))
        bell_quantum(g)
        ks_classical_max(g, cap=10**5)  # direct scan skipped
        ks_quantum(g)
        assert require_ghz(g, "gate") is None
        for needs_witnesses in (classify_ghz, genuineness):
            with pytest.raises(AssertionError, match="primality witnesses computed"):
                needs_witnesses(g)


class TestSubgraphs:
    def test_k4_restriction_is_triangle_pattern(self):
        g = k4(4, 1, 1, 0)
        h = subgraph(g, [0, 1, 2])
        assert h.n == 3 and h.d == 4
        assert h.weight(0, 1) == g.weight(0, 1)
        assert h.weight(0, 2) == g.weight(0, 2)
        assert h.weight(1, 2) == g.weight(1, 2)

    def test_complete4_three_subsets_are_triangles(self):
        g = WeightedGraph(2, np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
        for vs in itertools.combinations(range(4), 3):
            assert subgraph(g, vs) == triangle(2)

    def test_single_vertex_subset(self):
        h = subgraph(triangle(2), [1])
        assert h.n == 1 and h.edges() == []

    def test_restriction_composes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(2, 6))
            a = np.triu(rng.integers(0, d, size=(n, n)), 1)
            g = WeightedGraph(d, a + a.T)
            outer = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
            inner = outer[: max(1, len(outer) - 1)]
            via_outer = subgraph(subgraph(g, outer), [outer.index(v) for v in inner])
            assert via_outer == subgraph(g, inner)

    def test_subset_errors(self):
        with pytest.raises(ValueError):
            subgraph(triangle(2), [])
        with pytest.raises(IndexError):
            subgraph(triangle(2), [0, 5])

    def test_find_ghz_subgraphs_complete4(self):
        g = WeightedGraph(2, np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
        assert find_ghz_subgraphs(g, 3, 4) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_find_ghz_subgraphs_self(self):
        assert find_ghz_subgraphs(triangle(2), 3, 3) == [(0, 1, 2)]

    def test_find_ghz_subgraphs_edgeless(self):
        g = WeightedGraph(2, np.zeros((4, 4), dtype=int))
        assert find_ghz_subgraphs(g, 3, 4) == []

    def test_find_ghz_subgraphs_roundtrip(self):
        g = WeightedGraph(2, np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
        for vs in find_ghz_subgraphs(g, 3, 5):
            assert classify_ghz(subgraph(g, vs)).is_ghz

    def test_find_ghz_subgraphs_cap(self):
        # sum of C(26, k) over k >= 3 is 67108512 subsets, hours of GHZ tests: refused before the walk
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="67108512"):
            find_ghz_subgraphs(WeightedGraph(2, np.zeros((26, 26), dtype=int)))
        assert time.perf_counter() - start < 0.5
        with pytest.raises(CapExceededError, match="130918"):
            find_ghz_subgraphs(WeightedGraph(2, np.zeros((17, 17), dtype=int)))
        assert len(find_ghz_subgraphs(complete_4j3(2))) == 496  # n = 11: 1981 subsets, under the cap

    def test_find_ghz_subgraphs_bad_bounds(self):
        with pytest.raises(ValueError):
            find_ghz_subgraphs(triangle(2), 2, 3)
        with pytest.raises(ValueError):
            find_ghz_subgraphs(triangle(2), 3, 4)


class TestEnumeration:
    @pytest.mark.parametrize("d", [2, 4])
    def test_three_vertices_match_independent_scan(self, d):
        found = [g for g in enumerate_ghz_graphs(3, d)]
        oracle = brute_ghz_scan(3, d)
        assert [tuple(w for _, _, w in g.edges()) if g.edges() else () for g in found] == oracle
        assert len(found) == 1
        assert all(w == d // 2 for _, _, w in found[0].edges())

    @pytest.mark.parametrize("d", [3, 5])
    def test_odd_modulus_is_empty(self, d):
        assert list(enumerate_ghz_graphs(3, d)) == []
        assert list(enumerate_ghz_graphs(4, d)) == []

    def test_four_vertices_d2_is_empty(self):
        # the only even-degree connected candidate is the 4-cycle, whose
        # total weight is even
        assert list(enumerate_ghz_graphs(4, 2)) == []

    @pytest.mark.parametrize("n, d", [(4, 4), (5, 2), (4, 6)], ids=["4-4", "5-2", "4-6"])
    def test_enumeration_matches_scan(self, n, d):
        found = [tuple(int(x) for x in g.adj[np.triu_indices(n, 1)]) for g in enumerate_ghz_graphs(n, d)]
        assert found == brute_ghz_scan(n, d)
        assert len(found) > 0

    def test_five_vertices_d4_across_stack_boundaries(self):
        # 4^10 codes run through about 800 stacks of BLOCK entries
        found = list(enumerate_ghz_graphs(5, 4))
        codes = [tuple(int(x) for x in g.adj[np.triu_indices(5, 1)]) for g in found]
        assert len(codes) == 954
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert all(classify_ghz(g).is_ghz for g in found)

    @pytest.mark.parametrize("code", [(1, 2), (1,), 1, (1, 2, 3, 4)], ids=["short", "one", "scalar", "long"])
    def test_graph_from_code_rejects_wrong_length(self, code):
        with pytest.raises(ValueError, match="3 edge weights"):
            graph_from_code(3, 4, code)

    def test_every_output_is_ghz_and_weight_is_half_d(self):
        for n, d in [(3, 2), (3, 4), (4, 4), (5, 2)]:
            for g in enumerate_ghz_graphs(n, d):
                rep = classify_ghz(g)
                assert rep.is_ghz
                assert total_weight(g) % d == d // 2

    def test_five_vertices_d2_contains_loop(self):
        found = list(enumerate_ghz_graphs(5, 2))
        assert odd_loop(5) in found
        again = list(enumerate_ghz_graphs(5, 2))
        assert found == again

    def test_dedup_is_canonical_and_covers_classes(self):
        labeled = list(enumerate_ghz_graphs(5, 2))
        reps = list(enumerate_ghz_graphs(5, 2, dedup_isomorphism=True))
        assert 0 < len(reps) <= len(labeled)
        codes = {canonical_code(g) for g in labeled}
        assert {canonical_code(g) for g in reps} == codes
        for g in reps:
            assert tuple(int(x) for x in g.adj[np.triu_indices(5, 1)]) == canonical_code(g)

    @pytest.mark.parametrize("n, d", [(4, 4), (4, 6), (4, 8), (5, 2), (5, 4), (6, 2)])
    def test_dedup_matches_canonical_filter_of_labelled_graphs(self, n, d):
        us, vs = np.triu_indices(n, 1)
        want = [g for g in enumerate_ghz_graphs(n, d) if tuple(g.adj[us, vs].tolist()) == canonical_code(g)]
        assert list(enumerate_ghz_graphs(n, d, dedup_isomorphism=True)) == want
        assert want

    @pytest.mark.parametrize("n, d, block", [(5, 2, 50), (4, 4, 16), (6, 2, 2**10)])
    def test_dedup_with_hits_across_small_stacks(self, monkeypatch, n, d, block):
        # stacks of 2, 1 and 28 codes: a class's labelled graphs fall in many stacks
        want = list(enumerate_ghz_graphs(n, d, dedup_isomorphism=True))
        monkeypatch.setattr(graphs, "BLOCK", block)
        assert list(enumerate_ghz_graphs(n, d, dedup_isomorphism=True)) == want
        assert len(list(enumerate_ghz_graphs(n, d))) > len(want) > 0

    def test_dedup_labels_only_hits_no_transposition_lowers(self, monkeypatch):
        labelled = []
        monkeypatch.setattr(graphs, "canonical_code", lambda g: labelled.append(g) or canonical_code(g))
        reps = list(enumerate_ghz_graphs(5, 4, dedup_isomorphism=True))
        # 954 labelled GHZ graphs in 24 classes; the filter leaves 33 of them
        assert (len(reps), len(labelled)) == (24, 33)
        assert set(reps) <= set(labelled)

    def test_cap_refusal_mentions_space(self):
        with pytest.raises(CapExceededError, match="6\\^28"):
            list(enumerate_ghz_graphs(8, 6, cap=10**4))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            list(enumerate_ghz_graphs(1, 2))
        with pytest.raises(ValueError):
            list(enumerate_ghz_graphs(3, 1))


class TestFamilies:
    def test_k4_d4_weights(self):
        g = k4(4, 1, 1, 0)
        assert g.weight(0, 1) == 3 and g.weight(1, 3) == 3 and g.weight(1, 2) == 2
        assert g.weight(0, 2) == 1 and g.weight(0, 3) == 0 and g.weight(2, 3) == 1
        rep = classify_ghz(g)
        assert rep.is_ghz and rep.is_primary

    def test_k4_d6_weights(self):
        g = k4(6, 1, 1, 1)
        assert {g.weight(0, 1), g.weight(1, 2), g.weight(1, 3)} == {4}
        rep = classify_ghz(g)
        assert rep.is_ghz and rep.is_weakly_primary and not rep.is_primary

    def test_odd_loop(self):
        g = odd_loop(5)
        assert total_weight(g) == 5
        assert all(degree(g, v) == 2 for v in range(5))
        assert classify_ghz(g).is_ghz

    def test_complete_4j3(self):
        for j in [0, 1]:
            assert classify_ghz(complete_4j3(j)).is_ghz

    def test_all_families_are_ghz(self):
        for g in [triangle(8), k4(8, 2, 1, 1), odd_loop(7), complete_4j3(1)]:
            assert classify_ghz(g).is_ghz

    def test_family_errors(self):
        with pytest.raises(ValueError):
            k4(4, 1, 1, 1)  # a+b+c != d/2
        with pytest.raises(ValueError):
            k4(4, 2, 0, 0)  # isolates a vertex
        with pytest.raises(ValueError):
            odd_loop(4)
        with pytest.raises(ValueError):
            triangle(3)


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        g = k4(6, 1, 1, 1)
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_zero_weight_edges_absent(self):
        doc = graph_to_dict(k4(4, 1, 1, 0))
        assert [0, 3] not in [e[:2] for e in doc["edges"]]

    @pytest.mark.parametrize("doc, fragment", [
        ({"d": 2, "n": 3}, "missing field"),
        ({"d": 2, "n": 3, "edges": [], "x": 1}, "unknown fields"),
        ({"d": 1, "n": 3, "edges": []}, "'d'"),
        ({"d": 2, "n": 0, "edges": []}, "'n'"),
        ({"d": 2, "n": 3, "edges": [[1, 0, 1]]}, "u < v"),
        ({"d": 2, "n": 3, "edges": [[0, 1, 1], [0, 1, 1]]}, "duplicate"),
        ({"d": 2, "n": 3, "edges": [[0, 1, 2]]}, "weight"),
        ({"d": 2, "n": 3, "edges": [[0, 1, 0]]}, "weight"),
        ({"d": 2, "n": 3, "edges": [[0, 1]]}, "triple"),
        # rejected before the n x n adjacency matrix is allocated
        ({"d": 2, "n": 4097, "edges": []}, "'n' must be at most 4096"),
        ({"d": 2, "n": 10**9, "edges": []}, "'n' must be at most 4096"),
        # d and the weights must fit the int64 adjacency
        ({"d": 2**63, "n": 3, "edges": []}, "'d' must be below 2\\^63, got a 64-bit"),
        ({"d": 2**70, "n": 3, "edges": [[0, 1, 2**69]]}, "'d' must be below 2\\^63, got a 71-bit"),
        # and the int64 sums of un-reduced weights must not wrap
        ({"d": 2**62, "n": 5, "edges": []}, "n \\* \\(d-1\\) \\* max\\(n, d-1\\) must be below 2\\^63"),
        ({"d": 3037000501, "n": 1, "edges": []}, "got n=1 and a 32-bit d"),
        ({"d": 2**63 - 1, "n": 2, "edges": [[0, 1, 2**63 - 2]]}, "got n=2 and a 63-bit d"),
    ])
    def test_schema_violations(self, doc, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            graph_from_dict(doc)

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_largest_modulus_for_n_loads(self, n):
        # the largest d - 1 with n (d-1) max(n, d-1) below 2^63
        top = math.isqrt((2**63 - 1) // n)
        while n * top * max(n, top) >= 2**63:
            top -= 1
        assert graph_from_dict({"d": top + 1, "n": n, "edges": []}).d == top + 1
        with pytest.raises(GraphFormatError, match="must be below 2\\^63"):
            graph_from_dict({"d": top + 2, "n": n, "edges": []})

    @pytest.mark.parametrize("n, d", [(3, 2), (3, 127), (3, 128), (4, 255), (4, 256), (5, 257), (4, 32767),
                                      (4, 32768), (6, 2**16), (6, 2**16 + 1), (3, 1753413057), (2, 2**31 - 1),
                                      (2, 2**31), (2, 2**63 - 1)])
    def test_narrow_scratch_builds_the_int64_adjacency(self, n, d):
        # adj takes the narrowest signed type that holds d itself: int8 to d = 127, int16 to
        # 32767, int32 to 2^31 - 1, else int64.  graph_from_dict and from_edges fill their scratch
        # in that type, which an unsigned scratch of d - 1 bits could not do at d = 256 or 65536.
        # (2, 2^31) is the widest file modulus with an edge; 2^63 - 1 is past the file's limit
        want = {127: np.int8, 32767: np.int16, 2**31 - 1: np.int32, 2**63 - 1: np.int64}
        dtype = want[min(top for top in want if d <= top)]
        heavy = min(d - 1, (2**63 - 1) // n**2)  # the heaviest weight WeightedGraph takes at n
        edges = [[u, v, heavy if (u + v) % 2 else 1 + (u * n + v) % heavy]
                 for u, v in itertools.combinations(range(n), 2)]
        built = [WeightedGraph.from_edges(d, n, edges)]
        if n * (d - 1) * max(n, d - 1) < 2**63:
            built.append(graph_from_dict({"d": d, "n": n, "edges": edges}))
        column_sums = [sum(w for u, v, w in edges if x in (u, v)) for x in range(n)]
        for g in built:
            assert g.adj.dtype == dtype
            assert graph_to_dict(g)["edges"] == edges
            # the sums are int64 whatever adj's type, so weights near 2^31 do not wrap int32
            assert g.adj.sum(axis=0).dtype == g.adj.sum().dtype == np.int64
            assert [degree(g, v) for v in range(n)] == list(classify_ghz(g).degrees) == column_sums
            assert total_weight(g) == sum(w for *_, w in edges)
        assert built[0] == built[-1]

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2,\n "n": }')
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(path)
