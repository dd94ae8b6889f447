"""Structural predicates, families, enumeration, and the graph file format."""

import itertools
import math
import time

import numpy as np
import pytest

from ghzgraphs.errors import CapExceededError, GraphFormatError
from ghzgraphs.graphs import (
    WeightedGraph,
    canonical_code,
    classify_ghz,
    complete_4j3,
    degree,
    enumerate_ghz_graphs,
    find_ghz_subgraphs,
    graph_from_dict,
    graph_to_dict,
    is_connected,
    k4,
    load_graph,
    odd_loop,
    save_graph,
    subgraph,
    total_weight,
    triangle,
)


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

    def test_invalid_adjacency(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [[0, 1], [0, 0]])  # asymmetric
        with pytest.raises(ValueError):
            WeightedGraph(2, [[1, 0], [0, 1]])  # nonzero diagonal
        with pytest.raises(ValueError):
            WeightedGraph(1, [[0]])  # modulus too small


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

    def test_enumeration_matches_scan_4_4(self):
        found = [tuple(int(x) for x in g.adj[np.triu_indices(4, 1)]) for g in enumerate_ghz_graphs(4, 4)]
        assert found == brute_ghz_scan(4, 4)
        assert len(found) > 0

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

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2,\n "n": }')
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(path)
