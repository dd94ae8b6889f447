"""Constraint systems, infeasibility certificates, tables, genuineness."""

import itertools

import numpy as np
import pytest

from ghzgraphs import _search, paradox
from ghzgraphs.errors import CapExceededError, InvariantError, NotGhzGraphError
from ghzgraphs.graphs import WeightedGraph, classify_ghz, enumerate_ghz_graphs, k4, odd_loop, triangle
from ghzgraphs.paradox import (
    InfeasibilityCertificate,
    ParadoxSystem,
    check_infeasible_algebraic,
    check_infeasible_exhaustive,
    constraint_system,
    genuineness,
    mermin_table,
    subgraph_paradox,
)
from ghzgraphs.states import build_state, eigenvalue_of
from oracles import multiply, satisfied_rows, single_z, with_final_rhs
from test_search import count_blocks


def brute_feasible(system):
    """Independent oracle: python-loop scan for a satisfying assignment."""
    d = system.d
    rows = [(list(map(int, system.coeffs[i])), int(system.rhs[i])) for i in range(system.num_rows)]
    for assignment in itertools.product(range(d), repeat=system.num_vars):
        if all(sum(c * x for c, x in zip(coeffs, assignment)) % d == rhs for coeffs, rhs in rows):
            return assignment
    return None


class TestConstraintSystem:
    def test_triangle_rows(self):
        system = constraint_system(triangle(2))
        assert system.num_rows == 4 and system.num_vars == 6
        expected = np.array([
            [1, 0, 0, 0, 1, 1],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 1, 1, 1, 0],
            [1, 1, 1, 0, 0, 0],
        ])
        assert np.array_equal(system.coeffs, expected)
        assert list(system.rhs) == [0, 0, 0, 1]

    def test_k4_first_row(self):
        system = constraint_system(k4(4, 1, 1, 0))
        assert list(system.coeffs[0]) == [1, 0, 0, 0, 0, 3, 1, 0]
        assert list(system.rhs) == [0, 0, 0, 0, 2]

    def test_non_ghz_rejected(self):
        path = WeightedGraph.from_edges(2, 3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(NotGhzGraphError):
            constraint_system(path)

    def test_satisfied_rows_helper(self):
        system = constraint_system(triangle(2))
        assert list(satisfied_rows(system, [0] * 6)) == [True, True, True, False]

    # check_infeasible_algebraic reads coeffs[-1] and with_final_rhs writes
    # rhs[-1]: on a system without rows both failed with a bare IndexError
    @pytest.mark.parametrize("call", [
        lambda system: system,
        check_infeasible_algebraic,
        lambda system: with_final_rhs(system, 1),
    ], ids=["constructor", "algebraic", "final rhs"])
    def test_system_without_rows_rejected(self, call):
        with pytest.raises(ValueError, match="needs a final row"):
            call(ParadoxSystem(2, 2, np.zeros((0, 4)), []))

    @pytest.mark.parametrize("d", [0, 1])
    def test_modulus_below_two_rejected(self, d):
        # d = 0 reduced every entry mod 0 (an all-zero system with numpy warnings); d = 1 was accepted
        with pytest.raises(ValueError, match=f"^modulus must be at least 2, got d={d}$"):
            ParadoxSystem(d, 1, [[1, 0]], [0])


class TestAlgebraicCertificate:
    def test_triangle_contradiction(self):
        cert = check_infeasible_algebraic(constraint_system(triangle(2)))
        assert cert.infeasible
        assert cert.contradiction == (0, 1)
        assert cert.witness_combination == (0, 1, 2)
        assert cert.max_satisfied_rows == 3

    @pytest.mark.parametrize("g, rhs", [(k4(4, 1, 1, 0), 2), (k4(6, 1, 1, 1), 3)])
    def test_k4_contradictions(self, g, rhs):
        cert = check_infeasible_algebraic(constraint_system(g))
        assert cert.contradiction == (0, rhs)

    def test_control_system_rejected(self):
        system = with_final_rhs(constraint_system(triangle(2)), 0)
        with pytest.raises(ValueError, match="no contradiction"):
            check_infeasible_algebraic(system)


class TestExhaustiveCertificate:
    def test_triangle_scan(self):
        cert = check_infeasible_exhaustive(constraint_system(triangle(2)))
        assert cert.infeasible
        assert cert.searched == 64
        assert cert.max_satisfied_rows == 3
        assert cert.satisfying_witness is None

    def test_k4_d4_scan(self):
        cert = check_infeasible_exhaustive(constraint_system(k4(4, 1, 1, 0)))
        assert cert.infeasible and cert.searched == 4**8
        assert cert.max_satisfied_rows == 4

    def test_control_system_is_feasible_at_zero(self):
        system = with_final_rhs(constraint_system(triangle(2)), 0)
        cert = check_infeasible_exhaustive(system)
        assert not cert.infeasible
        assert cert.satisfying_witness == (0, 0, 0, 0, 0, 0)
        assert cert.max_satisfied_rows == 4

    def test_cap(self):
        with pytest.raises(CapExceededError):
            check_infeasible_exhaustive(constraint_system(k4(6, 1, 1, 1)), cap=1000)

    def test_matches_python_oracle_on_small_systems(self):
        for g in [triangle(2), triangle(4)]:
            system = constraint_system(g)
            cert = check_infeasible_exhaustive(system)
            assert brute_feasible(system) is None
            assert cert.infeasible
            control = with_final_rhs(system, 0)
            assert brute_feasible(control) == check_infeasible_exhaustive(control).satisfying_witness

    def test_agreement_and_max_rows_on_enumerated_graphs(self):
        for n, d in [(3, 2), (3, 4), (4, 2), (4, 4)]:
            for g in enumerate_ghz_graphs(n, d):
                system = constraint_system(g)
                alg = check_infeasible_algebraic(system)
                exh = check_infeasible_exhaustive(system)
                assert alg.infeasible and exh.infeasible
                assert exh.max_satisfied_rows == n == alg.max_satisfied_rows

    def test_dropping_final_row_is_feasible(self):
        for g in [triangle(2), k4(4, 1, 1, 0)]:
            system = constraint_system(g)
            zeros = [0] * system.num_vars
            assert list(satisfied_rows(system, zeros))[:-1] == [True] * (system.num_rows - 1)


class TestMerminTable:
    def test_k4_d4_layout(self):
        table = mermin_table(k4(4, 1, 1, 0))
        texts = [row.text for row in table.rows]
        assert texts == [
            "X Z^3 Z Z^0",
            "Z^3 X Z^2 Z^3",
            "Z Z^2 X Z",
            "Z^0 Z^3 Z X",
            "X^† X^† X^† X^†",
        ]
        assert [row.expected_value for row in table.rows] == [1, 1, 1, 1, -1]

    def test_triangle_rows(self):
        table = mermin_table(triangle(2))
        assert len(table.rows) == 4
        assert [row.expected_value for row in table.rows] == [1, 1, 1, -1]

    def test_rows_reproduce_eigenvalues(self):
        for g in [triangle(2), k4(4, 1, 1, 0), k4(6, 1, 1, 1)]:
            psi = build_state(g)
            for row in mermin_table(g).rows:
                exponent = eigenvalue_of(row.word, psi)
                expected = 0 if row.expected_value == 1 else g.d // 2
                assert exponent == expected

    def test_render_is_aligned(self):
        text = mermin_table(k4(4, 1, 1, 0)).render()
        lines = text.split("\n")
        assert len(lines) == 5
        assert len({len(line) for line in lines}) == 1
        assert lines[0].endswith("+1") and lines[-1].endswith("-1")

    def test_non_ghz_rejected(self):
        with pytest.raises(NotGhzGraphError):
            mermin_table(WeightedGraph.from_edges(2, 2, [(0, 1, 1)]))

    @pytest.mark.parametrize("d", [2**33 + 2, 2**59])
    def test_rows_commute_past_int64_products(self, d):
        # g_0's Z exponents d/2 against X_V^†'s d - 1 give z.x = d (d-1), past 2^63
        h = d // 2
        table = mermin_table(triangle(d))
        assert [row.text for row in table.rows] == [
            f"X Z^{h} Z^{h}", f"Z^{h} X Z^{h}", f"Z^{h} Z^{h} X", "X^† X^† X^†"]

    def test_non_commuting_rows_raise(self, monkeypatch):
        # a stray Z_0 on g_0 commutes with every other g_v but not with X_V^†
        real = paradox.vertex_stabilizer

        def stray_z0(g, v):
            word = real(g, v)
            return multiply(word, single_z(g.d, g.n, 0)) if v == 0 else word

        monkeypatch.setattr(paradox, "vertex_stabilizer", stray_z0)
        with pytest.raises(InvariantError, match=r"table rows g_0 and X_V\^† fail to commute"):
            mermin_table(triangle(2))


class TestGenuineness:
    def test_k4_d4_full(self):
        g = genuineness(k4(4, 1, 1, 0))
        assert g.n_partite and g.d_level == "full"

    def test_k4_d6_weak(self):
        g = genuineness(k4(6, 1, 1, 1))
        assert g.n_partite and g.d_level == "weak"

    def test_triangle_d4_none(self):
        g = genuineness(triangle(4))
        assert g.n_partite and g.d_level == "none"

    def test_non_ghz_rejected(self):
        with pytest.raises(NotGhzGraphError):
            genuineness(WeightedGraph.from_edges(2, 3, [(0, 1, 1), (1, 2, 1)]))

    def test_weak_without_a_strict_pair(self):
        # at d = 28 vertices 0..3 each see the weights 18, 18, 27, 21: 18 and
        # 27 form an operative pair (gcd(18, 27, 28) = 1) but share 9 over the
        # integers, and every other pair shares 3 or 18; vertex 4 sees 21 four
        # times, with gcd(21, 28) = 7, so it has no operative pair
        g = WeightedGraph.from_edges(28, 5, [
            (0, 1, 18), (0, 2, 18), (0, 3, 27), (0, 4, 21), (1, 2, 27),
            (1, 3, 18), (1, 4, 21), (2, 3, 18), (2, 4, 21), (3, 4, 21)])
        rep = classify_ghz(g)
        assert rep.is_ghz and rep.degrees == (84,) * 5 and rep.total_weight == 210
        assert (rep.is_primary, rep.is_weakly_primary, rep.strict_weakly_primary) == (False, True, False)
        assert genuineness(g) == paradox.Genuineness(n_partite=True, d_level="weak")


class TestSubgraphParadox:
    def test_complete4_triangle_subsets(self):
        g = WeightedGraph(2, np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
        for vs in itertools.combinations(range(4), 3):
            system = subgraph_paradox(g, vs)
            assert system.num_rows == 4 and system.num_vars == 8
            alg = check_infeasible_algebraic(system)
            exh = check_infeasible_exhaustive(system)
            assert alg.infeasible and exh.infeasible
            assert exh.searched == 256
            assert exh.max_satisfied_rows == 3
            assert brute_feasible(system) is None

    def test_full_subset_equals_constraint_system(self):
        g = k4(4, 1, 1, 0)
        via_subgraph = subgraph_paradox(g, range(4))
        direct = constraint_system(g)
        assert np.array_equal(via_subgraph.coeffs, direct.coeffs)
        assert np.array_equal(via_subgraph.rhs, direct.rhs)

    def test_boundary_z_tails_enter_final_row(self):
        g = WeightedGraph(2, np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
        system = subgraph_paradox(g, [0, 1, 2])
        # vertex 3 sees all three chosen vertices: coefficient 3 mod 2 = 1
        assert system.coeffs[3, 4 + 3] == 1

    def test_non_ghz_subset_rejected(self):
        g = odd_loop(5)
        message = (r"^subgraph paradox on \[0, 1, 2\] needs a GHZ graph; "
                   "failed: degree_not_divisible, total_weight_divisible$")
        with pytest.raises(NotGhzGraphError, match=message):
            subgraph_paradox(g, [2, 0, 1])  # path, not a loop

    def test_loop_inside_larger_loop(self):
        # embed a 5-loop as vertices 0..4 of a 7-vertex graph with one extra
        # pendant structure that keeps weights intact on the subset
        g7 = np.zeros((7, 7), dtype=int)
        for v in range(5):
            g7[v][(v + 1) % 5] = g7[(v + 1) % 5][v] = 1
        g7[5][6] = g7[6][5] = 1
        g7[4][5] = g7[5][4] = 1
        g = WeightedGraph(2, g7)
        system = subgraph_paradox(g, range(5))
        assert check_infeasible_exhaustive(system, cap=2**14).infeasible

    def test_scan_skips_free_columns(self, monkeypatch):
        # a 7-loop on 0..6 with the tail 0-7-8: a_7, a_8 and b_8 occur in no row of the
        # loop's system.  At a block of 64 residue vectors a_7 and a_8 lie above the listed
        # block, so the 18-column scan runs them over their own order 1 and runs as many
        # blocks as the scan of the 15 used columns
        adj = np.zeros((9, 9), dtype=int)
        for u, v in [(v, (v + 1) % 7) for v in range(7)] + [(0, 7), (7, 8)]:
            adj[u][v] = adj[v][u] = 1
        system = subgraph_paradox(WeightedGraph(2, adj), range(7))
        used = system.coeffs.any(axis=0)
        assert np.flatnonzero(~used).tolist() == [7, 8, 17]
        monkeypatch.setattr(_search, "BLOCK", 64)
        blocks = count_blocks(monkeypatch)
        feasible = ParadoxSystem(2, 9, system.coeffs, [1] + [0] * 6 + [1])  # row sums agree
        for case in (system, with_final_rhs(system, 0), feasible):
            tables = (np.arange(2) == case.rhs[:, None]).astype(np.int64)
            start = len(blocks)
            best, reduced = _search.scan_max(case.coeffs[:, used], tables, 2)
            used_blocks = len(blocks) - start
            witness = np.zeros(18, dtype=int)
            witness[used] = reduced
            full = InfeasibilityCertificate(
                method="exhaustive", infeasible=best < 8, searched=2**18, max_satisfied_rows=best,
                satisfying_witness=tuple(witness.tolist()) if best == 8 else None)
            assert check_infeasible_exhaustive(case) == full
            assert len(blocks) - start == 2 * used_blocks > 2
        assert full.satisfying_witness is not None and any(full.satisfying_witness)
