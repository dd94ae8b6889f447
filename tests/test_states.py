"""Graph-state construction and stabilizer relations, cross-checked densely."""

import itertools

import numpy as np
import pytest

from conftest import dense_graph_state, dense_word
from ghzgraphs import graphs
from ghzgraphs.errors import CapExceededError
from ghzgraphs.graphs import WeightedGraph, enumerate_ghz_graphs, k4, odd_loop, triangle
from ghzgraphs.pauli import PauliWord, to_matrix, vertex_stabilizer
from ghzgraphs.states import PhaseState, build_state, eigenvalue_of, verify_stabilizers
from oracles import apply_word, identity, joint_plus_one_dimension, multiply, single_x, single_z, to_dense


def random_graph(rng, n, d):
    a = np.triu(rng.integers(0, d, size=(n, n)), 1)
    return WeightedGraph(d, a + a.T)


def random_word(rng, d, n):
    return PauliWord(d, rng.integers(0, d, size=n), rng.integers(0, d, size=n),
                     int(rng.integers(0, d)))


class TestBuildState:
    def test_triangle_quadratic_form(self):
        psi = build_state(triangle(2))
        table = dict(psi.dump())
        for s in itertools.product(range(2), repeat=3):
            assert table[s] == (s[0] * s[1] + s[0] * s[2] + s[1] * s[2]) % 2
        assert table[(1, 1, 0)] == 1

    def test_edgeless_is_uniform(self):
        g = WeightedGraph(3, np.zeros((2, 2), dtype=int))
        assert not build_state(g).exponents.any()

    def test_k4_all_ones_exponent(self):
        psi = build_state(k4(4, 1, 1, 0))
        table = dict(psi.dump())
        # direct sum of the six weights
        assert table[(1, 1, 1, 1)] == (3 + 1 + 0 + 2 + 3 + 1) % 4 == 2

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)))
            vec = to_dense(build_state(g))
            assert np.abs(vec - dense_graph_state(g)).max() <= 1e-12

    def test_state_cap(self):
        with pytest.raises(CapExceededError):
            build_state(odd_loop(25))  # 2^25 > STATE_CAP, refused before allocating

    def test_dump_order_is_row_major(self):
        g = WeightedGraph(3, [[0, 1], [1, 0]])
        keys = [s for s, _ in build_state(g).dump()]
        assert keys == list(itertools.product(range(3), repeat=2))

    @pytest.mark.parametrize("d", [0, 1])
    def test_modulus_below_two_rejected(self, d):
        # d = 0 failed with "need 0 exponents"; d = 1 was accepted
        with pytest.raises(ValueError, match=f"^modulus must be at least 2, got d={d}$"):
            PhaseState(d, 1, [0])


class TestApplyWord:
    def test_identity_fixes_state(self):
        psi = build_state(triangle(2))
        assert apply_word(identity(2, 3), psi) == psi

    def test_stabilizers_fix_triangle_state(self):
        g = triangle(2)
        psi = build_state(g)
        for v in range(3):
            assert apply_word(vertex_stabilizer(g, v), psi) == psi

    def test_collective_shift_flips_triangle_state(self):
        g = triangle(2)
        psi = build_state(g)
        moved = apply_word(PauliWord.all_x(2, 3), psi)
        diff = (moved.exponents - psi.exponents) % 2
        assert (diff == 1).all()

    def test_matches_dense_action(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            d, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            g = random_graph(rng, n, d)
            psi = build_state(g)
            w = random_word(rng, d, n)
            moved = apply_word(w, psi)
            ref = dense_word(d, n, w.x_exp, w.z_exp, w.phase_exp) @ to_dense(psi)
            assert np.abs(to_dense(moved) - ref).max() <= 1e-12

    def test_composition(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            d, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            psi = PhaseState(d, n, rng.integers(0, d, size=d**n))
            w1, w2 = random_word(rng, d, n), random_word(rng, d, n)
            assert apply_word(multiply(w1, w2), psi) == apply_word(w1, apply_word(w2, psi))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_word(identity(2, 2), build_state(triangle(2)))


class TestEigenvalues:
    def test_stabilizers_have_exponent_zero(self):
        for g in [triangle(2), k4(4, 1, 1, 0), k4(6, 1, 1, 1)]:
            psi = build_state(g)
            for v in range(g.n):
                assert eigenvalue_of(vertex_stabilizer(g, v), psi) == 0

    def test_collective_shift_exponent_is_flip(self):
        for g in [triangle(2), triangle(4), k4(4, 1, 1, 0), k4(6, 1, 1, 1)]:
            psi = build_state(g)
            assert eigenvalue_of(PauliWord.all_x(g.d, g.n), psi) == g.d // 2

    def test_uniform_state(self):
        g = WeightedGraph(2, np.zeros((2, 2), dtype=int))
        psi = build_state(g)
        assert eigenvalue_of(single_x(2, 2, 0), psi) == 0
        assert eigenvalue_of(single_z(2, 2, 0), psi) is None


class TestVerifyStabilizers:
    def test_triangle_all_pass(self):
        rep = verify_stabilizers(triangle(2))
        assert rep.all_pass and rep.is_ghz
        assert rep.flip_exponent == rep.flip_expected == 1

    def test_k4_d6_all_pass(self):
        rep = verify_stabilizers(k4(6, 1, 1, 1))
        assert rep.all_pass
        assert rep.flip_exponent == 3

    def test_two_path_reports_flip_without_ghz_expectation(self):
        g = WeightedGraph.from_edges(2, 2, [(0, 1, 1)])
        rep = verify_stabilizers(g)
        assert rep.vertex_check and rep.product_word_check
        assert not rep.is_ghz
        assert rep.flip_exponent == rep.flip_expected == 1
        assert rep.all_pass

    def test_random_graphs_product_relation(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            rep = verify_stabilizers(g)
            assert rep.vertex_check
            assert rep.product_word_check
            assert rep.flip_check

    def test_state_cap_refused_before_classifying(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched for primality witnesses")
        monkeypatch.setattr(graphs, "_coprime_pair", refuse)
        with pytest.raises(CapExceededError):
            verify_stabilizers(odd_loop(25))  # 2^25 > STATE_CAP
        assert verify_stabilizers(k4(4, 1, 1, 0)).all_pass

    def test_enumerated_ghz_graphs_all_pass(self):
        for n, d in [(3, 2), (3, 4), (4, 4)]:
            for g in enumerate_ghz_graphs(n, d):
                rep = verify_stabilizers(g)
                assert rep.all_pass
                assert rep.flip_exponent == d // 2


class TestDense:
    def test_single_qudit_uniform(self):
        g = WeightedGraph(2, [[0]])
        vec = to_dense(build_state(g))
        assert np.abs(vec - np.array([1, 1]) / np.sqrt(2)).max() <= 1e-12

    def test_norm_is_one(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6)))
            assert abs(np.linalg.norm(to_dense(build_state(g))) - 1) <= 1e-12

    def test_stabilizer_expectation_is_one(self):
        for g in [triangle(2), k4(4, 1, 1, 0), k4(6, 1, 1, 1)]:
            vec = to_dense(build_state(g))
            for v in range(g.n):
                m = to_matrix(vertex_stabilizer(g, v))
                assert abs(complex(vec.conj() @ (m @ vec)) - 1) <= 1e-9

    def test_dense_cap(self):
        with pytest.raises(CapExceededError):
            to_dense(build_state(odd_loop(13)))  # 2^13 > DENSE_CAP


class TestJointEigenspace:
    def test_dimension_is_one_for_small_ghz_graphs(self):
        cases = [triangle(2), triangle(4), k4(4, 1, 1, 0)]
        for n, d in [(3, 2), (3, 4), (4, 4)]:
            cases.extend(enumerate_ghz_graphs(n, d))
        for g in cases:
            if g.d**g.n <= 256:
                assert joint_plus_one_dimension(g) == 1

    def test_dimension_is_one_for_non_ghz_graphs_too(self):
        # uniqueness needs only the n commuting stabilizers, not the GHZ tests
        g = WeightedGraph.from_edges(2, 2, [(0, 1, 1)])
        assert joint_plus_one_dimension(g) == 1
