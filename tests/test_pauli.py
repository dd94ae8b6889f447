"""Weyl-word algebra against independent dense-matrix oracles."""

import numpy as np
import pytest

from conftest import dense_word
from ghzgraphs import pauli
from ghzgraphs.errors import CapExceededError
from ghzgraphs.graphs import WeightedGraph, enumerate_ghz_graphs, k4, triangle
from ghzgraphs.pauli import (
    PauliWord,
    _action_stacks,
    _dagger_entry,
    _word_stack,
    dagger,
    render_word,
    stabilizer_product,
    to_matrix,
    vertex_stabilizer,
)
from ghzgraphs.states import PhaseState, _stack_exponents
from oracles import commutation_phase, identity, multiply, power, product_action, single_x, single_z, word_action


def random_word(rng, d, n):
    return PauliWord(d, rng.integers(0, d, size=n), rng.integers(0, d, size=n),
                     int(rng.integers(0, d)))


def assert_matches_dense(word, matrix, tol=1e-12):
    ref = dense_word(word.d, word.n, word.x_exp, word.z_exp, word.phase_exp)
    assert np.abs(matrix - ref).max() <= tol


class TestMultiply:
    def test_clock_times_shift_picks_up_omega(self):
        z = single_z(2, 1, 0)
        x = single_x(2, 1, 0)
        prod = multiply(z, x)
        assert prod.phase_exp == 1
        assert list(prod.x_exp) == [1] and list(prod.z_exp) == [1]

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            w = random_word(rng, d, n)
            e = identity(d, n)
            assert multiply(e, w) == w == multiply(w, e)

    def test_inverse_pair_leaves_pure_phase(self):
        # (X Z^3) (X^3 Z) at d=4: pure phase omega^{3*3 mod 4} = omega
        w1 = PauliWord(4, [1], [3])
        w2 = PauliWord(4, [3], [1])
        prod = multiply(w1, w2)
        assert prod.phase_exp == 1
        assert not prod.x_exp.any() and not prod.z_exp.any()
        # oracle: dense 4x4 product
        ref = dense_word(4, 1, [1], [3]) @ dense_word(4, 1, [3], [1])
        assert np.abs(to_matrix(prod) - ref).max() <= 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            a, b, c = (random_word(rng, d, n) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply(identity(2, 1), identity(2, 2))
        with pytest.raises(ValueError):
            multiply(identity(2, 2), identity(3, 2))


class TestPower:
    def test_shift_to_the_d_is_identity(self):
        for d in (2, 3, 4, 6):
            x = single_x(d, 2, 0)
            assert power(x, d) == identity(d, 2)

    def test_zeroth_power(self):
        w = PauliWord(4, [1, 2], [3, 0], 2)
        assert power(w, 0) == identity(4, 2)

    def test_square_of_xz(self):
        w = PauliWord(4, [1], [1])
        sq = power(w, 2)
        assert sq.phase_exp == 1 and list(sq.x_exp) == [2] and list(sq.z_exp) == [2]
        ref = dense_word(4, 1, [1], [1])
        assert np.abs(to_matrix(sq) - ref @ ref).max() <= 1e-12

    def test_matches_repeated_multiply(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            w = random_word(rng, d, n)
            k = int(rng.integers(0, 3 * d))
            acc = identity(d, n)
            for _ in range(k):
                acc = multiply(acc, w)
            assert power(w, k) == acc

    def test_dth_power_is_pure_phase(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            w = random_word(rng, d, n)
            p = power(w, d)
            assert not p.x_exp.any() and not p.z_exp.any()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            power(identity(2, 1), -1)


class TestDagger:
    def test_word_times_dagger_is_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            w = random_word(rng, d, n)
            assert multiply(w, dagger(w)) == identity(d, n)
            assert multiply(dagger(w), w) == identity(d, n)

    def test_dagger_matches_conjugate_transpose(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d, n = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            w = random_word(rng, d, n)
            assert np.abs(to_matrix(dagger(w)) - to_matrix(w).conj().T).max() <= 1e-12

    @pytest.mark.parametrize("d", [2**33 + 2, 10**15 + 2, 2**40])
    def test_inverse_is_exact_at_wide_d(self, d):
        # z.x passes 2^63 here; both products are checked in Python ints
        w = PauliWord(d, [d - 1, d // 2 + 1], [d - 3, d - 1], 5)
        inv = dagger(w)
        x, z, inv_x, inv_z = (a.tolist() for a in (w.x_exp, w.z_exp, inv.x_exp, inv.z_exp))
        assert all((a + b) % d == 0 for a, b in zip(x + z, inv_x + inv_z))
        # moving the left factor's Z block past the right factor's X block costs omega^(z.x)
        assert (w.phase_exp + inv.phase_exp + sum(a * b for a, b in zip(z, inv_x))) % d == 0
        assert (inv.phase_exp + w.phase_exp + sum(a * b for a, b in zip(inv_z, x))) % d == 0
        assert multiply(w, inv) == multiply(inv, w) == identity(d, 2)
        # a one-site entry with plain int exponents: omega^((d-1)^2) = omega
        assert _dagger_entry(d, (0, d - 1, d - 1, 0)) == (0, 1, 1, 1)


class TestStabilizers:
    def test_triangle_vertex_stabilizer(self):
        g = triangle(2)
        w = vertex_stabilizer(g, 0)
        assert list(w.x_exp) == [1, 0, 0]
        assert list(w.z_exp) == [0, 1, 1]
        assert w.phase_exp == 0

    def test_k4_vertex_stabilizer(self):
        w = vertex_stabilizer(k4(4, 1, 1, 0), 0)
        assert list(w.x_exp) == [1, 0, 0, 0]
        assert list(w.z_exp) == [0, 3, 1, 0]

    def test_isolated_vertex(self):
        g = WeightedGraph(4, np.zeros((3, 3), dtype=int))
        assert vertex_stabilizer(g, 1) == single_x(4, 3, 1)

    def test_stabilizer_pairs_commute(self):
        for g in [triangle(2), k4(4, 1, 1, 0), k4(6, 1, 1, 1)]:
            for u in range(g.n):
                for v in range(g.n):
                    assert commutation_phase(vertex_stabilizer(g, u), vertex_stabilizer(g, v)) == 0

    def test_stabilizer_pairs_commute_for_any_graph(self):
        # adjacency symmetry makes the commutation phase vanish, GHZ or not
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 7))
            a = np.triu(rng.integers(0, d, size=(n, n)), 1)
            g = WeightedGraph(d, a + a.T)
            for u in range(n):
                for v in range(u + 1, n):
                    assert commutation_phase(vertex_stabilizer(g, u), vertex_stabilizer(g, v)) == 0

    def test_full_product_triangle_is_flip_times_shift(self):
        prod = stabilizer_product(triangle(2), range(3))
        assert prod == PauliWord(2, [1, 1, 1], [0, 0, 0], 1)

    def test_single_vertex_product(self):
        g = k4(6, 1, 1, 1)
        assert stabilizer_product(g, [2]) == vertex_stabilizer(g, 2)

    def test_full_product_k4(self):
        g = k4(4, 1, 1, 0)
        prod = stabilizer_product(g, range(4))
        assert prod.phase_exp == 2
        assert list(prod.x_exp) == [1, 1, 1, 1]
        assert not prod.z_exp.any()
        # oracle: dense product of the four stabilizer matrices
        ref = np.eye(4**4, dtype=complex)
        for v in range(4):
            w = vertex_stabilizer(g, v)
            ref = ref @ dense_word(4, 4, w.x_exp, w.z_exp)
        assert np.abs(to_matrix(prod) - ref).max() <= 1e-12

    def test_product_closed_form_any_graph(self):
        # phase = total weight, z exponents = degrees, for GHZ or not
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 7))
            a = np.triu(rng.integers(0, d, size=(n, n)), 1)
            g = WeightedGraph(d, a + a.T)
            prod = stabilizer_product(g, range(n))
            assert prod.phase_exp == int(a.sum()) % d
            assert list(prod.x_exp) == [1] * n
            assert list(prod.z_exp) == [int(x) % d for x in g.adj.sum(axis=0)]


class TestCommutation:
    def test_clock_vs_shift(self):
        z = single_z(4, 1, 0)
        x = single_x(4, 1, 0)
        assert commutation_phase(z, x) == 1

    def test_disjoint_supports_commute(self):
        for d in (2, 5):
            x0 = single_x(d, 2, 0)
            x1 = single_x(d, 2, 1)
            assert commutation_phase(x0, x1) == 0

    def test_antisymmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            d, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            w1, w2 = random_word(rng, d, n), random_word(rng, d, n)
            c12 = commutation_phase(w1, w2)
            c21 = commutation_phase(w2, w1)
            assert (c12 + c21) % d == 0

    def test_phase_matches_dense_swap(self):
        rng = np.random.default_rng(9)
        omega_tol = 1e-12
        for _ in range(15):
            d, n = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            w1, w2 = random_word(rng, d, n), random_word(rng, d, n)
            c = commutation_phase(w1, w2)
            m1, m2 = to_matrix(w1), to_matrix(w2)
            assert np.abs(m1 @ m2 - np.exp(2j * np.pi * c / d) * (m2 @ m1)).max() <= omega_tol


class TestDense:
    def test_clock_matrix_d4(self):
        z = single_z(4, 1, 0)
        assert np.abs(to_matrix(z) - np.diag([1, 1j, -1, -1j])).max() <= 1e-12

    def test_identity_matrix(self):
        assert np.abs(to_matrix(identity(3, 2)) - np.eye(9)).max() == 0

    def test_unitarity(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d, n = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            m = to_matrix(random_word(rng, d, n))
            assert np.abs(m @ m.conj().T - np.eye(d**n)).max() <= 1e-12

    def test_homomorphism_on_random_pairs(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(100):
            d, n = int(rng.integers(2, 7)), int(rng.integers(1, 3))
            w1, w2 = random_word(rng, d, n), random_word(rng, d, n)
            dev = np.abs(to_matrix(multiply(w1, w2)) - to_matrix(w1) @ to_matrix(w2)).max()
            worst = max(worst, float(dev))
        assert worst < 1e-12

    def test_matches_reference_construction(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d, n = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            w = random_word(rng, d, n)
            assert_matches_dense(w, to_matrix(w))

    def test_dense_cap(self):
        with pytest.raises(CapExceededError):
            to_matrix(identity(2, 13))  # 2^13 > DENSE_CAP

    def test_word_action_cap_and_operand_checks(self):
        with pytest.raises(CapExceededError):
            word_action(identity(2, 24))  # 2^24 > STATE_CAP, refused before allocating


    @pytest.mark.parametrize("per_stack", [1, 2, 3])
    def test_stacks_stay_within_the_state_cap(self, monkeypatch, per_stack):
        # seven factors on d^n = 81 span several stacks once the BLOCK budget is
        # small; the composed action and the eigen-exponents must not change
        rng = np.random.default_rng(22)
        d, n = 3, 4
        words = [random_word(rng, d, n) for _ in range(7)]
        psi = PhaseState(d, n, rng.integers(0, d, size=d**n))
        words.append(PauliWord(d, [0] * n, [0] * n, 2))  # an eigen case among them
        whole_index, whole_phase = product_action(words)
        whole_exps = _stack_exponents(_word_stack(words), psi)
        singles = [word_action(w) for w in words]
        assert [index.shape for index, _ in _action_stacks(d, _word_stack(words))] == [(8, d**n)]

        monkeypatch.setattr(pauli, "BLOCK", per_stack * d**n + d**n - 1)
        shapes = [index.shape for index, _ in _action_stacks(d, _word_stack(words))]
        assert shapes == [(min(per_stack, 8 - i), d**n) for i in range(0, 8, per_stack)]
        index, phase = product_action(words)
        assert np.array_equal(index, whole_index) and np.array_equal(phase, whole_phase)
        assert _stack_exponents(_word_stack(words), psi) == whole_exps
        for w, (w_index, w_phase) in zip(words, singles):
            index, phase = word_action(w)
            assert np.array_equal(index, w_index) and np.array_equal(phase, w_phase)

    def test_state_cap_below_one_word_refuses(self, monkeypatch):
        monkeypatch.setattr(pauli, "STATE_CAP", 80)
        with pytest.raises(CapExceededError, match="word action of size 3\\^4 exceeds cap 80"):
            word_action(identity(3, 4))


class TestRendering:
    def test_k4_row(self):
        assert render_word(vertex_stabilizer(k4(4, 1, 1, 0), 0)) == "X Z^3 Z Z^0"

    def test_second_row(self):
        assert render_word(vertex_stabilizer(k4(4, 1, 1, 0), 1)) == "Z^3 X Z^2 Z^3"

    def test_dagger_rendering(self):
        flip = dagger(PauliWord.all_x(4, 4))
        assert render_word(flip, dagger_x=True) == "X^† X^† X^† X^†"
        assert render_word(flip) == "X^3 X^3 X^3 X^3"

    def test_d2_flip_renders_plain(self):
        flip = dagger(PauliWord.all_x(2, 3))
        assert render_word(flip, dagger_x=True) == "X X X"

    def test_phase_prefix(self):
        assert render_word(PauliWord(4, [1], [0], 2)) == "-X"
        assert render_word(PauliWord(4, [1], [0], 1)) == "ω^1·X"


class TestGhzGraphChecks:
    def test_enumerated_stabilizers_commute(self):
        for n, d in [(3, 2), (3, 4), (4, 4)]:
            for g in enumerate_ghz_graphs(n, d):
                words = [vertex_stabilizer(g, v) for v in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        assert commutation_phase(words[i], words[j]) == 0
