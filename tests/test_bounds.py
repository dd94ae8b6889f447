"""Bell values, lattice bounds, and contextuality bounds with their oracles."""

import itertools
import math
import time

import numpy as np
import pytest

import ghzgraphs
from ghzgraphs import bounds, pauli, states
from ghzgraphs.bounds import (
    ClassicalAssignment,
    bell_classical_max,
    bell_classical_value,
    bell_quantum,
    cosine_objective,
    ks_classical_max,
    ks_quantum,
    lattice_bound_brute,
    lattice_bound_closed,
    lattice_bound_sweep,
)
from ghzgraphs.errors import CapExceededError, InvariantError, NotGhzGraphError
from ghzgraphs.graphs import WeightedGraph, enumerate_ghz_graphs, k4, odd_loop, triangle
from ghzgraphs.paradox import mermin_table


def python_lattice_max(n, d):
    """Independent oracle: plain python scan of the lattice objective."""
    theta = 2 * math.pi / d
    best = -math.inf
    for point in itertools.product(range(d), repeat=n):
        angles = [t * theta for t in point]
        best = max(best, cosine_objective(angles))
    return best


class TestBellValue:
    def test_all_zero_assignment(self):
        for g in [triangle(2), k4(4, 1, 1, 0), k4(6, 1, 1, 1)]:
            asg = ClassicalAssignment(g.d, (0,) * g.n, (0,) * g.n)
            assert bell_classical_value(g, asg) == g.n - 1

    def test_triangle_hand_value(self):
        asg = ClassicalAssignment(2, (1, 0, 0), (0, 0, 0))
        assert bell_classical_value(triangle(2), asg) == 2.0

    def test_delta_equals_series_on_random_assignments(self):
        rng = np.random.default_rng(30)
        for g in [triangle(2), k4(4, 1, 1, 0), k4(6, 1, 1, 1)]:
            for _ in range(200):
                asg = ClassicalAssignment(
                    g.d,
                    tuple(int(x) for x in rng.integers(0, g.d, size=g.n)),
                    tuple(int(x) for x in rng.integers(0, g.d, size=g.n)),
                )
                bell_classical_value(g, asg)  # raises if the two forms split

    def test_odd_modulus_rejected(self):
        g = WeightedGraph.from_edges(3, 2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="even"):
            bell_classical_value(g, ClassicalAssignment(3, (0, 0), (0, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bell_classical_value(triangle(2), ClassicalAssignment(2, (0,), (0,)))


class TestBellClassicalMax:
    def test_triangle(self):
        report = bell_classical_max(triangle(2))
        assert report.classical_bound == 2.0
        assert report.witness == {"a_exp": [0, 0, 0], "b_exp": [0, 0, 0]}
        assert report.notes["searched"] == 64

    def test_k4_d4(self):
        report = bell_classical_max(k4(4, 1, 1, 0))
        assert report.classical_bound == 3.0
        assert report.notes["searched"] == 4**8

    def test_python_oracle_triangle_d4(self):
        g = triangle(4)
        report = bell_classical_max(g)
        best = -math.inf
        for point in itertools.product(range(4), repeat=6):
            asg = ClassicalAssignment(4, point[:3], point[3:])
            best = max(best, bell_classical_value(g, asg))
        assert report.classical_bound == best == 2.0

    def test_every_small_ghz_graph_maxes_at_n_minus_one(self):
        for n, d in [(3, 2), (3, 4), (4, 4)]:
            for g in enumerate_ghz_graphs(n, d):
                report = bell_classical_max(g)
                assert report.classical_bound == float(n - 1)
                # n-1 is hit by the all-zero assignment, the lowest counter value
                assert report.witness == {"a_exp": [0] * n, "b_exp": [0] * n}

    def test_non_ghz_graph_can_beat_the_bound(self):
        # the bound n-1 is a GHZ-graph statement; a feasible flip relation
        # lets a classical assignment reach n+1
        path = WeightedGraph.from_edges(2, 2, [(0, 1, 1)])
        assert bell_classical_max(path).classical_bound == 3.0

    def test_cap(self):
        with pytest.raises(CapExceededError):
            bell_classical_max(k4(6, 1, 1, 1), cap=1000)


class TestBellQuantum:
    def test_triangle(self):
        report = bell_quantum(triangle(2))
        assert abs(report.quantum_value - 4.0) <= 1e-9
        assert report.oracle_agreement is True
        assert abs(report.oracle_value - 4.0) <= 1e-9
        assert report.notes["spectral_max"] <= 4.0 + 1e-9

    def test_k4_d4_ratio(self):
        report = bell_quantum(k4(4, 1, 1, 0))
        assert abs(report.quantum_value - 5.0) <= 1e-9
        assert report.quantum_value / report.classical_bound == pytest.approx(5 / 3, abs=1e-9)

    def test_dense_skipped_over_cap(self):
        report = bell_quantum(odd_loop(13))  # 2^13 > DENSE_CAP
        assert report.quantum_value == 14.0
        assert report.oracle_agreement is None

    def test_non_ghz_rejected(self):
        with pytest.raises(NotGhzGraphError):
            bell_quantum(WeightedGraph.from_edges(2, 2, [(0, 1, 1)]))

    def test_any_n_without_the_exact_state(self):
        # 2^25 amplitudes: the value and the bound come from the words alone
        report = bell_quantum(odd_loop(25))
        assert report.quantum_value == 26.0
        assert report.classical_bound == 24.0
        assert report.oracle_value is None and report.oracle_agreement is None

    def test_failed_self_check_raises_invariant_error(self, monkeypatch):
        monkeypatch.setattr(bounds, "_sparse_product",
                            lambda d, n, entries: (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), 0))
        with pytest.raises(InvariantError, match="not the flipped collective shift"):
            bell_quantum(triangle(2))

    @pytest.mark.parametrize("part", ["x", "z", "phase"])
    def test_each_part_of_the_flip_identity_is_checked(self, monkeypatch, part):
        # the product is omega^(d/2) X_V; each case spoils one part of it
        real = bounds._sparse_product

        def spoiled(d, n, entries):
            x, z, phase = real(d, n, entries)
            assert (x == 1).all() and not z.any() and phase == d // 2
            if part == "x":
                x = np.where(np.arange(n) == 0, 0, x)
            elif part == "z":
                z = np.where(np.arange(n) == n - 1, 1, z)
            else:
                phase = 0
            return x, z, phase

        monkeypatch.setattr(bounds, "_sparse_product", spoiled)
        with pytest.raises(InvariantError) as raised:
            bell_quantum(triangle(2))
        assert str(raised.value) == "the stabilizer product is not the flipped collective shift"

    @pytest.mark.parametrize("g", [triangle(2), k4(4, 1, 1, 0), k4(6, 1, 1, 1)], ids=["triangle_d2", "k4_d4", "k4_d6"])
    def test_oracle_is_exact(self, g):
        report = bell_quantum(g)
        assert report.oracle_value == float(g.n + 1)
        assert report.notes == {"hermiticity_defect": 0.0, "spectral_max": float(g.n + 1)}

    def test_spectral_max_follows_the_measured_exponents(self, monkeypatch):
        # a stabilizer of vertex 0 wrongly measured at -1 moves the top of the
        # diagonal to the classical n - 1, so the oracle disagrees
        g = k4(4, 1, 1, 0)
        exact = bounds._stack_exponents

        def misread(stack, psi):
            return [g.d // 2 if x.tolist() == [1, 0, 0, 0] else e for x, e in zip(stack[0], exact(stack, psi))]

        monkeypatch.setattr(bounds, "_stack_exponents", misread)
        report = bell_quantum(g)
        assert report.oracle_agreement is False
        assert report.notes["spectral_max"] == float(g.n - 1)

    def test_invariant_error_is_an_exported_runtime_error(self):
        assert ghzgraphs.InvariantError is InvariantError
        assert issubclass(InvariantError, RuntimeError)


class TestLatticeBounds:
    def test_objective_spot_values(self):
        assert cosine_objective([0, 0, 0]) == pytest.approx(2.0, abs=1e-12)
        assert cosine_objective([math.pi] * 3) == pytest.approx(-2.0, abs=1e-12)
        assert cosine_objective([math.pi / 4] * 3) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_closed_form_spot_values(self):
        assert lattice_bound_closed(3, 2) == pytest.approx(2.0, abs=1e-9)
        assert lattice_bound_closed(3, 8) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert lattice_bound_closed(4, 4) == pytest.approx(3.0, abs=1e-9)
        assert lattice_bound_closed(5, 4) == pytest.approx(4.0, abs=1e-9)

    def test_closed_form_rejects_odd(self):
        with pytest.raises(ValueError):
            lattice_bound_closed(3, 5)

    def test_brute_matches_python_oracle(self):
        for n, d in [(2, 4), (3, 4), (2, 6), (3, 3)]:
            report = lattice_bound_brute(n, d)
            assert report.classical_bound == pytest.approx(python_lattice_max(n, d), abs=1e-12)

    def test_brute_spot_values_and_witnesses(self):
        report = lattice_bound_brute(3, 2)
        assert report.classical_bound == pytest.approx(2.0, abs=1e-9)
        assert report.witness["exponents"] == [0, 0, 0]

        report = lattice_bound_brute(3, 8)
        assert report.classical_bound == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert report.witness["exponents"] == [1, 1, 1]
        assert report.oracle_agreement is True

        assert lattice_bound_brute(4, 4).classical_bound == pytest.approx(3.0, abs=1e-9)

    def test_brute_cap(self):
        with pytest.raises(CapExceededError):
            lattice_bound_brute(10, 10, cap=100)

    def test_brute_disagrees_with_a_slightly_wrong_closed_form(self, monkeypatch):
        real = bounds.lattice_bound_closed
        monkeypatch.setattr(bounds, "lattice_bound_closed", lambda n, d: real(n, d) + 1e-6)
        assert lattice_bound_brute(3, 8).oracle_agreement is False

    def test_sweep_spot_values(self):
        sweep = lattice_bound_sweep(4, 4)
        assert sweep.max_value == pytest.approx(3.0, abs=1e-9)
        assert sweep.peak_index == 2
        assert sweep.values[sweep.peak_index] == pytest.approx(sweep.max_value, abs=1e-9)
        assert lattice_bound_sweep(3, 2).max_value == pytest.approx(2.0, abs=1e-9)
        assert lattice_bound_sweep(5, 4).max_value == pytest.approx(4.0, abs=1e-9)

    def test_triple_agreement_small_grid(self):
        for n in range(2, 5):
            for d in (2, 4, 6, 8):
                closed = lattice_bound_closed(n, d)
                assert lattice_bound_brute(n, d).classical_bound == pytest.approx(closed, abs=1e-9)
                assert lattice_bound_sweep(n, d).max_value == pytest.approx(closed, abs=1e-9)

    def test_sweep_matches_closed_form_wide_grid(self):
        for n in range(1, 30):
            for d in range(2, 41, 2):
                closed = lattice_bound_closed(n, d)
                assert lattice_bound_sweep(n, d).max_value == pytest.approx(closed, abs=1e-9), (n, d)

    def test_diff_sign_pattern_when_lattice_is_fine(self):
        for n, d in [(2, 6), (2, 8), (3, 8), (2, 12), (3, 10), (4, 10), (4, 12), (5, 12)]:
            assert d // 2 > n
            sweep = lattice_bound_sweep(n, d)
            for m, diff in enumerate(sweep.scaled_diffs):
                if m < sweep.peak_index:
                    assert diff >= -1e-12
                if m > sweep.peak_index:
                    assert diff <= 1e-12


class TestKsBounds:
    def test_triangle_closed_and_direct(self):
        report = ks_classical_max(triangle(2))
        assert report.classical_bound == pytest.approx(3.0, abs=1e-9)
        assert report.notes["direct_space"] == 2**10
        assert report.oracle_agreement is True
        assert report.oracle_value == pytest.approx(3.0, abs=1e-9)

    def test_triangle_d4_direct(self):
        report = ks_classical_max(triangle(4))
        assert report.classical_bound == pytest.approx(3.0, abs=1e-9)
        assert report.oracle_agreement is True

    def test_direct_space_over_cap_is_written_as_a_power(self):
        # an odd cycle of weights 2^19 at d = 2^20 is GHZ; d^(3n+1) has 4323 digits,
        # more than Python 3.11 turns into a string
        n, d = 239, 2**20
        g = WeightedGraph.from_edges(d, n, [(v, (v + 1) % n, 2**19) for v in range(n)])
        report = ks_classical_max(g)
        assert report.notes["direct_space"] == "1048576^718"
        assert report.oracle_agreement is None
        assert "'direct_space': '1048576^718'" in repr(report)

    def test_k4_d4_closed_form(self):
        report = ks_classical_max(k4(4, 1, 1, 0), cap=10**5)  # direct scan skipped
        assert report.classical_bound == pytest.approx(4.0, abs=1e-9)
        assert report.oracle_agreement is None

    def test_bound_below_quantum_value(self):
        for g in [triangle(2), triangle(4), triangle(6), k4(4, 1, 1, 0), k4(6, 1, 1, 1), k4(8, 2, 1, 1)]:
            bound = lattice_bound_closed(g.n + 1, g.d)
            assert bound < g.n + 2

    def test_quantum_triangle(self):
        report = ks_quantum(triangle(2))
        assert report.quantum_value == 5.0
        assert report.oracle_agreement is True
        assert report.notes["margin"] == pytest.approx(2.0, abs=1e-9)

    def test_quantum_k4(self):
        report = ks_quantum(k4(4, 1, 1, 0))
        assert report.quantum_value == 6.0
        assert report.oracle_value == pytest.approx(6.0, abs=1e-9)
        assert report.notes["margin"] == pytest.approx(2.0, abs=1e-9)
        assert all(report.notes["word_checks"].values())

    def test_quantum_dense_skipped_over_cap(self):
        report = ks_quantum(odd_loop(13))  # 2^13 > DENSE_CAP
        assert report.quantum_value == 15.0
        assert report.oracle_agreement is None

    def test_non_ghz_rejected(self):
        path = WeightedGraph.from_edges(2, 3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(NotGhzGraphError):
            ks_classical_max(path)
        with pytest.raises(NotGhzGraphError):
            ks_quantum(path)


class TestExactOracles:
    def test_default_cap_k4_d8_in_under_a_second(self):
        g = k4(8, 1, 2, 1)  # 8^4 = 4096, the default dense cap
        for oracle in (bell_quantum, ks_quantum):
            start = time.perf_counter()
            report = oracle(g)
            elapsed = time.perf_counter() - start
            assert report.oracle_agreement is True
            assert elapsed < 1.0, f"{oracle.__name__} took {elapsed:.2f} s"

    def test_no_dense_matrix_or_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix or eigensolver on the production path")

        for module in (pauli, bounds, states):
            monkeypatch.setattr(module, "to_matrix", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        g = k4(6, 1, 1, 1)
        assert bell_quantum(g).oracle_agreement is True
        assert ks_quantum(g).oracle_agreement is True
        assert states.verify_stabilizers(g).all_pass
        assert len(mermin_table(g).rows) == g.n + 1


class TestReports:
    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            ClassicalAssignment(2, (0, 1), (0,))
        with pytest.raises(ValueError):
            ClassicalAssignment(2, (2,), (0,))
