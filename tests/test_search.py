"""The split-counter scan kernel against a plain counter loop, and the four
exhaustive scans pinned to the values the per-value loops they replaced
reported."""

import itertools

import numpy as np
import pytest

from ghzgraphs._search import counter_digits, digit_chunks, scan_max
from ghzgraphs.bounds import _ks_direct_max, bell_classical_max, lattice_bound_brute
from ghzgraphs.graphs import k4, triangle
from ghzgraphs.paradox import check_infeasible_exhaustive, constraint_system


def loop_scan_max(forms, tables, base):
    """Reference: every counter value in order, terms added row by row."""
    best = witness = None
    for digits in itertools.product(range(base), repeat=len(forms[0])):
        value = 0
        for form, table in zip(forms, tables):
            value = value + table[sum(c * x for c, x in zip(form, digits)) % base]
        if best is None or value > best:
            best, witness = value, digits
    return best.item(), witness


def random_case(seed, rows, num_digits, base, floats):
    rng = np.random.default_rng(seed)
    forms = rng.integers(-base, base, (rows, num_digits))
    tables = rng.normal(size=(rows, base)) if floats else rng.integers(-3, 4, (rows, base))
    return forms, tables


class TestCounterDigits:
    @pytest.mark.parametrize("num_digits,base", [(0, 3), (1, 5), (3, 2), (3, 4)])
    def test_matches_product_order(self, num_digits, base):
        digits = counter_digits(np.arange(base**num_digits), num_digits, base)
        assert [tuple(col) for col in digits.T] == list(itertools.product(range(base), repeat=num_digits))

    def test_chunks_cover_the_counter_in_order(self):
        blocks = list(digit_chunks(4, 3, chunk=10))
        assert [start for start, _ in blocks] == list(range(0, 81, 10))
        joined = np.concatenate([digits for _, digits in blocks], axis=1)
        assert np.array_equal(joined, counter_digits(np.arange(81), 4, 3))


class TestScanMax:
    @pytest.mark.parametrize("floats", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_single_block(self, seed, floats):
        forms, tables = random_case(seed, rows=4, num_digits=4, base=4, floats=floats)
        assert scan_max(forms, tables, 4) == loop_scan_max(forms, tables, 4)

    @pytest.mark.parametrize("floats", [False, True])
    @pytest.mark.parametrize("chunk", [3, 5, 9, 27])
    def test_multi_block(self, chunk, floats):
        # blocks of the last one, one (chunk not a power of 3), two and three
        # digits, so that two to four high digits are left to the block loop
        forms, tables = random_case(chunk, rows=5, num_digits=5, base=3, floats=floats)
        assert scan_max(forms, tables, 3, chunk=chunk) == loop_scan_max(forms, tables, 3)

    @pytest.mark.parametrize("chunk", [2, 3, 4])
    def test_blocks_inside_one_digit(self, chunk):
        forms, tables = random_case(7, rows=3, num_digits=2, base=7, floats=True)
        assert scan_max(forms, tables, 7, chunk=chunk) == loop_scan_max(forms, tables, 7)

    def test_negative_coefficients(self):
        forms = -np.arange(1, 10).reshape(3, 3)
        tables = np.cos(2 * np.pi / 5 * np.arange(5)) * np.array([[1.0], [2.0], [-1.5]])
        assert scan_max(forms, tables, 5, chunk=6) == loop_scan_max(forms, tables, 5)

    @pytest.mark.parametrize("chunk", [4, 1 << 18])
    def test_all_ties_give_counter_zero(self, chunk):
        forms, _ = random_case(3, rows=3, num_digits=4, base=4, floats=False)
        assert scan_max(forms, np.full((3, 4), 0.25), 4, chunk=chunk) == (0.75, (0, 0, 0, 0))

    def test_late_maximum(self):
        # the only maximum sits at the last counter value
        forms = np.eye(3, dtype=np.int64)
        tables = np.tile(np.arange(4), (3, 1))
        assert scan_max(forms, tables, 4, chunk=4) == (9, (3, 3, 3))


class TestPinnedScans:
    """Bounds and witnesses as the per-value scans reported them."""

    def test_bell_k4_d6(self):
        rep = bell_classical_max(k4(6, 1, 1, 1))
        assert rep.classical_bound == 3.0
        assert rep.witness == {"a_exp": [0, 0, 0, 0], "b_exp": [0, 0, 0, 0]}
        assert rep.notes == {"searched": 6**8}

    def test_ks_direct_triangle_d4(self):
        value, witness = _ks_direct_max(triangle(4))
        assert value == 3.0
        assert witness == {"x_exp": [0, 0, 0], "z_exp": [0, 0, 0], "stabilizer_exp": [0, 0, 0],
                           "collective_exp": 0}

    def test_lattice_6_12(self):
        rep = lattice_bound_brute(6, 12)
        assert rep.classical_bound == float.fromhex("0x1.8c8dc2e423980p+2")
        assert rep.witness["exponents"] == [0, 1, 1, 1, 1, 1]
        assert rep.notes == {"searched": 12**6}
        assert rep.oracle_agreement is True

    def test_paradox_k4_d6(self):
        system = constraint_system(k4(6, 1, 1, 1))
        cert = check_infeasible_exhaustive(system)
        assert (cert.infeasible, cert.searched, cert.max_satisfied_rows, cert.satisfying_witness) == (
            True, 6**8, 4, None)
        control = check_infeasible_exhaustive(system.with_final_rhs(0))
        assert (control.infeasible, control.searched, control.max_satisfied_rows,
                control.satisfying_witness) == (False, 6**8, 5, (0,) * 8)
