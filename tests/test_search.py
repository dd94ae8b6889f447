"""The distinct-residue scan kernel against a plain counter loop, the four
exhaustive scans pinned to the values the per-value loops they replaced
reported, and the one size check behind every cap."""

import itertools
import tracemalloc
import types
from unittest.mock import patch

import numpy as np
import pytest

from ghzgraphs import _search, bounds, paradox
from ghzgraphs._search import BLOCK, counter_digits, digit_chunks, scan_max, search_size
from ghzgraphs.bounds import _ks_direct_max, bell_classical_max, lattice_bound_brute
from ghzgraphs.errors import CapExceededError
from ghzgraphs.graphs import WeightedGraph, enumerate_ghz_graphs, k4, triangle
from ghzgraphs.paradox import ParadoxSystem, check_infeasible_exhaustive, constraint_system
from ghzgraphs.pauli import to_matrix
from ghzgraphs.states import build_state
from oracles import identity, joint_plus_one_dimension, with_final_rhs, word_action


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


def blocked_scan(forms, tables, base, block):
    """scan_max with _search.BLOCK set to ``block`` for the call."""
    with patch.object(_search, "BLOCK", block):
        return scan_max(forms, tables, base)


def count_blocks(monkeypatch):
    """A list that grows by one entry for each block scan_max runs from now on."""
    blocks = []

    def product(*ranges):
        for block in itertools.product(*ranges):
            blocks.append(block)
            yield block

    monkeypatch.setattr(_search, "itertools", types.SimpleNamespace(product=product))
    return blocks


def lattice_scan_case(n, d):
    """The forms and tables of the cosine objective over the lattice, as scan_max reads them."""
    table = np.cos(2 * np.pi / d * np.arange(d))
    forms = np.vstack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return forms, [table] * n + [-table]


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
        # lists of the residues of the last one, one (chunk not a power of 3),
        # two and three digits; the digit above runs one translate per block,
        # and three, three, two and one digits are left to the block loop
        forms, tables = random_case(chunk, rows=5, num_digits=5, base=3, floats=floats)
        assert blocked_scan(forms, tables, 3, chunk) == loop_scan_max(forms, tables, 3)

    @pytest.mark.parametrize("chunk", [2, 3, 4])
    def test_blocks_inside_one_digit(self, chunk):
        forms, tables = random_case(7, rows=3, num_digits=2, base=7, floats=True)
        assert blocked_scan(forms, tables, 7, chunk) == loop_scan_max(forms, tables, 7)

    def test_negative_coefficients(self):
        forms = -np.arange(1, 10).reshape(3, 3)
        tables = np.cos(2 * np.pi / 5 * np.arange(5)) * np.array([[1.0], [2.0], [-1.5]])
        assert blocked_scan(forms, tables, 5, 6) == loop_scan_max(forms, tables, 5)

    @pytest.mark.parametrize("chunk", [4, 1 << 18])
    def test_all_ties_give_counter_zero(self, chunk):
        forms, _ = random_case(3, rows=3, num_digits=4, base=4, floats=False)
        assert blocked_scan(forms, np.full((3, 4), 0.25), 4, chunk) == (0.75, (0, 0, 0, 0))

    def test_late_maximum(self):
        # the only maximum sits at the last counter value
        forms = np.eye(3, dtype=np.int64)
        tables = np.tile(np.arange(4), (3, 1))
        assert blocked_scan(forms, tables, 4, 4) == (9, (3, 3, 3))

    # base 6: two high columns above three random low ones, zero or with
    # entries sharing a factor with the base, so their own orders multiply
    # to 1, 6 or 3; at these block sizes both lie above the listed block
    HIGH = {"zero": ([[0, 0], [0, 0], [0, 0]], 1), "orders 2 and 3": ([[3, 2], [0, 4], [3, 0]], 6),
            "orders 3 and 1": ([[2, 0], [4, 0], [0, 0]], 3)}

    @pytest.mark.parametrize("floats", [False, True])
    @pytest.mark.parametrize("block", [1, 4, 36])
    @pytest.mark.parametrize("high,orders", list(HIGH.values()), ids=list(HIGH))
    def test_high_digits_run_over_their_own_order(self, monkeypatch, high, orders, block, floats):
        low, tables = random_case(block, rows=3, num_digits=3, base=6, floats=floats)
        forms = np.hstack([high, low])
        blocks = count_blocks(monkeypatch)
        blocked_scan(low, tables, 6, block)
        per_low = len(blocks)
        assert blocked_scan(forms, tables, 6, block) == loop_scan_max(forms, tables, 6)
        assert len(blocks) - per_low == orders * per_low


def assert_matches_loop(forms, tables, base, chunk=1 << 18):
    got = blocked_scan(forms, tables, base, chunk)
    want = loop_scan_max(forms, tables, base)
    assert got == want
    assert repr(got[0]) == repr(want[0])


def captured_scan(monkeypatch, module, call):
    """The forms, tables and base of the one scan_max call that ``call`` makes through ``module``."""
    seen = []

    def recording_scan(forms, tables, base):
        seen.append((np.array(forms), np.array(tables), base))
        return scan_max(forms, tables, base)

    monkeypatch.setattr(module, "scan_max", recording_scan)
    call()
    (case,) = seen
    return case


class TestDistinctResidues:
    """Forms whose residue vectors repeat, so that the kernel lists fewer
    vectors than counter values, against the plain counter loop."""

    @pytest.mark.parametrize("chunk", [1, 4, 7, 64, 1 << 18])
    @pytest.mark.parametrize("scan", ["paradox", "bell", "ks"])
    def test_scans_with_a_row_sum_of_others(self, monkeypatch, scan, chunk):
        # on a GHZ graph the paradox system's final row, Bell's collective
        # row and the KS product row are combinations of the other rows mod d
        module, call = {
            "paradox": (paradox, lambda: check_infeasible_exhaustive(constraint_system(triangle(4)))),
            "bell": (bounds, lambda: bell_classical_max(triangle(4))),
            "ks": (bounds, lambda: _ks_direct_max(triangle(2))),
        }[scan]
        forms, tables, base = captured_scan(monkeypatch, module, call)
        assert_matches_loop(forms, tables, base, chunk)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 12, 1 << 18])
    @pytest.mark.parametrize("seed", range(3))
    def test_orders_that_properly_divide_the_base(self, seed, chunk):
        rng = np.random.default_rng(seed)
        forms = rng.choice([0, 2, 3, 4], size=(3, 4))
        tables = rng.normal(size=(3, 6))
        assert_matches_loop(forms, tables, 6, chunk)

    @pytest.mark.parametrize("chunk", [1, 3, 16, 1 << 18])
    def test_zero_column_and_zero_row(self, chunk):
        forms = np.array([[1, 0, 2, 1], [0, 0, 0, 0], [3, 0, 1, 1]])
        tables = np.array([[0.5, -1.0, 2.0, 0.25], [7.0, 1.0, -3.0, 0.0], [0.1, 0.2, 0.3, -0.4]])
        assert_matches_loop(forms, tables, 4, chunk)

    @pytest.mark.parametrize("chunk", [2, 9, 1 << 18])
    def test_negative_zeros_and_ties(self, chunk):
        forms = np.array([[1, 2, 0], [2, 4, 0], [3, 0, 3]])
        tables = np.array([[-0.0, -0.0, 0.0, -0.0, -0.0, -0.0]] * 3)
        assert_matches_loop(forms, tables, 6, chunk)
        tables[1, 2] = 0.5
        assert_matches_loop(forms, tables, 6, chunk)
        assert_matches_loop(forms, np.full((3, 6), 0.125), 6, chunk)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_digit_wider_than_chunk_above_a_grown_list(self, chunk):
        # the last column has order 2, the one above it order 6: blocks of
        # that digit's translates run over a list of two vectors
        forms = np.array([[1, 5, 3], [2, 1, 0], [0, 3, 3]])
        tables = np.random.default_rng(5).normal(size=(3, 6))
        assert_matches_loop(forms, tables, 6, chunk)

    # base 6; rows 0 and 1 vanish on the last two digits and row 2 on the
    # last one.  At chunk 36 the last two digits are listed and digit 1 runs
    # one translate per block (step 1), so rows 0 and 1 are constant over a
    # block.  At chunk 72 a block holds two translates of digit 1 (step 2):
    # row 0's grown digits vanish but its translates do not, so only row 1
    # is constant.  At chunk 4 the last digit (order 6) is wider than a
    # block and rows 0, 1 and 2 are constant.
    BLOCK_CONSTANT = np.array([[1, 2, 0, 0], [5, 0, 0, 0], [0, 1, 1, 0], [0, 0, 2, 1], [3, 0, 4, 1]])

    @pytest.mark.parametrize("chunk", [4, 36, 72, BLOCK])
    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [2, 3, 0, 1, 4], [3, 4, 2, 0, 1]],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("kind", ["negative zeros", "ints"])
    def test_block_constant_rows(self, kind, order, chunk):
        rng = np.random.default_rng(17)
        if kind == "ints":
            tables = rng.integers(-3, 4, (5, 6))
        else:
            tables = rng.choice([-0.0, -0.0, -0.0, 0.5, -0.75], (5, 6))
        assert_matches_loop(self.BLOCK_CONSTANT[order], tables[order], 6, chunk)

    def test_leading_constant_rows_of_negative_zeros_start_from_zero(self):
        # every value is 0 + (-0.0) + ... = 0.0, never -0.0
        forms = self.BLOCK_CONSTANT[[0, 1, 3]]
        tables = np.full((3, 6), -0.0)
        for chunk in (4, 36, 72):
            assert repr(blocked_scan(forms, tables, 6, chunk)) == "(0.0, (0, 0, 0, 0))"

    @pytest.mark.parametrize("n,d", [(6, 12), (7, 8)])
    def test_lattice_scan_past_one_block(self, n, d):
        # 12^6 and 8^7 distinct residue vectors: blocks of 2^10, BLOCK and
        # 2^16 entries against a 2^18 list of 12^5 or 8^6 vectors
        forms, tables = lattice_scan_case(n, d)
        want = repr(blocked_scan(forms, tables, d, 1 << 18))
        for chunk in (2**10, BLOCK, 2**16):
            assert repr(blocked_scan(forms, tables, d, chunk)) == want

    def test_lattice_blocks_stay_small(self):
        # the 12^6 lattice scan lists 12^4 residue vectors per block at the
        # default BLOCK; at 2^18 it held seven rows of 12^5 (28.5 MB peak)
        forms, tables = lattice_scan_case(6, 12)
        scan_max(*lattice_scan_case(2, 4), 4)
        tracemalloc.start()
        try:
            scan_max(forms, tables, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_one_wide_digit_stays_within_rows_times_chunk(self):
        # a base-10^6 digit scanned 2^10 residues at a time: no array as wide
        # as the base (the tables are the caller's) and no loop over its values
        base, chunk = 10**6, 2**10
        tables = np.zeros((2, base))
        tables[0, 123456] = tables[1, 3 * 123456 % base] = 1.0
        tracemalloc.start()
        try:
            result = blocked_scan(np.array([[1], [3]]), tables, base, chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (2.0, (123456,))
        assert peak < 8 * 2 * chunk * 8


class TestLatticeMax:
    """The multiset search behind lattice_bound_brute against the full lattice scan."""

    SHAPES = [(n, d) for d in range(2, 17) for n in range(1, 18) if d**n <= 2 * 10**5]

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_matches_the_scan(self, n, d):
        rep = lattice_bound_brute(n, d)
        want = scan_max(*lattice_scan_case(n, d), d)
        assert repr((rep.classical_bound, tuple(rep.witness["exponents"]))) == repr(want)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 64])
    @pytest.mark.parametrize("n,d", [(1, 9), (2, 10), (3, 7), (4, 6), (5, 4)])
    def test_does_not_depend_on_the_block_size(self, n, d, chunk, monkeypatch):
        # blocks of one prefix row, and rows split into column blocks
        want = repr(scan_max(*lattice_scan_case(n, d), d))
        monkeypatch.setattr(_search, "BLOCK", chunk)
        rep = lattice_bound_brute(n, d)
        assert repr((rep.classical_bound, tuple(rep.witness["exponents"]))) == want

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_digits(self, n):
        with pytest.raises(ValueError, match="at least 2 digits"):
            _search.lattice_max(np.cos(np.arange(4)), n, 4)

    def test_one_variable_builds_no_table(self, monkeypatch):
        # cos x - cos x is 0.0 at every point, so the lowest point attains it without a search
        def refuse(*args, **kwargs):
            raise AssertionError("cosine table built at n = 1")

        monkeypatch.setattr(np, "cos", refuse)
        rep = lattice_bound_brute(1, 10**8)
        assert repr(rep.classical_bound) == "0.0"
        assert rep.witness == {"exponents": [0], "angles": [0.0]}
        assert rep.notes == {"searched": 10**8}
        assert rep.oracle_agreement is True

    def test_leading_negative_zeros_start_from_zero(self):
        # 0 + (-0.0) + (-0.0) - 0.0 at (1, 1) is 0.0, as at (0, 0); added from -0.0 it would be -0.0
        assert repr(_search.lattice_max(np.array([0.0, -0.0]), 2, 2)) == "(0.0, (0, 0))"

    def test_unsorted_witness(self):
        # the sorted arrangement [0, 1, 1, 1] of the same multiset adds up to 3.5
        rep = lattice_bound_brute(4, 6)
        assert repr(rep.classical_bound) == "3.5000000000000004"
        assert rep.witness["exponents"] == [1, 1, 1, 0]

    def test_lowest_of_many_ties(self):
        # 169 counter values attain exactly 11.0
        rep = lattice_bound_brute(12, 4)
        assert repr(rep.classical_bound) == "11.0"
        assert rep.witness["exponents"] == [0] * 12
        assert rep.notes == {"searched": 4**12}

    def test_blocks_stay_within_rows_times_chunk(self):
        # (2, 2000): 2,001,000 sorted tuples, 3 rows
        lattice_bound_brute(2, 4)
        tracemalloc.start()
        try:
            lattice_bound_brute(2, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * BLOCK * 8


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
        control = check_infeasible_exhaustive(with_final_rhs(system, 0))
        assert (control.infeasible, control.searched, control.max_satisfied_rows,
                control.satisfying_witness) == (False, 6**8, 5, (0,) * 8)


# 240 vertices at d = 2^62: d^240 = 2^14880 has 4480 decimal digits, past the
# 4300 that Python converts to a string
WIDE = WeightedGraph(2**62, np.zeros((240, 240), dtype=np.int64))


class TestSearchSize:
    def test_size_over_cap_is_refused_as_a_power(self):
        with pytest.raises(CapExceededError, match="^scan of size 10\\^3 exceeds cap 999$"):
            search_size("scan", 10, 3, 999)

    def test_matches_the_plain_comparison(self):
        # the shortcut refuses without computing base**digits; it must refuse exactly the sizes over cap
        for base in range(2, 18):
            for digits in range(0, 12):
                for cap in (1, 2, 3, 7, 8, 9, 255, 256, 257, 10**4, base**digits - 1, base**digits):
                    if cap < 1:
                        continue
                    if base**digits <= cap:
                        assert search_size("scan", base, digits, cap) == base**digits
                    else:
                        with pytest.raises(CapExceededError):
                            search_size("scan", base, digits, cap)

    @pytest.mark.parametrize("call", [
        lambda: next(enumerate_ghz_graphs(200, 4)),
        lambda: lattice_bound_brute(8000, 4),
        lambda: bell_classical_max(WeightedGraph(2**62, np.zeros((120, 120), dtype=np.int64))),
        lambda: check_infeasible_exhaustive(ParadoxSystem(2**62, 120, np.zeros((1, 240), dtype=np.int64), [0])),
        lambda: build_state(WIDE),
        lambda: joint_plus_one_dimension(WIDE),
        lambda: word_action(identity(2**62, 240)),
        lambda: to_matrix(identity(2**62, 240)),
    ], ids=["enumerate", "lattice", "bell", "paradox", "state", "projector", "word action", "matrix"])
    def test_sizes_past_the_int_string_limit_are_refused(self, call):
        with pytest.raises(CapExceededError, match="\\^") as info:
            call()
        assert len(str(info.value)) < 120