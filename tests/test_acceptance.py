"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerance for real comparisons is 1e-9 throughout; matrix
identities use 1e-12.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ghzgraphs.bounds import (
    ClassicalAssignment,
    bell_classical_max,
    bell_classical_value,
    bell_quantum,
    ks_classical_max,
    ks_quantum,
    lattice_bound_brute,
    lattice_bound_closed,
    lattice_bound_sweep,
)
from ghzgraphs.graphs import (
    WeightedGraph,
    classify_ghz,
    enumerate_ghz_graphs,
    k4,
    save_graph,
    triangle,
)
from ghzgraphs.paradox import (
    check_infeasible_algebraic,
    check_infeasible_exhaustive,
    constraint_system,
    mermin_table,
)
from ghzgraphs.pauli import PauliWord, multiply, stabilizer_product, to_matrix
from ghzgraphs.states import joint_plus_one_dimension, verify_stabilizers

TOL = 1e-9
MATRIX_TOL = 1e-12


class Criterion:
    """Collects named sub-checks and prints one summary line."""

    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.failures = []

    def check(self, name, ok):
        if not ok:
            self.failures.append(name)

    def conclude(self):
        status = "PASS" if not self.failures else f"FAIL ({', '.join(self.failures)})"
        print(f"[acceptance] criterion {self.number}: {status} - {self.label}")
        assert not self.failures, f"criterion {self.number} failed: {self.failures}"


def test_criterion_1_triangle_end_to_end():
    crit = Criterion(1, "triangle d=2 end to end")
    g = triangle(2)

    rep = classify_ghz(g)
    crit.check("classify_ghz", rep.is_ghz and rep.is_primary)

    ver = verify_stabilizers(g)
    crit.check("verify_stabilizers", ver.all_pass and ver.flip_exponent == 1)

    system = constraint_system(g)
    alg = check_infeasible_algebraic(system)
    exh = check_infeasible_exhaustive(system)
    crit.check("paradox_both_methods", alg.infeasible and exh.infeasible and exh.searched == 64)

    bell_c = bell_classical_max(g)
    crit.check("bell_classical", bell_c.classical_bound == 2.0
               and bell_c.notes["searched"] == 2**6
               and bell_c.witness is not None)

    bell_q = bell_quantum(g)
    crit.check("bell_quantum", abs(bell_q.quantum_value - 4.0) <= TOL
               and bell_q.oracle_agreement is True
               and bell_q.notes["spectral_max"] <= 4.0 + TOL)

    ks_c = ks_classical_max(g)
    crit.check("ks_classical", abs(ks_c.classical_bound - 3.0) <= TOL
               and ks_c.notes["direct_space"] == 2**10
               and ks_c.oracle_agreement is True)

    ks_q = ks_quantum(g)
    crit.check("ks_quantum", ks_q.quantum_value == 5.0 and ks_q.oracle_agreement is True)
    crit.conclude()


def test_criterion_2_k4_d4_family():
    crit = Criterion(2, "k4 family d=4 (a=1, b=1, c=0)")
    g = k4(4, 1, 1, 0)

    rep = classify_ghz(g)
    crit.check("classify_ghz", rep.is_ghz and rep.is_primary)

    table = mermin_table(g)
    crit.check("mermin_table", [row.text for row in table.rows] == [
        "X Z^3 Z Z^0",
        "Z^3 X Z^2 Z^3",
        "Z Z^2 X Z",
        "Z^0 Z^3 Z X",
        "X^† X^† X^† X^†",
    ] and [row.expected_value for row in table.rows] == [1, 1, 1, 1, -1])

    exh = check_infeasible_exhaustive(constraint_system(g))
    crit.check("paradox_exhaustive", exh.infeasible and exh.searched == 65536)

    bell_c = bell_classical_max(g)
    bell_q = bell_quantum(g)
    crit.check("bell_values", bell_c.classical_bound == 3.0
               and abs(bell_q.quantum_value - 5.0) <= TOL
               and abs(bell_q.quantum_value / bell_c.classical_bound - 5 / 3) <= TOL)

    ks_c = ks_classical_max(g, cap=10**6)  # closed form; direct scan exercised in criterion 1
    crit.check("ks_bound", abs(ks_c.classical_bound - 4.0) <= TOL and ks_c.classical_bound < 6)
    crit.conclude()


def test_criterion_3_k4_d6_family():
    crit = Criterion(3, "k4 family d=6 (a=b=c=1)")
    g = k4(6, 1, 1, 1)

    rep = classify_ghz(g)
    crit.check("classify_ghz", rep.is_ghz and rep.is_weakly_primary and not rep.is_primary)

    exh = check_infeasible_exhaustive(constraint_system(g))
    crit.check("paradox_exhaustive", exh.infeasible and exh.searched == 6**8)

    bell_c = bell_classical_max(g)
    crit.check("bell_classical", bell_c.classical_bound == 3.0)

    bell_q = bell_quantum(g)
    crit.check("bell_quantum_dense_1296", abs(bell_q.quantum_value - 5.0) <= TOL
               and bell_q.oracle_agreement is True
               and abs(bell_q.oracle_value - 5.0) <= TOL)
    crit.conclude()


def test_criterion_4_enumeration_claims():
    crit = Criterion(4, "enumeration claims")

    for d in (2, 4, 6, 8):
        found = list(enumerate_ghz_graphs(3, d))
        crit.check(f"unique_n3_d{d}", len(found) == 1
                   and all(w == d // 2 for _, _, w in found[0].edges()))

    for d in (3, 5, 7):
        for n in (2, 3, 4):
            crit.check(f"empty_n{n}_d{d}", list(enumerate_ghz_graphs(n, d)) == [])

    for n in (2, 3, 4):
        for d in (2, 4, 6):
            for g in enumerate_ghz_graphs(n, d):
                ver = verify_stabilizers(g)
                crit.check(f"stabilizers_n{n}_d{d}", ver.all_pass)
                prod = stabilizer_product(g, range(n))
                flip_times_shift = PauliWord(d, np.ones(n, dtype=np.int64),
                                             np.zeros(n, dtype=np.int64), d // 2)
                crit.check(f"product_word_n{n}_d{d}", prod == flip_times_shift)
    crit.conclude()


def test_criterion_5_lattice_triple_agreement():
    crit = Criterion(5, "lattice bound: scan = sweep = closed form")

    for n in range(2, 7):
        for d in (2, 4, 6, 8, 10, 12):
            if d**n > 10**7:
                continue
            closed = lattice_bound_closed(n, d)
            brute = lattice_bound_brute(n, d).classical_bound
            sweep = lattice_bound_sweep(n, d).max_value
            crit.check(f"triple_n{n}_d{d}", abs(brute - closed) <= TOL and abs(sweep - closed) <= TOL)
            if n >= d // 2:
                plateau = n + 1 - d * math.sin(math.pi / d) ** 2
                crit.check(f"plateau_n{n}_d{d}", abs(plateau - closed) <= TOL)
            if d % (2 * (n + 1)) == 0:
                aligned = (n + 1) * math.cos(math.pi / (n + 1))
                crit.check(f"aligned_n{n}_d{d}", abs(aligned - closed) <= TOL)

    spots = [(3, 2, 2.0), (3, 8, 2 * math.sqrt(2)), (4, 4, 3.0), (5, 4, 4.0)]
    for n, d, expected in spots:
        crit.check(f"spot_C_{n}_{d}", abs(lattice_bound_closed(n, d) - expected) <= TOL)
    crit.conclude()


def test_criterion_6_property_suites():
    crit = Criterion(6, "property suites")
    rng = np.random.default_rng(60)

    # (a) delta form vs cosine series, 1000 random assignments per graph
    for g in [triangle(2), k4(4, 1, 1, 0), k4(6, 1, 1, 1)]:
        ok = True
        for _ in range(1000):
            asg = ClassicalAssignment(
                g.d,
                tuple(int(x) for x in rng.integers(0, g.d, size=g.n)),
                tuple(int(x) for x in rng.integers(0, g.d, size=g.n)),
            )
            try:
                bell_classical_value(g, asg)
            except RuntimeError:
                ok = False
                break
        crit.check(f"delta_vs_series_d{g.d}", ok)

    # (b) symbolic/dense homomorphism on 100 random word pairs
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 3))
        words = []
        for _ in range(2):
            words.append(PauliWord(d, rng.integers(0, d, size=n), rng.integers(0, d, size=n),
                                   int(rng.integers(0, d))))
        dev = np.abs(to_matrix(multiply(*words)) - to_matrix(words[0]) @ to_matrix(words[1])).max()
        worst = max(worst, float(dev))
    crit.check("dense_homomorphism", worst <= MATRIX_TOL)

    # (c) joint +1 eigenspace dimension for every graph with d^n <= 256
    graphs = [triangle(2), triangle(4), k4(4, 1, 1, 0)]
    for n, d in [(3, 2), (3, 4), (3, 6), (4, 2), (4, 4)]:
        graphs.extend(enumerate_ghz_graphs(n, d))
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(2, 5))
        a = np.triu(rng.integers(0, d, size=(n, n)), 1)
        graphs.append(WeightedGraph(d, a + a.T))
    checked = 0
    ok = True
    for g in graphs:
        if g.d**g.n <= 256:
            checked += 1
            ok = ok and joint_plus_one_dimension(g) == 1
    crit.check("unique_joint_eigenstate", ok and checked > 10)

    # (d) sweep difference signs on all grid pairs with d/2 > n
    for n in range(2, 7):
        for d in (2, 4, 6, 8, 10, 12):
            if d // 2 <= n:
                continue
            sweep = lattice_bound_sweep(n, d)
            ok = True
            for m, diff in enumerate(sweep.scaled_diffs):
                if m < sweep.peak_index and diff < -MATRIX_TOL:
                    ok = False
                if m > sweep.peak_index and diff > MATRIX_TOL:
                    ok = False
            crit.check(f"sweep_signs_n{n}_d{d}", ok)
    crit.conclude()


def test_criterion_7_cli_determinism(tmp_path):
    crit = Criterion(7, "CLI determinism (byte-identical reruns)")
    tri = tmp_path / "triangle_d2.json"
    save_graph(triangle(2), tri)
    k4file = tmp_path / "k4_d4.json"
    save_graph(k4(4, 1, 1, 0), k4file)

    commands = [
        ("check", str(tri)),
        ("check", str(k4file)),
        ("enumerate", "3", "4"),
        ("enumerate", "4", "4", "--dedup"),
        ("paradox", str(tri)),
        ("paradox", str(k4file)),
        ("bell", str(tri)),
        ("bell", str(k4file)),
        ("ks", str(tri)),
        ("lemma", "3", "8"),
        ("lemma", "6", "12"),
        ("state-verify", str(tri)),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "ghzgraphs", *argv],
                           capture_output=True, env=env, timeout=300)
            for _ in range(2)
        ]
        # every command succeeds: two runs failing alike would also be identical
        crit.check(" ".join(argv[:1]) + "_" + "_".join(a for a in argv[1:] if not a.startswith("/")),
                   runs[0].stdout == runs[1].stdout and runs[0].returncode == runs[1].returncode == 0)
    crit.conclude()
