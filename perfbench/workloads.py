"""Seeded inputs, job lists and correctness checks of the four workloads.

The package sees only the graphs built here.  Every check is the
benchmark's own arithmetic (closed forms, a plain-Python GHZ test, witness
re-evaluation), so a wrong answer cannot pass by sharing code with the
computation it checks.

Run as a script, this module is the set-up probe: a fresh interpreter
imports the package, builds one workload's inputs, prints ``ready`` and
exits.  ``run.py`` times it from spawn to that line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ghzgraphs import bounds, graphs, paradox, states

WORKLOADS = ("scan", "dense", "census", "cli")
TOL = 1e-9

# Number of connected GHZ graphs on 5 labelled vertices over Z_4, as the
# package counted them when the benchmark was written; 4^10 codes are too
# many to recount in plain Python on every run.  The isomorphism classes
# checked in census and cli are recounted by own_ghz_classes instead.
GHZ_GRAPHS_N5_D4 = 954


class CheckFailed(Exception):
    """A job returned, but its result is wrong."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def near(x, y) -> bool:
    return x is not None and abs(x - y) <= TOL


@dataclass
class Job:
    """One library call chain; ``run`` calls through module attributes so a
    traced pass sees its spans."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class CliJob:
    """One ``ghzgraphs`` command; ``check`` receives its stdout bytes."""

    name: str
    argv: list[str]
    check: Callable[[bytes], None]


# --- the benchmark's own GHZ test ---------------------------------------

def own_is_ghz(adj: list[list[int]], d: int) -> bool:
    """Connected, every degree 0 mod d, total weight not 0 mod d."""
    n = len(adj)
    if any(sum(row) % d for row in adj) or (sum(map(sum, adj)) // 2) % d == 0:
        return False
    seen, todo = {0}, [0]
    while todo:
        u = todo.pop()
        for v in range(n):
            if adj[u][v] and v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == n


def own_ghz_subsets(adj: list[list[int]], d: int) -> list[tuple[int, ...]]:
    """Vertex subsets of size >= 3 with a GHZ induced subgraph, in the
    documented order of ``find_ghz_subgraphs``."""
    n = len(adj)
    return [vs for k in range(3, n + 1) for vs in itertools.combinations(range(n), k)
            if own_is_ghz([[adj[u][v] for v in vs] for u in vs], d)]


def own_ghz_classes(n: int, d: int) -> list[tuple[int, ...]]:
    """The encoding-minimal code of every isomorphism class of GHZ graphs on
    n vertices over Z_d, in ascending order, by brute force over all
    d^(n(n-1)/2) codes and all n! relabellings."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    classes = set()
    for code in itertools.product(range(d), repeat=len(pairs)):
        adj = [[0] * n for _ in range(n)]
        for (u, v), w in zip(pairs, code):
            adj[u][v] = adj[v][u] = w
        if own_is_ghz(adj, d):
            classes.add(min(tuple(adj[p[u]][p[v]] for u, v in pairs) for p in perms))
    return sorted(classes)


def check_graph_list(n: int, d: int, count: int | None = None) -> Callable[[list], None]:
    """Check an enumeration: ``count`` GHZ graphs in ascending code order,
    or with count None, the codes of own_ghz_classes (worked out once)."""
    classes: list = []

    def check(gs):
        codes = [tuple(int(g.adj[u, v]) for u, v in itertools.combinations(range(n), 2)) for g in gs]
        expect(codes == sorted(set(codes)), f"enumerate({n}, {d}) is not in ascending code order")
        bad = [c for g, c in zip(gs, codes) if (g.n, g.d) != (n, d) or not own_is_ghz(g.adj.tolist(), d)]
        expect(not bad, f"enumerate({n}, {d}) yielded non-GHZ graphs, first code {bad[:1]}")
        if count is not None:
            expect(len(gs) == count, f"enumerate({n}, {d}) gave {len(gs)} graphs, want {count}")
            return
        if not classes:
            classes.extend(own_ghz_classes(n, d))
        expect(codes == classes, f"enumerate({n}, {d}) gave class codes {codes}, want {classes}")
    return check


# --- seeded inputs --------------------------------------------------------

def relabel(g: graphs.WeightedGraph, rng: random.Random) -> graphs.WeightedGraph:
    """The same graph under a random vertex permutation."""
    perm = np.array(rng.sample(range(g.n), g.n))
    adj = np.zeros_like(g.adj)
    adj[np.ix_(perm, perm)] = g.adj
    return graphs.WeightedGraph(g.d, adj)


def k4_split(d: int, rng: random.Random) -> tuple[int, int, int]:
    """A k4 split (a, b, c) with a + b + c = d/2 and no isolated vertex."""
    seeds = [(1, 1, 1), (0, 1, 2)] if d == 6 else [(1, 1, 0)]
    return rng.choice(sorted({p for s in seeds for p in itertools.permutations(s)}))


def planted_z4_graph(rng: random.Random) -> graphs.WeightedGraph:
    """11 vertices over Z_4: a triangle and a k4 are planted as induced
    subgraphs, every other pair gets a uniform weight in Z_4 (0 = no edge),
    and the vertices are relabelled."""
    d, n = 4, 11
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in itertools.combinations(range(n), 2):
        adj[u, v] = adj[v, u] = rng.randrange(d)
    adj[0:3, 0:3] = graphs.triangle(d).adj
    adj[3:7, 3:7] = graphs.k4(d, *k4_split(d, rng)).adj
    return relabel(graphs.WeightedGraph(d, adj), rng)


# --- scan: the four exhaustive counter scans ------------------------------

def ks_witness_value(g: graphs.WeightedGraph, w: dict) -> float:
    """Direct-scan KS witness re-evaluated on the cosine objective.

    With y_v = x_v + (adj z)_v - s_v and y_0 = sum x - t, the degree sums
    vanish mod d on a GHZ graph, so the expression is the cosine objective
    of (-y_0, y_1, ..., y_n) in units of 2 pi / d.
    """
    x, z, s = (np.array(w[k]) for k in ("x_exp", "z_exp", "stabilizer_exp"))
    y = x + g.adj @ z - s
    y0 = x.sum() - w["collective_exp"]
    return bounds.cosine_objective(2 * math.pi / g.d * np.concatenate(([-y0], y)))


def scan_jobs(rng: random.Random) -> list[Job]:
    g = relabel(graphs.k4(6, *k4_split(6, rng)), rng)
    tri = relabel(graphs.triangle(4), rng)
    n = g.n

    def check_paradox(cert):
        expect(cert.infeasible and cert.satisfying_witness is None, "paradox system reported feasible")
        expect(cert.max_satisfied_rows == n, f"{cert.max_satisfied_rows} rows satisfied, want {n} of {n + 1}")
        expect(cert.searched == 6 ** (2 * n), f"searched {cert.searched}, want 6^{2 * n}")

    def check_bell(rep):
        expect(rep.classical_bound == n - 1, f"Bell maximum {rep.classical_bound}, want {n - 1}")
        assignment = bounds.ClassicalAssignment(g.d, tuple(rep.witness["a_exp"]), tuple(rep.witness["b_exp"]))
        value = bounds.bell_classical_value(g, assignment)
        expect(value == rep.classical_bound, f"Bell witness evaluates to {value}, not {rep.classical_bound}")

    ks_bound = bounds.lattice_bound_closed(tri.n + 1, tri.d)

    def check_ks(rep):
        expect(near(rep.classical_bound, ks_bound), f"KS bound {rep.classical_bound}, want {ks_bound}")
        expect(rep.oracle_agreement is True and near(rep.oracle_value, ks_bound),
               f"KS direct scan gave {rep.oracle_value}, want {ks_bound}")
        value = ks_witness_value(tri, rep.witness)
        expect(near(value, ks_bound), f"KS witness evaluates to {value}, want {ks_bound}")

    lattice_bound = bounds.lattice_bound_closed(6, 12)

    def check_lattice(rep):
        expect(near(rep.classical_bound, lattice_bound) and rep.oracle_agreement is True,
               f"lattice maximum {rep.classical_bound}, want {lattice_bound}")
        value = bounds.cosine_objective(rep.witness["angles"])
        expect(near(value, rep.classical_bound), f"lattice witness evaluates to {value}")

    return [
        Job("paradox_exhaustive",
            lambda: paradox.check_infeasible_exhaustive(paradox.constraint_system(g)), check_paradox),
        Job("bell_classical_max", lambda: bounds.bell_classical_max(g), check_bell),
        Job("ks_classical_max", lambda: bounds.ks_classical_max(tri), check_ks),
        Job("lattice_bound_brute", lambda: bounds.lattice_bound_brute(6, 12), check_lattice),
    ]


# --- dense: dense oracles and exact states --------------------------------

def dense_jobs(rng: random.Random) -> list[Job]:
    g = relabel(graphs.k4(6, *k4_split(6, rng)), rng)
    n, d = g.n, g.d
    ks_bound = bounds.lattice_bound_closed(n + 1, d)

    def check_bell(rep):
        expect(rep.classical_bound == n - 1, f"Bell classical bound {rep.classical_bound}, want {n - 1}")
        expect(near(rep.quantum_value, n + 1), f"Bell quantum value {rep.quantum_value}, want {n + 1}")
        expect(rep.oracle_agreement is True and near(rep.oracle_value, n + 1),
               f"dense Bell oracle gave {rep.oracle_value}, agreement {rep.oracle_agreement}")

    def check_ks(rep):
        expect(rep.quantum_value == n + 2, f"KS quantum value {rep.quantum_value}, want {n + 2}")
        expect(near(rep.classical_bound, ks_bound), f"KS bound {rep.classical_bound}, want {ks_bound}")
        expect(rep.oracle_agreement is True and near(rep.oracle_value, n + 2),
               f"dense KS oracle gave {rep.oracle_value}, agreement {rep.oracle_agreement}")

    def check_stabilizers(rep):
        expect(rep.all_pass and rep.is_ghz, "stabilizer relations failed")
        expect(rep.vertex_exponents == (0,) * n and rep.flip_exponent == d // 2,
               f"exponents {rep.vertex_exponents}, flip {rep.flip_exponent}")

    def check_table(table):
        values = [row.expected_value for row in table.rows]
        expect(values == [1] * n + [-1], f"table values {values}")

    return [
        Job("bell_quantum", lambda: bounds.bell_quantum(g), check_bell),
        Job("ks_quantum", lambda: bounds.ks_quantum(g), check_ks),
        Job("verify_stabilizers", lambda: states.verify_stabilizers(g), check_stabilizers),
        Job("mermin_table", lambda: paradox.mermin_table(g), check_table),
    ]


# --- census: Python-level enumeration in graphs ---------------------------

def census_jobs(rng: random.Random) -> list[Job]:
    g = planted_z4_graph(rng)
    expected: list = []

    def check_subsets(found):
        if not expected:
            expected.extend(own_ghz_subsets(g.adj.tolist(), g.d))
        expect(found == expected, f"found {len(found)} GHZ subsets, want {len(expected)}")

    return [
        Job("enumerate_5_4", lambda: list(graphs.enumerate_ghz_graphs(5, 4)),
            check_graph_list(5, 4, GHZ_GRAPHS_N5_D4)),
        Job("enumerate_6_2_dedup", lambda: list(graphs.enumerate_ghz_graphs(6, 2, dedup_isomorphism=True)),
            check_graph_list(6, 2)),
        Job("find_ghz_subgraphs", lambda: graphs.find_ghz_subgraphs(g), check_subsets),
    ]


# --- cli: one fresh ghzgraphs process per command -------------------------

def cli_jobs(rng: random.Random, workdir: Path) -> list[CliJob]:
    g = relabel(graphs.k4(4, *k4_split(4, rng)), rng)
    tri = relabel(graphs.triangle(4), rng)
    k4_file, tri_file = workdir / "k4_d4.json", workdir / "triangle_d4.json"
    graphs.save_graph(g, k4_file)
    graphs.save_graph(tri, tri_file)
    n, d = g.n, g.d
    ks_bound = bounds.lattice_bound_closed(tri.n + 1, tri.d)
    lemma_bound = bounds.lattice_bound_closed(5, 8)

    def check(out):
        doc = json.loads(out)
        expect(doc["graph"] == graphs.graph_to_dict(g), "check echoed another graph")
        expect(doc["is_ghz"] is True and all(x % d == 0 for x in doc["degrees"]), "check: not GHZ")

    def paradox_(out):
        doc = json.loads(out)
        cert = doc["certificates"]["exhaustive"]
        expect(doc["agreement"] is True and doc["certificates"]["algebraic"]["infeasible"] is True,
               "paradox: certificates disagree")
        expect(cert["infeasible"] is True and cert["max_satisfied_rows"] == n and cert["searched"] == d ** (2 * n),
               f"paradox: exhaustive certificate {cert}")
        expect(doc["system"]["rows"] == n + 1 and len(doc["mermin_table"].split("\n")) == n + 1,
               "paradox: wrong row count")

    def bell(out):
        doc = json.loads(out)
        expect(doc["classical_bound"] == n - 1 and doc["classical_searched"] == d ** (2 * n),
               f"bell: classical bound {doc['classical_bound']}")
        expect(near(doc["quantum_value"], n + 1) and near(doc["ratio"], (n + 1) / (n - 1)),
               f"bell: quantum value {doc['quantum_value']}")
        expect(doc["oracle_agreement"] is True, "bell: dense oracle disagrees")

    def state_verify(out):
        doc = json.loads(out)
        expect(doc["all_pass"] is True and doc["flip_exponent"] == d // 2, "state-verify failed")

    def ks(out):
        doc = json.loads(out)
        expect(near(doc["classical_bound"], ks_bound) and near(doc["direct_max"], ks_bound),
               f"ks: bound {doc['classical_bound']}, want {ks_bound}")
        expect(doc["quantum_value"] == tri.n + 2, f"ks: quantum value {doc['quantum_value']}")
        expect(doc["direct_agreement"] is True and doc["quantum_oracle_agreement"] is True, "ks: oracles disagree")

    def lemma(out):
        doc = json.loads(out)
        expect(all(near(doc[k], lemma_bound) for k in ("closed_form", "sweep_max", "brute_max"))
               and doc["agreement"] is True, f"lemma: values {doc}")
        value = bounds.cosine_objective(doc["witness"]["angles"])
        expect(near(value, lemma_bound), f"lemma: witness evaluates to {value}")

    classes: list = []

    def enumerate_(out):
        if not classes:
            classes.extend(own_ghz_classes(4, 4))
        lines = [json.loads(line) for line in out.decode().splitlines()]
        expect(lines[-1] == {"count": len(classes)} and len(lines) == len(classes) + 1,
               f"enumerate: count line {lines[-1]}, want {len(classes)} classes")
        codes = []
        for doc in lines[:-1]:
            adj = [[0] * doc["n"] for _ in range(doc["n"])]
            for u, v, w in doc["edges"]:
                adj[u][v] = adj[v][u] = w
            expect((doc["n"], doc["d"]) == (4, 4) and own_is_ghz(adj, 4), f"enumerate: non-GHZ graph {doc}")
            codes.append(tuple(adj[u][v] for u, v in itertools.combinations(range(4), 2)))
        expect(codes == classes, f"enumerate: class codes {codes}, want {classes}")

    k4_arg, tri_arg = str(k4_file), str(tri_file)
    return [
        CliJob("check", ["check", k4_arg], check),
        CliJob("paradox", ["paradox", k4_arg], paradox_),
        CliJob("bell", ["bell", k4_arg], bell),
        CliJob("state-verify", ["state-verify", k4_arg], state_verify),
        CliJob("ks", ["ks", tri_arg], ks),
        CliJob("lemma", ["lemma", "5", "8"], lemma),
        CliJob("enumerate", ["enumerate", "4", "4", "--dedup"], enumerate_),
    ]


# --- reference kernels ------------------------------------------------------
# Each library workload times a fixed kernel of its own kind of work next to
# every pass, and reports pass time in units of it.  The kernels use no
# package code: a change to the package moves the ratio, while a change in
# the host's speed moves both.  (On a 2-vCPU VM, interpreter-bound passes
# ran up to 1.9x slower for minutes at a time, numpy-bound ones 1.25x.)

_BLOCK = 1 << 17
_COEFFS = np.array([[1, 0, 0, 0, 2, 3, 1, 5], [0, 1, 0, 0, 3, 2, 5, 1], [0, 0, 1, 0, 1, 5, 2, 3],
                    [0, 0, 0, 1, 5, 1, 3, 2], [1, 1, 1, 1, 0, 0, 0, 0]], dtype=np.int64)
_RHS = np.array([0, 0, 0, 0, 3], dtype=np.int64)[:, None]
_COS6 = np.cos(2 * np.pi / 6 * np.arange(6))


def reference_scan() -> None:
    """One base-6 counter block: digits by div/mod, a linear map with
    mod/compare/argmax, and a cosine-table reduction, as in the scans."""
    q = np.arange(_BLOCK, dtype=np.int64)
    digits = np.empty((8, _BLOCK), dtype=np.int64)
    for j in range(7, -1, -1):
        digits[j] = q % 6
        q = q // 6
    counts = ((_COEFFS @ digits) % 6 == _RHS).sum(axis=0)
    int(np.argmax(counts == counts.max()))
    float((_COS6[digits].sum(axis=0) - _COS6[digits.sum(axis=0) % 6]).max())


_DIM = 288


def reference_dense() -> None:
    """A sum of shift-and-phase matrices built by fancy indexing, then
    eigvalsh, as in the dense oracles."""
    idx = np.arange(_DIM)
    mat = np.zeros((_DIM, _DIM), dtype=complex)
    for s in range(1, 4):
        mat[(idx + s) % _DIM, idx] += np.exp(2j * np.pi * (idx * s % 6) / 6)
    np.linalg.eigvalsh((mat + mat.conj().T) / 2)


_ADJ6 = np.array([[0, 1, 1, 0, 1, 1], [1, 0, 1, 1, 0, 1], [1, 1, 0, 1, 1, 0],
                  [0, 1, 1, 0, 1, 1], [1, 0, 1, 1, 0, 1], [1, 1, 0, 1, 1, 0]])
_PAIRS6 = list(itertools.combinations(range(6), 2))


def reference_census() -> None:
    """Brute-force canonical labelling of a fixed 6-vertex graph, in Python
    over numpy scalars, as in the enumeration."""
    for _ in range(4):
        best = None
        for perm in itertools.permutations(range(6)):
            code = tuple(int(_ADJ6[perm[u], perm[v]]) for u, v in _PAIRS6)
            if best is None or code < best:
                best = code


# cli's reference is a child process importing numpy; run.py spawns it.
REFERENCES = {"scan": reference_scan, "dense": reference_dense, "census": reference_census}


def build(workload: str, seed: int, workdir: Path | None = None) -> list:
    """The job list of one workload; ``cli`` writes its graph files to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return cli_jobs(rng, workdir)
    return {"scan": scan_jobs, "dense": dense_jobs, "census": census_jobs}[workload](rng)


def _probe() -> None:
    parser = argparse.ArgumentParser(description="set-up probe: build one workload's inputs, print ready")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        build(args.workload, args.seed, Path(tmp))
        print("ready", flush=True)


if __name__ == "__main__":
    _probe()
