"""Realistic-value constraint systems and their infeasibility certificates.

If the shift and phase observables of every site carried predetermined
values omega^{a_v} and omega^{b_v}, each vertex stabilizer would force one
linear relation over Z_d and the global flip would force sum(a) = d/2.  For
a GHZ graph the resulting system is infeasible, which is the
all-versus-nothing paradox; this module builds the system and certifies the
infeasibility both algebraically and by exhaustive scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import digit_chunks  # noqa: F401  unused; perfbench/spans.py patches this name when tracing
from ._search import scan_max, search_size
from .defaults import SEARCH_CAP
from .errors import InvariantError
from .graphs import WeightedGraph, _vertex_subset, classify_ghz, require_ghz, subgraph
from .pauli import PauliWord, dagger, render_word, vertex_stabilizer


class ParadoxSystem:
    """Linear system over Z_d in the variables (a_1..a_n, b_1..b_n).

    Row i reads coeffs[i] . vars = rhs[i] (mod d).  The stabilizer rows come
    first with right side 0; the final row carries the flip value d/2.
    """

    __slots__ = ("d", "n", "coeffs", "rhs")

    def __init__(self, d: int, n: int, coeffs, rhs) -> None:
        self.d = int(d)
        if self.d < 2:
            raise ValueError(f"modulus must be at least 2, got d={self.d}")
        self.n = int(n)
        c = np.array(coeffs, dtype=np.int64) % self.d
        r = np.array(rhs, dtype=np.int64) % self.d
        if c.ndim != 2 or c.shape[1] != 2 * self.n or c.shape[0] != r.size:
            raise ValueError(f"coefficient block {c.shape} does not match {r.size} rows over {2 * self.n} variables")
        if r.size == 0:
            raise ValueError("a paradox system needs a final row")
        c.setflags(write=False)
        r.setflags(write=False)
        self.coeffs = c
        self.rhs = r

    @property
    def num_rows(self) -> int:
        return int(self.rhs.size)

    @property
    def num_vars(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Result of an infeasibility check.

    For the algebraic method, witness_combination lists the row indices whose
    Z_d-sum reproduces the final row's coefficients while the right sides
    disagree; contradiction holds that (row-sum rhs, final rhs) pair.  For
    the exhaustive method, satisfying_witness is the lowest-counter
    assignment meeting every row, present only when the system is feasible.
    """

    method: str
    infeasible: bool
    searched: int
    max_satisfied_rows: int
    witness_combination: tuple[int, ...] | None = None
    contradiction: tuple[int, int] | None = None
    satisfying_witness: tuple[int, ...] | None = None


def _paradox_rows(g: WeightedGraph, vs: list[int]) -> ParadoxSystem:
    """Stabilizer rows of the vertices vs over all 2n variables, then their
    sum with right side d/2."""
    rows = np.hstack([np.eye(g.n, dtype=np.int64)[vs], g.adj[:, vs].T], dtype=np.int64)
    return ParadoxSystem(g.d, g.n, np.vstack([rows, rows.sum(axis=0)]), [0] * len(vs) + [g.d // 2])


def constraint_system(g: WeightedGraph) -> ParadoxSystem:
    """The n+1 realistic-value relations of a GHZ graph.

    Row v: a_v + sum_u adj[u][v] b_u = 0; final row: sum_v a_v = d/2 (the
    b part of the row sum vanishes because every degree is 0 mod d).
    """
    require_ghz(g, "constraint system")
    return _paradox_rows(g, list(range(g.n)))


def subgraph_paradox(g: WeightedGraph, vertices) -> ParadoxSystem:
    """Constraint system from a GHZ subgraph, over the full variable set.

    The stabilizer rows are those of the FULL graph restricted to the chosen
    vertices (their Z tails reach outside the subset); the final row is the
    value relation of their product, whose inside-subset Z exponents vanish
    because the induced degrees are divisible by d.
    """
    vs = _vertex_subset(g, vertices)
    require_ghz(subgraph(g, vs), f"subgraph paradox on {vs}")
    return _paradox_rows(g, vs)


def check_infeasible_algebraic(system: ParadoxSystem) -> InfeasibilityCertificate:
    """Certify infeasibility by summing the stabilizer rows.

    Their Z_d-sum reproduces the final row's coefficients (the degree sums
    vanish mod d) while the right sides read 0 versus d/2.  The bound
    max_satisfied_rows = rows - 1 is exact: the all-zero assignment satisfies
    every stabilizer row, and no assignment satisfies all rows.
    """
    d = system.d
    summed = system.coeffs[:-1].sum(axis=0) % d
    if not np.array_equal(summed, system.coeffs[-1]):
        raise ValueError("stabilizer rows do not sum to the final row; not a paradox system")
    lhs = int(system.rhs[:-1].sum() % d)
    final = int(system.rhs[-1])
    if lhs == final:
        raise ValueError("no contradiction: the summed right side equals the final right side")
    return InfeasibilityCertificate(
        method="algebraic",
        infeasible=True,
        searched=0,
        max_satisfied_rows=system.num_rows - 1,
        witness_combination=tuple(range(system.num_rows - 1)),
        contradiction=(lhs, final),
    )


def check_infeasible_exhaustive(system: ParadoxSystem, cap: int = SEARCH_CAP) -> InfeasibilityCertificate:
    """Scan every assignment in base-d counter order over (a_1.., b_1..).

    Infeasible systems report the maximal number of simultaneously satisfied
    rows; feasible ones (control experiments) report the first witness.  A
    variable that occurs in no row has a zero column, which the scan kernel
    runs over its own order 1, so it costs no block and the witness puts 0
    there, as the lowest counter value does; ``searched`` counts all d^(2n)
    assignments.
    """
    d = system.d
    space = search_size("exhaustive check", d, system.num_vars, cap)
    target = system.num_rows
    tables = (np.arange(d) == system.rhs[:, None]).astype(np.int64)
    best, witness = scan_max(system.coeffs, tables, d)
    return InfeasibilityCertificate(
        method="exhaustive",
        infeasible=best < target,
        searched=space,
        max_satisfied_rows=best,
        satisfying_witness=witness if best == target else None,
    )


@dataclass(frozen=True)
class MerminRow:
    """One operator row of the paradox table."""

    label: str
    text: str
    expected_value: int
    word: PauliWord


@dataclass(frozen=True)
class MerminTable:
    """The n+1 commuting rows whose stated values cannot all be realistic."""

    d: int
    n: int
    rows: tuple[MerminRow, ...]

    def render(self) -> str:
        """Aligned text block, one operator row per line.

        Each row is split into its tokens twice, once for the column widths
        and once for its line, so only one row's tokens are alive at a time.
        """
        widths = None
        for row in self.rows:
            lengths = map(len, row.text.split(" "))
            widths = list(lengths if widths is None else map(max, widths, lengths))
        lines = []
        for row in self.rows:
            value = "+1" if row.expected_value == 1 else "-1"
            lines.append("  ".join(tok.ljust(w) for tok, w in zip(row.text.split(" "), widths)) + "  " + value)
        return "\n".join(lines)


def mermin_table(g: WeightedGraph) -> MerminTable:
    """Operator table of the paradox: the vertex stabilizers at value +1 and
    the inverted collective shift at value -1, all mutually commuting."""
    require_ghz(g, "paradox table")
    rows = []
    for v in range(g.n):
        word = vertex_stabilizer(g, v)
        rows.append(MerminRow(label=f"g_{v}", text=render_word(word), expected_value=1, word=word))
    flip = dagger(PauliWord.all_x(g.d, g.n))
    rows.append(MerminRow(label="X_V^†", text=render_word(flip, dagger_x=True), expected_value=-1, word=flip))
    # column j starts as z_i.x_j over the X support of row j, in int64 while n (d-1)^2 < 2^63 and in
    # Python ints past that; phases is antisymmetric, so its first row-major nonzero is the first pair
    # i < j that fails to commute
    dtype = np.int64 if g.n * (g.d - 1) ** 2 < 2**63 else object
    z = np.array([row.word.z_exp for row in rows], dtype=dtype)
    phases = np.stack([z[:, x != 0] @ x[x != 0].astype(dtype) for x in (row.word.x_exp for row in rows)], axis=1)
    phases -= phases.T
    phases %= g.d
    for i, j in np.argwhere(phases)[:1]:
        raise InvariantError(f"table rows {rows[i].label} and {rows[j].label} fail to commute (phase {phases[i, j]})")
    return MerminTable(g.d, g.n, tuple(rows))


@dataclass(frozen=True)
class Genuineness:
    """How irreducible the paradox is: across parties and across levels."""

    n_partite: bool
    d_level: str  # "full" | "weak" | "none"


def genuineness(g: WeightedGraph) -> Genuineness:
    """Party-irreducibility follows from connectivity; level-irreducibility
    from the (weak) coprimality structure of the incident weights."""
    require_ghz(g, "genuineness")
    rep = classify_ghz(g)
    if rep.is_primary:
        level = "full"
    elif rep.is_weakly_primary:
        level = "weak"
    else:
        level = "none"
    return Genuineness(n_partite=rep.connected, d_level=level)
