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
from ._search import scan_max
from .defaults import SEARCH_CAP
from .errors import CapExceededError, NotGhzGraphError
from .graphs import WeightedGraph, classify_ghz, require_ghz, subgraph
from .pauli import PauliWord, commutation_phase, dagger, render_word, vertex_stabilizer


class ParadoxSystem:
    """Linear system over Z_d in the variables (a_1..a_n, b_1..b_n).

    Row i reads coeffs[i] . vars = rhs[i] (mod d).  The stabilizer rows come
    first with right side 0; the final row carries the flip value d/2.
    """

    __slots__ = ("d", "n", "coeffs", "rhs")

    def __init__(self, d: int, n: int, coeffs, rhs) -> None:
        self.d = int(d)
        self.n = int(n)
        c = np.array(coeffs, dtype=np.int64) % self.d
        r = np.array(rhs, dtype=np.int64) % self.d
        if c.ndim != 2 or c.shape[1] != 2 * self.n or c.shape[0] != r.size:
            raise ValueError(f"coefficient block {c.shape} does not match {r.size} rows over {2 * self.n} variables")
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

    def satisfied_rows(self, assignment) -> np.ndarray:
        """Boolean vector: which rows the assignment (a..., b...) satisfies."""
        vec = np.array(assignment, dtype=np.int64)
        if vec.shape != (self.num_vars,):
            raise ValueError(f"assignment must have {self.num_vars} entries")
        return (self.coeffs @ vec) % self.d == self.rhs

    def with_final_rhs(self, value: int) -> "ParadoxSystem":
        """Copy with the final right side replaced (control experiments)."""
        rhs = self.rhs.copy()
        rhs[-1] = value
        return ParadoxSystem(self.d, self.n, self.coeffs, rhs)


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

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "infeasible": self.infeasible,
            "searched": self.searched,
            "max_satisfied_rows": self.max_satisfied_rows,
            "witness_combination": list(self.witness_combination) if self.witness_combination is not None else None,
            "contradiction": list(self.contradiction) if self.contradiction is not None else None,
            "satisfying_witness": list(self.satisfying_witness) if self.satisfying_witness is not None else None,
        }


def constraint_system(g: WeightedGraph) -> ParadoxSystem:
    """The n+1 realistic-value relations of a GHZ graph.

    Row v: a_v + sum_u adj[u][v] b_u = 0; final row: sum_v a_v = d/2.
    """
    require_ghz(g, "constraint system")
    n, d = g.n, g.d
    coeffs = np.zeros((n + 1, 2 * n), dtype=np.int64)
    rhs = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        coeffs[v, v] = 1
        coeffs[v, n:] = g.adj[:, v]
    coeffs[n, :n] = 1
    rhs[n] = d // 2
    return ParadoxSystem(d, n, coeffs, rhs)


def subgraph_paradox(g: WeightedGraph, vertices) -> ParadoxSystem:
    """Constraint system from a GHZ subgraph, over the full variable set.

    The stabilizer rows are those of the FULL graph restricted to the chosen
    vertices (their Z tails reach outside the subset); the final row is the
    value relation of their product, whose inside-subset Z exponents vanish
    because the induced degrees are divisible by d.
    """
    vs = sorted(set(int(v) for v in vertices))
    rep = classify_ghz(subgraph(g, vs))
    if not rep.is_ghz:
        raise NotGhzGraphError(f"induced subgraph on {vs} is not a GHZ graph; failed: {', '.join(rep.failure_reasons)}")
    n, d = g.n, g.d
    m = len(vs)
    coeffs = np.zeros((m + 1, 2 * n), dtype=np.int64)
    rhs = np.zeros(m + 1, dtype=np.int64)
    for i, u in enumerate(vs):
        coeffs[i, u] = 1
        coeffs[i, n:] = g.adj[:, u]
    for u in vs:
        coeffs[m, u] = 1
    coeffs[m, n:] = g.adj[:, vs].sum(axis=1)
    rhs[m] = d // 2
    return ParadoxSystem(d, n, coeffs, rhs)


def check_infeasible_algebraic(system: ParadoxSystem, g: WeightedGraph | None = None) -> InfeasibilityCertificate:
    """Certify infeasibility by summing the stabilizer rows.

    Their Z_d-sum reproduces the final row's coefficients (the degree sums
    vanish mod d) while the right sides read 0 versus d/2.  The bound
    max_satisfied_rows = rows - 1 is exact: the all-zero assignment satisfies
    every stabilizer row, and no assignment satisfies all rows.
    """
    if g is not None and (g.d != system.d or g.n != system.n):
        raise ValueError("graph does not match the system dimensions")
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
    rows; feasible ones (control experiments) report the first witness.
    """
    d = system.d
    nv = system.num_vars
    space = d**nv
    if space > cap:
        raise CapExceededError(f"exhaustive check needs {space} = {d}^{nv} assignments, cap is {cap}")
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
        """Aligned text block, one operator row per line."""
        token_rows = [row.text.split(" ") for row in self.rows]
        widths = [max(len(tr[j]) for tr in token_rows) for j in range(self.n)]
        lines = []
        for row, toks in zip(self.rows, token_rows):
            value = "+1" if row.expected_value == 1 else "-1"
            lines.append("  ".join(tok.ljust(w) for tok, w in zip(toks, widths)) + "  " + value)
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
    for i, first in enumerate(rows):
        for second in rows[i + 1:]:
            c = commutation_phase(first.word, second.word)
            if c:
                raise RuntimeError(f"table rows {first.label} and {second.label} fail to commute (phase {c})")
    return MerminTable(g.d, g.n, tuple(rows))


@dataclass(frozen=True)
class Genuineness:
    """How irreducible the paradox is: across parties and across levels."""

    n_partite: bool
    d_level: str  # "full" | "weak" | "none"


def genuineness(g: WeightedGraph) -> Genuineness:
    """Party-irreducibility follows from connectivity; level-irreducibility
    from the (weak) coprimality structure of the incident weights."""
    rep = require_ghz(g, "genuineness")
    if rep.is_primary:
        level = "full"
    elif rep.is_weakly_primary:
        level = "weak"
    else:
        level = "none"
    return Genuineness(n_partite=rep.connected, d_level=level)
