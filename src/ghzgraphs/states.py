"""Exact uniform-amplitude states: graph states and Weyl-word actions on them.

Any state whose amplitudes all have magnitude d^{-n/2} is stored as the
integer table of its phase exponents, so stabilizer eigenvalue relations are
verified without floating point.  A word's eigen-exponent is read from its
exact action on the basis; no dense vector or matrix is built here, and the
tests compare against the dense oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import counter_digits, search_size
from .defaults import STATE_CAP
from .graphs import WeightedGraph, _ghz_tests
from .pauli import PauliWord, _action_stacks, _sparse_product, _stabilizer_entry, _stabilizer_stack, _word_stack
from .pauli import to_matrix  # noqa: F401  unused; perfbench/spans.py patches this name when tracing


class PhaseState:
    """n-qudit state with amplitudes omega^{e(s)} / d^{n/2}.

    Exponents are stored flat in row-major order, qudit 0 most significant.
    """

    __slots__ = ("d", "n", "exponents")

    def __init__(self, d: int, n: int, exponents) -> None:
        self.d = int(d)
        if self.d < 2:
            raise ValueError(f"modulus must be at least 2, got d={self.d}")
        self.n = int(n)
        e = np.array(exponents, dtype=np.int64).reshape(-1) % self.d
        if e.size != self.d**self.n:
            raise ValueError(f"need {self.d ** self.n} exponents for (d={d}, n={n}), got {e.size}")
        e.setflags(write=False)
        self.exponents = e

    def dump(self) -> list[tuple[tuple[int, ...], int]]:
        """(basis tuple, exponent) pairs in enumeration order, for diffing."""
        digits = counter_digits(np.arange(self.exponents.size), self.n, self.d)
        return [(tuple(int(x) for x in digits[:, i]), int(self.exponents[i]))
                for i in range(self.exponents.size)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseState):
            return NotImplemented
        return self.d == other.d and self.n == other.n and np.array_equal(self.exponents, other.exponents)

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.exponents.tobytes()))

    def __repr__(self) -> str:
        return f"PhaseState(d={self.d}, n={self.n})"


def _axis_range(d: int, n: int, v: int) -> np.ndarray:
    return np.arange(d, dtype=np.int64).reshape((1,) * v + (d,) + (1,) * (n - v - 1))


def build_state(g: WeightedGraph) -> PhaseState:
    """Graph state of g: exponent e(s) = sum_{u<v} adj[u][v] s_u s_v mod d."""
    search_size("state", g.d, g.n, STATE_CAP)
    e = np.zeros((g.d,) * g.n, dtype=np.int64)
    for u, v, w in g.edges():
        e = e + w * _axis_range(g.d, g.n, u) * _axis_range(g.d, g.n, v)
    return PhaseState(g.d, g.n, e)


def _check_word_state(w: PauliWord, state: PhaseState) -> None:
    if w.d != state.d or w.n != state.n:
        raise ValueError(f"dimension mismatch: word (d={w.d}, n={w.n}) vs state (d={state.d}, n={state.n})")


def _stack_exponents(stack, state: PhaseState) -> list[int | None]:
    """``eigenvalue_of`` for each word of a stack (x, z, phase) on the
    state's qudits, from stacked actions.

    With w|s> = omega^{phase[s]} |index[s]>, w|psi> = omega^k |psi> exactly
    when e(s) + phase[s] - e(index[s]) = k mod d for every s, so one gather
    of the exponents per stack tests every word of it, and no moved state
    is built.
    """
    e = state.exponents
    out = []
    for index, phase in _action_stacks(state.d, stack):
        phase += e
        phase -= e[index]
        phase %= state.d
        same = (phase == phase[:, :1]).all(axis=1).tolist()
        out += [k if eigen else None for k, eigen in zip(phase[:, 0].tolist(), same)]
        del index, phase  # free this stack before the next one is built
    return out


def eigenvalue_of(w: PauliWord, state: PhaseState) -> int | None:
    """Exponent k with w|psi> = omega^k |psi>, or None if not an eigenstate."""
    _check_word_state(w, state)
    return _stack_exponents(_word_stack([w]), state)[0]


@dataclass(frozen=True)
class StabilizerReport:
    """Pass/fail summary of the graph-state stabilizer relations.

    flip_exponent is the eigen-exponent of X_V prod_v Z_v^{D_v mod d}, which
    every graph state carries with value (-W) mod d; for a GHZ graph the Z
    part vanishes and the value is d/2, the global flip -1.
    """

    is_ghz: bool
    vertex_exponents: tuple[int | None, ...]
    vertex_check: bool
    product_word_check: bool
    flip_exponent: int | None
    flip_expected: int
    flip_check: bool

    @property
    def all_pass(self) -> bool:
        return self.vertex_check and self.product_word_check and self.flip_check


def verify_stabilizers(g: WeightedGraph) -> StabilizerReport:
    """Check the stabilizer relations of the graph state of g.

    (a) every vertex stabilizer fixes the state; (b) the ordered product of
    all vertex stabilizers, reduced by ``_sparse_product``, has phase W, X
    exponents 1 and Z exponents D_v; (c) the word X_V prod_v Z_v^{D_v mod d}
    acts as the uniform phase omega^{-W}, the global flip exactly when g is GHZ.
    """
    psi = build_state(g)
    d, n = g.d, g.n
    degrees, weight, *_, reasons = _ghz_tests(g)

    # the vertex stabilizers, then X_V prod_v Z_v^D_v
    *vertex_exps, flip_exponent = _stack_exponents(_stabilizer_stack(g, degrees), psi)
    vertex_check = all(e == 0 for e in vertex_exps)

    x, z, phase = _sparse_product(d, n, (_stabilizer_entry(g, v) for v in range(n)))
    product_word_check = bool((x == 1).all() and np.array_equal(z, degrees % d) and phase == weight % d)

    flip_expected = (-weight) % d
    return StabilizerReport(
        is_ghz=not reasons,
        vertex_exponents=tuple(vertex_exps),
        vertex_check=vertex_check,
        product_word_check=product_word_check,
        flip_exponent=flip_exponent,
        flip_expected=flip_expected,
        flip_check=flip_exponent == flip_expected,
    )
