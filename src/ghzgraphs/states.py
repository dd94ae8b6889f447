"""Exact uniform-amplitude states: graph states and Weyl-word actions on them.

Any state whose amplitudes all have magnitude d^{-n/2} is stored as the
integer table of its phase exponents, so stabilizer eigenvalue relations are
verified without floating point.  Dense vectors exist only as a boundary for
cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import counter_digits
from .defaults import DENSE_CAP, STATE_CAP
from .errors import CapExceededError
from .graphs import WeightedGraph, classify_ghz, degree, total_weight
from .pauli import PauliWord, power, stabilizer_product, to_matrix, vertex_stabilizer


class PhaseState:
    """n-qudit state with amplitudes omega^{e(s)} / d^{n/2}.

    Exponents are stored flat in row-major order, qudit 0 most significant.
    """

    __slots__ = ("d", "n", "exponents")

    def __init__(self, d: int, n: int, exponents) -> None:
        self.d = int(d)
        self.n = int(n)
        e = np.array(exponents, dtype=np.int64).reshape(-1) % self.d
        if e.size != self.d**self.n:
            raise ValueError(f"need {self.d ** self.n} exponents for (d={d}, n={n}), got {e.size}")
        e.setflags(write=False)
        self.exponents = e

    def grid(self) -> np.ndarray:
        """Exponent table reshaped to one axis per qudit."""
        return self.exponents.reshape((self.d,) * self.n)

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


def build_state(g: WeightedGraph, state_cap: int = STATE_CAP) -> PhaseState:
    """Graph state of g: exponent e(s) = sum_{u<v} adj[u][v] s_u s_v mod d."""
    dim = g.d**g.n
    if dim > state_cap:
        raise CapExceededError(f"state of size {dim} exceeds cap {state_cap}")
    e = np.zeros((g.d,) * g.n, dtype=np.int64)
    for u in range(g.n):
        su = _axis_range(g.d, g.n, u)
        for v in range(u + 1, g.n):
            w = int(g.adj[u, v])
            if w:
                e = e + w * su * _axis_range(g.d, g.n, v)
    return PhaseState(g.d, g.n, e)


def apply_word(w: PauliWord, state: PhaseState) -> PhaseState:
    """Action of a Weyl word: w|s> = omega^{p + z.s} |s + x>, reindexed exactly."""
    if w.d != state.d or w.n != state.n:
        raise ValueError(f"dimension mismatch: word (d={w.d}, n={w.n}) vs state (d={state.d}, n={state.n})")
    grid = state.grid()
    shifts = tuple(int(s) for s in w.x_exp)
    if any(shifts):
        grid = np.roll(grid, shift=shifts, axis=tuple(range(state.n)))
    out = grid + (w.phase_exp - int(np.dot(w.z_exp, w.x_exp)))
    for v in range(state.n):
        zv = int(w.z_exp[v])
        if zv:
            out = out + zv * _axis_range(state.d, state.n, v)
    return PhaseState(state.d, state.n, out)


def eigenvalue_of(w: PauliWord, state: PhaseState) -> int | None:
    """Exponent k with w|psi> = omega^k |psi>, or None if not an eigenstate."""
    moved = apply_word(w, state)
    diff = (moved.exponents - state.exponents) % state.d
    k = int(diff[0])
    return k if bool((diff == k).all()) else None


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
    ghz_expectation: bool

    @property
    def all_pass(self) -> bool:
        return self.vertex_check and self.product_word_check and self.flip_check

    def to_json_dict(self) -> dict:
        return {
            "is_ghz": self.is_ghz,
            "vertex_exponents": list(self.vertex_exponents),
            "vertex_check": self.vertex_check,
            "product_word_check": self.product_word_check,
            "flip_exponent": self.flip_exponent,
            "flip_expected": self.flip_expected,
            "flip_check": self.flip_check,
            "ghz_expectation": self.ghz_expectation,
            "all_pass": self.all_pass,
        }


def verify_stabilizers(g: WeightedGraph, state_cap: int = STATE_CAP) -> StabilizerReport:
    """Check the stabilizer relations of the graph state of g.

    (a) every vertex stabilizer fixes the state; (b) the ordered product of
    all vertex stabilizers equals the closed-form word with phase W and Z
    exponents D_v; (c) the word X_V prod_v Z_v^{D_v mod d} acts as the
    uniform phase omega^{-W}, the global flip exactly when g is GHZ.
    """
    rep = classify_ghz(g)
    psi = build_state(g, state_cap=state_cap)
    d, n = g.d, g.n

    vertex_exps = tuple(eigenvalue_of(vertex_stabilizer(g, v), psi) for v in range(n))
    vertex_check = all(e == 0 for e in vertex_exps)

    degs = np.array([degree(g, v) % d for v in range(n)], dtype=np.int64)
    w_tot = total_weight(g)
    expected_product = PauliWord(d, np.ones(n, dtype=np.int64), degs, w_tot)
    product_word_check = stabilizer_product(g, range(n)) == expected_product

    flip_word = PauliWord(d, np.ones(n, dtype=np.int64), degs)
    flip_exponent = eigenvalue_of(flip_word, psi)
    flip_expected = (-w_tot) % d
    return StabilizerReport(
        is_ghz=rep.is_ghz,
        vertex_exponents=vertex_exps,
        vertex_check=vertex_check,
        product_word_check=product_word_check,
        flip_exponent=flip_exponent,
        flip_expected=flip_expected,
        flip_check=flip_exponent == flip_expected,
        ghz_expectation=rep.is_ghz,
    )


def to_dense(state: PhaseState, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """Unit-norm complex vector with entries omega^{e(s)} d^{-n/2}."""
    dim = state.d**state.n
    if dim > dense_cap:
        raise CapExceededError(f"dense vector of size {dim} exceeds cap {dense_cap}")
    return np.exp(2j * np.pi * state.exponents / state.d) / state.d ** (state.n / 2)


def joint_plus_one_dimension(g: WeightedGraph, dense_cap: int = DENSE_CAP) -> int:
    """Dimension of the common +1 eigenspace of all vertex stabilizer matrices.

    The stabilizers commute and each has order d, so averaging the powers of
    each gives commuting projectors whose product projects onto the joint
    eigenspace; its trace is the dimension.
    """
    dim = g.d**g.n
    if dim > dense_cap:
        raise CapExceededError(f"dense projector of size {dim} exceeds cap {dense_cap}")
    proj = np.eye(dim, dtype=complex)
    for v in range(g.n):
        word = vertex_stabilizer(g, v)
        avg = sum(to_matrix(power(word, k), dense_cap=dense_cap) for k in range(g.d)) / g.d
        proj = proj @ avg
    return int(round(float(proj.trace().real)))
