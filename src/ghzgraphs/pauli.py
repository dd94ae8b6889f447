"""Weyl (generalized Pauli) words with exact Z_d phase bookkeeping.

A word is omega^p * prod_v X_v^{x_v} Z_v^{z_v} with omega = exp(2 pi i / d),
all exponents in Z_d, and the X factor left of the Z factor on every qudit.
Multiplication only ever moves a Z block past an X block, which costs
omega^{z.x}, so everything stays integer until a dense matrix is requested.
A word's action on the computational basis is a monomial map, held exactly as
d^n integer pairs by ``word_action``; ``to_matrix`` builds the dense d^n x d^n
matrix and serves as the test oracle.
For even d the value -1 is omega^{d/2}; no separate sign is tracked.
"""

from __future__ import annotations

import numpy as np

from ._search import counter_digits, search_size
from .defaults import DENSE_CAP, STATE_CAP
from .graphs import WeightedGraph, _vertex_subset


class PauliWord:
    """Normal-form Weyl word on n qudits of dimension d."""

    __slots__ = ("d", "n", "phase_exp", "x_exp", "z_exp")

    def __init__(self, d: int, x_exp, z_exp, phase_exp: int = 0) -> None:
        d = int(d)
        if d < 2:
            raise ValueError(f"modulus must be at least 2, got d={d}")
        x = np.array(x_exp, dtype=np.int64) % d
        z = np.array(z_exp, dtype=np.int64) % d
        if x.ndim != 1 or x.shape != z.shape:
            raise ValueError("x_exp and z_exp must be equal-length vectors")
        x.setflags(write=False)
        z.setflags(write=False)
        self.d = d
        self.n = int(x.shape[0])
        self.phase_exp = int(phase_exp) % d
        self.x_exp = x
        self.z_exp = z

    @classmethod
    def identity(cls, d: int, n: int) -> "PauliWord":
        return cls(d, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    @classmethod
    def single_x(cls, d: int, n: int, v: int) -> "PauliWord":
        x = np.zeros(n, dtype=np.int64)
        x[v] = 1
        return cls(d, x, np.zeros(n, dtype=np.int64))

    @classmethod
    def single_z(cls, d: int, n: int, v: int, exponent: int = 1) -> "PauliWord":
        z = np.zeros(n, dtype=np.int64)
        z[v] = exponent
        return cls(d, np.zeros(n, dtype=np.int64), z)

    @classmethod
    def all_x(cls, d: int, n: int) -> "PauliWord":
        """The collective shift X_V."""
        return cls(d, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    def is_identity(self) -> bool:
        return self.phase_exp == 0 and not self.x_exp.any() and not self.z_exp.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliWord):
            return NotImplemented
        return (self.d == other.d and self.n == other.n and self.phase_exp == other.phase_exp
                and np.array_equal(self.x_exp, other.x_exp) and np.array_equal(self.z_exp, other.z_exp))

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.phase_exp, self.x_exp.tobytes(), self.z_exp.tobytes()))

    def __mul__(self, other) -> "PauliWord":
        return multiply(self, other)

    def __pow__(self, k: int) -> "PauliWord":
        return power(self, k)

    def __repr__(self) -> str:
        return f"PauliWord(d={self.d}, {render_word(self)!r})"


def _check_same_space(w1: PauliWord, w2: PauliWord) -> None:
    if w1.d != w2.d or w1.n != w2.n:
        raise ValueError(f"dimension mismatch: (d={w1.d}, n={w1.n}) vs (d={w2.d}, n={w2.n})")


def multiply(w1: PauliWord, w2: PauliWord) -> PauliWord:
    """Normal-form product; reordering costs omega^{sum_v z1[v] x2[v]}."""
    _check_same_space(w1, w2)
    phase = w1.phase_exp + w2.phase_exp + int(np.dot(w1.z_exp, w2.x_exp))
    return PauliWord(w1.d, w1.x_exp + w2.x_exp, w1.z_exp + w2.z_exp, phase)


def power(w: PauliWord, k: int) -> PauliWord:
    """k-th power via the closed form omega^{k p + k(k-1)/2 z.x} X^{kx} Z^{kz}."""
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
    cross = int(np.dot(w.z_exp, w.x_exp))
    phase = k * w.phase_exp + (k * (k - 1) // 2) * cross
    return PauliWord(w.d, k * w.x_exp, k * w.z_exp, phase)


def dagger(w: PauliWord) -> PauliWord:
    """Inverse word (equals the adjoint, since words are unitary)."""
    cross = int(np.dot(w.z_exp, w.x_exp))
    return PauliWord(w.d, -w.x_exp, -w.z_exp, -w.phase_exp + cross)


def commutation_phase(w1: PauliWord, w2: PauliWord) -> int:
    """c with w1 w2 = omega^c w2 w1; zero means the words commute."""
    _check_same_space(w1, w2)
    c = int(np.dot(w1.z_exp, w2.x_exp)) - int(np.dot(w1.x_exp, w2.z_exp))
    return c % w1.d


def vertex_stabilizer(g: WeightedGraph, v: int) -> PauliWord:
    """X_v times prod_u Z_u^{adj[u][v]}: the word fixing the graph state of g."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range for n={g.n}")
    x = np.zeros(g.n, dtype=np.int64)
    x[v] = 1
    return PauliWord(g.d, x, g.adj[:, v])


def stabilizer_product(g: WeightedGraph, vertices) -> PauliWord:
    """Product of vertex stabilizers in ascending vertex order.

    Over the full vertex set this equals omega^W X_V prod_v Z_v^{D_v} with W
    the total weight and D_v the degrees; on a GHZ graph the Z part vanishes
    and the phase is d/2, i.e. the product is -X_V.
    """
    word = PauliWord.identity(g.d, g.n)
    for v in _vertex_subset(g, vertices):
        word = multiply(word, vertex_stabilizer(g, v))
    return word


def to_matrix(w: PauliWord) -> np.ndarray:
    """Dense complex matrix: column s carries omega^{p + z.s} at row s + x."""
    dim = search_size("dense matrix", w.d, w.n, DENSE_CAP)
    digits = counter_digits(np.arange(dim), w.n, w.d)
    rows = w.d ** np.arange(w.n - 1, -1, -1) @ ((digits + w.x_exp[:, None]) % w.d)
    phases = (w.phase_exp + w.z_exp @ digits) % w.d
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, np.arange(dim)] = np.exp(2j * np.pi * phases / w.d)
    return mat


def _axis_range(d: int, n: int, v: int) -> np.ndarray:
    return np.arange(d, dtype=np.int64).reshape((1,) * v + (d,) + (1,) * (n - v - 1))


def word_action(w: PauliWord) -> tuple[np.ndarray, np.ndarray]:
    """Exact monomial action w|s> = omega^{phase[s]} |index[s]> over the basis.

    s runs in counter order (qudit 0 most significant); index[s] is the
    position of s + x and phase[s] = p + z.s mod d.  These are the d^n
    nonzero entries of ``to_matrix(w)``, computed by a separate route (a
    roll of the index grid and broadcast phases) so each checks the other.
    The two arrays hold d^n entries each, at most ``STATE_CAP``.
    """
    dim = search_size("word action", w.d, w.n, STATE_CAP)
    shape = (w.d,) * w.n
    index = np.arange(dim).reshape(shape)
    if w.x_exp.any():
        # roll by -x puts the entry at s + x into position s
        index = np.roll(index, [-int(x) for x in w.x_exp], axis=tuple(range(w.n)))
    phase = np.full(shape, w.phase_exp, dtype=np.int64)
    for v, z in enumerate(w.z_exp):
        if z:
            phase = phase + int(z) * _axis_range(w.d, w.n, v)
    return index.reshape(-1), phase.reshape(-1) % w.d


def product_action(words) -> tuple[np.ndarray, np.ndarray]:
    """Exact monomial action of the product words[0] words[1] ... words[-1].

    The factors act right to left; each one gathers the running index and
    adds its phases there, mod d, so the product is formed without
    ``multiply`` and can check it.
    """
    words = list(words)
    if not words:
        raise ValueError("need at least one word")
    for w in words[1:]:
        _check_same_space(words[0], w)
    index, phase = word_action(words[-1])
    for w in reversed(words[:-1]):
        w_index, w_phase = word_action(w)
        index, phase = w_index[index], (phase + w_phase[index]) % w.d
    return index, phase


def render_word(w: PauliWord, dagger_x: bool = False) -> str:
    """One token per qudit in operator-table style, e.g. "X Z^3 Z Z^0".

    With dagger_x an X exponent of d-1 prints as X^† (the inverted final row
    of a paradox table); identity sites print as Z^0 to keep columns aligned.
    """
    tokens = []
    for x, z in zip(w.x_exp.tolist(), w.z_exp.tolist()):
        part = ""
        if x:
            if dagger_x and w.d > 2 and x == w.d - 1:
                part += "X^†"
            elif x == 1:
                part += "X"
            else:
                part += f"X^{x}"
        if z:
            part += "Z" if z == 1 else f"Z^{z}"
        tokens.append(part or "Z^0")
    text = " ".join(tokens)
    if w.phase_exp:
        prefix = "-" if 2 * w.phase_exp == w.d else f"ω^{w.phase_exp}·"
        text = prefix + text
    return text
