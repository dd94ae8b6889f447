"""Weyl (generalized Pauli) words with exact Z_d phase bookkeeping.

A word is omega^p * prod_v X_v^{x_v} Z_v^{z_v} with omega = exp(2 pi i / d),
all exponents in Z_d, and the X factor left of the Z factor on every qudit.
Multiplication only ever moves a Z block past an X block, which costs
omega^{z.x}, so everything stays integer until a dense matrix is requested.
A product of words is reduced by ``_sparse_product`` from its factors'
support entries, keeping a running Z sum instead of a word per partial
product.
The oracles carry many words as one stack of integer arrays: x (k, n),
z (k, n) and phase (k,), row i being word i, so a word's power and action
are formed for the whole stack at once.
A word's action on the computational basis is a monomial map, held exactly as
d^n integer pairs.  ``_action_stacks`` builds them for a stack of words,
qudit by qudit, broadcasting each qudit's shifted and phased digit over the
grid of the qudits after it.
``to_matrix`` builds the dense d^n x d^n matrix from counter digits instead
and serves as the tests' oracle, so the two routes check each other.
For even d the value -1 is omega^{d/2}; no separate sign is tracked.
"""

from __future__ import annotations

import numpy as np

from ._search import BLOCK, counter_digits, search_size
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
    def all_x(cls, d: int, n: int) -> "PauliWord":
        """The collective shift X_V."""
        return cls(d, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliWord):
            return NotImplemented
        return (self.d == other.d and self.n == other.n and self.phase_exp == other.phase_exp
                and np.array_equal(self.x_exp, other.x_exp) and np.array_equal(self.z_exp, other.z_exp))

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.phase_exp, self.x_exp.tobytes(), self.z_exp.tobytes()))

    def __repr__(self) -> str:
        return f"PauliWord(d={self.d}, {render_word(self)!r})"


def dagger(w: PauliWord) -> PauliWord:
    """Inverse word (equals the adjoint, since words are unitary): ``_dagger_entry``'s word form."""
    return PauliWord(w.d, *_dagger_entry(w.d, (None, w.x_exp, w.z_exp, w.phase_exp))[1:])


def vertex_stabilizer(g: WeightedGraph, v: int) -> PauliWord:
    """X_v times prod_u Z_u^{adj[u][v]}: the word fixing the graph state of g."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range for n={g.n}")
    x = np.zeros(g.n, dtype=np.int64)
    x[v] = 1
    return PauliWord(g.d, x, g.adj[:, v])


def _stabilizer_entry(g: WeightedGraph, v: int) -> tuple:
    """``vertex_stabilizer(g, v)`` as a ``_sparse_product`` entry: X on v and
    the weights of v's edges as Z on its neighbours (adj is symmetric, so the
    contiguous row v serves as column v), as int64 like every other exponent."""
    cols = np.append(np.flatnonzero(g.adj[v]), v)
    return cols, (cols == v).astype(np.int64), g.adj[v, cols].astype(np.int64), 0


def _stabilizer_stack(g: WeightedGraph, last_z) -> tuple:
    """The stack (x, z, phase) of the n vertex stabilizers
    ``vertex_stabilizer(g, v)``, then of X_V prod_v Z_v^last_z[v]."""
    n = g.n
    return (np.vstack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)]),
            np.vstack([g.adj.T, last_z], dtype=np.int64), np.zeros(n + 1, dtype=np.int64))


def _dagger_entry(d: int, entry: tuple) -> tuple:
    """The entry of the inverse of the entry's word, omega^{z.x - p} X^{-x} Z^{-z}: the package's one inverse
    formula.  z.x is summed in Python ints, exact at any d; x and z may be arrays or plain ints."""
    cols, x, z, p = entry
    return cols, -x % d, -z % d, (int(np.dot(np.asarray(z, dtype=object), np.asarray(x, dtype=object))) - p) % d


def _power_stack(d: int, stack, k) -> tuple:
    """The k-th power of every word of a stack by the closed form
    omega^(k p + k(k-1)/2 z.x) X^(kx) Z^(kz), reduced mod d; k is one
    exponent for every word or an array of one per word."""
    x, z, phase = stack
    k = np.asarray(k)
    cross = (z * x).sum(axis=1)
    return k[..., None] * x % d, k[..., None] * z % d, (k * phase + k * (k - 1) // 2 * cross) % d


def _identity_rows(stack) -> np.ndarray:
    """Whether each word of a stack reduced mod d is the identity."""
    x, z, phase = stack
    return ~(x.any(axis=1) | z.any(axis=1) | (phase != 0))


def _word_stack(words) -> tuple:
    """The stack (x, z, phase) of a list of words on one (d, n)."""
    return (np.array([w.x_exp for w in words]), np.array([w.z_exp for w in words]),
            np.array([w.phase_exp for w in words], dtype=np.int64))


def _entry_stack(d: int, n: int, entries) -> tuple:
    """The stack (x, z, phase) of the n-qudit words of ``_sparse_product`` entries."""
    entries = list(entries)
    x = np.zeros((len(entries), n), dtype=np.int64)
    z = np.zeros_like(x)
    for row, (cols, ex, ez, _) in enumerate(entries):
        x[row, cols] = ex
        z[row, cols] = ez
    return x, z, np.array([p for *_, p in entries], dtype=np.int64) % d


def _sparse_product(d: int, n: int, entries) -> tuple:
    """Normal form (x, z, phase) of the product w_1 w_2 ... w_k of n-qudit
    words over Z_d, all reduced mod d.

    Each factor comes as an entry (cols, x, z, p): its support columns (an
    index or an array of distinct indices), its X and Z exponents there, and
    its phase exponent.  Moving every Z block right past the later X blocks
    gives omega^(sum_i p_i + sum_{i<j} z_i.x_j) X^(sum x_i) Z^(sum z_i), so a
    running Z sum, read at each factor's columns before the factor is added,
    yields the cross terms; no word is built.  The sums are kept reduced
    mod d, so each int64 dot product is exact while n (d-1)^2 < 2^63.
    """
    x_sum = np.zeros(n, dtype=np.int64)
    z_sum = np.zeros(n, dtype=np.int64)
    phase = 0
    for cols, x, z, p in entries:
        phase += p + int(np.dot(z_sum[cols], x))
        x_sum[cols] = (x_sum[cols] + x) % d
        z_sum[cols] = (z_sum[cols] + z) % d
    return x_sum, z_sum, phase % d


def stabilizer_product(g: WeightedGraph, vertices) -> PauliWord:
    """Product of vertex stabilizers in ascending vertex order.

    Over the full vertex set this equals omega^W X_V prod_v Z_v^{D_v} with W
    the total weight and D_v the degrees; on a GHZ graph the Z part vanishes
    and the phase is d/2, i.e. the product is -X_V.
    """
    return PauliWord(g.d, *_sparse_product(g.d, g.n, (_stabilizer_entry(g, v) for v in _vertex_subset(g, vertices))))


def to_matrix(w: PauliWord) -> np.ndarray:
    """Dense complex matrix: column s carries omega^{p + z.s} at row s + x."""
    dim = search_size("dense matrix", w.d, w.n, DENSE_CAP)
    digits = counter_digits(np.arange(dim), w.n, w.d)
    rows = w.d ** np.arange(w.n - 1, -1, -1) @ ((digits + w.x_exp[:, None]) % w.d)
    phases = (w.phase_exp + w.z_exp @ digits) % w.d
    mat = np.zeros((dim, dim), dtype=complex)
    mat[rows, np.arange(dim)] = np.exp(2j * np.pi * phases / w.d)
    return mat


def _action_stacks(d: int, stack):
    """Exact monomial actions of a stack's words, in stacks of at most
    ``BLOCK`` entries.

    Yields (index, phase) pairs of shape (k, d^n) for consecutive runs of k
    words.  Row i is the action w|s> = omega^phase[s] |index[s]> of its word
    w over the basis, s in counter order (qudit 0 most significant): index[s]
    is the position of s + x, and phase[s] is left unreduced, congruent to
    p + z.s mod d and in [0, (n + 1) d).
    k d^n is at most ``BLOCK`` (2^15 entries, which stay in a core's L2
    cache), and a stack holds at least one word; ``STATE_CAP`` refuses a
    word whose d^n is larger.  The grids are built qudit by qudit from the
    least significant: the step for qudit v puts its digit t in front,
    adding the shifted position ((t + x_v) mod d) d^(n-1-v) to the index and
    z_v t mod d to the phase, broadcast over the grid of qudits v+1..n-1.
    A step costs the size of its result, its inner loops run over that grid
    rather than over the d digits, and nothing is rolled or decoded from
    counter digits.
    """
    x, z, phase = stack
    n = x.shape[1]
    dim = search_size("word action", d, n, STATE_CAP)
    t = np.arange(d, dtype=np.int64)
    strides = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    step = max(1, BLOCK // dim)
    for start in range(0, len(phase), step):
        stop = start + step
        k = len(phase[start:stop])
        shifted = (t + x[start:stop, :, None]) % d * strides[:, None]
        phased = z[start:stop, :, None] * t % d
        index = np.zeros((k, 1), dtype=np.int64)
        stack_phase = phase[start:stop, None] % d
        for v in reversed(range(n)):
            index = (shifted[:, v, :, None] + index[:, None, :]).reshape(k, -1)
            stack_phase = (phased[:, v, :, None] + stack_phase[:, None, :]).reshape(k, -1)
        yield index, stack_phase


def _composed_actions(d: int, stack, lengths) -> list:
    """Exact monomial actions of the products of consecutive runs of a
    stack's words.

    Product r is w_1 w_2 ... w_k over the next k = lengths[r] words (k >= 1),
    listed in product order.  Its factors act right to left, so the stack is
    walked from its end: each factor's action gathers the running index and
    adds its phases there.  Returns one (index, phase) pair per product, in
    order, the phases unreduced.
    """
    x, z, phase = stack
    runs = iter(reversed(lengths))
    left = 0
    actions = []
    for stack_index, stack_phase in _action_stacks(d, (x[::-1], z[::-1], phase[::-1])):
        for w_index, w_phase in zip(stack_index, stack_phase):
            if not left:
                left = next(runs)
                index, acc = w_index, w_phase
            else:
                index, acc = w_index[index], acc + w_phase[index]
            left -= 1
            if not left:
                actions.append((index, acc))
        del stack_index, stack_phase, w_index, w_phase  # free this stack before the next one is built
    return actions[::-1]


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
