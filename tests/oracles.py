"""Reference routes that only the tests call.

Each function here is a second route for a job the package does one way:
word products and powers one word at a time, one word's action, dense
vectors and projectors, plain degree sums, and edits of a paradox system.
The tests compare the package's production routes against them.
"""

import numpy as np

from ghzgraphs._search import search_size
from ghzgraphs.defaults import DENSE_CAP
from ghzgraphs.graphs import WeightedGraph
from ghzgraphs.paradox import ParadoxSystem
from ghzgraphs.pauli import PauliWord, _action_stacks, _composed_actions, _word_stack, to_matrix, vertex_stabilizer
from ghzgraphs.states import PhaseState, _check_word_state


def identity(d: int, n: int) -> PauliWord:
    return PauliWord(d, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


def single_x(d: int, n: int, v: int) -> PauliWord:
    x = np.zeros(n, dtype=np.int64)
    x[v] = 1
    return PauliWord(d, x, np.zeros(n, dtype=np.int64))


def single_z(d: int, n: int, v: int, exponent: int = 1) -> PauliWord:
    z = np.zeros(n, dtype=np.int64)
    z[v] = exponent
    return PauliWord(d, np.zeros(n, dtype=np.int64), z)


def is_identity(w: PauliWord) -> bool:
    return w.phase_exp == 0 and not w.x_exp.any() and not w.z_exp.any()


def _check_same_space(w1: PauliWord, w2: PauliWord) -> None:
    if w1.d != w2.d or w1.n != w2.n:
        raise ValueError(f"dimension mismatch: (d={w1.d}, n={w1.n}) vs (d={w2.d}, n={w2.n})")


def _dot(a: np.ndarray, b: np.ndarray) -> int:
    """a.b in Python ints, exact where an int64 dot wraps at a wide d."""
    return sum(s * t for s, t in zip(a.tolist(), b.tolist()))


def multiply(w1: PauliWord, w2: PauliWord) -> PauliWord:
    """Normal-form product; reordering costs omega^{sum_v z1[v] x2[v]}."""
    _check_same_space(w1, w2)
    phase = w1.phase_exp + w2.phase_exp + _dot(w1.z_exp, w2.x_exp)
    return PauliWord(w1.d, w1.x_exp + w2.x_exp, w1.z_exp + w2.z_exp, phase)


def power(w: PauliWord, k: int) -> PauliWord:
    """k-th power via the closed form omega^{k p + k(k-1)/2 z.x} X^{kx} Z^{kz}."""
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
    cross = _dot(w.z_exp, w.x_exp)
    phase = k * w.phase_exp + (k * (k - 1) // 2) * cross
    return PauliWord(w.d, k * w.x_exp, k * w.z_exp, phase)


def commutation_phase(w1: PauliWord, w2: PauliWord) -> int:
    """c with w1 w2 = omega^c w2 w1; zero means the words commute."""
    _check_same_space(w1, w2)
    c = _dot(w1.z_exp, w2.x_exp) - _dot(w1.x_exp, w2.z_exp)
    return c % w1.d


def _entry_word(d: int, n: int, entry: tuple) -> PauliWord:
    """The n-qudit word of a ``_sparse_product`` entry."""
    cols, x, z, p = entry
    x_exp = np.zeros(n, dtype=np.int64)
    z_exp = np.zeros(n, dtype=np.int64)
    x_exp[cols] = x
    z_exp[cols] = z
    return PauliWord(d, x_exp, z_exp, p)


def word_action(w: PauliWord) -> tuple[np.ndarray, np.ndarray]:
    """Exact monomial action w|s> = omega^{phase[s]} |index[s]> over the basis.

    s runs in counter order (qudit 0 most significant); index[s] is the
    position of s + x and phase[s] = p + z.s mod d.  These are the d^n
    nonzero entries of ``to_matrix(w)``, built as a stack of one by
    ``_action_stacks`` (one broadcast step per qudit), while ``to_matrix``
    decodes counter digits, so each route checks the other.
    The two arrays hold d^n entries each, at most ``STATE_CAP``.
    """
    index, phase = next(_action_stacks(w.d, _word_stack([w])))
    return index[0], phase[0] % w.d


def product_action(words):
    """Exact action of words[0] words[1] ... words[-1], composed by gathers with phases reduced."""
    [(index, phase)] = _composed_actions(words[0].d, _word_stack(words), [len(words)])
    return index, phase % words[0].d


def apply_word(w: PauliWord, state: PhaseState) -> PhaseState:
    """Action of a Weyl word: w|s> = omega^{p + z.s} |s + x>, reindexed exactly."""
    _check_word_state(w, state)
    index, phase = word_action(w)
    out = np.empty_like(state.exponents)
    out[index] = state.exponents + phase
    return PhaseState(state.d, state.n, out)


def to_dense(state: PhaseState) -> np.ndarray:
    """Unit-norm complex vector with entries omega^{e(s)} d^{-n/2}."""
    search_size("dense vector", state.d, state.n, DENSE_CAP)
    return np.exp(2j * np.pi * state.exponents / state.d) / state.d ** (state.n / 2)


def joint_plus_one_dimension(g: WeightedGraph) -> int:
    """Dimension of the common +1 eigenspace of all vertex stabilizer matrices.

    The stabilizers commute and each has order d, so averaging the powers of
    each gives commuting projectors whose product projects onto the joint
    eigenspace; its trace is the dimension.
    """
    dim = search_size("dense projector", g.d, g.n, DENSE_CAP)
    proj = np.eye(dim, dtype=complex)
    for v in range(g.n):
        word = vertex_stabilizer(g, v)
        avg = sum(to_matrix(power(word, k)) for k in range(g.d)) / g.d
        proj = proj @ avg
    return int(round(float(proj.trace().real)))


def degree(g: WeightedGraph, v: int) -> int:
    """Un-reduced degree of v: the plain integer sum of its incident weights."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range for n={g.n}")
    return int(g.adj[:, v].sum(dtype=np.int64))


def satisfied_rows(system: ParadoxSystem, assignment) -> np.ndarray:
    """Boolean vector: which rows the assignment (a..., b...) satisfies."""
    vec = np.array(assignment, dtype=np.int64)
    if vec.shape != (system.num_vars,):
        raise ValueError(f"assignment must have {system.num_vars} entries")
    return (system.coeffs @ vec) % system.d == system.rhs


def with_final_rhs(system: ParadoxSystem, value: int) -> ParadoxSystem:
    """Copy with the final right side replaced (control experiments)."""
    rhs = system.rhs.copy()
    rhs[-1] = value
    return ParadoxSystem(system.d, system.n, system.coeffs, rhs)
