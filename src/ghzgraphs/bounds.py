"""Bell and noncontextuality bounds with exact cross-checks.

All classical searches run over omega-exponents; cosines appear only when an
objective value is evaluated.  Every closed form ships with an independent
oracle so a reported bound is always checked two ways: classical bounds by
exhaustive scans, quantum values by exact integer Weyl-word actions (no dense
matrix and no eigensolver; the dense matrices are the tests' oracle).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._search import digit_chunks  # noqa: F401  unused; perfbench/spans.py patches this name when tracing
from ._search import BLOCK, lattice_max, scan_max, search_size
from .defaults import DENSE_CAP, SEARCH_CAP, TOLERANCE
from .errors import CapExceededError, InvariantError
from .graphs import WeightedGraph, require_ghz
from .pauli import (_composed_actions, _dagger_entry, _entry_stack, _identity_rows, _power_stack, _sparse_product,
                    _stabilizer_entry, _stabilizer_stack)
from .pauli import to_matrix  # noqa: F401  unused; perfbench/spans.py patches this name when tracing
from .states import _stack_exponents, build_state
from .states import eigenvalue_of  # noqa: F401  unused; perfbench/spans.py patches this name when tracing


@dataclass(frozen=True)
class ClassicalAssignment:
    """omega-exponent values for the shift and phase observables per site."""

    d: int
    a_exp: tuple[int, ...]
    b_exp: tuple[int, ...]

    def __post_init__(self):
        if len(self.a_exp) != len(self.b_exp):
            raise ValueError("a_exp and b_exp must have equal length")
        if any(not 0 <= t < self.d for t in self.a_exp + self.b_exp):
            raise ValueError(f"exponents must lie in [0, {self.d})")

    @property
    def n(self) -> int:
        return len(self.a_exp)


@dataclass(frozen=True)
class BoundReport:
    """A bound computation together with its cross-check trail."""

    kind: str
    classical_bound: float | None = None
    quantum_value: float | None = None
    witness: Any = None
    oracle_value: float | None = None
    oracle_agreement: bool | None = None  # None = oracle skipped
    notes: dict = field(default_factory=dict)


def _require_even(d: int, what: str) -> None:
    if d % 2:
        raise ValueError(f"{what} needs even d: the value set {{omega^t}} contains -1 only then (got d={d})")


def _flip_delta(d: int) -> np.ndarray:
    """delta(t) = [t = 0] - [t = d/2] over Z_d, the sum (2/d) sum_{k odd}
    cos(2 pi k t / d) that one Bell term contributes at exponent t."""
    t = np.arange(d)
    return (t == 0).astype(np.int64) - (t == d // 2)


def bell_classical_value(g: WeightedGraph, assignment: ClassicalAssignment) -> float:
    """Local-realistic value of the Bell expression for one assignment.

    The value is the Kronecker-delta form: +1 for each site relation
    holding, -1 when it lands on the flip value, reversed for the collective
    product.  While the defining odd-power cosine series, whose partial sums
    over each exponent collapse to those deltas, has at most ``SEARCH_CAP``
    terms ((n + 1) d/2), it is summed too, in blocks of at most ``BLOCK``
    terms, and must agree.  Above that the delta form is returned without
    the series check.
    """
    _require_even(g.d, "Bell expression")
    if assignment.d != g.d or assignment.n != g.n:
        raise ValueError("assignment does not match the graph dimensions")
    d, h = g.d, g.d // 2
    # a_v + (adj b)_v is below n (d-1)^2: int64 below 2^63, Python ints past it
    dtype = np.int64 if g.n * (d - 1) ** 2 < 2**63 else object
    a = np.array(assignment.a_exp, dtype=dtype)
    b = np.array(assignment.b_exp, dtype=dtype)
    site_exp = (a + g.adj.astype(dtype) @ b) % d
    coll_exp = int(a.sum() % d)

    value = float((coll_exp == h) - (coll_exp == 0)
                  + sum(int(e == 0) - int(e == h) for e in site_exp))

    exps = np.append(site_exp, coll_exp)
    if exps.size * h > SEARCH_CAP:
        return value
    signs = np.append(np.ones(g.n), -1.0)
    step = max(1, BLOCK // exps.size)
    series = 0.0
    for start in range(0, h, step):
        # k e reduced mod d, exact in int64 while d is within the cap, keeps each angle below 2 pi
        odd = np.arange(2 * start + 1, 2 * min(start + step, h), 2)
        series += float(np.cos(2 * math.pi / d * (odd[:, None] * exps % d)).sum(axis=0) @ signs)
    series *= 2 / d
    if abs(series - value) > TOLERANCE:
        raise InvariantError(f"delta form {value} and cosine series {series} disagree")
    return value


def bell_classical_max(g: WeightedGraph, cap: int = SEARCH_CAP) -> BoundReport:
    """Exhaustive maximum of the Bell expression over classical assignments.

    The witness is the lowest assignment in base-d counter order over
    (a_1..a_n, b_1..b_n) attaining the maximum.
    """
    _require_even(g.d, "Bell expression")
    d, n = g.d, g.n
    space = search_size("Bell search", d, 2 * n, cap)
    # rows over (a, b): the n site rows a_v + (adj b)_v, then the collective
    # row sum(a), whose table enters negated
    forms = np.vstack([np.hstack([np.eye(n, dtype=np.int64), g.adj], dtype=np.int64), np.repeat([1, 0], n)])
    delta = _flip_delta(d)
    best, witness = scan_max(forms, [delta] * n + [-delta], d)
    return BoundReport(
        kind="bell_classical",
        classical_bound=float(best),
        witness={"a_exp": list(witness[:n]), "b_exp": list(witness[n:])},
        notes={"searched": space},
    )


def _bell_terms(g: WeightedGraph) -> tuple:
    """The Bell operator's term words as one stack: every odd power 1, 3, ...
    below d of each vertex stabilizer X_v prod_u Z_u^adj[u][v], then of X_V,
    built at once by ``_power_stack``'s closed form."""
    d, n = g.d, g.n
    bases = _stabilizer_stack(g, np.zeros(n, dtype=np.int64))
    powers = np.arange(1, d, 2)
    return _power_stack(d, [np.repeat(a, powers.size, axis=0) for a in bases], np.tile(powers, n + 1))


def bell_quantum(g: WeightedGraph) -> BoundReport:
    """Graph-state value n + 1 and local-realistic bound n - 1 of the Bell
    operator with shift/phase settings.

    Value: the stabilizer product, reduced by ``_sparse_product`` from the
    stabilizers' support entries, is checked to be omega^(d/2) X_V, so each
    odd power of X_V flips the state every stabilizer power fixes, and each
    of the d/2 odd-power terms gives (2/d)(n + 1).  Bound: s_v = a_v + (adj b)_v
    ranges over Z_d^n and, every degree being 0 mod d, the collective
    exponent is sum(s).  With z zeros and t halves among the s_v the value is
    z - t + [sum(s) = d/2] - [sum(s) = 0].  z = n forces sum(s) = 0: n - 1.
    z = n - 1 with t = 0 leaves one site s not in {0, d/2}, so sum(s) = s is
    neither: n - 1.  Otherwise z - t <= n - 2: at most n - 1.  a = b = 0
    attains n - 1.

    When d^n <= DENSE_CAP an exact oracle checks the value without the word
    identity.  Its (n + 1) d/2 term words, every odd power of every
    stabilizer and of X_V, are built as one stack by ``_power_stack``,
    and measured on the exact state with one gather per stack of actions.
    Expectation: each term word's eigen-exponent e is worth delta(e) =
    [e = 0] - [e = d/2], summed as integers.  Hermiticity: w^d = I for every
    term word w, tested on the same stack, so each term's odd powers are
    closed under the adjoint; notes.hermiticity_defect counts the words
    failing it.  Spectral maximum:
    a term word w = omega^p X^x Z^z with w|G> = omega^e |G> has w Z^s|G> =
    omega^(e - x.s) Z^s|G>, and its d/2 odd powers weigh (2/d) sum_k
    omega^(k t) = delta(t) there.  On the basis Z^s|G>, s in Z_d^n, the
    operator is thus diagonal with eigenvalue sum_w sign_w delta(e_w - x_w.s),
    built from the measured exponents and scanned over Z_d^n; it must top
    out at n + 1, first reached at s = 0 (the graph state itself).
    """
    require_ghz(g, "Bell operator expectation")
    d, n = g.d, g.n
    x, z, phase = _sparse_product(d, n, (_stabilizer_entry(g, v) for v in range(n)))
    if not (x == 1).all() or z.any() or phase != d // 2:
        raise InvariantError("the stabilizer product is not the flipped collective shift")
    value = float(n + 1)

    oracle_value = None
    agreement = None
    notes = {}
    if d**n <= DENSE_CAP:
        psi = build_state(g)
        delta = _flip_delta(d)
        h = d // 2
        terms = _bell_terms(g)
        non_hermitian = int((~_identity_rows(_power_stack(d, terms, d))).sum())
        exps = _stack_exponents(terms, psi)
        spectral_max = None
        agreement = False
        if all(e in (0, h) for e in exps):
            signs = np.array([1] * n + [-1])
            term_exps = np.array(exps).reshape(n + 1, h)
            oracle_value = 2 * int(signs @ delta[term_exps].sum(axis=1)) / d
            # row x.s of the scan per term; its table is the term's eigenvalue on Z^s|G>
            tables = signs[:, None] * delta[(term_exps[:, :1] - np.arange(d)) % d]
            # the k = 1 term words are the bases, whose x rows the scan reads
            best, witness = scan_max(terms[0][::h], list(tables), d)
            spectral_max = float(best)
            agreement = (non_hermitian == 0 and oracle_value == value
                         and spectral_max == value and not any(witness))
        notes = {"hermiticity_defect": float(non_hermitian), "spectral_max": spectral_max}
    return BoundReport(
        kind="bell_quantum",
        classical_bound=float(n - 1),
        quantum_value=value,
        oracle_value=oracle_value,
        oracle_agreement=agreement,
        notes=notes,
    )


def cosine_objective(angles) -> float:
    """sum_i cos(x_i) - cos(sum_i x_i) for real angles."""
    arr = np.asarray(angles, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one angle")
    return float(np.cos(arr).sum() - math.cos(float(arr.sum())))


def lattice_bound_closed(n: int, d: int) -> float:
    """Closed-form maximum of the cosine objective over n variables on the
    lattice of multiples of 2 pi / d.

    With lam = d / (2 (n+1)) the per-variable optimum sits between the two
    lattice angles bracketing lam, interpolated linearly in the count of
    ceiling components.  Two algebraic reductions are re-derived as guards:
    for n >= d/2 the value is n + 1 - d sin^2(pi/d), and for integer lam it
    is (n+1) cos(pi/(n+1)).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if d < 2 or d % 2:
        raise ValueError(f"closed form needs even d >= 2, got {d}")
    theta = 2 * math.pi / d
    lam = d / (2 * (n + 1))
    lo = math.floor(lam)
    hi = math.ceil(lam)
    value = (n + 1) * ((lam - lo) * math.cos(hi * theta) + (1 + lo - lam) * math.cos(lo * theta))
    if n >= d // 2:
        plateau = n + 1 - d * math.sin(math.pi / d) ** 2
        if abs(plateau - value) > TOLERANCE:
            raise InvariantError(f"plateau reduction {plateau} disagrees with the general form {value}")
    if d % (2 * (n + 1)) == 0:
        aligned = (n + 1) * math.cos(math.pi / (n + 1))
        if abs(aligned - value) > TOLERANCE:
            raise InvariantError(f"aligned-lattice reduction {aligned} disagrees with the general form {value}")
    return value


def lattice_bound_brute(n: int, d: int, cap: int = SEARCH_CAP) -> BoundReport:
    """Exhaustive maximum of the cosine objective over the lattice.

    Exponent t stands for the angle 2 pi t / d; the witness is the lowest
    exponent tuple in counter order attaining the maximum.  The search runs
    over sorted exponent tuples and their arrangements (_search.lattice_max)
    and returns the maximum and witness of a scan of all d^n points.  At
    n = 1 the objective is cos x - cos x, 0.0 at every point, so the
    maximum is 0.0 at exponent 0 and no table is built.  For even d the
    closed form is attached as the oracle.
    """
    if n < 1 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got (n={n}, d={d})")
    space = search_size("lattice scan", d, n, cap)
    theta = 2 * math.pi / d
    best, witness = lattice_max(np.cos(theta * np.arange(d)), n, d) if n > 1 else (0.0, (0,))
    closed = lattice_bound_closed(n, d) if d % 2 == 0 else None
    return BoundReport(
        kind="lattice_brute",
        classical_bound=best,
        witness={"exponents": list(witness), "angles": [t * theta for t in witness]},
        oracle_value=closed,
        oracle_agreement=None if closed is None else abs(best - closed) <= TOLERANCE,
        notes={"searched": space},
    )


@dataclass(frozen=True)
class SweepResult:
    """Objective profile over the mixed floor/ceil lattice vectors.

    values[m] is the objective with m ceiling components and n - m floor
    components; scaled_diffs[m] = (values[m+1] - values[m]) / (2 sin(theta/2))
    changes sign at peak_index = d/2 - (n+1) floor(lam) when d/2 > n.
    """

    n: int
    d: int
    lam: float
    values: tuple[float, ...]
    scaled_diffs: tuple[float, ...]
    peak_index: int
    max_value: float


def _sweep_values(n: int, d: int):
    """``lattice_bound_sweep``'s values[m] for m = 0..n, lazily: the same float
    expressions, so their maximum needs no O(n) memory."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if d < 2 or d % 2:
        raise ValueError(f"sweep needs even d >= 2, got {d}")
    theta = 2 * math.pi / d
    lam = d / (2 * (n + 1))
    x_lo = math.floor(lam) * theta
    x_hi = math.ceil(lam) * theta
    return (m * math.cos(x_hi) + (n - m) * math.cos(x_lo) - math.cos(m * x_hi + (n - m) * x_lo)
            for m in range(n + 1))


def lattice_bound_sweep(n: int, d: int) -> SweepResult:
    """Maximize the objective over vectors mixing the floor and ceiling
    lattice angles around lam = d / (2 (n+1))."""
    values = tuple(_sweep_values(n, d))
    theta = 2 * math.pi / d
    lam = d / (2 * (n + 1))
    denom = 2 * math.sin(theta / 2)
    diffs = tuple((values[m + 1] - values[m]) / denom for m in range(n))
    peak_index = d // 2 - (n + 1) * math.floor(lam)
    return SweepResult(n=n, d=d, lam=lam, values=values, scaled_diffs=diffs,
                       peak_index=peak_index, max_value=max(values))


def _ks_direct_max(g: WeightedGraph) -> tuple[float, dict]:
    """Exhaustive noncontextual maximum of the contextuality expression.

    Every observable (each shift, each phase, each stabilizer, and the
    collective shift) gets an independent omega-exponent; the counter runs
    over (x_1..x_n, z_1..z_n, s_1..s_n, t).
    """
    d, n = g.d, g.n
    theta = 2 * math.pi / d
    table = np.cos(theta * np.arange(d))
    eye = np.eye(n, dtype=np.int64)
    # rows over (x, z, s, t): the n stabilizer rows x_v + (adj z)_v - s_v, the
    # shift row sum(x) - t, then the product row sum(s) - t, which enters negated
    forms = np.vstack([np.hstack([eye, g.adj, -eye, np.zeros((n, 1), dtype=np.int64)], dtype=np.int64),
                       np.repeat([1, 0, 0, -1], [n, n, n, 1]),
                       np.repeat([0, 0, 1, -1], [n, n, n, 1])])
    best, col = scan_max(forms, [table] * (n + 1) + [-table], d)
    witness = {
        "x_exp": list(col[:n]),
        "z_exp": list(col[n:2 * n]),
        "stabilizer_exp": list(col[2 * n:3 * n]),
        "collective_exp": col[3 * n],
    }
    return best, witness


def ks_classical_max(g: WeightedGraph, cap: int = SEARCH_CAP) -> BoundReport:
    """Noncontextual bound of the contextuality expression.

    Substituting y_v = x_v + sum_u adj[u][v] z_u - s_v for the stabilizer
    rows and y_0 = sum_v x_v - t for the shift row turns the expression into
    the cosine objective on n+1 free lattice variables (the degree sums
    vanish mod d), so the bound is the closed-form lattice maximum.  Within
    cap a direct scan over independent assignments confirms the reduction.
    notes["direct_space"] is the scan's size d^(3n+1): an int within cap,
    the string "d^k" beyond it.
    """
    require_ghz(g, "contextuality bound")
    d, n = g.d, g.n
    bound = lattice_bound_closed(n + 1, d)
    oracle_value = None
    agreement = None
    witness = None
    try:
        space = search_size("KS direct scan", d, 3 * n + 1, cap)
    except CapExceededError:
        space = f"{d}^{3 * n + 1}"  # over cap the size is written as in cap messages
    else:
        oracle_value, witness = _ks_direct_max(g)
        agreement = abs(oracle_value - bound) <= TOLERANCE
    return BoundReport(
        kind="ks_classical",
        classical_bound=bound,
        witness=witness,
        oracle_value=oracle_value,
        oracle_agreement=agreement,
        notes={"direct_space": space, "lattice_variables": n + 1},
    )


def _ks_rows(g: WeightedGraph):
    """(name, factors of the row operator in product order as ``_sparse_product``
    entries, expected phase) of each operator row of the contextuality
    expression, one row at a time.

    The shift and product rows' entries are made as they are multiplied, so
    only a few are alive at once.
    """
    d, n = g.d, g.n
    coll_dagger = (np.arange(n), np.full(n, d - 1), np.zeros(n, dtype=np.int64), 0)  # X_V^dagger = X_V^(d-1)
    yield "shift_row", itertools.chain([coll_dagger], ((v, 1, 0, 0) for v in range(n))), 0
    for v in range(n):
        cols, _, z, _ = entry = _stabilizer_entry(g, v)
        local = [(v, 1, 0, 0)] + [(u, 0, w, 0) for u, w in zip(cols[:-1].tolist(), z[:-1].tolist())]
        yield f"stabilizer_row_{v}", [_dagger_entry(d, entry)] + local, 0
    yield "product_row", itertools.chain([coll_dagger], (_stabilizer_entry(g, v) for v in range(n))), d // 2


def ks_quantum(g: WeightedGraph) -> BoundReport:
    """State-independent quantum value of the contextuality expression.

    Each of the n+2 operator rows reduces symbolically to a pure phase: the
    shift row and every stabilizer row to the identity, the product row to
    the flip -1 (entering negated).  Each hermitized row then contributes
    exactly +1 on any state, so the value is n+2.  Each row is reduced by
    ``_sparse_product`` from its factors' support entries (``_ks_rows``),
    and its reduced sums are read directly.  When d^n <= DENSE_CAP every
    row's factors are put into one stack, and each row is composed again,
    right to left over its own slice of the stack, as exact monomial
    actions on the basis, with no word formed; each product must be the
    identity permutation carrying the expected phase on every basis state.
    Above DENSE_CAP the rows are made one at a time as they are reduced, so
    that only one row's entries are alive at once.
    """
    require_ghz(g, "contextuality value")
    d, n = g.d, g.n
    dim = d**n
    dense = dim <= DENSE_CAP
    word_checks = {}
    table = _ks_rows(g)
    if dense:
        table = [(name, list(factors), expected_phase) for name, factors, expected_phase in table]
        stack = _entry_stack(d, n, [f for _, factors, _ in table for f in factors])
        actions = _composed_actions(d, stack, [len(factors) for _, factors, _ in table])
        delta = _flip_delta(d)
        identity = np.arange(dim)
        total, exact = 0, True
        for (name, _, expected_phase), (index, phase) in zip(table, actions):
            phase %= d
            exact &= bool(np.array_equal(index, identity) and (phase == expected_phase).all())
            # a hermitized pure phase omega^c is cos(2 pi c / d) times I; c is 0 or d/2 here
            sign = -1 if name == "product_row" else 1
            total += sign * int(delta[phase[0]])
    for name, factors, expected_phase in table:
        x, z, phase = _sparse_product(d, n, factors)
        word_checks[name] = not x.any() and not z.any() and phase == expected_phase
    if not all(word_checks.values()):
        raise InvariantError(f"operator rows failed to reduce to pure phases: {word_checks}")

    value = float(n + 2)
    oracle_value = float(total) if dense else None
    agreement = exact and oracle_value == value if dense else None
    bound = lattice_bound_closed(n + 1, d)
    return BoundReport(
        kind="ks_quantum",
        classical_bound=bound,
        quantum_value=value,
        oracle_value=oracle_value,
        oracle_agreement=agreement,
        notes={"word_checks": word_checks, "margin": value - bound},
    )
