"""Bell and noncontextuality bounds with brute-force cross-checks.

All classical searches run over omega-exponents; cosines appear only when an
objective value is evaluated.  Every closed form ships with an independent
exhaustive oracle so a reported bound is always checked two ways.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._search import digit_chunks  # noqa: F401  unused; perfbench/spans.py patches this name when tracing
from ._search import scan_max
from .defaults import DENSE_CAP, SEARCH_CAP, STATE_CAP, TOLERANCE
from .errors import CapExceededError
from .graphs import WeightedGraph, require_ghz
from .pauli import PauliWord, dagger, multiply, power, to_matrix, vertex_stabilizer
from .states import build_state, eigenvalue_of, to_dense


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
    elapsed: float = 0.0

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "kind": self.kind,
            "classical_bound": self.classical_bound,
            "quantum_value": self.quantum_value,
            "witness": self.witness,
            "oracle_value": self.oracle_value,
            "oracle_agreement": "skipped" if self.oracle_agreement is None else self.oracle_agreement,
            "notes": self.notes,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


def _require_even(d: int, what: str) -> None:
    if d % 2:
        raise ValueError(f"{what} needs even d: the value set {{omega^t}} contains -1 only then (got d={d})")


def bell_classical_value(g: WeightedGraph, assignment: ClassicalAssignment,
                         tolerance: float = TOLERANCE) -> float:
    """Local-realistic value of the Bell expression for one assignment.

    Both forms are evaluated and must agree: the Kronecker-delta form
    (+1 for each site relation holding, -1 when it lands on the flip value,
    reversed for the collective product) and the defining odd-power cosine
    series, whose partial sums over each exponent collapse to those deltas.
    """
    _require_even(g.d, "Bell expression")
    if assignment.d != g.d or assignment.n != g.n:
        raise ValueError("assignment does not match the graph dimensions")
    d, h = g.d, g.d // 2
    a = np.array(assignment.a_exp, dtype=np.int64)
    b = np.array(assignment.b_exp, dtype=np.int64)
    site_exp = (a + g.adj @ b) % d
    coll_exp = int(a.sum() % d)

    value = float((coll_exp == h) - (coll_exp == 0)
                  + sum(int(e == 0) - int(e == h) for e in site_exp))

    theta = 2 * math.pi / d
    series = 0.0
    for k in range(1, d, 2):
        series += (2 / d) * (sum(math.cos(k * theta * int(e)) for e in site_exp)
                             - math.cos(k * theta * coll_exp))
    if abs(series - value) > tolerance:
        raise RuntimeError(f"delta form {value} and cosine series {series} disagree")
    return value


def bell_classical_max(g: WeightedGraph, cap: int = SEARCH_CAP) -> BoundReport:
    """Exhaustive maximum of the Bell expression over classical assignments.

    The witness is the lowest assignment in base-d counter order over
    (a_1..a_n, b_1..b_n) attaining the maximum.
    """
    _require_even(g.d, "Bell expression")
    start = time.perf_counter()
    d, n, h = g.d, g.n, g.d // 2
    space = d ** (2 * n)
    if space > cap:
        raise CapExceededError(f"Bell search needs {space} = {d}^{2 * n} assignments, cap is {cap}")
    # rows over (a, b): the n site rows a_v + (adj b)_v, then the collective
    # row sum(a), whose table enters negated
    forms = np.vstack([np.hstack([np.eye(n, dtype=np.int64), g.adj]), np.repeat([1, 0], n)])
    site = (np.arange(d) == 0).astype(np.int64) - (np.arange(d) == h)
    best, witness = scan_max(forms, [site] * n + [-site], d)
    return BoundReport(
        kind="bell_classical",
        classical_bound=float(best),
        witness={"a_exp": list(witness[:n]), "b_exp": list(witness[n:])},
        notes={"searched": space},
        elapsed=time.perf_counter() - start,
    )


def bell_quantum(g: WeightedGraph, dense_cap: int = DENSE_CAP, state_cap: int = STATE_CAP,
                 tolerance: float = TOLERANCE) -> BoundReport:
    """Graph-state value of the Bell operator with shift/phase settings.

    The symbolic path reads each term's eigen-exponent off the exact state
    (every stabilizer power fixes it, every collective-shift power flips it),
    giving n+1.  Within the dense cap the operator matrix is rebuilt to check
    hermiticity, the expectation, and that the spectral maximum does not
    exceed n+1.
    """
    require_ghz(g, "Bell operator expectation")
    start = time.perf_counter()
    d, n = g.d, g.n
    theta = 2 * math.pi / d
    psi = build_state(g, state_cap=state_cap)
    stabs = [vertex_stabilizer(g, v) for v in range(n)]
    coll = PauliWord.all_x(d, n)

    value = 0.0
    for k in range(1, d, 2):
        for stab in stabs:
            e = eigenvalue_of(power(stab, k), psi)
            if e is None:
                raise RuntimeError("graph state is not an eigenstate of a stabilizer power")
            value += (2 / d) * math.cos(theta * e)
        e = eigenvalue_of(power(coll, k), psi)
        if e is None:
            raise RuntimeError("graph state is not an eigenstate of the collective shift power")
        value -= (2 / d) * math.cos(theta * e)

    oracle_value = None
    agreement = None
    notes = {}
    dim = d**n
    if dim <= dense_cap:
        bell = np.zeros((dim, dim), dtype=complex)
        for k in range(1, d, 2):
            term = sum(to_matrix(power(stab, k), dense_cap=dense_cap) for stab in stabs)
            term = term - to_matrix(power(coll, k), dense_cap=dense_cap)
            bell += (2 / d) * term
        herm_defect = float(np.abs(bell - bell.conj().T).max())
        vec = to_dense(psi, dense_cap=dense_cap)
        expect = complex(vec.conj() @ (bell @ vec))
        spectral_max = float(np.linalg.eigvalsh((bell + bell.conj().T) / 2)[-1])
        oracle_value = float(expect.real)
        agreement = (abs(oracle_value - value) <= tolerance
                     and abs(expect.imag) <= tolerance
                     and herm_defect <= 1e-12
                     and spectral_max <= value + tolerance)
        notes = {"hermiticity_defect": herm_defect, "spectral_max": spectral_max}
    return BoundReport(
        kind="bell_quantum",
        classical_bound=float(n - 1),
        quantum_value=value,
        oracle_value=oracle_value,
        oracle_agreement=agreement,
        notes=notes,
        elapsed=time.perf_counter() - start,
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
        if abs(plateau - value) > 1e-9:
            raise RuntimeError(f"plateau reduction {plateau} disagrees with the general form {value}")
    if d % (2 * (n + 1)) == 0:
        aligned = (n + 1) * math.cos(math.pi / (n + 1))
        if abs(aligned - value) > 1e-9:
            raise RuntimeError(f"aligned-lattice reduction {aligned} disagrees with the general form {value}")
    return value


def lattice_bound_brute(n: int, d: int, cap: int = SEARCH_CAP) -> BoundReport:
    """Exhaustive maximum of the cosine objective over the lattice.

    Exponent t stands for the angle 2 pi t / d; the witness is the lowest
    exponent tuple in counter order attaining the maximum.  For even d the
    closed form is attached as the oracle.
    """
    if n < 1 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got (n={n}, d={d})")
    start = time.perf_counter()
    space = d**n
    if space > cap:
        raise CapExceededError(f"lattice scan needs {space} = {d}^{n} points, cap is {cap}")
    theta = 2 * math.pi / d
    table = np.cos(theta * np.arange(d))
    forms = np.vstack([np.eye(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    best, witness = scan_max(forms, [table] * n + [-table], d)
    closed = lattice_bound_closed(n, d) if d % 2 == 0 else None
    return BoundReport(
        kind="lattice_brute",
        classical_bound=best,
        witness={"exponents": list(witness), "angles": [t * theta for t in witness]},
        oracle_value=closed,
        oracle_agreement=None if closed is None else abs(best - closed) <= TOLERANCE,
        notes={"searched": space},
        elapsed=time.perf_counter() - start,
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
    argmax: int


def lattice_bound_sweep(n: int, d: int) -> SweepResult:
    """Maximize the objective over vectors mixing the floor and ceiling
    lattice angles around lam = d / (2 (n+1))."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if d < 2 or d % 2:
        raise ValueError(f"sweep needs even d >= 2, got {d}")
    theta = 2 * math.pi / d
    lam = d / (2 * (n + 1))
    x_lo = math.floor(lam) * theta
    x_hi = math.ceil(lam) * theta
    values = tuple(
        m * math.cos(x_hi) + (n - m) * math.cos(x_lo) - math.cos(m * x_hi + (n - m) * x_lo)
        for m in range(n + 1))
    denom = 2 * math.sin(theta / 2)
    diffs = tuple((values[m + 1] - values[m]) / denom for m in range(n))
    peak_index = d // 2 - (n + 1) * math.floor(lam)
    argmax = max(range(n + 1), key=lambda m: values[m])
    return SweepResult(n=n, d=d, lam=lam, values=values, scaled_diffs=diffs,
                       peak_index=peak_index, max_value=max(values), argmax=argmax)


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
    forms = np.vstack([np.hstack([eye, g.adj, -eye, np.zeros((n, 1), dtype=np.int64)]),
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


def ks_classical_max(g: WeightedGraph, cap: int = SEARCH_CAP, tolerance: float = TOLERANCE) -> BoundReport:
    """Noncontextual bound of the contextuality expression.

    Substituting y_v = x_v + sum_u adj[u][v] z_u - s_v for the stabilizer
    rows and y_0 = sum_v x_v - t for the shift row turns the expression into
    the cosine objective on n+1 free lattice variables (the degree sums
    vanish mod d), so the bound is the closed-form lattice maximum.  Within
    cap a direct scan over independent assignments confirms the reduction.
    """
    require_ghz(g, "contextuality bound")
    start = time.perf_counter()
    d, n = g.d, g.n
    bound = lattice_bound_closed(n + 1, d)
    space = d ** (3 * n + 1)
    oracle_value = None
    agreement = None
    witness = None
    if space <= cap:
        oracle_value, witness = _ks_direct_max(g)
        agreement = abs(oracle_value - bound) <= tolerance
    return BoundReport(
        kind="ks_classical",
        classical_bound=bound,
        witness=witness,
        oracle_value=oracle_value,
        oracle_agreement=agreement,
        notes={"direct_space": space, "lattice_variables": n + 1},
        elapsed=time.perf_counter() - start,
    )


def ks_quantum(g: WeightedGraph, dense_cap: int = DENSE_CAP, tolerance: float = TOLERANCE) -> BoundReport:
    """State-independent quantum value of the contextuality expression.

    Each of the n+2 operator rows reduces symbolically to a pure phase: the
    shift row and every stabilizer row to the identity, the product row to
    the flip -1 (entering negated).  Each hermitized row then contributes
    exactly +1 on any state, so the value is n+2.  Within the dense cap every
    row matrix is compared against its phase times the identity.
    """
    require_ghz(g, "contextuality value")
    start = time.perf_counter()
    d, n = g.d, g.n
    coll = PauliWord.all_x(d, n)

    rows: list[tuple[str, PauliWord, int]] = []
    shift_product = PauliWord.identity(d, n)
    for v in range(n):
        shift_product = multiply(shift_product, PauliWord.single_x(d, n, v))
    rows.append(("shift_row", multiply(dagger(coll), shift_product), 0))
    for v in range(n):
        observable = PauliWord(d, np.eye(g.n, dtype=np.int64)[v], g.adj[:, v])
        rows.append((f"stabilizer_row_{v}", multiply(dagger(vertex_stabilizer(g, v)), observable), 0))
    stab_product = PauliWord.identity(d, n)
    for v in range(n):
        stab_product = multiply(stab_product, vertex_stabilizer(g, v))
    rows.append(("product_row", multiply(dagger(coll), stab_product), d // 2))

    word_checks = {}
    for name, word, expected_phase in rows:
        word_checks[name] = (not word.x_exp.any() and not word.z_exp.any()
                             and word.phase_exp == expected_phase)
    if not all(word_checks.values()):
        raise RuntimeError(f"operator rows failed to reduce to pure phases: {word_checks}")

    value = float(n + 2)
    oracle_value = None
    agreement = None
    dim = d**n
    if dim <= dense_cap:
        total = 0.0
        max_defect = 0.0
        for name, word, expected_phase in rows:
            mat = to_matrix(word, dense_cap=dense_cap)
            target = np.exp(2j * np.pi * expected_phase / d) * np.eye(dim)
            max_defect = max(max_defect, float(np.abs(mat - target).max()))
            sign = -1.0 if name == "product_row" else 1.0
            # hermitized row is a multiple of the identity; its level is trace/dim
            total += sign * float(np.real(np.trace(mat + mat.conj().T)) / (2 * dim))
        oracle_value = total
        agreement = max_defect <= 1e-12 and abs(total - value) <= tolerance
    return BoundReport(
        kind="ks_quantum",
        classical_bound=lattice_bound_closed(n + 1, d),
        quantum_value=value,
        oracle_value=oracle_value,
        oracle_agreement=agreement,
        notes={"word_checks": word_checks, "margin": value - lattice_bound_closed(n + 1, d)},
        elapsed=time.perf_counter() - start,
    )
