"""Z_d-weighted graphs and the structural tests behind qudit GHZ paradoxes.

A graph lives on vertices 0..n-1 as a symmetric adjacency matrix over
Z_d = {0, ..., d-1}; weight 0 means "no edge".  The central predicate is the
GHZ test: the graph is connected, every vertex degree is divisible by d, and
the total edge weight is not.  Such graphs exist only for even d, and their
graph states admit an all-versus-nothing nonlocality argument (see the
paradox module).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._search import BLOCK, digit_chunks, search_size
from .defaults import DENSE_CAP, SEARCH_CAP, SUBSET_CAP
from .errors import CapExceededError, GraphFormatError, NotGhzGraphError

#: hard limit for the brute-force canonical form (n! permutations)
ISO_DEDUP_MAX_VERTICES = 8


def _adj_dtype(d: int) -> np.dtype:
    """The narrowest signed integer type that holds d itself.

    Signed, so that sums upcast to int64 and mix with int64 as int64 (an
    unsigned sum is uint64, which mixes with int64 as float64); holding d,
    so that ``x % d`` and ``np.gcd(x, d)`` take the Python int d as a scalar
    of the array's own type (NEP 50 raises OverflowError otherwise).
    """
    if d < 2**7:
        return np.dtype(np.int8)
    if d < 2**15:
        return np.dtype(np.int16)
    if d < 2**31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class WeightedGraph:
    """Immutable Z_d-weighted simple graph.

    Weights are stored reduced into [0, d), in ``adj``, an n x n array of
    the narrowest signed type among int8, int16, int32 and int64 that holds
    d (int8 up to d = 127, int16 up to 32767, int32 up to 2^31 - 1).  Sums
    and products of weights are formed in int64 where they are used.  Integer
    input is reduced mod d in its own type (widened first when it is
    narrower) and then narrowed; any other input goes through int64 and
    must hold integers (integral floats are accepted, 1.7 raises
    ValueError).  The array is locked after construction so instances can
    be shared freely.
    """

    __slots__ = ("d", "n", "adj")

    def __init__(self, d: int, adj) -> None:
        d = int(d)
        if d < 2:
            raise ValueError(f"modulus must be at least 2, got d={d}")
        a = np.asarray(adj)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"adjacency must be a square matrix, got shape {a.shape}")
        dtype = _adj_dtype(d)
        if a.dtype.kind not in "iu":
            wide = np.array(adj, dtype=np.int64)  # from adj itself, so an int past int64 overflows
            if not np.array_equal(wide, a):
                raise ValueError("adjacency weights must be integers")
            a = wide
        if a.dtype.itemsize < dtype.itemsize:  # d may not fit a narrower type
            a = a.astype(dtype)
        a = (a % d).astype(dtype, copy=False)  # any other integer type holds d: reduce there, then narrow
        if not (a == a.T).all():
            raise ValueError("adjacency must be symmetric")
        if a.diagonal().any():
            raise ValueError("adjacency diagonal must be zero (no self-loops)")
        # bounds the int64 degree and weight sums, each below n^2 times the largest
        # weight; weights are below d, so only a wide d needs the weights read
        n2 = a.shape[0] ** 2
        if n2 * (d - 1) >= 2**63 and n2 * int(a.max()) >= 2**63:
            raise ValueError(f"n^2 times the largest weight must be below 2^63 so that int64 weight sums "
                             f"cannot wrap, got n={a.shape[0]} and a {int(a.max()).bit_length()}-bit weight")
        a.setflags(write=False)
        self.d = d
        self.n = int(a.shape[0])
        self.adj = a

    @classmethod
    def from_edges(cls, d: int, n: int, edges) -> "WeightedGraph":
        """Build from (u, v, w) triples; unnamed pairs get weight 0."""
        adj = np.zeros((n, n), dtype=_adj_dtype(d))
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            if w != int(w):
                raise ValueError(f"edge ({u}, {v}) has a non-integer weight {w!r}")
            adj[u, v] = adj[v, u] = int(w) % d
        return cls(d, adj)

    def weight(self, u: int, v: int) -> int:
        return int(self.adj[u, v])

    def edges(self) -> list[tuple[int, int, int]]:
        """Nonzero edges as (u, v, w) with u < v, in ascending order."""
        # the full matrix's nonzeros in row-major order, keeping u < v: no
        # second n x n array, and the same order as the upper triangle's
        us, vs = np.nonzero(self.adj)
        upper = us < vs
        us, vs = us[upper], vs[upper]
        return list(zip(us.tolist(), vs.tolist(), self.adj[us, vs].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.d == other.d and self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"WeightedGraph(d={self.d}, n={self.n}, edges={self.edges()})"


def total_weight(g: WeightedGraph) -> int:
    """Un-reduced sum of all edge weights (half the full double sum)."""
    return int(g.adj.sum(dtype=np.int64)) // 2


def is_connected(g: WeightedGraph) -> bool:
    """True iff every vertex pair is joined by a path of nonzero-weight edges."""
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        fresh = np.flatnonzero((g.adj[stack.pop()] != 0) & ~seen)
        seen[fresh] = True
        stack.extend(fresh.tolist())
    return bool(seen.all())


@dataclass(frozen=True)
class GhzReport:
    """Outcome of the GHZ-graph classification.

    ``is_primary`` / ``is_weakly_primary`` use the operative coprimality test
    gcd(w_b, w_c, d) == 1, i.e. the two incident weights generate an
    invertible combination mod d.  The ``strict_*`` variants require
    gcd(w_b, w_c) == 1 over the plain integers.
    """

    connected: bool
    degrees: tuple[int, ...]
    total_weight: int
    degrees_divisible: bool
    weight_nondivisible: bool
    is_ghz: bool
    is_primary: bool
    is_weakly_primary: bool
    strict_primary: bool
    strict_weakly_primary: bool
    primary_witnesses: tuple[tuple[int, int] | None, ...]
    failure_reasons: tuple[str, ...]


def _coprime_pair(weights, d: int, skip: int, strict: bool) -> tuple[int, int] | None:
    """First pair b < c (both != skip) with gcd(w_b, w_c) == 1 if strict, else gcd(w_b, w_c, d) == 1.

    Only each weight's key (w, or gcd(w, d)) matters, and a key with no coprime partner after
    one vertex has none after a later one: each key is tried once, at its first vertex.  Keys
    whose gcd exceeds 1 are refused at once; rows such as {6a, 10b, 15c}, with no coprime pair
    and a gcd of 1, still try every key.
    """
    keys = weights if strict else np.gcd(weights, d)
    others = np.arange(len(keys)) != skip
    if np.gcd.reduce(keys[others]) > 1:  # every key shares a prime, so no pair is coprime
        return None
    untried = others.copy()
    while untried.any():
        b = int(np.argmax(untried))
        hits = np.flatnonzero(others[b + 1:] & (np.gcd(keys[b + 1:], keys[b]) == 1))
        if hits.size:
            return b, b + 1 + int(hits[0])
        untried &= keys != keys[b]
    return None


def _ghz_tests(g: WeightedGraph) -> tuple[np.ndarray, int, bool, bool, bool, tuple[str, ...]]:
    """The tests of the GHZ-graph definition with the sums they read:
    (degrees, total_weight, connected, degrees_divisible, weight_nondivisible,
    failure_reasons), the degrees an int64 vector of un-reduced column sums.
    The graph is GHZ exactly when no test fails: for odd d, degrees
    divisible by d make 2W, and with it W, divisible by d, so odd_modulus
    never fails alone.
    """
    connected = is_connected(g)
    degrees = g.adj.sum(axis=0, dtype=np.int64)
    weight = int(degrees.sum()) // 2
    degrees_divisible = bool((degrees % g.d == 0).all())
    weight_nondivisible = weight % g.d != 0
    failed = {"odd_modulus": g.d % 2 == 1, "not_connected": not connected,
              "degree_not_divisible": not degrees_divisible, "total_weight_divisible": not weight_nondivisible}
    reasons = tuple(k for k, bad in failed.items() if bad)
    return degrees, weight, connected, degrees_divisible, weight_nondivisible, reasons


def classify_ghz(g: WeightedGraph) -> GhzReport:
    """The GHZ-graph tests, with the degrees, the total weight and the primality witnesses."""
    degrees, weight, connected, degrees_divisible, weight_nondivisible, reasons = _ghz_tests(g)
    witnesses = tuple(_coprime_pair(g.adj[v], g.d, v, strict=False) for v in range(g.n))
    strict_hits = tuple(_coprime_pair(g.adj[v], g.d, v, strict=True) for v in range(g.n))
    return GhzReport(
        connected=connected,
        degrees=tuple(degrees.tolist()),
        total_weight=weight,
        degrees_divisible=degrees_divisible,
        weight_nondivisible=weight_nondivisible,
        is_ghz=not reasons,
        is_primary=all(x is not None for x in witnesses),
        is_weakly_primary=any(x is not None for x in witnesses),
        strict_primary=all(x is not None for x in strict_hits),
        strict_weakly_primary=any(x is not None for x in strict_hits),
        primary_witnesses=witnesses,
        failure_reasons=reasons,
    )


def require_ghz(g: WeightedGraph, what: str) -> None:
    """Raise NotGhzGraphError when ``what`` gets a graph that fails the GHZ test.

    Only the definition is tested; the primality witnesses of ``classify_ghz``
    are not computed.
    """
    reasons = _ghz_tests(g)[-1]
    if reasons:
        raise NotGhzGraphError(f"{what} needs a GHZ graph; failed: {', '.join(reasons)}")


def _vertex_subset(g: WeightedGraph, vertices) -> list[int]:
    """The distinct vertices in ascending order, checked non-empty and in range."""
    vs = sorted(set(int(v) for v in vertices))
    if not vs:
        raise ValueError("vertex subset must be non-empty")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise IndexError(f"vertex subset {vs} out of range for n={g.n}")
    return vs


def subgraph(g: WeightedGraph, vertices) -> WeightedGraph:
    """Induced subgraph on the given vertex subset (same modulus)."""
    idx = np.array(_vertex_subset(g, vertices))
    return WeightedGraph(g.d, g.adj[np.ix_(idx, idx)])


def _ghz_blocks(blocks: np.ndarray, d: int) -> np.ndarray:
    """Which blocks of a (k, k, c) stack of adjacency blocks pass the GHZ test.

    Block j is blocks[:, :, j].  Degree and weight sums are int64, as in
    ``_ghz_tests``.  Only blocks that pass both get the connectivity test:
    the set reached from vertex 0 along nonzero edges grows until it stops
    growing.
    """
    degs = blocks.sum(axis=0, dtype=np.int64)
    ok = (degs % d == 0).all(axis=0) & (degs.sum(axis=0) // 2 % d != 0)
    hits = np.flatnonzero(ok)
    edge = blocks[:, :, hits] != 0
    seen = np.zeros(edge.shape[1:], dtype=bool)
    seen[0] = True
    while True:
        grown = seen | (seen[:, None, :] & edge).any(axis=0)
        if np.array_equal(grown, seen):
            break
        seen = grown
    ok[hits] = seen.all(axis=0)
    return ok


def find_ghz_subgraphs(g: WeightedGraph, min_size: int = 3, max_size: int | None = None) -> list[tuple[int, ...]]:
    """Vertex subsets whose induced subgraph passes the GHZ test.

    Subsets come sorted by size, lexicographic within each size.  The walk
    visits sum_k C(n, k) subsets and is refused before it starts when that
    exceeds ``SUBSET_CAP``.  The subsets of one size are tested by
    ``_ghz_blocks`` as (k, k, c) stacks of their induced adjacency blocks,
    each stack at most ``BLOCK`` entries (one block when a block is larger),
    with the answer ``classify_ghz(subgraph(g, vs)).is_ghz`` gives.
    """
    if max_size is None:
        max_size = g.n
    if not 3 <= min_size <= max_size <= g.n:
        raise ValueError(f"need 3 <= min_size <= max_size <= n, got ({min_size}, {max_size}) for n={g.n}")
    space = sum(math.comb(g.n, k) for k in range(min_size, max_size + 1))
    if space > SUBSET_CAP:
        raise CapExceededError(f"subgraph search at n={g.n} visits {space} vertex subsets, cap is {SUBSET_CAP}; "
                               "narrow min_size/max_size")
    found = []
    for k in range(min_size, max_size + 1):
        subsets = itertools.combinations(range(g.n), k)
        batch = max(1, BLOCK // (k * k))
        while chunk := list(itertools.islice(subsets, batch)):
            combos = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp).reshape(-1, k)
            ok = _ghz_blocks(g.adj[combos.T[:, None, :], combos.T[None, :, :]], g.d)
            found.extend(itertools.compress(chunk, ok.tolist()))
    return found


def graph_from_code(n: int, d: int, code) -> WeightedGraph:
    """Graph whose edge slots (0,1),(0,2),...,(n-2,n-1) carry the given weights."""
    us, vs = np.triu_indices(n, 1)
    code = np.asarray(code)
    if code.shape != us.shape:
        raise ValueError(f"a code for n={n} has {us.size} edge weights, got shape {code.shape}")
    adj = np.zeros((n, n), dtype=code.dtype)  # the code's own type, which WeightedGraph reduces and narrows
    adj[us, vs] = adj[vs, us] = code
    return WeightedGraph(d, adj)


@functools.cache
def _relabel_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables (rows, cols), each n! x n(n-1)/2, read-only.

    Row p lists the adjacency entries that fill the edge slots
    (0,1),(0,2),...,(n-2,n-1) under the p-th permutation of
    itertools.permutations; at n = 8 each table is about 9 MB.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    tables = tuple(perms[:, idx] for idx in np.triu_indices(n, 1))
    for t in tables:
        t.setflags(write=False)
    return tables


def canonical_code(g: WeightedGraph) -> tuple[int, ...]:
    """Minimum edge-slot encoding over all vertex relabelings (n <= 8).

    All n! relabelled codes are gathered at once through the cached index
    tables of ``_relabel_tables``; the lexicographic minimum keeps, column by
    column, the codes equal to that column's minimum.
    """
    if g.n > ISO_DEDUP_MAX_VERTICES:
        raise ValueError(f"brute-force canonical form limited to n <= {ISO_DEDUP_MAX_VERTICES}")
    rows, cols = _relabel_tables(g.n)
    codes = g.adj[rows, cols]
    for j in range(codes.shape[1]):
        if len(codes) == 1:
            break
        codes = codes[codes[:, j] == codes[:, j].min()]
    return tuple(codes[0].tolist())


def _swap_tables(n: int) -> np.ndarray:
    """Slot permutations of the C(n,2) vertex transpositions, shape (C(n,2), n(n-1)/2).

    Row t belongs to the t-th vertex pair (a, b) in edge-slot order: code[row] is
    the code of the graph with a and b swapped.
    """
    us, vs = np.triu_indices(n, 1)
    pair = np.arange(us.size)
    slot = np.zeros((n, n), dtype=np.intp)
    slot[us, vs] = slot[vs, us] = pair
    perms = np.tile(np.arange(n), (us.size, 1))
    perms[pair, us], perms[pair, vs] = vs, us
    return slot[perms[:, us], perms[:, vs]]


def _drop_swap_beaten(codes: np.ndarray, swaps: np.ndarray) -> np.ndarray:
    """The columns of an (m, h) array of edge-slot codes that no transposition in
    ``swaps`` (from ``_swap_tables``) makes lexicographically smaller, in order.

    A canonical code is the minimum over every relabelling, so it always stays.
    Each swap compares a code with its image at the first slot where they differ.
    """
    for swap in swaps:
        if not codes.shape[1]:
            break
        diff = codes[swap] - codes
        first = (diff != 0).argmax(axis=0)
        codes = codes[:, diff[first, np.arange(codes.shape[1])] >= 0]
    return codes


def enumerate_ghz_graphs(n: int, d: int, dedup_isomorphism: bool = False, cap: int = SEARCH_CAP):
    """Yield every connected GHZ graph on n labeled vertices.

    Graphs come in ascending order of the base-d encoding of the edge slots
    (0,1),(0,2),...,(n-2,n-1).  With dedup_isomorphism only the
    encoding-minimal member of each isomorphism class is yielded.  Each block
    of counter values is tested by ``_ghz_blocks`` as an (n, n, c) stack of
    at most ``BLOCK`` entries, and only the graphs that pass are built.  With
    dedup_isomorphism the hits of a stack that some vertex transposition
    lowers are dropped first (``_drop_swap_beaten``), and only the rest are
    built and checked against ``canonical_code``.
    """
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got (n={n}, d={d})")
    m = n * (n - 1) // 2
    search_size(f"enumeration at (n={n}, d={d})", d, m, cap)
    if dedup_isomorphism and n > ISO_DEDUP_MAX_VERTICES:
        raise ValueError(f"isomorphism dedup limited to n <= {ISO_DEDUP_MAX_VERTICES}")
    us, vs = np.triu_indices(n, 1)
    swaps = _swap_tables(n)
    for _, digits in digit_chunks(m, d, max(1, BLOCK // (n * n))):
        blocks = np.zeros((n, n, digits.shape[1]), dtype=np.int64)
        blocks[us, vs] = blocks[vs, us] = digits
        hits = digits[:, _ghz_blocks(blocks, d)]
        if dedup_isomorphism:
            hits = _drop_swap_beaten(hits, swaps)
        for code in hits.T:
            g = graph_from_code(n, d, code)
            if not dedup_isomorphism or tuple(code.tolist()) == canonical_code(g):
                yield g


def graph_to_dict(g: WeightedGraph) -> dict:
    """Interchange form: {"d": ..., "n": ..., "edges": [[u, v, w], ...]}."""
    return {"d": g.d, "n": g.n, "edges": [[u, v, w] for u, v, w in g.edges()]}


def _require_int(obj: dict, key: str, minimum: int) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise GraphFormatError(f"field {key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def graph_from_dict(obj) -> WeightedGraph:
    """Parse and validate the interchange form."""
    if not isinstance(obj, dict):
        raise GraphFormatError("graph document must be a JSON object")
    extra = set(obj) - {"d", "n", "edges"}
    if extra:
        raise GraphFormatError(f"unknown fields: {sorted(extra)}")
    for key in ("d", "n", "edges"):
        if key not in obj:
            raise GraphFormatError(f"missing field {key!r}")
    d = _require_int(obj, "d", 2)
    if d >= 2**63:  # d and every weight must fit the int64 adjacency
        raise GraphFormatError(f"field 'd' must be below 2^63, got a {d.bit_length()}-bit integer")
    n = _require_int(obj, "n", 1)
    if n > DENSE_CAP:  # bounds the n x n adjacency matrix at 16 MiB per byte of its dtype
        raise GraphFormatError(f"field 'n' must be at most {DENSE_CAP}, got {n}")
    # bounds the int64 sums of un-reduced weights: the adjacency sum, below
    # n^2 (d-1), and a z.x dot of reduced exponents, below n (d-1)^2
    if n * (d - 1) * max(n, d - 1) >= 2**63:
        raise GraphFormatError(f"n * (d-1) * max(n, d-1) must be below 2^63 so that int64 weight sums "
                               f"cannot wrap, got n={n} and a {d.bit_length()}-bit d")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError("field 'edges' must be a list of [u, v, w] triples")
    # the adjacency's own dtype, which holds d and so every weight (0 < w < d);
    # WeightedGraph copies it once, reducing in place
    adj = np.zeros((n, n), dtype=_adj_dtype(d))
    seen = set()
    for k, item in enumerate(edges):
        ok = isinstance(item, list) and len(item) == 3 and all(
            isinstance(x, int) and not isinstance(x, bool) for x in item)
        if not ok:
            raise GraphFormatError(f"edges[{k}] must be a [u, v, w] integer triple, got {item!r}")
        u, v, w = item
        if not 0 <= u < v < n:
            raise GraphFormatError(f"edges[{k}]: need 0 <= u < v < n, got u={u}, v={v} for n={n}")
        if (u, v) in seen:
            raise GraphFormatError(f"edges[{k}]: duplicate pair ({u}, {v})")
        if not 0 < w < d:
            raise GraphFormatError(f"edges[{k}]: weight must satisfy 0 < w < d, got {w} for d={d}")
        seen.add((u, v))
        adj[u, v] = adj[v, u] = w
    return WeightedGraph(d, adj)


def load_graph(path) -> WeightedGraph:
    """Load a graph file, reporting line/column on JSON errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    try:
        return graph_from_dict(obj)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def save_graph(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")


def triangle(d: int) -> WeightedGraph:
    """Three vertices, all weights d/2: the unique GHZ graph on 3 vertices."""
    if d % 2:
        raise ValueError(f"triangle family needs even d, got {d}")
    h = d // 2
    return WeightedGraph(d, [[0, h, h], [h, 0, h], [h, h, 0]])


def k4(d: int, a: int, b: int, c: int) -> WeightedGraph:
    """Four vertices with opposite-edge weight pairs (x, x + d/2), a + b + c = d/2.

    Edge layout: 01 -> a + d/2, 02 -> b, 03 -> c, 12 -> c + d/2,
    13 -> b + d/2, 23 -> a.
    """
    if d % 2:
        raise ValueError(f"k4 family needs even d, got {d}")
    h = d // 2
    if min(a, b, c) < 0 or a + b + c != h:
        raise ValueError(f"need a, b, c >= 0 with a + b + c = d/2, got ({a}, {b}, {c}) for d={d}")
    g = WeightedGraph.from_edges(d, 4, [
        (0, 1, h + a), (0, 2, b), (0, 3, c),
        (1, 2, h + c), (1, 3, h + b), (2, 3, a),
    ])
    if not is_connected(g):
        raise ValueError(f"parameters ({a}, {b}, {c}) isolate a vertex; keep every value below d/2")
    return g


def odd_loop(n: int) -> WeightedGraph:
    """Unit-weight cycle at d=2; a GHZ graph for every odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"loop length must be odd and >= 3, got {n}")
    return WeightedGraph.from_edges(2, n, [(v, (v + 1) % n, 1) for v in range(n)])


def complete_4j3(j: int) -> WeightedGraph:
    """Unit-weight complete graph on 4j + 3 vertices at d=2."""
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    n = 4 * j + 3
    adj = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return WeightedGraph(2, adj)
