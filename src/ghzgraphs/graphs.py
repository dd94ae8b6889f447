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

from ._search import CHUNK, digit_chunks, search_size
from .defaults import DENSE_CAP, SEARCH_CAP, SUBSET_CAP
from .errors import CapExceededError, GraphFormatError, NotGhzGraphError

#: hard limit for the brute-force canonical form (n! permutations)
ISO_DEDUP_MAX_VERTICES = 8


class WeightedGraph:
    """Immutable Z_d-weighted simple graph.

    Weights are stored reduced into [0, d); the adjacency array is locked
    after construction so instances can be shared freely.
    """

    __slots__ = ("d", "n", "adj")

    def __init__(self, d: int, adj) -> None:
        d = int(d)
        if d < 2:
            raise ValueError(f"modulus must be at least 2, got d={d}")
        a = np.array(adj, dtype=np.int64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"adjacency must be a square matrix, got shape {a.shape}")
        a %= d
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diagonal(a) != 0):
            raise ValueError("adjacency diagonal must be zero (no self-loops)")
        a.setflags(write=False)
        self.d = d
        self.n = int(a.shape[0])
        self.adj = a

    @classmethod
    def from_edges(cls, d: int, n: int, edges) -> "WeightedGraph":
        """Build from (u, v, w) triples; unnamed pairs get weight 0."""
        adj = np.zeros((n, n), dtype=np.int64)
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            adj[u, v] = w
            adj[v, u] = w
        return cls(d, adj)

    def weight(self, u: int, v: int) -> int:
        return int(self.adj[u, v])

    def edges(self) -> list[tuple[int, int, int]]:
        """Nonzero edges as (u, v, w) with u < v, in ascending order."""
        us, vs = np.nonzero(np.triu(self.adj, 1))
        return list(zip(us.tolist(), vs.tolist(), self.adj[us, vs].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.d == other.d and self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"WeightedGraph(d={self.d}, n={self.n}, edges={self.edges()})"


def degree(g: WeightedGraph, v: int) -> int:
    """Un-reduced degree of v: the plain integer sum of its incident weights."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range for n={g.n}")
    return int(g.adj[:, v].sum())


def total_weight(g: WeightedGraph) -> int:
    """Un-reduced sum of all edge weights (half the full double sum)."""
    return int(g.adj.sum()) // 2


def is_connected(g: WeightedGraph) -> bool:
    """True iff every vertex pair is joined by a path of nonzero-weight edges."""
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in np.nonzero(g.adj[u])[0]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
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

    Only each weight's key (w, or gcd(w, d)) matters, and a key with no coprime
    partner after one vertex has none after a later one: each key is scanned once.
    """
    keys = weights.tolist() if strict else [math.gcd(w, d) for w in weights.tolist()]
    exhausted = set()
    for b, kb in enumerate(keys):
        if b != skip and kb not in exhausted:
            for c in range(b + 1, len(keys)):
                if c != skip and math.gcd(kb, keys[c]) == 1:
                    return b, c
            exhausted.add(kb)
    return None


def classify_ghz(g: WeightedGraph) -> GhzReport:
    """Run every structural test of the GHZ-graph definition at once."""
    degs = tuple(degree(g, v) for v in range(g.n))
    w = total_weight(g)
    connected = is_connected(g)
    degrees_divisible = all(dv % g.d == 0 for dv in degs)
    weight_nondivisible = w % g.d != 0
    ghz = connected and degrees_divisible and weight_nondivisible

    witnesses = tuple(_coprime_pair(g.adj[v], g.d, v, strict=False) for v in range(g.n))
    strict_hits = tuple(_coprime_pair(g.adj[v], g.d, v, strict=True) for v in range(g.n))

    reasons = []
    if g.d % 2:
        reasons.append("odd_modulus")
    if not connected:
        reasons.append("not_connected")
    if not degrees_divisible:
        reasons.append("degree_not_divisible")
    if not weight_nondivisible:
        reasons.append("total_weight_divisible")

    return GhzReport(
        connected=connected,
        degrees=degs,
        total_weight=w,
        degrees_divisible=degrees_divisible,
        weight_nondivisible=weight_nondivisible,
        is_ghz=ghz,
        is_primary=all(x is not None for x in witnesses),
        is_weakly_primary=any(x is not None for x in witnesses),
        strict_primary=all(x is not None for x in strict_hits),
        strict_weakly_primary=any(x is not None for x in strict_hits),
        primary_witnesses=witnesses,
        failure_reasons=tuple(reasons),
    )


def require_ghz(g: WeightedGraph, what: str) -> GhzReport:
    """classify_ghz, raising NotGhzGraphError when ``what`` gets a non-GHZ graph."""
    rep = classify_ghz(g)
    if not rep.is_ghz:
        raise NotGhzGraphError(f"{what} needs a GHZ graph; failed: {', '.join(rep.failure_reasons)}")
    return rep


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
    """Which blocks of a (c, k, k) stack of adjacency blocks pass the GHZ test.

    Degree and weight sums are int64, as in ``degree`` and ``total_weight``.
    Only blocks that pass both get the connectivity test, which grows the
    set reached from vertex 0 along nonzero edges until it stops growing.
    """
    ok = (blocks.sum(axis=1) % d == 0).all(axis=1) & (blocks.sum(axis=(1, 2)) // 2 % d != 0)
    hits = np.nonzero(ok)[0]
    edge = blocks[hits] != 0
    seen = np.zeros(edge.shape[:2], dtype=bool)
    seen[:, 0] = True
    while True:
        grown = seen | (seen[:, None, :] @ edge)[:, 0]
        if np.array_equal(grown, seen):
            break
        seen = grown
    ok[hits] = seen.all(axis=1)
    return ok


def find_ghz_subgraphs(g: WeightedGraph, min_size: int = 3, max_size: int | None = None) -> list[tuple[int, ...]]:
    """Vertex subsets whose induced subgraph passes the GHZ test.

    Subsets come sorted by size, lexicographic within each size.  The walk
    visits sum_k C(n, k) subsets and is refused before it starts when that
    exceeds ``SUBSET_CAP``.  The subsets of one size are tested as stacks of
    their induced adjacency blocks, each stack at most ``CHUNK`` entries
    (one block when a block is larger), with the answer
    ``classify_ghz(subgraph(g, vs)).is_ghz`` gives.
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
        batch = max(1, CHUNK // (k * k))
        while chunk := list(itertools.islice(subsets, batch)):
            combos = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp).reshape(-1, k)
            ok = _ghz_blocks(g.adj[combos[:, :, None], combos[:, None, :]], g.d)
            found.extend(itertools.compress(chunk, ok.tolist()))
    return found


def graph_from_code(n: int, d: int, code) -> WeightedGraph:
    """Graph whose edge slots (0,1),(0,2),...,(n-2,n-1) carry the given weights."""
    adj = np.zeros((n, n), dtype=np.int64)
    for (u, v), w in zip(itertools.combinations(range(n), 2), code, strict=True):
        adj[u, v] = adj[v, u] = int(w)
    return WeightedGraph(d, adj)


@functools.cache
def _relabel_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables (rows, cols), each n! x n(n-1)/2, read-only.

    Row p lists the adjacency entries that fill the edge slots
    (0,1),(0,2),...,(n-2,n-1) under the p-th permutation of
    itertools.permutations; at n = 8 each table is about 9 MB.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    tables = perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]
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


def enumerate_ghz_graphs(n: int, d: int, dedup_isomorphism: bool = False, cap: int = SEARCH_CAP):
    """Yield every connected GHZ graph on n labeled vertices.

    Graphs come in ascending order of the base-d encoding of the edge slots
    (0,1),(0,2),...,(n-2,n-1).  With dedup_isomorphism only the
    encoding-minimal member of each isomorphism class is yielded.
    """
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got (n={n}, d={d})")
    m = n * (n - 1) // 2
    search_size(f"enumeration at (n={n}, d={d})", d, m, cap)
    if dedup_isomorphism and n > ISO_DEDUP_MAX_VERTICES:
        raise ValueError(f"isomorphism dedup limited to n <= {ISO_DEDUP_MAX_VERTICES}")
    pairs = list(itertools.combinations(range(n), 2))
    inc = np.zeros((n, m), dtype=np.int64)
    for j, (u, v) in enumerate(pairs):
        inc[u, j] = inc[v, j] = 1
    for _, digits in digit_chunks(m, d):
        degs_ok = ((inc @ digits) % d == 0).all(axis=0)
        tot_ok = digits.sum(axis=0) % d != 0
        for col in np.nonzero(degs_ok & tot_ok)[0]:
            code = tuple(int(x) for x in digits[:, col])
            g = graph_from_code(n, d, code)
            if not is_connected(g):
                continue
            if dedup_isomorphism and code != canonical_code(g):
                continue
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
    if n > DENSE_CAP:  # bounds the n x n adjacency matrix at 128 MiB
        raise GraphFormatError(f"field 'n' must be at most {DENSE_CAP}, got {n}")
    # bounds the int64 sums of un-reduced weights: the adjacency sum, below
    # n^2 (d-1), and a z.x dot of reduced exponents, below n (d-1)^2
    if n * (d - 1) * max(n, d - 1) >= 2**63:
        raise GraphFormatError(f"n * (d-1) * max(n, d-1) must be below 2^63 so that int64 weight sums "
                               f"cannot wrap, got n={n} and a {d.bit_length()}-bit d")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError("field 'edges' must be a list of [u, v, w] triples")
    adj = np.zeros((n, n), dtype=np.int64)
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
