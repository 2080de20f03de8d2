"""Complete-graph machinery.

Vertices are labelled 1..f.  An edge is an ordered pair (k, l) with
1 <= k < l <= f; the lexicographic rank of an edge ("edge index") doubles as
its bit position in edge-set bitmasks, which are the canonical subset keys
used throughout the package.

Cycle counting is done with a subset dynamic program over vertex bitmasks:
per source vertex, one integer matrix product and one scatter per popcount
layer (O(2^f * f^2) work in f - 1 numpy steps), so per-length censuses stay
exact and cheap up to f = 16 without enumerating individual paths.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    DisconnectedGraph,
    EdgePresent,
    InvalidEdge,
    InvalidVertex,
)

Edge = tuple[int, int]

MAX_VERTICES = 16  # mu = 120 fits the 128-bit mask contract


def edge_count(f: int) -> int:
    """Number of edges of the complete graph on f vertices."""
    return f * (f - 1) // 2


def check_vertex_count(f: int) -> None:
    if not isinstance(f, int) or f < 2 or f > MAX_VERTICES:
        raise InvalidVertex(f"vertex count must be an integer in [2, {MAX_VERTICES}], got {f!r}")


def check_edge(edge, f: int) -> Edge:
    """Validate and return edge as a (k, l) tuple with 1 <= k < l <= f."""
    try:
        k, l = edge
    except (TypeError, ValueError):
        raise InvalidEdge(f"edge must be a (k, l) pair, got {edge!r}") from None
    if not (isinstance(k, int) and isinstance(l, int) and 1 <= k < l <= f):
        raise InvalidEdge(f"edge {edge!r} invalid for f={f} (need 1 <= k < l <= f)")
    return (k, l)


def all_edges(f: int) -> list[Edge]:
    """All edges of K_f in lexicographic order."""
    return [(k, l) for k in range(1, f + 1) for l in range(k + 1, f + 1)]


def edge_index(edge: Edge, f: int) -> int:
    """Lexicographic rank of an edge: (1,2) -> 0, ..., (f-1,f) -> mu-1."""
    k, l = check_edge(edge, f)
    return (k - 1) * f - k * (k - 1) // 2 + (l - k - 1)


def edge_from_index(index: int, f: int) -> Edge:
    """Inverse of edge_index."""
    if not 0 <= index < edge_count(f):
        raise InvalidEdge(f"edge index {index} out of range for f={f}")
    k = 1
    rem = index
    while rem >= f - k:
        rem -= f - k
        k += 1
    return (k, k + 1 + rem)


def edges_to_mask(edges, f: int) -> int:
    mask = 0
    for e in edges:
        mask |= 1 << edge_index(e, f)
    return mask


@lru_cache(maxsize=None)
def edge_bits(f: int) -> dict:
    """The mask bit of every edge of K_f, for loops over validated edges."""
    return {e: 1 << i for i, e in enumerate(all_edges(f))}


def mask_to_edges(mask: int, f: int) -> list[Edge]:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(edge_from_index(bit.bit_length() - 1, f))
    return out


class Graph:
    """Simple undirected graph on [1..f] with bitmask adjacency."""

    __slots__ = ("f", "_adj", "_edges")

    def __init__(self, f: int, edges=()):
        check_vertex_count(f)
        self.f = f
        self._adj = [0] * f
        self._edges: set[Edge] = set()
        for e in edges:
            self.add_edge(e)

    @classmethod
    def complete(cls, f: int) -> "Graph":
        return cls(f, all_edges(f))

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self._edges))

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self._edges)

    def has_edge(self, edge) -> bool:
        return check_edge(edge, self.f) in self._edges

    def add_edge(self, edge) -> None:
        k, l = check_edge(edge, self.f)
        self._adj[k - 1] |= 1 << (l - 1)
        self._adj[l - 1] |= 1 << (k - 1)
        self._edges.add((k, l))

    def remove_edge(self, edge) -> None:
        k, l = check_edge(edge, self.f)
        self._edges.discard((k, l))
        self._adj[k - 1] &= ~(1 << (l - 1))
        self._adj[l - 1] &= ~(1 << (k - 1))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return bin(self._adj[v - 1]).count("1")

    def copy(self) -> "Graph":
        g = Graph(self.f)
        g._adj = self._adj.copy()
        g._edges = self._edges.copy()
        return g

    def _check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 1 <= v <= self.f):
            raise InvalidVertex(f"vertex {v!r} out of range for f={self.f}")

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        return f"Graph(f={self.f}, edges={self.edges})"


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def distance(g: Graph, u: int, v: int):
    """Shortest-path length in edges; math.inf if u and v are disconnected."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        return 0
    dist = _distances_from(g, u)
    return dist[v - 1]


def _distances_from(g: Graph, u: int) -> list:
    dist = [math.inf] * g.f
    dist[u - 1] = 0
    frontier = 1 << (u - 1)
    seen = frontier
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for i in _bits(frontier):
            nxt |= g._adj[i]
        nxt &= ~seen
        for i in _bits(nxt):
            dist[i] = d
        seen |= nxt
        frontier = nxt
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets.

    Sorted ascending by (minimum vertex degree within the component, size,
    smallest vertex label), so zero-degree and sparsely attached components
    come first; vertices inside each component are sorted ascending.
    """
    seen = 0
    comps = []
    for s in range(g.f):
        if (seen >> s) & 1:
            continue
        comp = 1 << s
        frontier = comp
        while frontier:
            nxt = 0
            for i in _bits(frontier):
                nxt |= g._adj[i]
            nxt &= ~comp
            comp |= nxt
            frontier = nxt
        seen |= comp
        comps.append([i + 1 for i in _bits(comp)])
    comps.sort(key=lambda vs: (min(g.degree(v) for v in vs), len(vs), vs[0]))
    return comps


def periphery(g: Graph) -> list[Edge]:
    """All unordered vertex pairs at the diameter of a connected graph."""
    best = -1
    pairs: list[Edge] = []
    for u in range(1, g.f + 1):
        dist = _distances_from(g, u)
        for v in range(u + 1, g.f + 1):
            d = dist[v - 1]
            if d is math.inf:
                raise DisconnectedGraph("periphery undefined for a disconnected graph")
            if d > best:
                best, pairs = d, [(u, v)]
            elif d == best:
                pairs.append((u, v))
    return pairs


def is_matching(edges) -> bool:
    """True iff no two edges share a vertex."""
    seen = set()
    for e in edges:
        k, l = e
        if k in seen or l in seen:
            return False
        seen.add(k)
        seen.add(l)
    return True


def is_perfect_matching(edges, f: int) -> bool:
    edges = list(edges)
    return f % 2 == 0 and is_matching(edges) and len(edges) * 2 == f


def is_near_perfect_matching(edges, f: int) -> bool:
    edges = list(edges)
    return f % 2 == 1 and is_matching(edges) and len(edges) * 2 == f - 1


def chromatic_index(f: int) -> int:
    """Minimum colors for a proper edge-coloring of K_f: f-1 if f even, else f."""
    check_vertex_count(f)
    return f - 1 if f % 2 == 0 else f


def matching_size(f: int) -> int:
    """Edges per color class of an optimally edge-colored K_f: mu / chi'."""
    return edge_count(f) // chromatic_index(f)


@lru_cache(maxsize=None)
def _popcount_layers(f: int) -> tuple:
    """Vertex-subset masks grouped by popcount, as int64 arrays."""
    masks = np.arange(1 << f, dtype=np.int64)
    pc = np.zeros(1 << f, dtype=np.int64)
    for i in range(f):
        pc += (masks >> i) & 1
    return tuple(masks[pc == k] for k in range(f + 1))


def _path_counts_dp(adj: list[int], f: int, src0: int) -> np.ndarray:
    """counts[t, L] = number of simple paths from src0 to t with L edges (0-based t).

    dp[m, w] counts the simple paths from src0 that visit exactly the vertex
    set m and end at w.  One step per popcount layer k extends every path of
    layer k by one edge: dp[m] @ a sums over the last vertex w, giving for
    each x the paths that can step to x, and one scatter adds that count into
    dp[m | 1<<x, x] when x is not in m.  The scatter loses no update: for a
    fixed x, distinct masks without x stay distinct after setting bit x, and
    a mask that already holds x targets itself, on layer k rather than k + 1,
    and receives 0.  Layer k + 1 starts empty, so its column sums, the paths
    with k edges, are the column sums of the step.

    The counts are held in float64, whose products run in BLAS: every count
    is at most (f - 1)! < 2^53 for f <= MAX_VERTICES, so they stay exact, and
    the result is converted back to int64.
    """
    bits = np.int64(1) << np.arange(f, dtype=np.int64)
    a = ((np.array(adj, dtype=np.int64)[:, None] & bits) != 0).astype(np.float64)
    dp = np.zeros((1 << f, f), dtype=np.float64)
    dp[1 << src0, src0] = 1
    res = np.zeros((f, f), dtype=np.float64)
    for k, masks in enumerate(_popcount_layers(f)[1:f], 1):
        masks = masks[(masks & bits[src0]) != 0]
        m = masks[:, None]
        ext = m | bits
        step = np.where(ext != m, dp[masks] @ a, 0)
        dp[ext, np.arange(f)] += step
        res[:, k] = step.sum(axis=0)
    return res.astype(np.int64)


def simple_path_counts(g: Graph, source: int) -> np.ndarray:
    """Per-target, per-length counts of simple paths from source.

    Returns an (f+1, f) array where entry [t, L] is the number of simple
    paths from source to vertex t (1-based) with exactly L edges.
    """
    g._check_vertex(source)
    raw = _path_counts_dp(g._adj, g.f, source - 1)
    out = np.zeros((g.f + 1, g.f), dtype=np.int64)
    out[1:, :] = raw
    return out


def cycle_census(g: Graph) -> tuple[int, ...]:
    """Counts of simple cycles of g by length, lengths 3..f."""
    f = g.f
    census = [0] * (f - 2)
    for s in range(f):
        # cycles whose smallest vertex is s: paths within {s..f-1} closed by an edge to s
        adj_sub = [g._adj[w] & ~((1 << s) - 1) if w >= s else 0 for w in range(f)]
        if adj_sub[s] == 0:
            continue
        res = _path_counts_dp(adj_sub, f, s)
        for w in _bits(adj_sub[s]):
            for length in range(2, f):
                census[length - 1 - 1] += int(res[w, length])
    # each cycle was traversed in both directions
    return tuple(c // 2 for c in census)


def complete_cycle_census(f: int) -> tuple[int, ...]:
    """Closed form for K_f: C(f,l) * (l-1)! / 2 cycles of length l."""
    return tuple(
        math.comb(f, length) * math.factorial(length - 1) // 2 for length in range(3, f + 1)
    )


def induced_cycle_vector(g: Graph, candidate, mode: str = "through-edge") -> tuple[int, ...]:
    """Per-length census of the cycles created by adding candidate to g.

    through-edge mode counts only the cycles containing candidate (the simple
    paths between its endpoints, shifted by one edge); full-graph mode counts
    every simple cycle of g + candidate.  Both compare identically as
    lexicographic keys against a fixed base graph since they differ by the
    base census, a common additive constant.
    """
    k, l = check_edge(candidate, g.f)
    if g.has_edge((k, l)):
        raise EdgePresent(f"candidate edge {candidate!r} already in graph")
    if mode == "through-edge":
        res = _path_counts_dp(g._adj, g.f, k - 1)
        return tuple(int(res[l - 1, length]) for length in range(2, g.f))
    if mode == "full-graph":
        work = g.copy()
        work.add_edge((k, l))
        return cycle_census(work)
    raise ValueError(f"unknown mode {mode!r}")
