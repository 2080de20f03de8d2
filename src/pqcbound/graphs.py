"""Complete-graph machinery.

Vertices are labelled 1..f.  An edge is an ordered pair (k, l) with
1 <= k < l <= f; the lexicographic rank of an edge ("edge index") doubles as
its bit position in edge-set bitmasks, which are the canonical subset keys
used throughout the package.

A Graph holds one bitmask adjacency row per vertex; its edges are read off
the rows.

Every path count comes from one subset dynamic program over vertex bitmasks,
simple_path_counts: per source vertex, one matrix product and one scatter per
popcount layer (O(2^f * f^2) work in f - 1 numpy steps), so per-length
censuses stay exact and cheap up to f = 16 without enumerating individual
paths.  The cycle censuses read its counts.  A chord (k, l) closes one cycle
of length L + 1 per simple path of L edges from k to l (chord_censuses).  A
cycle of length L is, from each of its L vertices and in each direction, one
path of L - 1 edges to a neighbour of the start, so cycle_census sums those
paths over every start and neighbour and divides by 2L.
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


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def mask_to_edges(mask: int, f: int) -> list[Edge]:
    return [edge_from_index(i, f) for i in _bits(mask)]


class Graph:
    """Simple undirected graph on [1..f] with bitmask adjacency."""

    __slots__ = ("f", "_adj")

    def __init__(self, f: int, edges=()):
        check_vertex_count(f)
        self.f = f
        self._adj = [0] * f
        for e in edges:
            self.add_edge(e)

    @classmethod
    def complete(cls, f: int) -> "Graph":
        return cls(f, all_edges(f))

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple((k + 1, l + 1) for k, row in enumerate(self._adj) for l in _bits(row) if l > k)

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def has_edge(self, edge) -> bool:
        k, l = check_edge(edge, self.f)
        return bool(self._adj[k - 1] >> (l - 1) & 1)

    def add_edge(self, edge) -> None:
        k, l = check_edge(edge, self.f)
        self._adj[k - 1] |= 1 << (l - 1)
        self._adj[l - 1] |= 1 << (k - 1)

    def remove_edge(self, edge) -> None:
        k, l = check_edge(edge, self.f)
        self._adj[k - 1] &= ~(1 << (l - 1))
        self._adj[l - 1] &= ~(1 << (k - 1))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return bin(self._adj[v - 1]).count("1")

    def copy(self) -> "Graph":
        g = Graph(self.f)
        g._adj = self._adj.copy()
        return g

    def _check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 1 <= v <= self.f):
            raise InvalidVertex(f"vertex {v!r} out of range for f={self.f}")

    def __len__(self) -> int:
        return sum(bin(row).count("1") for row in self._adj) // 2

    def __repr__(self) -> str:
        return f"Graph(f={self.f}, edges={self.edges})"


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
    comps = []
    placed = set()
    for s in range(1, g.f + 1):
        if s not in placed:
            dist = _distances_from(g, s)
            comps.append([v for v in range(1, g.f + 1) if dist[v - 1] < math.inf])
            placed.update(comps[-1])
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


def simple_path_counts(g: Graph, source: int) -> np.ndarray:
    """Per-target, per-length counts of simple paths from source.

    Returns an (f+1, f) int64 array where entry [t, L] is the number of
    simple paths from source to vertex t (1-based) with exactly L edges; row
    0 is zero.

    dp[m, w] counts the simple paths from source that visit exactly the
    vertex set m and end at w.  One step per popcount layer k extends every
    path of layer k by one edge: dp[m] @ a sums over the last vertex w,
    giving for each x the paths that can step to x, and one scatter adds that
    count into dp[m | 1<<x, x] when x is not in m.  The scatter loses no
    update: for a fixed x, distinct masks without x stay distinct after
    setting bit x, and a mask that already holds x targets itself, on layer
    k rather than k + 1, and receives 0.  Layer k + 1 starts empty, so its
    column sums, the paths with k edges, are the column sums of the step.

    The DP is held in float64, whose products run in BLAS: every count is at
    most (f - 1)! < 2^53 for f <= MAX_VERTICES, so they stay exact when
    stored into the int64 result.
    """
    g._check_vertex(source)
    f, src = g.f, source - 1
    bits = np.int64(1) << np.arange(f, dtype=np.int64)
    a = ((np.array(g._adj, dtype=np.int64)[:, None] & bits) != 0).astype(np.float64)
    dp = np.zeros((1 << f, f), dtype=np.float64)
    dp[1 << src, src] = 1
    out = np.zeros((f + 1, f), dtype=np.int64)
    for k, masks in enumerate(_popcount_layers(f)[1:f], 1):
        masks = masks[(masks & bits[src]) != 0]
        m = masks[:, None]
        ext = m | bits
        step = np.where(ext != m, dp[masks] @ a, 0)
        dp[ext, np.arange(f)] += step
        out[1:, k] = step.sum(axis=0)
    return out


def cycle_census(g: Graph) -> tuple[int, ...]:
    """Counts of simple cycles of g by length, lengths 3..f.

    Each cycle of length L is counted 2L times: from each of its vertices s,
    in each direction, as a path of L - 1 edges from s to a neighbour of s.
    """
    closing = np.zeros(g.f, dtype=np.int64)
    for s in range(1, g.f + 1):
        neighbours = [w + 1 for w in _bits(g._adj[s - 1])]
        if neighbours:
            closing += simple_path_counts(g, s)[neighbours].sum(axis=0)
    return tuple(int(closing[length - 1]) // (2 * length) for length in range(3, g.f + 1))


def chord_censuses(g: Graph, chords) -> dict:
    """Per-length census, lengths 3..f, of the cycles that each absent chord
    would close in g: the simple paths between its endpoints, shifted by one
    edge.  The path counts are computed once per distinct source."""
    counts = {}
    censuses = {}
    for chord in chords:
        k, l = check_edge(chord, g.f)
        if g.has_edge((k, l)):
            raise EdgePresent(f"candidate edge {chord!r} already in graph")
        if k not in counts:
            counts[k] = simple_path_counts(g, k)
        # a list, not a generator: see bound.capacity_outer_bound
        censuses[k, l] = tuple([int(counts[k][l, length]) for length in range(2, g.f)])
    return censuses


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
        return chord_censuses(g, [(k, l)])[k, l]
    if mode == "full-graph":
        work = g.copy()
        work.add_edge((k, l))
        return cycle_census(work)
    raise ValueError(f"unknown mode {mode!r}")
