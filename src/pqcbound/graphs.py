"""Complete-graph machinery.

Vertices are labelled 1..f.  An edge is an ordered pair (k, l) with
1 <= k < l <= f; the lexicographic rank of an edge ("edge index") doubles as
its bit position in edge-set bitmasks, which are the canonical subset keys
used throughout the package.  The end vertices of every edge index are one
cached table per f (edge_ends), which edge_from_index reads and from which
mask_rows builds the adjacency rows of an edge mask.

A Graph holds one bitmask adjacency row per vertex; its edges are read off
the rows.

Every path count comes from one subset dynamic program over vertex bitmasks,
simple_path_counts.  It relabels the source as vertex 0, which every path
holds, so it keeps one row per set of the other f - 1 vertices: 2^(f-1) rows,
stored by popcount, with one matrix product and one assignment per layer.
The layout of those rows and of each layer's steps is one cached table per f
(_layer_table), shared by every graph and source.  Per-length censuses stay
exact and cheap up to f = 16 without enumerating individual paths.  The
cycle censuses read its counts.  A chord (k, l) closes one cycle of length
L + 1 per simple path of L edges from k to l (chord_censuses); the first two
of those counts, the 2-edge and 3-edge paths, also come straight from the
adjacency rows (short_path_counts).  A cycle of length L is, from each of its
L vertices and in each direction, one path of L - 1 edges to a neighbour of
the start, so cycle_census sums those paths over every start and neighbour
and divides by 2L.

Graph symmetry comes from one walk of one refinement tree, _symmetry.  It
first collapses twin classes (_quotient): vertices u, v with
N(u) - {v} = N(v) - {u}, an equivalence whose classes are cliques or
independent sets, and any permutation inside a class is an automorphism.
What is left is the quotient graph on the classes, colored by class size and
kind.  Its tree is color refinement (_refine) and individualisation of each
vertex of a target cell followed by refinement (_individualise), after B. D.
McKay and A. Piperno, "Practical graph isomorphism, II", J. Symbolic
Comput. 60 (2014).  Each leaf numbers the vertices class by class in its
order.  A leaf whose numbering gives the first leaf's edge mask yields a
generator, which is then an automorphism, so a missed generator only leaves
an orbit split, never merges two that differ; edge_orbits gives each
non-edge the smallest non-edge of its orbit.  The leaf with the smallest
trace of refinement keys and mask gives the canonical labelling, and the
walk returns that leaf's mask beside it, as it holds the mask of every leaf
it compares: _canonical_form reads that mask, which is the same for every
edge set of one isomorphism class.  The walk prunes by the generators it
finds and cuts subtrees that can hold neither a generator nor a smaller
leaf.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

Edge = tuple[int, int]

MAX_VERTICES = 16  # mu = 120 fits the 128-bit mask contract


def edge_count(f: int) -> int:
    """Number of edges of the complete graph on f vertices."""
    return f * (f - 1) // 2


def check_vertex_count(f: int) -> None:
    if not isinstance(f, int) or f < 2 or f > MAX_VERTICES:
        raise ValidationError(f"vertex count must be an integer in [2, {MAX_VERTICES}], got {f!r}")


def check_edge(edge, f: int) -> Edge:
    """Validate and return edge as a (k, l) tuple with 1 <= k < l <= f."""
    try:
        k, l = edge
    except (TypeError, ValueError):
        raise ValidationError(f"edge must be a (k, l) pair, got {edge!r}") from None
    if not (isinstance(k, int) and isinstance(l, int) and 1 <= k < l <= f):
        raise ValidationError(f"edge {edge!r} invalid for f={f} (need 1 <= k < l <= f)")
    return (k, l)


def all_edges(f: int) -> list[Edge]:
    """All edges of K_f in lexicographic order."""
    return [(k, l) for k in range(1, f + 1) for l in range(k + 1, f + 1)]


def edge_index(edge: Edge, f: int) -> int:
    """Lexicographic rank of an edge: (1,2) -> 0, ..., (f-1,f) -> mu-1."""
    k, l = check_edge(edge, f)
    return (k - 1) * f - k * (k - 1) // 2 + (l - k - 1)


@lru_cache(maxsize=None)
def edge_ends(f: int) -> tuple:
    """The 0-based end vertices of every edge of K_f, by edge index."""
    return tuple((k - 1, l - 1) for k, l in all_edges(f))


def edge_from_index(index: int, f: int) -> Edge:
    """Inverse of edge_index."""
    if not 0 <= index < edge_count(f):
        raise ValidationError(f"edge index {index} out of range for f={f}")
    u, v = edge_ends(f)[index]
    return (u + 1, v + 1)


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


def mask_rows(mask: int, f: int) -> list[int]:
    """The adjacency rows of the edge set mask: one vertex bitmask per
    0-based vertex, bit u of row v set where v and u share an edge."""
    rows = [0] * f
    ends = edge_ends(f)
    for i in _bits(mask):
        u, v = ends[i]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


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
            raise ValidationError(f"vertex {v!r} out of range for f={self.f}")

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
                raise ValidationError("periphery undefined for a disconnected graph")
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
def _layer_table(f: int) -> tuple:
    """The layout of simple_path_counts's DP on f vertices, shared by every
    graph and source.

    With the source relabelled as vertex 0, a row is a set r of the other
    f - 1 vertices (vertex i + 1 is bit i), and rows are stored by popcount,
    so layer k is the contiguous block starts[k]:starts[k + 1].  news[k] is
    the (rows of layer k, f - 1) table that is True where vertex x + 1 is not
    in r, and dests[k] lists, for its True entries in row-major order, the
    flat index of dp[r | bit x, x] in the (2^(f-1), f - 1) DP table.
    """
    n = f - 1
    rows = np.arange(1 << n, dtype=np.int64)
    pc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        pc += (rows >> i) & 1
    by_layer = np.argsort(pc, kind="stable")
    pos = np.empty(1 << n, dtype=np.int64)
    pos[by_layer] = rows
    starts = np.searchsorted(pc[by_layer], np.arange(n + 1))
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    dests, news = [], []
    for k in range(n):
        r = by_layer[starts[k]:starts[k + 1], None]
        ext = r | bits
        new = ext != r
        dests.append((pos[ext] * n + np.arange(n))[new])
        news.append(new)
    return starts, tuple(dests), tuple(news)


def simple_path_counts(g: Graph, source: int) -> np.ndarray:
    """Per-target, per-length counts of simple paths from source.

    Returns an (f+1, f) int64 array where entry [t, L] is the number of
    simple paths from source to vertex t (1-based) with exactly L edges; row
    0 is zero.

    The vertices are relabelled so that source is vertex 0.  Every path
    holds the source, so dp[r, w] counts the simple paths from source whose
    other vertices are exactly the set r and that end at w: 2^(f-1) rows,
    one column per vertex but the source, laid out by _layer_table.  The
    paths of one edge are the source's adjacency row.  One step per popcount
    layer k then extends every path of layer k by one edge: dp[r] @ a, over
    the adjacency a between the other vertices, sums over the last vertex w,
    giving for each x the paths that can step to x, and one assignment
    writes that count into dp[r | x, x] where x is not in r.  For a fixed x,
    distinct sets without x stay distinct after adding x, so no two counts
    share a target, and layer k + 1 starts empty, so nothing is lost.  The
    column sums of layer L are the paths with L edges; they are mapped back
    through the relabelling.

    The DP is held in float64, whose products run in BLAS: every count is at
    most (f - 1)! < 2^53 for f <= MAX_VERTICES, so they stay exact when
    stored into the int64 result.
    """
    g._check_vertex(source)
    f, n = g.f, g.f - 1
    perm = np.array([source - 1] + [v for v in range(f) if v != source - 1])
    a = ((np.array(g._adj, dtype=np.int64)[perm, None] >> perm) & 1).astype(np.float64)
    starts, dests, news = _layer_table(f)
    dp = np.zeros((1 << n, n), dtype=np.float64)
    flat = dp.reshape(-1)
    flat[dests[0]] = a[0, 1:]
    inner = a[1:, 1:]
    for k in range(1, n):
        flat[dests[k]] = (dp[starts[k]:starts[k + 1]] @ inner)[news[k]]
    out = np.zeros((f + 1, f), dtype=np.int64)
    out[1 + perm[1:], 1:] = np.add.reduceat(dp, starts[1:], axis=0).T
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
            raise ValidationError(f"candidate edge {chord!r} already in graph")
        if k not in counts:
            counts[k] = simple_path_counts(g, k)
        # a list, not a generator: see bound.capacity_outer_bound
        censuses[k, l] = tuple([int(counts[k][l, length]) for length in range(2, g.f)])
    return censuses


def short_path_counts(g: Graph, chords) -> dict:
    """The 2-edge and 3-edge path counts between the endpoints of each absent
    chord (k, l), read off the adjacency rows: the first two entries of its
    chord census (for f < 4 the census is shorter, and the counts past its
    end are 0).

    The 2-edge paths are the common neighbours of k and l.  The 3-edge paths
    are the walks k-a-b-l, one per neighbour a of k and common neighbour b of
    a and l; each is a simple path, since k is not a neighbour of l.
    """
    adj = g._adj
    counts = {}
    for k, l in chords:
        row_k, row_l = adj[k - 1], adj[l - 1]
        if row_k >> (l - 1) & 1:
            raise ValidationError(f"candidate edge {(k, l)!r} already in graph")
        counts[k, l] = ((row_k & row_l).bit_count(),
                        sum((adj[a] & row_l).bit_count() for a in _bits(row_k)))
    return counts


def complete_cycle_census(f: int) -> tuple[int, ...]:
    """Closed form for K_f: C(f,l) * (l-1)! / 2 cycles of length l."""
    return tuple(
        math.comb(f, length) * math.factorial(length - 1) // 2 for length in range(3, f + 1)
    )


def _twin_classes(adj) -> list[list[int]]:
    """The twin classes of the 0-based vertices, each sorted, ordered by
    their smallest member."""
    classes = []
    for v, row in enumerate(adj):
        for c in classes:
            if row & ~(1 << c[0]) == adj[c[0]] & ~(1 << v):
                c.append(v)
                break
        else:
            classes.append([v])
    return classes


def _refine(adj, color) -> tuple:
    """The coarsest equitable refinement of a coloring by ranks 0..m-1, as
    ranks, and the sorted keys of its last round.

    Each vertex of a cell with more than one vertex is recolored by its old
    color and its neighbour count in every cell, ranked in sorted order,
    until no cell splits or every cell is a singleton.  Sorting keeps the
    order of the old cells, so the refinement commutes with relabelling, and
    the keys, which hold each cell's neighbour counts, are the same for
    colorings that an automorphism maps onto each other.
    """
    m = max(color) + 1
    while True:
        cells = [0] * m
        for v, c in enumerate(color):
            cells[c] |= 1 << v
        sig = [(c, *[(row & w).bit_count() for w in cells]) if cells[c] & cells[c] - 1 else (c,)
               for c, row in zip(color, adj)]
        keys = sorted(set(sig))
        if len(keys) == m:
            return color, keys
        rank = {s: i for i, s in enumerate(keys)}
        color = [rank[s] for s in sig]
        if len(keys) == len(adj):
            return color, keys
        m = len(keys)


def _target(color) -> list[int]:
    """The vertices of the first cell with more than one vertex, or []."""
    seen = {}
    for v, c in enumerate(color):
        seen.setdefault(c, []).append(v)
    return next((seen[c] for c in sorted(seen) if len(seen[c]) > 1), [])


def _individualise(adj, color, v) -> tuple:
    """_refine after individualising v: v takes its cell's rank, and the rest
    of the cell and every later cell move up by one."""
    c = color[v]
    return _refine(adj, [x + (x > c or x == c and u != v) for u, x in enumerate(color)])


def _quotient(adj) -> tuple:
    """(twin classes, class of each 0-based vertex, adjacency rows of the
    quotient graph on the classes, its coloring by class size and kind as
    ranks)."""
    classes = _twin_classes(adj)
    cls = [0] * len(adj)
    for i, c in enumerate(classes):
        for v in c:
            cls[v] = i
    # a class is adjacent to all of another class or to none of it
    reps = sum(1 << c[0] for c in classes)
    quotient = [sum(1 << cls[u] for u in _bits(adj[c[0]] & reps)) for c in classes]
    # size, and 1 for a clique of two or more, else 0
    kinds = [(len(c), adj[c[0]] >> c[-1] & 1) for c in classes]
    rank = {kind: i for i, kind in enumerate(sorted(set(kinds)))}
    return classes, cls, quotient, [rank[kind] for kind in kinds]


@lru_cache(maxsize=None)
def _pair_bits(f: int) -> list:
    """The mask bit of the edge between each two 0-based vertices, 0 on the
    diagonal."""
    return [[a != b and edge_bits(f)[min(a, b) + 1, max(a, b) + 1] for b in range(f)] for a in range(f)]


def _labelled_mask(adj, label) -> int:
    """The edge mask of the graph with adjacency rows adj once each 0-based
    vertex v is numbered label[v]."""
    bits = _pair_bits(len(adj))
    # row & -2 << v keeps the neighbours u > v
    return sum(bits[label[v]][label[u]] for v, row in enumerate(adj) for u in _bits(row & -2 << v))


def _symmetry(adj) -> tuple:
    """(twin classes, class of each 0-based vertex, generators, canonical
    labelling, canonical mask) of the graph with adjacency rows adj, from one
    walk of the refinement tree of its quotient (_quotient).

    A leaf, a discrete coloring of the classes, numbers the vertices class by
    class in the order of its colors.  Two leaves whose labellings give the
    same edge mask differ by an automorphism, the class permutation from one
    to the other lifted by mapping the sorted members of each class onto
    those of its image.  The generators are such class permutations; with
    the permutations inside each class they generate the automorphism group.
    The canonical labelling, a dict from each vertex to its number, is that
    of the leaf with the smallest (trace, mask), where the trace lists the
    refinement keys from the root down to the leaf, and the canonical mask is
    that leaf's mask, the graph's edges under the labelling.

    The first path individualises the first vertex of each node's target
    cell until the coloring is discrete.  Then, deepest node first, each
    other vertex of a first-path node's target cell that the generators
    found so far do not join to the path's vertex is individualised in its
    place, and its subtree is searched depth first up to the first leaf with
    the first leaf's mask: the permutation to it is a generator, and maps the
    path's subtree onto the rest.  A node is cut when its trace leaves the
    first path's, so that it holds no image of the first leaf, and compares
    above the canonical leaf's.
    """
    classes, cls, quotient, color = _quotient(adj)
    node, keys = _refine(quotient, color)
    path, first_trace = [], [keys]
    while cell := _target(node):
        path.append((node, cell))
        node, keys = _individualise(quotient, node, cell[0])
        first_trace.append(keys)

    def labelling(color):
        return {v: new for new, v in enumerate(v for _, c in sorted(zip(color, classes)) for v in c)}

    first = node
    first_mask = _labelled_mask(adj, labelling(first))
    best = (first_trace, first_mask, first)

    def visit(color, trace, same, w):
        # the class permutation from the first leaf to the first leaf below w
        # with its mask, or None
        nonlocal best
        color, keys = _individualise(quotient, color, w)
        same = same and keys == first_trace[len(trace)]
        trace = trace + [keys]
        if not same and trace > best[0][:len(trace)]:
            return None
        # a coloring with a key per vertex is discrete
        if len(keys) < len(color) and (cell := _target(color)):
            return next(filter(None, (visit(color, trace, same, x) for x in cell)), None)
        mask = _labelled_mask(adj, labelling(color))
        if mask == first_mask:
            at = sorted(range(len(color)), key=color.__getitem__)
            return [at[c] for c in first]
        if (trace, mask) < best[:2]:
            best = (trace, mask, color)
        return None

    gens = []
    orbit = list(range(len(classes)))
    for depth in reversed(range(len(path))):
        color, (v, *rest) = path[depth]
        for w in rest:
            if orbit[w] != orbit[v] and (gamma := visit(color, first_trace[:depth + 1], True, w)):
                gens.append(gamma)
                for x, y in enumerate(gamma):
                    a, b = orbit[x], orbit[y]
                    if a != b:
                        orbit = [min(a, b) if o in (a, b) else o for o in orbit]
    return classes, cls, gens, labelling(best[2]), best[1]


def _canonical_form(mask: int, f: int) -> int:
    """One mask for the whole isomorphism class of the edge set mask: the
    canonical mask of _symmetry on its adjacency rows (mask_rows).
    Refinement and the choice of target cell commute with relabeling, so
    isomorphic masks have the same (trace, mask) pairs at their leaves, and
    the walk reaches one with the smallest pair."""
    return _symmetry(mask_rows(mask, f))[4]


def edge_orbits(g: Graph, candidates) -> dict:
    """The smallest edge of the orbit of each candidate non-edge of g under
    Aut(g), keyed by candidate.

    Permutations inside twin classes move a non-edge to any other between
    the same two classes (or inside the same independent class), so a
    non-edge's orbit is the union, over the orbit of its class pair under
    the quotient generators, of the non-edges between those classes.  The
    smallest of those is the pair of the classes' smallest members (or the
    two smallest members of one class).
    """
    classes, cls, gens, *_ = _symmetry(g._adj)

    def smallest(ij):
        i, j = ij
        return (classes[i][0] + 1, classes[i][1] + 1) if i == j else (classes[i][0] + 1, classes[j][0] + 1)

    rep, out = {}, {}
    for e in candidates:
        i, j = cls[e[0] - 1], cls[e[1] - 1]
        key = (i, j) if i <= j else (j, i)
        if key not in rep:
            orbit, todo = {key}, [key]
            while todo:
                i, j = todo.pop()
                for gamma in gens:
                    image = tuple(sorted((gamma[i], gamma[j])))
                    if image not in orbit:
                        orbit.add(image)
                        todo.append(image)
            rep.update(dict.fromkeys(orbit, min(map(smallest, orbit))))
        out[e] = rep[key]
    return out
