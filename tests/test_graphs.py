import math
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqcbound import (
    Graph,
    all_edges,
    chromatic_index,
    connected_components,
    cycle_census,
    distance,
    edge_count,
    edge_from_index,
    edge_index,
    graphs,
    is_matching,
    is_near_perfect_matching,
    is_perfect_matching,
    ldf_order,
    matching_size,
    order_inner_edges,
    periphery,
    simple_path_counts,
)
from pqcbound.errors import ValidationError
from pqcbound.graphs import MAX_VERTICES, _bits, complete_cycle_census, edges_to_mask, mask_to_edges, short_path_counts
from tests.relabelings import edge_remaps

HEXAGON = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]


def _popcount_layers(f: int) -> tuple:
    """Vertex-subset masks grouped by popcount, as int64 arrays."""
    masks = np.arange(1 << f, dtype=np.int64)
    pc = np.zeros(1 << f, dtype=np.int64)
    for i in range(f):
        pc += (masks >> i) & 1
    return tuple(masks[pc == k] for k in range(f + 1))


def _path_counts_oracle(adj: list[int], f: int, src0: int) -> np.ndarray:
    """Reference loop over (popcount layer, last vertex w, neighbour x) for
    the path-count DP: counts[t, L] for 0-based t, kept only as a test oracle."""
    dp = np.zeros((1 << f, f), dtype=np.int64)
    dp[1 << src0, src0] = 1
    layers = _popcount_layers(f)
    res = np.zeros((f, f), dtype=np.int64)
    for k in range(1, f):
        masks = layers[k]
        masks = masks[((masks >> src0) & 1) == 1]
        if masks.size == 0:
            continue
        for w in range(f):
            mw = masks[((masks >> w) & 1) == 1]
            if mw.size == 0:
                continue
            vals = dp[mw, w]
            nz = vals > 0
            if not nz.any():
                continue
            act = mw[nz]
            v = vals[nz]
            for x in _bits(adj[w]):
                sel = ((act >> x) & 1) == 0
                if not sel.any():
                    continue
                src = act[sel]
                # distinct source masks stay distinct after setting bit x
                dp[src | (1 << x), x] += v[sel]
    for k in range(2, f + 1):
        masks = layers[k]
        masks = masks[((masks >> src0) & 1) == 1]
        if masks.size:
            res[:, k - 1] = dp[masks, :].sum(axis=0)
    return res


def _simple_path_counts_oracle(g: Graph, source: int) -> np.ndarray:
    """simple_path_counts's (f+1, f) layout over the loop oracle."""
    out = np.zeros((g.f + 1, g.f), dtype=np.int64)
    out[1:] = _path_counts_oracle(g._adj, g.f, source - 1)
    return out


def _cycle_census_oracle(g: Graph) -> tuple[int, ...]:
    """cycle_census as it was before it read simple_path_counts: per smallest
    vertex s, the paths within {s..f} closed by an edge back to s."""
    f = g.f
    census = [0] * (f - 2)
    for s in range(f):
        # cycles whose smallest vertex is s: paths within {s..f-1} closed by an edge to s
        adj_sub = [g._adj[w] & ~((1 << s) - 1) if w >= s else 0 for w in range(f)]
        if adj_sub[s] == 0:
            continue
        res = _path_counts_oracle(adj_sub, f, s)
        for w in _bits(adj_sub[s]):
            for length in range(2, f):
                census[length - 1 - 1] += int(res[w, length])
    # each cycle was traversed in both directions
    return tuple(c // 2 for c in census)


def _order_inner_edges_oracle(g: Graph, partial) -> tuple:
    """order_inner_edges's chord loop as it was before chord_censuses: one
    path count per source per step, and the first strictly smallest census
    in sorted order wins."""
    missing = sorted(set(all_edges(g.f)) - g.edge_set)
    work = g.copy()
    order = list(partial)
    while len(missing) > 2:
        counts_by_source = {}
        best_vec = None
        best_edge = None
        for k, l in missing:
            res = counts_by_source.get(k)
            if res is None:
                res = simple_path_counts(work, k)
                counts_by_source[k] = res
            # paths of length L close to cycles of length L+1
            vec = tuple([int(res[l, length]) for length in range(2, work.f)])
            if best_vec is None or vec < best_vec:
                best_vec, best_edge = vec, (k, l)
        work.add_edge(best_edge)
        order.append(best_edge)
        missing.remove(best_edge)
    order.extend(missing)
    return tuple(order)


def _connected_components_oracle(g: Graph) -> list[list[int]]:
    """connected_components as it was before it read _distances_from: a
    bitmask flood fill from each vertex not yet seen."""
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


@st.composite
def graphs_on(draw, low=2, high=9):
    """A random graph on f = low..high vertices, each edge set equally likely."""
    f = draw(st.integers(low, high), label="f")
    mask = draw(st.integers(0, (1 << (f * (f - 1) // 2)) - 1), label="edges")
    return Graph(f, mask_to_edges(mask, f))


class TestEdgeIndexing:
    def test_reference_ranks(self):
        assert edge_index((1, 2), 6) == 0
        assert edge_index((5, 6), 6) == 14
        assert edge_index((2, 4), 6) == 6

    @pytest.mark.parametrize("f", range(2, 10))
    def test_bijection(self, f):
        edges = all_edges(f)
        assert len(edges) == edge_count(f)
        for i, e in enumerate(edges):
            assert edge_index(e, f) == i
            assert edge_from_index(i, f) == e

    @pytest.mark.parametrize("f", range(2, MAX_VERTICES + 1))
    def test_ends_table(self, f):
        edges = all_edges(f)
        assert graphs.edge_ends(f) == tuple((k - 1, l - 1) for k, l in edges)
        assert [edge_from_index(i, f) for i in range(len(edges))] == edges

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mask_rows_are_the_graph_rows(self, data):
        f = data.draw(st.integers(2, MAX_VERTICES), label="f")
        mask = data.draw(st.integers(0, (1 << edge_count(f)) - 1), label="mask")
        assert graphs.mask_rows(mask, f) == Graph(f, mask_to_edges(mask, f))._adj

    def test_rejects_bad_edges(self):
        for bad in [(2, 2), (3, 2), (0, 1), (1, 7), (1,), "xy"]:
            with pytest.raises(ValidationError, match=rf"edge (must be a \(k, l\) pair, got )?{re.escape(repr(bad))}"):
                edge_index(bad, 6)
        with pytest.raises(ValidationError, match="edge index 15 out of range for f=6"):
            edge_from_index(15, 6)


class TestGraph:
    def test_add_remove(self):
        g = Graph(4, [(1, 2)])
        assert g.has_edge((1, 2))
        assert g.degree(1) == 1
        g.add_edge((2, 3))
        g.remove_edge((1, 2))
        assert not g.has_edge((1, 2))
        assert g.edges == ((2, 3),)

    def test_copy_is_independent(self):
        g = Graph(4, [(1, 2)])
        h = g.copy()
        h.add_edge((3, 4))
        assert not g.has_edge((3, 4))

    def test_vertex_validation(self):
        g = Graph(4)
        with pytest.raises(ValidationError, match="vertex 5 out of range for f=4"):
            g.degree(5)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_edge_set_model(self, data):
        f = data.draw(st.integers(2, 9), label="f")
        edge = st.sampled_from(all_edges(f))
        steps = data.draw(st.lists(st.tuples(st.booleans(), edge), max_size=60), label="steps")
        g, model = Graph(f), set()
        for add, e in steps:
            if add:
                g.add_edge(e)
                model.add(e)
            else:
                g.remove_edge(e)
                model.discard(e)
            assert g.edges == tuple(sorted(model))
            assert g.edge_set == frozenset(model)
            assert len(g) == len(model)
        assert [g.has_edge(e) for e in all_edges(f)] == [e in model for e in all_edges(f)]
        assert [g.degree(v) for v in range(1, f + 1)] == [
            sum(v in e for e in model) for v in range(1, f + 1)]


class TestDistance:
    def test_partial_matching_distances(self):
        g = Graph(6, [(1, 2), (3, 4), (5, 6), (1, 6)])
        assert distance(g, 2, 5) == 3
        assert distance(g, 2, 6) == 2
        assert distance(g, 1, 5) == 2
        assert distance(g, 2, 3) == math.inf
        assert distance(g, 4, 4) == 0

    def test_symmetry(self):
        rng = random.Random(1)
        for _ in range(10):
            g = Graph(7, rng.sample(all_edges(7), rng.randint(0, 21)))
            u, v = rng.sample(range(1, 8), 2)
            assert distance(g, u, v) == distance(g, v, u)

    def test_invalid_vertex(self):
        with pytest.raises(ValidationError, match="vertex 9 out of range for f=4"):
            distance(Graph(4), 1, 9)


class TestComponents:
    def test_null_graph(self):
        assert connected_components(Graph(6)) == [[1], [2], [3], [4], [5], [6]]

    def test_single_edge_sorts_isolated_first(self):
        assert connected_components(Graph(6, [(1, 2)])) == [[3], [4], [5], [6], [1, 2]]

    def test_perfect_matching(self):
        g = Graph(6, [(1, 2), (3, 4), (5, 6)])
        assert connected_components(g) == [[1, 2], [3, 4], [5, 6]]

    @settings(max_examples=200, deadline=None)
    @given(g=graphs_on())
    def test_matches_flood_fill_oracle(self, g):
        assert connected_components(g) == _connected_components_oracle(g)


class TestPeriphery:
    def test_path_has_unique_diameter_pair(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        assert periphery(g) == [(1, 6)]

    def test_complete_graph(self):
        assert len(periphery(Graph.complete(6))) == 15

    def test_hexagon_antipodal_pairs(self):
        assert periphery(Graph(6, HEXAGON)) == [(1, 4), (2, 5), (3, 6)]

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError, match="periphery undefined for a disconnected graph"):
            periphery(Graph(4, [(1, 2)]))


class TestMatchings:
    def test_perfect(self):
        edges = [(1, 2), (3, 4), (5, 6)]
        assert is_matching(edges)
        assert is_perfect_matching(edges, 6)

    def test_shared_vertex(self):
        assert not is_matching([(1, 2), (1, 3)])

    def test_near_perfect(self):
        assert is_near_perfect_matching([(2, 5), (3, 4)], 5)
        assert not is_near_perfect_matching([(2, 5)], 5)


class TestChromaticIndex:
    def test_values(self):
        assert chromatic_index(6) == 5
        assert chromatic_index(5) == 5
        assert chromatic_index(2) == 1

    def test_matching_size(self):
        assert matching_size(6) == 3
        assert matching_size(5) == 2
        assert matching_size(2) == 1


def _closed_census(g, e):
    """The cycle census of g with the absent edge e added."""
    return cycle_census(Graph(g.f, [*g.edges, e]))


class TestCycleVectors:
    def test_hexagon_chords_full_graph(self):
        g = Graph(6, HEXAGON)
        for e in [(1, 4), (2, 5), (3, 6)]:
            assert _closed_census(g, e) == (0, 2, 0, 1)
        for e in [(1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (4, 6)]:
            assert _closed_census(g, e) == (1, 0, 1, 1)

    def test_hexagon_plus_chord_full_graph(self):
        g = Graph(6, HEXAGON + [(1, 4)])
        for e in [(2, 5), (3, 6)]:
            assert _closed_census(g, e) == (0, 5, 0, 2)
        for e in [(2, 6), (3, 5)]:
            assert _closed_census(g, e) == (1, 2, 3, 1)
        for e in [(1, 3), (1, 5), (2, 4), (4, 6)]:
            assert _closed_census(g, e) == (2, 2, 1, 1)

    def test_modes_differ_by_base_census(self):
        rng = random.Random(17)
        for f in (5, 6, 7):
            for _ in range(8):
                g = Graph(f, rng.sample(all_edges(f), rng.randint(0, edge_count(f) - 1)))
                candidate = rng.choice(sorted(set(all_edges(f)) - g.edge_set))
                base = cycle_census(g)
                through = graphs.chord_censuses(g, [candidate])[candidate]
                assert tuple(b + t for b, t in zip(base, through)) == _closed_census(g, candidate)

    def test_modes_share_argmin(self):
        rng = random.Random(23)
        for _ in range(10):
            f = rng.choice([5, 6])
            g = Graph(f, rng.sample(all_edges(f), rng.randint(3, edge_count(f) - 2)))
            candidates = sorted(set(all_edges(f)) - g.edge_set)
            through = graphs.chord_censuses(g, candidates)
            by_through = min(candidates, key=lambda e: (through[e], e))
            by_full = min(candidates, key=lambda e: (_closed_census(g, e), e))
            assert by_through == by_full


class TestCycleCensus:
    @pytest.mark.parametrize("f", [4, 5, 6, 7])
    def test_complete_graph_closed_form(self, f):
        assert cycle_census(Graph.complete(f)) == complete_cycle_census(f)

    def test_hexagon(self):
        assert cycle_census(Graph(6, HEXAGON)) == (0, 0, 0, 1)

    def test_forest_has_no_cycles(self):
        g = Graph(6, [(1, 2), (2, 3), (4, 5)])
        assert cycle_census(g) == (0, 0, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(g=graphs_on())
    def test_matches_smallest_vertex_oracle(self, g):
        assert cycle_census(g) == _cycle_census_oracle(g)


class TestChordCensuses:
    @settings(max_examples=60, deadline=None)
    @given(g=graphs_on())
    def test_matches_chord_loop_oracle(self, g):
        f = g.f
        absent = [e for e in all_edges(f) if not g.has_edge(e)]
        want = {(k, l): tuple([int(simple_path_counts(g, k)[l, length]) for length in range(2, f)])
                for k, l in absent}
        assert graphs.chord_censuses(g, absent) == want
        if absent:
            assert order_inner_edges(g, g.edges) == _order_inner_edges_oracle(g, g.edges)

    def test_one_path_count_per_source(self, monkeypatch):
        calls = []

        def counted(g, source):
            calls.append(source)
            return simple_path_counts(g, source)

        monkeypatch.setattr(graphs, "simple_path_counts", counted)
        chords = [(1, 3), (1, 4), (2, 5), (1, 5), (2, 4)]
        graphs.chord_censuses(Graph(6, HEXAGON), chords)
        assert calls == [1, 2]

    def test_rejects_present_chord(self):
        with pytest.raises(ValidationError, match=r"candidate edge \(1, 2\) already in graph"):
            graphs.chord_censuses(Graph(6, HEXAGON), [(1, 3), (1, 2)])


class TestShortPathPrefilter:
    """order_inner_edges ranks chords on their exact 2- and 3-edge path
    counts first, and builds full censuses only for the chords tied there."""

    @settings(max_examples=100, deadline=None)
    @given(g=graphs_on(high=10))
    def test_counts_are_the_census_prefix(self, g):
        f = g.f
        absent = [e for e in all_edges(f) if not g.has_edge(e)]
        got = short_path_counts(g, absent)
        for k, l in absent:
            counts = simple_path_counts(g, k)
            assert got[k, l] == (counts[l, 2] if f > 2 else 0, counts[l, 3] if f > 3 else 0)

    def test_rejects_present_chord(self):
        with pytest.raises(ValidationError, match=r"candidate edge \(1, 2\) already in graph"):
            short_path_counts(Graph(6, HEXAGON), [(1, 3), (1, 2)])

    @pytest.mark.parametrize(
        "f", [*range(5, 13), *(pytest.param(f, marks=pytest.mark.slow) for f in (13, 14))])
    def test_ldf_cycle_matches_full_census_oracle(self, f):
        cycle = ldf_order(f)[:f]
        g = Graph(f, cycle)
        assert order_inner_edges(g, cycle) == _order_inner_edges_oracle(g, cycle)

    def test_unique_short_minimum_needs_no_path_counts(self, monkeypatch):
        f = 10
        order = ldf_order(f)
        calls_at = []  # the edge count of the graph each path count is taken on

        def counted(g, source):
            calls_at.append(len(g))
            return simple_path_counts(g, source)

        with monkeypatch.context() as mp:
            mp.setattr(graphs, "simple_path_counts", counted)
            assert order_inner_edges(Graph(f, order[:f]), order[:f]) == order
        work = Graph(f, order[:f])
        tied, settled_by_3_paths = set(), 0
        for i in range(f, len(order) - 2):
            short = short_path_counts(work, order[i:])
            low = min(short.values())
            if sum(v == low for v in short.values()) > 1:
                tied.add(len(work))
            elif sum(v[0] == low[0] for v in short.values()) > 1:
                settled_by_3_paths += 1
            work.add_edge(order[i])
        assert set(calls_at) == tied
        # some steps are settled by the 3-edge paths alone
        assert settled_by_3_paths > 0


class TestSimplePathCounts:
    def test_path_graph(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4)])
        res = simple_path_counts(g, 1)
        assert res[2, 1] == 1 and res[3, 2] == 1 and res[4, 3] == 1
        assert res[4, 1] == 0

    def test_complete_k4(self):
        res = simple_path_counts(Graph.complete(4), 1)
        assert res[2, 1] == 1  # direct edge
        assert res[2, 2] == 2  # via 3 or 4
        assert res[2, 3] == 2  # 1-3-4-2 and 1-4-3-2


class TestPathCountKernel:
    """The layer-wise kernel against the per-(layer, w, x) loop oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_loop_oracle(self, data):
        f = data.draw(st.integers(2, 10), label="f")
        mask = data.draw(st.integers(0, (1 << (f * (f - 1) // 2)) - 1), label="edges")
        g = Graph(f, mask_to_edges(mask, f))
        for s in range(1, f + 1):
            got = simple_path_counts(g, s)
            assert got.dtype == np.int64 and got.shape == (f + 1, f)
            assert not got[0].any()
            assert np.array_equal(got[1:], _path_counts_oracle(g._adj, f, s - 1))
        new_census = cycle_census(g)
        absent = [e for e in all_edges(f) if not g.has_edge(e)]
        new_vectors = graphs.chord_censuses(g, absent)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "simple_path_counts", _simple_path_counts_oracle)
            assert new_census == cycle_census(g)
            assert new_vectors == graphs.chord_censuses(g, absent)

    @pytest.mark.parametrize("f", range(5, 12))
    def test_ldf_order_matches_loop_oracle(self, f, monkeypatch):
        got = ldf_order(f)
        monkeypatch.setattr(graphs, "simple_path_counts", _simple_path_counts_oracle)
        assert got == ldf_order(f)

    @pytest.mark.parametrize("f", range(2, graphs.MAX_VERTICES + 1))
    def test_complete_graph_closed_form(self, f):
        # (f-2)!/(f-1-L)! ordered choices of the L-1 inner vertices; at f = 16
        # the counts reach 14!, so the float64 DP must hold them exactly
        want = np.zeros((f + 1, f), dtype=np.int64)
        for length in range(1, f):
            want[1:, length] = math.factorial(f - 2) // math.factorial(f - 1 - length)
        g = Graph.complete(f)
        for s in range(1, f + 1):
            want_s = want.copy()
            want_s[s] = 0
            assert np.array_equal(simple_path_counts(g, s), want_s)


def _generators(g: Graph) -> list[tuple[int, ...]]:
    """The generators behind edge_orbits, each a tuple p with p[v - 1] the
    image of vertex v: a swap of each two members of a twin class, and the
    class permutations of _symmetry, lifted by mapping the sorted members of
    each class onto those of its image."""
    classes, _, gens, _, _ = graphs._symmetry(g._adj)
    swaps = []
    for c in classes:
        for a, b in combinations(c, 2):
            p = list(range(1, g.f + 1))
            p[a], p[b] = b + 1, a + 1
            swaps.append(tuple(p))
    lifts = []
    for gamma in gens:
        p = [0] * g.f
        for c, image in zip(classes, gamma):
            for v, u in zip(c, classes[image]):
                p[v] = u + 1
        lifts.append(tuple(p))
    return swaps + lifts


def _is_automorphism(g: Graph, p) -> bool:
    return sorted(p) == list(range(1, g.f + 1)) and \
        {tuple(sorted((p[k - 1], p[l - 1]))) for k, l in g.edges} == g.edge_set


def _orbits_oracle(g: Graph) -> dict:
    """The smallest non-edge of each non-edge's orbit, over every one of the
    f! relabelings (edge_remaps) that maps g onto itself."""
    f = g.f
    mask = edges_to_mask(g.edges, f)
    fixing = [r for r in edge_remaps(f) if sum(1 << r[i] for i in _bits(mask)) == mask]
    return {e: edge_from_index(min(r[edge_index(e, f)] for r in fixing), f)
            for e in all_edges(f) if not g.has_edge(e)}


def _orbits_networkx(g: Graph) -> dict:
    """The same map through networkx: two non-edges share an orbit when g plus
    one, with that edge marked, is isomorphic to g plus the other, marked."""
    nx = pytest.importorskip("networkx")

    def marked(e):
        h = nx.Graph()
        h.add_nodes_from(range(1, g.f + 1))
        h.add_edges_from(g.edges, mark=0)
        h.add_edge(*e, mark=1)
        return h

    same_mark = nx.algorithms.isomorphism.categorical_edge_match("mark", None)
    reps, out = [], {}
    for e in all_edges(g.f):
        if not g.has_edge(e):
            h = marked(e)
            out[e] = next((r for r, hr in reps if nx.is_isomorphic(h, hr, edge_match=same_mark)), e)
            if out[e] == e:
                reps.append((e, h))
    return out


CUBE = [(a + 1, b + 1) for a in range(8) for b in range(a + 1, 8) if (a ^ b).bit_count() == 1]
PETERSEN = [(k, k + 1) for k in range(1, 5)] + [(1, 5)] + [(k, k + 5) for k in range(1, 6)] \
    + [(6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]


def _symmetric_graphs():
    """Graphs on 7..9 vertices with large or tricky automorphism groups."""
    def cycle(f):
        return [(k, k + 1) for k in range(1, f)] + [(1, f)]

    rook = [(a + 1, b + 1) for a in range(9) for b in range(a + 1, 9)
            if a // 3 == b // 3 or a % 3 == b % 3]  # K3 x K3, strongly regular
    return [
        Graph(7, cycle(7)),
        Graph(8, cycle(8)),
        Graph(9, [e for e in all_edges(9) if e not in cycle(9)]),
        Graph(8, CUBE),
        Graph(9, rook),
        Graph(9, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (7, 9)]),
        Graph(7, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]),
        Graph(8, [(1, 2), (3, 4), (5, 6), (7, 8), (1, 3), (5, 7)]),
        Graph(9, [(1, k) for k in range(2, 10)]),
        Graph(8, []),
    ]


def _random_graphs(f, count, seed):
    rng = random.Random(seed)
    return [Graph(f, [e for e in all_edges(f) if rng.random() < p])
            for p in (rng.uniform(0.1, 0.9) for _ in range(count))]


class TestAutomorphisms:
    """edge_orbits and the generators behind it against orbits found without
    them."""

    @settings(max_examples=150, deadline=None)
    @given(g=graphs_on(2, 6), sparse=st.booleans())
    def test_orbits_match_relabelings_that_fix_the_graph(self, g, sparse):
        # half the draws keep only every other edge's chance, for more symmetry
        if sparse:
            g = Graph(g.f, g.edges[::2])
        absent = [e for e in all_edges(g.f) if not g.has_edge(e)]
        assert graphs.edge_orbits(g, absent) == _orbits_oracle(g)

    @settings(max_examples=100, deadline=None)
    @given(g=graphs_on(2, 6))
    def test_leaves_that_are_not_automorphisms_are_dropped(self, g):
        # with refinement a no-op every node keeps the first path's keys, so
        # the walk reaches leaves that are no automorphism; comparing their
        # masks with the first leaf's drops them
        absent = [e for e in all_edges(g.f) if not g.has_edge(e)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_refine", lambda adj, color: (color, []))
            got = graphs.edge_orbits(g, absent)
            generators = _generators(g)
        assert got == _orbits_oracle(g)
        assert all(_is_automorphism(g, p) for p in generators)

    @settings(max_examples=150, deadline=None)
    @given(g=graphs_on(2, 12))
    def test_generators_are_automorphisms(self, g):
        assert all(_is_automorphism(g, p) for p in _generators(g))

    @pytest.mark.parametrize("g", _symmetric_graphs() + _random_graphs(7, 4, 1) + _random_graphs(8, 4, 2)
                             + _random_graphs(9, 4, 3), ids=lambda g: f"f{g.f}-{len(g)}edges")
    def test_orbits_match_networkx(self, g):
        absent = [e for e in all_edges(g.f) if not g.has_edge(e)]
        want = _orbits_networkx(g)
        assert graphs.edge_orbits(g, absent) == want
        assert all(_is_automorphism(g, p) for p in _generators(g))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_orbit_members_have_bit_equal_entropies(self, data, shared_cache):
        q = data.draw(st.sampled_from((2, 3, 5)), label="q")
        g = data.draw(graphs_on(2, {2: 8, 3: 6, 5: 5}[q]), label="g")
        cache = shared_cache(g.f, q)
        base = edges_to_mask(g.edges, g.f)
        absent = [e for e in all_edges(g.f) if not g.has_edge(e)]
        for e, r in graphs.edge_orbits(g, absent).items():
            assert r <= e and not g.has_edge(r)
            h = cache.joint_entropy(base | 1 << edge_index(e, g.f))
            assert h.hex() == cache.joint_entropy(base | 1 << edge_index(r, g.f)).hex()


def _labeler_graphs():
    """Graphs on 2..10 vertices rich in twins (empty, complete, matchings,
    stars) or free of them (cycles, the cube, the Petersen graph), and
    _symmetric_graphs."""
    out = []
    for f in range(2, 11):
        out += [Graph(f), Graph.complete(f), Graph(f, [(k, k + 1) for k in range(1, f, 2)]),
                Graph(f, [(1, k) for k in range(2, f + 1)])]
        if f >= 5:
            out.append(Graph(f, [(k, k + 1) for k in range(1, f)] + [(1, f)]))
    return out + [Graph(10, PETERSEN)] + _symmetric_graphs() + _regular_graphs()


def _regular_graphs():
    """Regular graphs whose vertices are not all alike, so color refinement
    splits none of them although their automorphisms do not join every
    vertex: unions of cycles, which collapse into twin classes, and a cubic
    graph on 8 vertices and a quartic one on 9, which have no twins."""
    def cycles(*lengths):
        edges, start = [], 1
        for n in lengths:
            edges += [(start + i, start + i + 1) for i in range(n - 1)] + [(start, start + n - 1)]
            start += n
        return Graph(start - 1, edges)

    cubic = [(1, 2), (1, 7), (1, 8), (2, 4), (2, 8), (3, 5), (3, 6), (3, 8), (4, 5), (4, 7), (5, 6), (6, 7)]
    quartic = [(1, 3), (1, 6), (1, 8), (1, 9), (2, 4), (2, 7), (2, 8), (2, 9), (3, 5), (3, 7), (3, 8),
               (4, 5), (4, 7), (4, 8), (5, 6), (5, 9), (6, 7), (6, 9)]
    return [cycles(3, 4), cycles(3, 5), cycles(4, 5), cycles(3, 3, 4), cycles(3, 7), Graph(8, cubic),
            Graph(9, quartic)]


def _relabeled(edges, perm):
    return [tuple(sorted((perm[k - 1], perm[l - 1]))) for k, l in edges]


class TestCanonicalForm:
    """graphs._canonical_form gives every edge set of one isomorphism class
    the same mask, and edge sets of different classes different masks."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_relabeling_keeps_the_mask(self, data):
        g = data.draw(st.one_of(graphs_on(2, 10), st.sampled_from(_labeler_graphs())), label="g")
        perm = data.draw(st.permutations(range(1, g.f + 1)), label="perm")
        mask = edges_to_mask(g.edges, g.f)
        canon = graphs._canonical_form(mask, g.f)
        assert graphs._canonical_form(edges_to_mask(_relabeled(g.edges, perm), g.f), g.f) == canon
        # the form is an edge set of the same class: as many edges, and its own form
        assert canon.bit_count() == len(g) and graphs._canonical_form(canon, g.f) == canon

    # the empty and complete graphs are one twin class, and the quotient of
    # the third graph is discrete after the first refinement: each of their
    # walks has one leaf.  Drawn masks at f <= 8 almost never have a
    # canonical leaf other than the first; relabeled regular graphs often do
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mask_is_the_labelling_mask(self, data):
        f = data.draw(st.integers(4, 8), label="f")
        full = (1 << edge_count(f)) - 1
        single_leaf = [0, full]
        if f >= 6:
            single_leaf.append(edges_to_mask([(1, 3), (1, 4), (1, 6), (2, 3), (2, 5), (3, 4)], f))
        masks = [st.sampled_from(single_leaf), st.integers(0, full)]
        if regular := [g.edges for g in _regular_graphs() if g.f == f]:
            masks.append(st.builds(lambda edges, perm: edges_to_mask(_relabeled(edges, perm), f),
                                   st.sampled_from(regular), st.permutations(range(1, f + 1))))
        mask = data.draw(st.one_of(*masks), label="mask")
        rows = graphs.mask_rows(mask, f)
        *_, labelling, canon = graphs._symmetry(rows)
        assert canon == graphs._labelled_mask(rows, labelling)

    @pytest.mark.parametrize("g", _labeler_graphs(), ids=lambda g: f"f{g.f}-{len(g)}edges")
    def test_relabelings_of_symmetric_graphs_keep_the_mask(self, g):
        rng = random.Random(len(g))
        want = graphs._canonical_form(edges_to_mask(g.edges, g.f), g.f)
        for _ in range(20):
            perm = rng.sample(range(1, g.f + 1), g.f)
            assert graphs._canonical_form(edges_to_mask(_relabeled(g.edges, perm), g.f), g.f) == want

    # the tree nodes that finding the generators alone takes: a walk that
    # cuts every node whose keys leave the first path's
    @pytest.mark.parametrize("g,nodes", [
        (Graph(10, PETERSEN), 9),
        (Graph(8, CUBE), 9),
        (Graph(10, [(k, k + 1) for k in range(1, 10)] + [(1, 10)]), 5),
        (_regular_graphs()[5], 7),
    ], ids=["petersen", "cube", "c10", "cubic8"])
    def test_labels_in_the_walk_that_finds_the_generators(self, g, nodes, monkeypatch):
        # a labeler that walks a tree of its own, or a walk that cuts no node
        # whose trace compares above the canonical leaf's, individualises more
        calls = []
        individualise = graphs._individualise

        def counting(*args):
            calls.append(args)
            return individualise(*args)

        monkeypatch.setattr(graphs, "_individualise", counting)
        graphs._canonical_form(edges_to_mask(g.edges, g.f), g.f)
        labeler = len(calls)
        calls.clear()
        graphs.edge_orbits(g, [])
        assert labeler <= len(calls) <= nodes

    @pytest.mark.parametrize("f", [6, 7, 8])
    def test_separates_what_networkx_separates(self, f):
        # pairs with equal edge counts: a relabeled copy, with one edge moved
        # in half of them
        nx = pytest.importorskip("networkx")

        def nx_graph(edges):
            h = nx.Graph()
            h.add_nodes_from(range(1, f + 1))
            h.add_edges_from(edges)
            return h

        rng = random.Random(f)
        verdicts = set()
        for _ in range(300):
            p = rng.uniform(0.1, 0.9)
            a = [e for e in all_edges(f) if rng.random() < p]
            b = _relabeled(a, rng.sample(range(1, f + 1), f))
            absent = [e for e in all_edges(f) if e not in b]
            if b and absent and rng.random() < 0.5:
                b[rng.randrange(len(b))] = rng.choice(absent)
            same = nx.is_isomorphic(nx_graph(a), nx_graph(b))
            ca, cb = (graphs._canonical_form(edges_to_mask(es, f), f) for es in (a, b))
            assert (ca == cb) == same, (a, b)
            verdicts.add(same)
        assert verdicts == {True, False}
