import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
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
    induced_cycle_vector,
    is_matching,
    is_near_perfect_matching,
    is_perfect_matching,
    ldf_order,
    matching_size,
    order_inner_edges,
    periphery,
    simple_path_counts,
)
from pqcbound.errors import DisconnectedGraph, EdgePresent, InvalidEdge, InvalidVertex
from pqcbound.graphs import _bits, _popcount_layers, complete_cycle_census, mask_to_edges

HEXAGON = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]


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

    def test_rejects_bad_edges(self):
        for bad in [(2, 2), (3, 2), (0, 1), (1, 7), (1,), "xy"]:
            with pytest.raises(InvalidEdge):
                edge_index(bad, 6)
        with pytest.raises(InvalidEdge):
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
        with pytest.raises(InvalidVertex):
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
        with pytest.raises(InvalidVertex):
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
        with pytest.raises(DisconnectedGraph):
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


class TestCycleVectors:
    def test_hexagon_chords_full_graph(self):
        g = Graph(6, HEXAGON)
        for e in [(1, 4), (2, 5), (3, 6)]:
            assert induced_cycle_vector(g, e, "full-graph") == (0, 2, 0, 1)
        for e in [(1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (4, 6)]:
            assert induced_cycle_vector(g, e, "full-graph") == (1, 0, 1, 1)

    def test_hexagon_plus_chord_full_graph(self):
        g = Graph(6, HEXAGON + [(1, 4)])
        for e in [(2, 5), (3, 6)]:
            assert induced_cycle_vector(g, e, "full-graph") == (0, 5, 0, 2)
        for e in [(2, 6), (3, 5)]:
            assert induced_cycle_vector(g, e, "full-graph") == (1, 2, 3, 1)
        for e in [(1, 3), (1, 5), (2, 4), (4, 6)]:
            assert induced_cycle_vector(g, e, "full-graph") == (2, 2, 1, 1)

    def test_rejects_present_edge(self):
        with pytest.raises(EdgePresent):
            induced_cycle_vector(Graph(6, HEXAGON), (1, 2))

    def test_modes_differ_by_base_census(self):
        rng = random.Random(17)
        for f in (5, 6, 7):
            for _ in range(8):
                g = Graph(f, rng.sample(all_edges(f), rng.randint(0, edge_count(f) - 1)))
                candidate = rng.choice(sorted(set(all_edges(f)) - g.edge_set))
                base = cycle_census(g)
                through = induced_cycle_vector(g, candidate, "through-edge")
                full = induced_cycle_vector(g, candidate, "full-graph")
                assert tuple(b + t for b, t in zip(base, through)) == full

    def test_modes_share_argmin(self):
        rng = random.Random(23)
        for _ in range(10):
            f = rng.choice([5, 6])
            g = Graph(f, rng.sample(all_edges(f), rng.randint(3, edge_count(f) - 2)))
            candidates = sorted(set(all_edges(f)) - g.edge_set)
            by_through = min(candidates, key=lambda e: (induced_cycle_vector(g, e), e))
            by_full = min(candidates, key=lambda e: (induced_cycle_vector(g, e, "full-graph"), e))
            assert by_through == by_full

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            induced_cycle_vector(Graph(4), (1, 2), "sideways")


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
        with pytest.raises(EdgePresent):
            graphs.chord_censuses(Graph(6, HEXAGON), [(1, 3), (1, 2)])


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
        new_vectors = [induced_cycle_vector(g, e) for e in absent]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "simple_path_counts", _simple_path_counts_oracle)
            assert new_census == cycle_census(g)
            assert new_vectors == [induced_cycle_vector(g, e) for e in absent]

    @pytest.mark.parametrize("f", range(5, 12))
    def test_ldf_order_matches_loop_oracle(self, f, monkeypatch):
        got = ldf_order(f)
        monkeypatch.setattr(graphs, "simple_path_counts", _simple_path_counts_oracle)
        assert got == ldf_order(f)
