import math
import random
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqcbound import (
    BoundParams,
    Graph,
    EntropyCache,
    SearchConfig,
    all_edges,
    capacity_outer_bound,
    color_sets,
    count_distinct_paths,
    count_graph_classes,
    directed_random_search,
    e_ec_search,
    ebg_order,
    ec_order,
    edge_count,
    exhaustive_search,
    ldf_order,
    matching_size,
    order_inner_edges,
)
from pqcbound.errors import (
    GraphComplete,
    InfeasibleBudget,
    SearchSpaceTooLarge,
    ValidationError,
)
from pqcbound import search
from pqcbound.bound import make_cache
from pqcbound.graphs import edge_from_index, edge_index, edges_to_mask
from pqcbound.search import SearchResult, run

HEXAGON = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]

EC_REFERENCE = {
    5: 0.5382035621102,
    6: 0.5198943946817,
    7: 0.5158988408975,
    8: 0.5088200966114,
    9: 0.5071434701312,
    10: 0.5041602427037,
    11: 0.5033789063480,
    12: 0.5020207578041,
}


def params(f, n=2, q=2):
    return BoundParams(n=n, f=f, q=q)


# Oracles: the evaluation code that bound.weighted_terms replaced, copied
# unchanged, so that the searches are checked against an independent
# implementation of the weighted-term recurrence.

@lru_cache(maxsize=None)
def _edge_bits(f: int) -> dict:
    return {e: 1 << i for i, e in enumerate(all_edges(f))}


def _weighted_terms(order, params: BoundParams, cache: EntropyCache):
    """Per-step conditional entropies and their n^-(v-1) weighted values."""
    inv_n = 1.0 / params.n
    mask = 0
    prev = 0.0
    cond = []
    weighted = []
    weight = 1.0
    for e in order:
        mask |= 1 << edge_index(e, params.f)
        h = cache.joint_entropy(mask)
        cond.append(h - prev)
        weighted.append(weight * (h - prev))
        prev = h
        weight *= inv_n
    return cond, weighted


def _partial_bound(prefix, params, cache) -> float:
    """partial_bound of distinct valid edges: the fsum of _weighted_terms."""
    _, weighted = _weighted_terms(prefix, params, cache)
    return cache.marginal_entropy() / math.fsum(weighted)


def _eval_order(order, f: int, n: int, cache: EntropyCache) -> float:
    """Bound of a full pre-validated order via cached entropies; plain
    accumulation is adequate here (mu monotone nonnegative terms) and the
    winner is re-evaluated with compensated summation for the returned
    report."""
    bits = _edge_bits(f)
    entropy = cache.joint_entropy
    inv_n = 1.0 / n
    mask = 0
    prev = 0.0
    acc = 0.0
    weight = 1.0
    for e in order:
        mask |= bits[e]
        h = entropy(mask)
        acc += weight * (h - prev)
        prev = h
        weight *= inv_n
    return cache.marginal_entropy() / acc


def _ebg_oracle(params, tie_policy, seed, cache):
    """Order, evaluations and trace of ebg_order, scoring every candidate
    with a from-scratch partial bound of the whole prefix."""
    rng = random.Random(seed)
    order = [(1, 2)]
    remaining = [e for e in all_edges(params.f) if e != (1, 2)]
    evaluations = 0
    log = []
    while remaining:
        scored = []
        for e in remaining:
            scored.append((_partial_bound(order + [e], params, cache), e))
            evaluations += 1
        best = min(pb for pb, _ in scored)
        tied = [e for pb, e in scored if pb <= best + 1e-12]
        pick = min(tied) if tie_policy == "lex" else rng.choice(tied)
        order.append(pick)
        remaining.remove(pick)
        log.append((pick, best))
    return tuple(order), max(evaluations, 1), tuple(log)


def _random_oracle(params, seed, budget, fixed_colors, cache):
    """Best order of directed_random_search, every draw scored from scratch
    by _eval_order, and its bound from _partial_bound."""
    part = color_sets(params.f)
    prefix = [e for c in range(fixed_colors) for e in part.sets[c]]
    rest_base = sorted(set(all_edges(params.f)) - set(prefix))
    rng = random.Random(seed)
    best = (math.inf, ())
    for _ in range(budget):
        rest = rest_base.copy()
        rng.shuffle(rest)
        order = tuple(prefix + rest)
        b = _eval_order(order, params.f, params.n, cache)
        if (b, order) < best:
            best = (b, order)
    return best[1], _partial_bound(best[1], params, cache)


class TestEcReference:
    @pytest.mark.parametrize("f", [5, 6, 7, 8, 9])
    def test_fast_range(self, f, shared_cache):
        report = capacity_outer_bound(ec_order(f), params(f), shared_cache(f))
        assert report.bound == pytest.approx(EC_REFERENCE[f], abs=1e-11)

    @pytest.mark.parametrize("f", [10, 11, 12])
    def test_large_range(self, f, shared_cache):
        report = capacity_outer_bound(ec_order(f), params(f), shared_cache(f))
        assert report.bound == pytest.approx(EC_REFERENCE[f], abs=1e-11)


def _e_ec_leading(task):
    """Evaluate all color permutations starting with one leading color."""
    f, q, n, sets, leading, lead = task
    cache = EntropyCache(f, q)
    rest = [c for c in range(len(sets)) if c not in leading and c != lead]
    prefix = [e for c in leading for e in sets[c]] + list(sets[lead])
    best = (math.inf, ())
    count = 0
    for perm in permutations(rest):
        order = tuple(prefix + [e for c in perm for e in sets[c]])
        b = _eval_order(order, f, n, cache)
        count += 1
        if (b, order) < best:
            best = (b, order)
    return best, count


def _e_ec_oracle(params, leading, cache, workers=1):
    """Test oracle for e_ec_search: every class permutation scored from scratch
    by _eval_order, serially or one pool task per leading class; leading holds
    0-based class indices."""
    part = color_sets(params.f)
    rest = [c for c in range(len(part.sets)) if c not in leading]
    best = (math.inf, ())
    total = 0
    if workers > 1 and len(rest) > 1:
        tasks = [(params.f, params.q, params.n, part.sets, tuple(leading), lead) for lead in rest]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for local_best, count in pool.map(_e_ec_leading, tasks):
                total += count
                if local_best < best:
                    best = local_best
    else:
        fixed_edges = [e for c in leading for e in part.sets[c]]
        for perm in permutations(rest):
            order = tuple(fixed_edges + [e for c in perm for e in part.sets[c]])
            b = _eval_order(order, params.f, params.n, cache)
            total += 1
            if (b, order) < best:
                best = (b, order)
    return SearchResult(best=capacity_outer_bound(best[1], params, cache), evaluations=total)


def _assert_same_search(got, want):
    assert got.best.order == want.best.order
    assert got.best.bound.hex() == want.best.bound.hex()
    assert got.evaluations == want.evaluations


def _path_terms(task, order):
    """Hex of the weighted terms a _block_branch task adds along `order`:
    the head's, then each block's from the table row of the blocks before it."""
    terms, _, _, _, head, head_terms, blocks, _, _ = task
    first = {block[0]: j for j, block in enumerate(blocks)}
    out = list(head_terms)
    done, pos = 0, len(head)
    while pos < len(order):
        j = first[order[pos]]
        out.extend(terms[done][j])
        done |= 1 << j
        pos += len(blocks[j])
    return [t.hex() for t in out]


class TestEEcOracle:
    # shared_cache only hands out memoized caches, which every example may share
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_permutation_loop(self, data, shared_cache):
        f = data.draw(st.integers(3, 8), label="f")
        q = data.draw(st.sampled_from((2, 3) if f <= 6 else (2,)), label="q")
        n = data.draw(st.sampled_from((1, 2, 3, 5)), label="n")
        chi = len(color_sets(f).sets)
        leading = data.draw(
            st.lists(st.integers(0, chi - 1), min_size=1, max_size=chi - 1, unique=True),
            label="leading",
        )
        p = params(f, n=n, q=q)
        cache = shared_cache(f, q)
        kernel = search._block_branch
        calls = []

        def recording(task):
            calls.append((task, kernel(task)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_block_branch", recording)
            got = e_ec_search(p, leading_colors=[c + 1 for c in leading], cache=cache)
        _assert_same_search(got, _e_ec_oracle(p, leading, cache))
        # the table's terms use the running-product weights 1, 1/n, 1/n^2, ...
        # of a from-scratch evaluation (float(n) ** -v differs from them in
        # the last bit for n = 3, 5, 6, 7), and each branch winner scores the
        # bits of _eval_order
        for task, ((b, order), _, _) in calls:
            want = [t.hex() for t in _weighted_terms(order, p, cache)[1]]
            assert _path_terms(task, order) == want
            assert b.hex() == _eval_order(order, f, n, cache).hex()

    # n = 1 gives every order the same bound, so the tie rule picks the winner
    @pytest.mark.parametrize("f,n", [(7, 3), (8, 1)])
    def test_matches_permutation_loop_two_workers(self, f, n, shared_cache):
        p = params(f, n=n)
        cache = shared_cache(f)
        got = e_ec_search(p, cache=cache, workers=2)
        _assert_same_search(got, _e_ec_oracle(p, [0], cache, workers=2))


class TestKernelOracles:
    # n = 1 gives every order the same bound in exact arithmetic, so the
    # last bits of each score decide the ties
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_ebg_matches_partial_bound_loop(self, data, shared_cache):
        f = data.draw(st.integers(3, 8), label="f")
        q = data.draw(st.sampled_from((2, 3) if f <= 6 else (2,)), label="q")
        n = data.draw(st.sampled_from((1, 2, 3, 5)), label="n")
        tie = data.draw(st.sampled_from(("lex", "random")), label="tie")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p = params(f, n=n, q=q)
        cache = shared_cache(f, q)
        got = ebg_order(p, tie_policy=tie, seed=seed, cache=cache, trace=True)
        order, evaluations, trace = _ebg_oracle(p, tie, seed, cache)
        assert got.best.order == order
        assert got.evaluations == evaluations
        assert [(e, b.hex()) for e, b in got.trace] == [(e, b.hex()) for e, b in trace]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_random_search_matches_eval_order_loop(self, data, shared_cache):
        f = data.draw(st.integers(4, 8), label="f")
        n = data.draw(st.sampled_from((1, 2, 3, 5, 7)), label="n")
        chi = len(color_sets(f).sets)
        fixed = data.draw(st.integers(2, chi), label="fixed_colors")
        budget = data.draw(st.integers(1, 50), label="budget")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p = params(f, n=n)
        cache = shared_cache(f)
        got = directed_random_search(p, seed=seed, budget=budget, fixed_colors=fixed, cache=cache)
        order, bound = _random_oracle(p, seed, budget, fixed, cache)
        assert got.best.order == order
        assert got.best.bound.hex() == bound.hex()
        assert got.evaluations == budget

    # with n^-v below the last bit of the prefix's sum, these draws hold
    # orders whose scores differ only in the rounding of the fold, so the
    # winner pins the left-to-right fold; random draws rarely reach them
    @pytest.mark.parametrize("f,n,fixed,seed", [(7, 7, 5, 1), (8, 7, 4, 0), (8, 5, 4, 6)])
    def test_random_search_fold_decides_near_ties(self, f, n, fixed, seed, shared_cache):
        p = params(f, n=n)
        cache = shared_cache(f)
        got = directed_random_search(p, seed=seed, budget=50, fixed_colors=fixed, cache=cache)
        order, bound = _random_oracle(p, seed, 50, fixed, cache)
        assert got.best.order == order
        assert got.best.bound.hex() == bound.hex()


class TestEEc:
    def test_f5(self, shared_cache):
        result = e_ec_search(params(5), cache=shared_cache(5))
        assert result.best.bound == pytest.approx(0.5321513151313, abs=1e-11)
        assert result.evaluations == math.factorial(4)

    def test_f6(self, shared_cache):
        result = e_ec_search(params(6), cache=shared_cache(6))
        assert result.best.bound == pytest.approx(0.5198121367672, abs=1e-11)
        # the winner keeps the fixed leading class
        assert result.best.order[:3] == ec_order(6)[:3]

    def test_never_worse_than_plain_ec(self, shared_cache):
        for f in (5, 6, 7):
            plain = capacity_outer_bound(ec_order(f), params(f), shared_cache(f)).bound
            best = e_ec_search(params(f), cache=shared_cache(f)).best.bound
            assert best <= plain + 1e-15

    def test_fixed_colors_bounds_checked(self, shared_cache):
        with pytest.raises(ValidationError):
            e_ec_search(params(5), fixed_colors=0, cache=shared_cache(5))
        with pytest.raises(ValidationError):
            e_ec_search(params(5), fixed_colors=6, cache=shared_cache(5))

    def test_permutation_cap(self):
        # chi' = 11 at f = 12, so one fixed class leaves 10! > 10^6 orders
        with pytest.raises(InfeasibleBudget, match="permutation cap"):
            e_ec_search(params(12), fixed_colors=1)

    # chi' = 9 at f = 10 leaves 8! orders; chi' = 11 at f = 11 and 12 needs a
    # second fixed class to leave 9!
    @pytest.mark.parametrize("f,fixed", [(10, 1), (11, 2), (12, 2)])
    def test_feasible_fixed_colors(self, f, fixed):
        assert search.feasible_fixed_colors(f) == fixed

    def test_all_colors_fixed(self, shared_cache):
        result = e_ec_search(params(5), fixed_colors=5, cache=shared_cache(5))
        assert result.evaluations == 1
        assert result.best.order == ec_order(5)

    # with no free class (or, for exhaustive search, no edge after (1, 2))
    # the one task starts at the whole order and scores it
    def test_no_blocks_scores_the_head_once(self, shared_cache):
        head = e_ec_search(params(6), fixed_colors=5, cache=shared_cache(6))
        assert (head.best.order, head.evaluations, head.scored) == (ec_order(6), 1, 1)
        edge = exhaustive_search(params(2), cache=shared_cache(2), collect_argmin=True)
        assert (edge.evaluations, edge.scored, edge.argmin_orders) == (1, 1, (((1, 2),),))
        assert edge.best.bound == 1.0

    def test_worker_count_does_not_change_result(self, shared_cache):
        one = e_ec_search(params(6), cache=shared_cache(6), workers=1)
        two = e_ec_search(params(6), cache=shared_cache(6), workers=2)
        assert one.best.order == two.best.order
        assert one.best.bound == two.best.bound
        assert one.evaluations == two.evaluations

    def test_leading_colors_generalizes_fixed_count(self, shared_cache):
        default = e_ec_search(params(6), fixed_colors=2, cache=shared_cache(6))
        pinned = e_ec_search(params(6), leading_colors=(1, 2), cache=shared_cache(6))
        assert pinned.best.order == default.best.order
        assert pinned.evaluations == default.evaluations
        other = e_ec_search(params(6), leading_colors=(2, 1), cache=shared_cache(6))
        assert other.best.order[:3] == ec_order(6)[3:6]

    def test_leading_colors_validation(self, shared_cache):
        with pytest.raises(ValidationError):
            e_ec_search(params(6), leading_colors=(1, 1), cache=shared_cache(6))
        with pytest.raises(ValidationError):
            e_ec_search(params(6), leading_colors=(0, 2), cache=shared_cache(6))
        with pytest.raises(ValidationError):
            e_ec_search(params(6), leading_colors=(), cache=shared_cache(6))


class TestLdf:
    LDF_REFERENCE = {5: 0.5321513151313, 6: 0.5197824997350, 7: 0.5129571653366}

    @pytest.mark.parametrize("f", [5, 6, 7])
    def test_reference_bounds(self, f, shared_cache):
        report = capacity_outer_bound(ldf_order(f), params(f), shared_cache(f))
        assert report.bound == pytest.approx(self.LDF_REFERENCE[f], abs=1e-11)

    @pytest.mark.parametrize("f", [3, 4, 5, 6, 7, 8])
    def test_is_permutation(self, f):
        order = ldf_order(f)
        assert sorted(order) == all_edges(f)

    def test_starts_with_default_edge(self):
        assert ldf_order(6)[0] == (1, 2)

    def test_matching_built_first(self):
        order = ldf_order(8)
        eta = matching_size(8)
        from pqcbound import is_perfect_matching

        assert is_perfect_matching(order[:eta], 8)

    def test_f3_completes_to_triangle(self):
        assert sorted(ldf_order(3)) == all_edges(3)

    def test_too_small_f(self):
        with pytest.raises(ValidationError):
            ldf_order(2)


class TestOrderInnerEdges:
    def test_hexagon_first_chords(self):
        g = Graph(6, HEXAGON)
        order = order_inner_edges(g, list(HEXAGON))
        assert sorted(order) == all_edges(6)
        assert order[6] == (1, 4)  # smallest of the tied antipodal chords
        assert order[7] == (2, 5)  # smallest of the remaining (0,5,0,2) pair

    def test_terminal_pair_is_lexicographic(self):
        edges = [e for e in all_edges(4) if e not in ((1, 4), (2, 3))]
        g = Graph(4, edges)
        order = order_inner_edges(g, edges)
        assert order[-2:] == ((1, 4), (2, 3))

    def test_rejects_complete_graph(self):
        g = Graph.complete(4)
        with pytest.raises(GraphComplete):
            order_inner_edges(g, list(all_edges(4)))

    def test_rejects_mismatched_partial(self):
        g = Graph(4, [(1, 2)])
        with pytest.raises(ValidationError):
            order_inner_edges(g, [(1, 3)])


class TestEbg:
    EBG_REFERENCE = {5: 0.5321513151313, 6: 0.5197824997350}

    @pytest.mark.parametrize("f", [5, 6])
    def test_reference_bounds(self, f, shared_cache):
        result = ebg_order(params(f), cache=shared_cache(f))
        assert result.best.bound == pytest.approx(self.EBG_REFERENCE[f], abs=1e-11)

    @pytest.mark.parametrize("f", [4, 5, 6])
    def test_evaluation_count(self, f, shared_cache):
        mu = edge_count(f)
        result = ebg_order(params(f), cache=shared_cache(f))
        assert result.evaluations == mu * (mu - 1) // 2

    def test_single_edge_problem(self, shared_cache):
        result = ebg_order(params(2), cache=shared_cache(2))
        assert result.best.order == ((1, 2),)
        assert result.best.bound == 1.0

    def test_order_independent_of_n(self, shared_cache):
        orders = {
            n: ebg_order(params(5, n=n), cache=shared_cache(5)).best.order for n in (1, 2, 3)
        }
        assert orders[1] == orders[2] == orders[3]

    def test_lex_ties_are_deterministic(self, shared_cache):
        a = ebg_order(params(6), cache=shared_cache(6)).best.order
        b = ebg_order(params(6), cache=shared_cache(6)).best.order
        assert a == b

    def test_random_ties_reproducible_and_valid(self, shared_cache):
        a = ebg_order(params(5), tie_policy="random", seed=11, cache=shared_cache(5))
        b = ebg_order(params(5), tie_policy="random", seed=11, cache=shared_cache(5))
        assert a.best.order == b.best.order
        assert sorted(a.best.order) == all_edges(5)

    def test_trace(self, shared_cache):
        result = ebg_order(params(4), cache=shared_cache(4), trace=True)
        assert result.trace is not None
        assert len(result.trace) == edge_count(4) - 1
        chosen = [(1, 2)] + [e for e, _ in result.trace]
        assert tuple(chosen) == result.best.order

    def test_bad_tie_policy(self, shared_cache):
        with pytest.raises(ValidationError):
            ebg_order(params(4), tie_policy="coin", cache=shared_cache(4))

    # fsum and IEEE division are monotone, so a candidate's partial bound
    # never rises as H(order + e) rises: the tie window is the top of the
    # entropy ranking, and an argmax of H that walks down that ranking with
    # the same partial-bound test keeps every tie set
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_ties_are_the_top_of_the_entropy_ranking(self, data, shared_cache):
        f = data.draw(st.integers(3, 8), label="f")
        q = data.draw(st.sampled_from((2, 3) if f <= 6 else (2,)), label="q")
        n = data.draw(st.sampled_from((1, 2, 3, 5, 7)), label="n")
        tie = data.draw(st.sampled_from(("lex", "random")), label="tie")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p = params(f, n=n, q=q)
        cache = shared_cache(f, q)
        order = ebg_order(p, tie_policy=tie, seed=seed, cache=cache).best.order
        for k in range(1, len(order)):
            prefix = list(order[:k])
            mask = edges_to_mask(prefix, f)
            scored = {e: (_partial_bound(prefix + [e], p, cache),
                          cache.joint_entropy(mask | 1 << edge_index(e, f)))
                      for e in all_edges(f) if e not in prefix}
            best = min(pb for pb, _ in scored.values())
            tied = [h for pb, h in scored.values() if pb <= best + search.EBG_TIE_TOLERANCE]
            rest = [h for pb, h in scored.values() if pb > best + search.EBG_TIE_TOLERANCE]
            assert scored[order[k]][0] <= best + search.EBG_TIE_TOLERANCE
            assert not rest or min(tied) >= max(rest)


def _entropy_table(params: BoundParams, cache: EntropyCache) -> list[float]:
    """Joint entropies for all 2^mu subsets, indexed by bitmask."""
    mu = edge_count(params.f)
    return [cache.joint_entropy(mask) for mask in range(1 << mu)]


def _exhaustive_branch(task):
    """DFS over all orders that start with edge index 0 followed by `second`."""
    f, n, table, second, collect_argmin, tie_tol = task
    mu = edge_count(f)
    weights = [float(n) ** -v for v in range(mu)]
    hmin = table[1]
    best = [math.inf, ()]
    argmin = []
    leaves = [0]
    pool = [i for i in range(1, mu) if i != second]

    def rec(mask, depth, acc, chosen):
        if depth == mu:
            b = hmin / acc
            leaves[0] += 1
            if b < best[0] or (b == best[0] and tuple(chosen) < best[1]):
                best[0], best[1] = b, tuple(chosen)
            if collect_argmin and b <= best[0] + tie_tol:
                argmin.append((b, tuple(chosen)))
            return
        w = weights[depth]
        h0 = table[mask]
        for i in range(len(pool)):
            e = pool[i]
            if e < 0:
                continue
            m2 = mask | (1 << e)
            pool[i] = -1
            chosen.append(e)
            rec(m2, depth + 1, acc + w * (table[m2] - h0), chosen)
            chosen.pop()
            pool[i] = e

    start_mask = 1 | (1 << second)
    acc0 = table[1] + weights[1] * (table[start_mask] - table[1])
    rec(start_mask, 2, acc0, [0, second])
    if collect_argmin:
        argmin = [(b, o) for b, o in argmin if b <= best[0] + tie_tol]
    return best[0], best[1], argmin, leaves[0]


def _exhaustive_oracle(params, cache, workers=1, collect_argmin=False, tie_tol=1e-12):
    """Test oracle for exhaustive_search: the edge-level DFS over a table of
    all 2^mu subset entropies with float(n) ** -v weights, serially or one
    pool task per second edge."""
    cache = make_cache(params, cache)
    mu = edge_count(params.f)
    if mu == 1:
        report = capacity_outer_bound([(1, 2)], params, cache)
        return SearchResult(best=report, evaluations=1,
                            argmin_orders=(((1, 2),),) if collect_argmin else None)
    table = _entropy_table(params, cache)

    tasks = [
        (params.f, params.n, table, second, collect_argmin, tie_tol)
        for second in range(1, mu)
    ]
    results = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_exhaustive_branch, tasks))
    else:
        results = [_exhaustive_branch(t) for t in tasks]

    best = (math.inf, ())
    leaves = 0
    merged = []
    for b, order_idx, argmin, count in results:
        leaves += count
        if (b, order_idx) < best:
            best = (b, order_idx)
        if collect_argmin:
            merged.extend(argmin)
    best_order = tuple(edge_from_index(i, params.f) for i in best[1])
    report = capacity_outer_bound(best_order, params, cache)
    argmin_orders = None
    if collect_argmin:
        kept = sorted(
            {o for b, o in merged if b <= best[0] + tie_tol}
        )
        argmin_orders = tuple(
            tuple(edge_from_index(i, params.f) for i in o) for o in kept
        )
    return SearchResult(best=report, evaluations=leaves, argmin_orders=argmin_orders)


class TestExhaustiveOracle:
    @pytest.mark.parametrize("collect_argmin", [False, True], ids=["best", "argmin"])
    @pytest.mark.parametrize(
        "f,n,workers",
        [(f, n, 1) for f in (2, 3, 4) for n in (1, 2, 3, 5)] + [(5, 2, 1), (5, 3, 1), (4, 3, 2)],
    )
    def test_matches_edge_dfs(self, f, n, workers, collect_argmin, shared_cache):
        p = params(f, n=n)
        cache = shared_cache(f)
        got = exhaustive_search(p, cache=cache, workers=workers, collect_argmin=collect_argmin)
        want = _exhaustive_oracle(p, cache, workers=workers, collect_argmin=collect_argmin)
        _assert_same_search(got, want)
        assert got.argmin_orders == want.argmin_orders

    def test_wide_tie_tolerance(self, shared_cache):
        # the f <= 5 optima tie exactly, so only a wide tolerance tells the
        # running near-tie filter from an exact one; exhaustive_search fixes
        # the tolerance, so this calls its kernel
        p = params(4)
        cache = shared_cache(4)
        first, *rest = all_edges(4)
        got = search._block_search(p, cache, (first,), [(e,) for e in rest], 1, tie_tol=0.01)
        want = _exhaustive_oracle(p, cache, collect_argmin=True, tie_tol=0.01)
        exact = exhaustive_search(p, cache=cache, collect_argmin=True)
        assert got.argmin_orders == want.argmin_orders
        assert len(exact.argmin_orders) < len(got.argmin_orders) < math.factorial(5)


class TestPruning:
    def test_random_search_skips_most_lookups(self):
        p = params(8)
        pruned, oracle = EntropyCache(8, 2), EntropyCache(8, 2)
        got = directed_random_search(p, seed=7, budget=2500, cache=pruned)
        order, bound = _random_oracle(p, 7, 2500, 2, oracle)
        assert (got.best.order, got.best.bound.hex()) == (order, bound.hex())
        assert len(pruned) < len(oracle) / 2
        assert got.scored < got.evaluations == 2500

    def test_exhaustive_scores_few_orders_in_full(self, shared_cache):
        result = exhaustive_search(params(5), cache=shared_cache(5))
        assert result.evaluations == math.factorial(9)
        assert result.scored < result.evaluations / 10

    # with n = 1 every order has the same denominator up to rounding, so no
    # subtree can be cut and the permutation cap still bounds the work
    def test_n1_prunes_nothing(self, shared_cache):
        result = exhaustive_search(params(4, n=1), cache=shared_cache(4))
        assert result.scored == result.evaluations == math.factorial(5)
        result = directed_random_search(params(6, n=1), seed=0, budget=200, cache=shared_cache(6))
        assert result.scored == result.evaluations == 200


class TestExhaustive:
    def test_f5_reference(self, shared_cache):
        result = exhaustive_search(params(5), cache=shared_cache(5))
        assert result.best.bound == pytest.approx(0.5321513151313, abs=1e-11)
        assert result.evaluations == math.factorial(9)

    def test_f4_matches_unreduced_enumeration(self, shared_cache):
        cache = shared_cache(4)
        p = params(4)
        brute = min(
            capacity_outer_bound(order, p, cache).bound
            for order in permutations(all_edges(4))
        )
        result = exhaustive_search(p, cache=cache)
        assert result.best.bound == pytest.approx(brute, abs=1e-13)

    def test_f3_complete_symmetry(self, shared_cache):
        cache = shared_cache(3)
        p = params(3)
        bounds = {
            round(capacity_outer_bound(order, p, cache).bound, 12)
            for order in permutations(all_edges(3))
        }
        assert len(bounds) == 1

    def test_f2_trivial(self, shared_cache):
        result = exhaustive_search(params(2), cache=shared_cache(2))
        assert result.best.bound == 1.0
        assert result.evaluations == 1

    def test_guard(self, shared_cache):
        with pytest.raises(SearchSpaceTooLarge):
            exhaustive_search(params(6), cache=shared_cache(6))

    def test_argmin_set_n_independent(self, shared_cache):
        r2 = exhaustive_search(params(4, n=2), cache=shared_cache(4), collect_argmin=True)
        r3 = exhaustive_search(params(4, n=3), cache=shared_cache(4), collect_argmin=True)
        assert r2.argmin_orders
        assert r2.best.order in r2.argmin_orders
        assert r2.argmin_orders == r3.argmin_orders

    def test_pool_never_exceeds_its_tasks(self, monkeypatch, shared_cache):
        # a fake pool that records its size and maps inline: no process starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
        got = exhaustive_search(params(4), cache=shared_cache(4), workers=64)
        want = exhaustive_search(params(4), cache=shared_cache(4), workers=1)
        assert sizes and max(sizes) <= edge_count(4) - 1
        assert (got.best, got.evaluations, got.scored) == (want.best, want.evaluations, want.scored)

    def test_worker_count_does_not_change_result(self, shared_cache):
        one = exhaustive_search(params(4), cache=shared_cache(4), workers=1, collect_argmin=True)
        two = exhaustive_search(params(4), cache=shared_cache(4), workers=2, collect_argmin=True)
        assert one.best.order == two.best.order
        assert one.best.bound == two.best.bound
        assert one.argmin_orders == two.argmin_orders
        assert one.evaluations == two.evaluations

    @pytest.mark.parametrize("f", [4, 5])
    def test_dominates_every_method(self, f, shared_cache):
        cache = shared_cache(f)
        p = params(f)
        optimum = exhaustive_search(p, cache=cache).best.bound
        others = [
            capacity_outer_bound(ec_order(f), p, cache).bound,
            e_ec_search(p, cache=cache).best.bound,
            capacity_outer_bound(ldf_order(f), p, cache).bound,
            ebg_order(p, cache=cache).best.bound,
        ]
        assert all(optimum <= b + 1e-12 for b in others)


class TestDirectedRandom:
    def test_budget_one_is_deterministic(self, shared_cache):
        a = directed_random_search(params(6), seed=3, budget=1, cache=shared_cache(6))
        b = directed_random_search(params(6), seed=3, budget=1, cache=shared_cache(6))
        assert a.best.order == b.best.order
        assert a.best.bound == b.best.bound
        assert a.evaluations == 1

    def test_prefix_is_fixed(self, shared_cache):
        result = directed_random_search(params(6), seed=0, budget=5, cache=shared_cache(6))
        assert result.best.order[:6] == ec_order(6)[:6]

    def test_more_budget_never_hurts(self, shared_cache):
        small = directed_random_search(params(6), seed=9, budget=20, cache=shared_cache(6))
        large = directed_random_search(params(6), seed=9, budget=400, cache=shared_cache(6))
        assert large.best.bound <= small.best.bound + 1e-15

    def test_f6_reaches_optimum(self, shared_cache):
        result = directed_random_search(params(6), seed=7, budget=2000, cache=shared_cache(6))
        assert result.best.bound <= 0.5197824997350 + 1e-11

    def test_guards(self, shared_cache):
        with pytest.raises(ValidationError):
            directed_random_search(params(6), seed=0, budget=0, cache=shared_cache(6))
        with pytest.raises(ValidationError):
            directed_random_search(params(6), seed=0, budget=5, fixed_colors=1, cache=shared_cache(6))
        with pytest.raises(ValidationError):
            directed_random_search(params(6), seed=0, budget=5, fixed_colors=9, cache=shared_cache(6))


# Oracles: the canonical form and the two walks that search._class_walk
# replaced, copied unchanged apart from the f <= 5 guard, which now lives in
# the walk.

def _canonical_form_loop(mask: int, remaps) -> int:
    best = None
    for r in remaps:
        m2 = 0
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            m2 |= 1 << r[bit.bit_length() - 1]
        if best is None or m2 < best:
            best = m2
    return best


def _count_distinct_paths_dfs(f: int) -> int:
    remaps = search._edge_remaps(f)
    mu = edge_count(f)
    full = (1 << mu) - 1
    canon_cache: dict[int, int] = {}

    def canon(mask):
        c = canon_cache.get(mask)
        if c is None:
            c = _canonical_form_loop(mask, remaps)
            canon_cache[mask] = c
        return c

    memo: dict[int, int] = {full: 1}

    def npaths(cmask):
        hit = memo.get(cmask)
        if hit is not None:
            return hit
        succ = {canon(cmask | (1 << i)) for i in range(mu) if not (cmask >> i) & 1}
        total = sum(npaths(s) for s in sorted(succ))
        memo[cmask] = total
        return total

    return npaths(0)


def _count_graph_classes_stack(f: int) -> int:
    remaps = search._edge_remaps(f)
    mu = edge_count(f)
    seen: set[int] = set()
    stack = [0]
    while stack:
        cmask = stack.pop()
        if cmask in seen:
            continue
        seen.add(cmask)
        for i in range(mu):
            if not (cmask >> i) & 1:
                nxt = _canonical_form_loop(cmask | (1 << i), remaps)
                if nxt not in seen:
                    stack.append(nxt)
    return len(seen)


class TestPathCounting:
    def test_tiny_cases(self):
        assert count_distinct_paths(2) == 1
        assert count_distinct_paths(3) == 1

    def test_f4_against_labeled_oracle(self):
        from pqcbound.search import _canonical_form, _edge_remaps

        remaps = _edge_remaps(4)
        canon: dict[int, int] = {}

        def c(mask):
            if mask not in canon:
                canon[mask] = _canonical_form(mask, remaps)
            return canon[mask]

        seqs = set()
        for perm in permutations(range(edge_count(4))):
            mask = 0
            seq = []
            for i in perm:
                mask |= 1 << i
                seq.append(c(mask))
            seqs.add(tuple(seq))
        assert count_distinct_paths(4) == len(seqs) == 6

    def test_f5_regression(self):
        # distinct isomorphism-class sequences from the null to the complete graph
        assert count_distinct_paths(5) == 657

    @pytest.mark.slow
    def test_f5_against_labeled_oracle(self):
        from pqcbound.verify import _labeled_path_oracle

        assert count_distinct_paths(5) == _labeled_path_oracle(5)

    def test_class_counts(self):
        assert count_graph_classes(2) == 2
        assert count_graph_classes(3) == 4
        assert count_graph_classes(4) == 11
        assert count_graph_classes(5) == 34

    def test_guard(self):
        with pytest.raises(SearchSpaceTooLarge):
            count_distinct_paths(6)
        for f in (1, 6):
            for count in (count_distinct_paths, count_graph_classes):
                with pytest.raises(SearchSpaceTooLarge, match="2 <= f <= 5"):
                    count(f)

    @pytest.mark.parametrize("f", [2, 3, 4, 5])
    def test_walk_matches_the_two_walks_it_replaced(self, f):
        assert count_distinct_paths(f) == _count_distinct_paths_dfs(f)
        assert count_graph_classes(f) == _count_graph_classes_stack(f)

    @pytest.mark.parametrize("f", [4, 5])
    def test_canonical_form_matches_loop(self, f):
        remaps = search._edge_remaps(f)
        for mask in range(1 << edge_count(f)):
            assert search._canonical_form(mask, remaps) == _canonical_form_loop(mask, remaps)

    def test_both_counts_read_one_walk(self, monkeypatch):
        calls = []
        canonical_form = search._canonical_form

        def counting(mask, remaps):
            calls.append(mask)
            return canonical_form(mask, remaps)

        monkeypatch.setattr(search, "_canonical_form", counting)
        search._class_walk.cache_clear()
        assert count_distinct_paths(5) == 657
        assert calls
        calls.clear()
        assert count_graph_classes(5) == 34
        assert calls == []


class TestDispatch:
    @pytest.mark.parametrize(
        "method,expected",
        [
            ("ec", 0.5198943946817),
            ("e-ec", 0.5198121367672),
            ("ldf", 0.5197824997350),
            ("ebg", 0.5197824997350),
        ],
    )
    def test_order_methods(self, method, expected, shared_cache):
        config = SearchConfig(method=method, params=params(6))
        result = run(config, cache=shared_cache(6))
        assert result.best.bound == pytest.approx(expected, abs=1e-11)

    def test_random_method(self, shared_cache):
        config = SearchConfig(method="random", params=params(6), seed=7, budget=50)
        result = run(config, cache=shared_cache(6))
        assert result.evaluations == 50

    def test_unknown_method(self, shared_cache):
        with pytest.raises(ValidationError):
            run(SearchConfig(method="simulated-annealing", params=params(4)))

    # (method, options, whether run reads them), written out by hand
    GATE = [
        ("ec", {"seed": 3}, False),
        ("ec", {"budget": 5}, False),
        ("ec", {"fixed_colors": 2}, False),
        ("ec", {"tie_policy": "random"}, False),
        ("e-ec", {"seed": 3}, False),
        ("e-ec", {"budget": 5}, False),
        ("e-ec", {"fixed_colors": 2}, True),
        ("e-ec", {"tie_policy": "random"}, False),
        ("ldf", {"seed": 3}, False),
        ("ldf", {"budget": 5}, False),
        ("ldf", {"fixed_colors": 2}, False),
        ("ldf", {"tie_policy": "random"}, False),
        ("ebg", {"seed": 3}, False),
        ("ebg", {"budget": 5}, False),
        ("ebg", {"fixed_colors": 2}, False),
        ("ebg", {"tie_policy": "random"}, True),
        ("ebg", {"seed": 3, "tie_policy": "lex"}, False),
        ("ebg", {"seed": 3, "tie_policy": "random"}, True),
        ("exhaustive", {"seed": 3}, False),
        ("exhaustive", {"budget": 5}, False),
        ("exhaustive", {"fixed_colors": 2}, False),
        ("exhaustive", {"tie_policy": "random"}, False),
        ("random", {"seed": 3}, True),
        ("random", {"budget": 5}, True),
        ("random", {"fixed_colors": 2}, True),
        ("random", {"tie_policy": "random"}, False),
        # every method breaks its ties lex
        ("ec", {"tie_policy": "lex"}, True),
        ("e-ec", {"tie_policy": "lex"}, True),
        ("ldf", {"tie_policy": "lex"}, True),
        ("ebg", {"tie_policy": "lex"}, True),
        ("exhaustive", {"tie_policy": "lex"}, True),
        ("random", {"tie_policy": "lex"}, True),
    ]

    @pytest.mark.parametrize("method,options,read", GATE)
    def test_gate_refuses_exactly_the_unread_options(self, method, options, read, shared_cache):
        config = SearchConfig(method=method, params=params(4), **options)
        if read:
            assert run(config, cache=shared_cache(4)).best.bound > 0
        else:
            with pytest.raises(ValidationError, match="applies to"):
                run(config, cache=shared_cache(4))

    @pytest.mark.parametrize("method,options", [("ebg", {"seed": 3}), ("ec", {})])
    def test_bad_tie_policy_named_before_other_options(self, method, options, shared_cache):
        config = SearchConfig(method, params(4), tie_policy="coin", **options)
        with pytest.raises(ValidationError, match="^tie_policy must be 'lex' or 'random', got 'coin'$"):
            run(config, cache=shared_cache(4))

    def test_defaults_fill_what_is_not_given(self, shared_cache):
        p, cache = params(6), shared_cache(6)
        assert run(SearchConfig("random", p), cache=cache) == run(
            SearchConfig("random", p, seed=0, budget=1000, fixed_colors=2), cache=cache)
        assert run(SearchConfig("e-ec", p), cache=cache) == run(
            SearchConfig("e-ec", p, fixed_colors=1), cache=cache)
        assert run(SearchConfig("ebg", p), cache=cache) == run(
            SearchConfig("ebg", p, tie_policy="lex"), cache=cache)
