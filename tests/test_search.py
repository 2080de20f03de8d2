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
from pqcbound.errors import GuardViolation, ValidationError
from pqcbound import graphs, search
from pqcbound.bound import CAP_MARGIN, _weights, make_cache, remaining_cap, weighted_terms
from pqcbound.graphs import edge_from_index, edge_index, edges_to_mask
from pqcbound.search import SearchResult, run
from pqcbound.verify import KNOWN_PATH_COUNTS
from tests.relabelings import edge_remaps
from tests.test_bound import one_position_cap

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


# weights n^-v of 2^-40v: below ebg's tie window from v = 1 on, and 0.0 from v = 27 on
UNDERFLOW_N = 2**40


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
    """Order and evaluations of ebg_order, scoring every candidate with a
    from-scratch partial bound of the whole prefix."""
    rng = random.Random(seed)
    order = [(1, 2)]
    remaining = [e for e in all_edges(params.f) if e != (1, 2)]
    evaluations = 0
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
    return tuple(order), max(evaluations, 1)


def _ebg_orbit_oracle(params, tie_policy, seed, cache) -> SearchResult:
    """ebg_order as it was before its tie window was settled from bounds: at
    every step it scores one candidate per orbit of the prefix graph's
    automorphisms (graphs.edge_orbits), every orbit, and the others take
    their orbit's score."""
    hmin = cache.marginal_entropy()
    rng = random.Random(seed)
    order = [(1, 2)]
    graph = Graph(params.f, order)
    remaining = [e for e in all_edges(params.f) if e != (1, 2)]
    evaluations = 0
    terms, _, state = weighted_terms(cache, params.n, order)
    acc = search._fold(0.0, terms)
    while remaining:
        cache.hold(state[0])
        reps = graphs.edge_orbits(graph, remaining)
        scored = {}
        for e in remaining:
            r = reps[e]
            if r not in scored:
                t, _, _ = weighted_terms(cache, params.n, (r,), state)
                scored[r] = hmin / search._fold(acc, t)
            scored[e] = scored[r]
        evaluations += len(remaining)
        best = min(scored.values())
        tied = [e for e in remaining if scored[e] <= best + search.TIE_TOLERANCE]
        pick = min(tied) if tie_policy == "lex" else rng.choice(tied)
        order.append(pick)
        remaining.remove(pick)
        graph.add_edge(pick)
        t, _, state = weighted_terms(cache, params.n, (pick,), state)
        acc = search._fold(acc, t)
    report = capacity_outer_bound(order, params, cache)
    return SearchResult(best=report, evaluations=max(evaluations, 1))


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


def _pinned_blocks(f, leading):
    """The head and blocks of e-ec with the classes `leading` (0-based, in
    order) held fixed in front: one block per other class."""
    part = color_sets(f)
    return part.concatenated(leading), [c for i, c in enumerate(part.sets) if i not in leading]


def _pooled(count, search_fn, *args, **kwargs):
    """search_fn(*args, **kwargs) mapped on a WorkerPool of count workers."""
    with search.WorkerPool(count) as pool:
        return search_fn(*args, pool=pool, **kwargs)


def _assert_same_search(got, want):
    assert got.best.order == want.best.order
    assert got.best.bound.hex() == want.best.bound.hex()
    assert got.evaluations == want.evaluations


def _path_terms(task, head, blocks, order):
    """The head's fold that a _block_branch task starts from, and the hex of
    the weighted terms it adds along `order` after the head: each block's
    from the row of the blocks before it."""
    rows, _, _, head_acc, *_ = task
    first = {block[0]: j for j, block in enumerate(blocks)}
    out = []
    done, pos = 0, len(head)
    while pos < len(order):
        j = first[order[pos]]
        ((nxt, terms),) = [(s, t) for i, s, t in rows[done] if i == j]
        assert nxt == done | 1 << j
        out.extend(terms)
        done = nxt
        pos += len(blocks[j])
    return head_acc, [t.hex() for t in out]


def _fold(terms):
    """The terms added left to right from 0.0, as the brute-force DFS adds them."""
    acc = 0.0
    for t in terms:
        acc += t
    return acc


# The brute-force kernel as it was before its table was pruned, copied
# unchanged: it builds a step-table row for every set of placed blocks, and
# each DFS task prunes against its own best only.

def _eager_block_branch(task):
    """Best (bound, order), the number of orders scored in full and the
    near-ties among the orders whose first block is one of `firsts`.

    terms[done][j] holds the weighted terms of block j's edges when it follows
    the head and the blocks in the set `done`, and cap[done] the
    remaining_cap from there, so a DFS over the blocks carries only the set
    placed so far and the running denominator.  The DFS enters a set, a
    whole order included, only if its denominator plus cap can reach this
    task's best bound (plus tie_tol): no order below a set it skips could
    win or tie here.  It scores an order when it enters the full set.
    """
    terms, cap, free, hmin, head, head_terms, blocks, firsts, tie_tol = task
    full = len(terms) - 1
    slack = 0.0 if tie_tol is None else tie_tol
    best = (math.inf, ())
    floor = 0.0  # hmin / (best bound + slack): the denominator to reach
    ties = []
    scored = 0
    perm = []

    def visit(done, acc, choices):
        nonlocal best, floor, scored
        if done == full:
            scored += 1
            b = hmin / acc
            if b <= best[0] + slack:
                order = head + tuple(e for i in perm for e in blocks[i])
                if (b, order) < best:
                    best = (b, order)
                    floor = hmin / (b + slack)
                if tie_tol is not None:
                    ties.append((b, order))
            return
        row = terms[done]
        for j in choices:
            a = acc
            for t in row[j]:
                a += t
            nxt = done | 1 << j
            if a + cap[nxt] >= floor:
                perm.append(j)
                visit(nxt, a, free[nxt])
                perm.pop()

    acc = 0.0
    for t in head_terms:
        acc += t
    visit(0, acc, firsts)
    del visit  # visit refers to itself; dropping it frees the task without a collection
    return best, scored, ties


def _eager_block_search(params, cache, head, blocks, workers, tie_tol=None) -> SearchResult:
    """Best bound over the orders head + (the blocks in every order).

    The entropies come from a table built once through the cache: for every
    set of blocks already placed, the remaining_cap from there and, for
    every block j outside it, the weighted_terms of j's edges from there, so
    every order scores the bits of a left-to-right fold of its terms; each
    set's state is where a walk of one of its blocks ends.  There is one DFS
    task per first block after the head, run in at most that many worker
    processes when workers > 1; with no blocks, one task scores the head
    alone.  Each task prunes against its own best only, so every task
    returns its true local winner and the worker count never changes the
    result.  Ties in the bound go to the lexicographically smallest edge
    order.  With tie_tol, every order within tie_tol of the minimum is
    returned as argmin_orders, sorted.  evaluations counts the orders
    covered, k! for k blocks, and scored those scored in full.  Callers
    apply _permutation_guard.
    """
    cache = make_cache(params, cache)
    k, n = len(blocks), params.n
    head_terms, _, start = weighted_terms(cache, n, head)
    # states[done]: where the head and the blocks in the set done end, in any order
    states = [start] + [None] * ((1 << k) - 1)
    terms, cap, free = [], [], []
    for done, state in enumerate(states):
        cache.hold(state[0])
        free.append(tuple(j for j in range(k) if not done >> j & 1))
        row = [None] * k
        for j in free[-1]:
            row[j], _, states[done | 1 << j] = weighted_terms(cache, n, blocks[j], state)
        terms.append(row)
        cap.append(remaining_cap(cache, n, state))

    tasks = [
        (terms, cap, free, cache.marginal_entropy(), head, head_terms, blocks, firsts, tie_tol)
        for firsts in [(j,) for j in range(k)] or [()]
    ]
    if workers > 1 and k > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_eager_block_branch, tasks))
    else:
        results = [_eager_block_branch(t) for t in tasks]
    best = min(local_best for local_best, _, _ in results)
    argmin_orders = None
    if tie_tol is not None:
        near = {o for _, _, ties in results for b, o in ties if b <= best[0] + tie_tol}
        argmin_orders = tuple(sorted(near))
    return SearchResult(
        best=capacity_outer_bound(best[1], params, cache),
        evaluations=math.factorial(k),
        scored=sum(scored for _, scored, _ in results),
        argmin_orders=argmin_orders,
    )


def _block_case(data, shared_cache):
    """A drawn brute-force case: e-ec with drawn leading classes, or
    exhaustive search with or without its argmin set.  Returns the kernel's
    arguments after the worker count."""
    if data.draw(st.booleans(), label="exhaustive"):
        f = data.draw(st.integers(3, 5), label="f")
        # at n = 1 every order ties, so at f = 5 the eager table would score
        # all 9! of them
        n = data.draw(st.sampled_from((1, 2, 3, 5) if f < 5 else (2, 3, 5)), label="n")
        # a wide tolerance checks that the best-first floor keeps every near-tie
        wide = (0.01,) if f < 5 else ()
        tie_tol = data.draw(st.sampled_from((None, search.TIE_TOLERANCE, *wide)), label="tie_tol")
        q = data.draw(st.sampled_from((2, 3, 5)), label="q")
        first, *rest = all_edges(f)
        return params(f, n=n, q=q), shared_cache(f, q), (first,), [(e,) for e in rest], tie_tol
    f = data.draw(st.integers(3, 8), label="f")
    q = data.draw(st.sampled_from((2, 3, 5) if f <= 5 else (2, 3) if f <= 6 else (2,)), label="q")
    n = data.draw(st.sampled_from((1, 2, 3, 5)), label="n")
    chi = len(color_sets(f).sets)
    leading = data.draw(
        st.lists(st.integers(0, chi - 1), min_size=1, max_size=chi - 1, unique=True),
        label="leading",
    )
    return params(f, n=n, q=q), shared_cache(f, q), *_pinned_blocks(f, leading), None


class TestPrunedTable:
    # shared_cache only hands out memoized caches, which every example may share
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_eager_table(self, data, shared_cache):
        p, cache, head, blocks, tie_tol = _block_case(data, shared_cache)
        got = search._block_search(p, cache, head, blocks, tie_tol=tie_tol)
        want = _eager_block_search(p, cache, head, blocks, 1, tie_tol)
        assert got.best.order == want.best.order
        assert got.best.bound.hex() == want.best.bound.hex()
        assert got.evaluations == want.evaluations
        assert got.argmin_orders == want.argmin_orders
        assert got.scored <= want.scored

    # at f = 9 the eager table left 3,333 cache entries and its DFS scored
    # 3,280 orders.  At f = 10 a greedy incumbent is not optimal, and the
    # table pruned by its floor left 2,787 entries and scored 696 orders.
    def test_table_skips_the_sets_no_winner_reaches(self):
        for f, entries, scored in ((9, 1000, 100), (10, 1300, 200)):
            cache = EntropyCache(f, 2)
            result = e_ec_search(params(f), cache=cache)
            assert len(cache) < entries
            assert result.scored < scored

    # the cases where a greedy floor fell short of the optimum's
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_eager_table_at_f10(self, n, shared_cache):
        p, cache = params(10, n=n), shared_cache(10)
        part = color_sets(10)
        head = part.concatenated([0])
        blocks = [tuple(c) for c in part.sets[1:]]
        got = search._block_search(p, cache, head, blocks)
        want = _eager_block_search(p, cache, head, blocks, 1)
        _assert_same_search(got, want)
        assert got.argmin_orders == want.argmin_orders
        assert got.scored < want.scored

    def test_worker_count_does_not_change_the_work(self, inline_pool, shared_cache):
        for f in (7, 10):
            one = _pooled(1, e_ec_search, params(f), cache=shared_cache(f))
            two = _pooled(2, e_ec_search, params(f), cache=shared_cache(f))
            assert (two.best, two.evaluations, two.scored) == (one.best, one.evaluations, one.scored)
        assert inline_pool == [2, 2]

    # each task walks its orders in lex order and returns at the first that
    # scores the optimum's bits
    @pytest.mark.parametrize("f,fixed,scored", [
        (7, 1, 1), (8, 1, 1), (9, 1, 3), (10, 1, 51), (11, 2, 233),
    ])
    def test_e_ec_scored(self, f, fixed, scored, shared_cache):
        assert e_ec_search(params(f), fixed_colors=fixed, cache=shared_cache(f)).scored == scored

    # without argmin collection each task stops at its first optimum; with
    # it the DFS scores all 9! orders at n = 1 and 1,920 at n = 2 and 3
    @pytest.mark.parametrize("n,scored", [(1, 9), (2, 3), (3, 3)])
    def test_exhaustive_scored_without_argmin(self, n, scored, shared_cache):
        assert exhaustive_search(params(5, n=n), cache=shared_cache(5)).scored == scored

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_scored(self, n, shared_cache):
        result = exhaustive_search(params(5, n=n), cache=shared_cache(5), collect_argmin=True)
        assert (result.scored, len(result.argmin_orders)) == (1920, 1920)

    # the lex-first walk returns the order that argmin collection, which
    # walks every admitted order, ranks first
    @pytest.mark.parametrize("f,q,n", [
        (f, q, n) for f in (3, 4, 5) for q in (2, 3) for n in (1, 2, 3, 5) if (f, n) != (5, 1)
    ])
    def test_lex_first_walk_matches_argmin(self, f, q, n, shared_cache):
        p, cache = params(f, n=n, q=q), shared_cache(f, q)
        first, *rest = all_edges(f)
        blocks = [(e,) for e in rest]
        got = search._block_search(p, cache, (first,), blocks)
        want = search._block_search(p, cache, (first,), blocks, tie_tol=search.TIE_TOLERANCE)
        assert got.best.order == want.best.order == want.argmin_orders[0]
        assert got.best.bound.hex() == want.best.bound.hex()


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
        head, blocks = _pinned_blocks(f, leading)
        kernel = search._block_branch
        calls = []

        def recording(task):
            calls.append((task, kernel(task)))
            return calls[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_block_branch", recording)
            got = search._block_search(p, cache, head, blocks)
        _assert_same_search(got, _e_ec_oracle(p, leading, cache))
        # a task's winner is a sequence of block indices, in the kernel's
        # first-edge order of the blocks
        blocks = sorted(blocks)
        winners = [(task, head + tuple(e for j in hit for e in blocks[j]))
                   for task, (hit, _, _) in calls if hit is not None]
        assert winners[0][1] == got.best.order
        # e-ec lists no near-ties
        assert all(ties == [] for _, (_, _, ties) in calls)
        # the table's terms use the running-product weights 1, 1/n, 1/n^2, ...
        # of a from-scratch evaluation (float(n) ** -v differs from them in
        # the last bit for n = 3, 5, 6, 7), and each branch winner scores the
        # bits of _eval_order, which are the task's target
        for task, order in winners:
            want = _weighted_terms(order, p, cache)[1]
            assert _path_terms(task, head, blocks, order) == (
                _fold(want[:len(head)]), [t.hex() for t in want[len(head):]])
            assert task[6].hex() == _eval_order(order, f, n, cache).hex()
        # every task prunes against the pass's floor, which is the winner's:
        # hmin / (hmin / a + tie_tol) for its fold a, with no tie_tol in e-ec
        a = _fold(_weighted_terms(got.best.order, p, cache)[1])
        hmin = cache.marginal_entropy()
        assert all(task[-1] == hmin / (hmin / a) for task, _ in calls)

    # n = 1 gives every order the same bound, so the tie rule picks the winner
    @pytest.mark.parametrize("f,n", [(7, 3), (8, 1)])
    def test_matches_permutation_loop_two_workers(self, f, n, shared_cache):
        p = params(f, n=n)
        cache = shared_cache(f)
        got = _pooled(2, e_ec_search, p, cache=cache)
        _assert_same_search(got, _e_ec_oracle(p, [0], cache, workers=2))


class TestKernelOracles:
    # n = 1 gives every order the same bound in exact arithmetic, so the
    # last bits of each score decide the ties
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_ebg_matches_partial_bound_loop(self, data, shared_cache):
        f = data.draw(st.integers(3, 8), label="f")
        q = data.draw(st.sampled_from((2, 3, 5) if f <= 5 else (2, 3) if f <= 6 else (2,)), label="q")
        n = data.draw(st.sampled_from((1, 2, 3, 5)), label="n")
        tie = data.draw(st.sampled_from(("lex", "random")), label="tie")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p = params(f, n=n, q=q)
        cache = shared_cache(f, q)
        got = ebg_order(p, tie_policy=tie, seed=seed, cache=cache)
        assert (got.best.order, got.evaluations) == _ebg_oracle(p, tie, seed, cache)

    # The tie window must hold exactly the candidates that scoring every
    # orbit ties.  n = 1 keeps every weight at 1, so no window collapses;
    # at n = 2**40 every weight past the first is below the window, and
    # 0.0 from position 27 on, so every candidate ties.
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_ebg_matches_orbit_loop(self, data, shared_cache):
        q = data.draw(st.sampled_from((2, 3, 5)), label="q")
        f = data.draw(st.integers(3, {2: 10, 3: 8, 5: 6}[q]), label="f")
        n = data.draw(st.sampled_from((1, 2, 3, 5, UNDERFLOW_N)), label="n")
        tie = data.draw(st.sampled_from(("lex", "random")), label="tie")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        p = params(f, n=n, q=q)
        cache = shared_cache(f, q)
        got = ebg_order(p, tie_policy=tie, seed=seed, cache=cache)
        want = _ebg_orbit_oracle(p, tie, seed, cache)
        _assert_same_search(got, want)
        assert got.best.cond_entropies == want.best.cond_entropies

    # every step's window holds every candidate, so each step looks up
    # nothing but its pick and needs no orbits
    @pytest.mark.parametrize("tie,seed", [("lex", None), ("random", 3), ("random", 8)])
    def test_ebg_ties_every_candidate_once_the_weights_underflow(self, tie, seed, monkeypatch):
        f = 16
        assert _weights(UNDERFLOW_N, edge_count(f))[-1] == 0.0

        def no_orbits(*args):
            raise AssertionError("edge_orbits called at a step that needs no lookup")

        monkeypatch.setattr(search, "edge_orbits", no_orbits)
        cache = EntropyCache(f, 2)
        got = ebg_order(params(f, n=UNDERFLOW_N), tie_policy=tie, seed=seed, cache=cache)
        rng = random.Random(seed)
        order, rest = [(1, 2)], all_edges(f)[1:]
        while rest:
            order.append(rest[0] if tie == "lex" else rng.choice(rest))
            rest.remove(order[-1])
        assert got.best.order == tuple(order)
        # the empty set and the order's prefixes, the last one K_f
        assert len(cache) == edge_count(f) + 1

    # scoring every orbit, as the oracle does, fills 1,049 entries here
    def test_ebg_looks_up_few_entropies(self):
        cache = EntropyCache(12, 2)
        ebg_order(params(12), tie_policy="random", seed=7, cache=cache)
        assert len(cache) < 400

    # the sizes of the benchmark's cold ebg records, which it only
    # re-evaluates, each run on a fresh cache as the CLI runs it
    @pytest.mark.parametrize("f,q", [(12, 2), (9, 3), (7, 5)])
    @pytest.mark.parametrize("tie,seed", [("lex", None), ("random", 7), ("random", 8)])
    def test_ebg_matches_partial_bound_loop_at_benchmark_sizes(self, f, q, tie, seed, shared_cache):
        p = params(f, q=q)
        got = ebg_order(p, tie_policy=tie, seed=seed, cache=EntropyCache(f, q))
        assert (got.best.order, got.evaluations) == _ebg_oracle(p, tie, seed, shared_cache(f, q))

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
        with pytest.raises(GuardViolation, match="10! = 3628800 block orders exceed the permutation cap"):
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
        one = _pooled(1, e_ec_search, params(6), cache=shared_cache(6))
        two = _pooled(2, e_ec_search, params(6), cache=shared_cache(6))
        assert one.best.order == two.best.order
        assert one.best.bound == two.best.bound
        assert one.evaluations == two.evaluations

    # e-ec is the block search with its leading classes as the head, so
    # another pinned head is a call to the kernel
    def test_pinned_head_generalizes_fixed_count(self, shared_cache):
        p, cache = params(6), shared_cache(6)
        default = e_ec_search(p, fixed_colors=2, cache=cache)
        pinned = search._block_search(p, cache, *_pinned_blocks(6, [0, 1]))
        assert pinned.best.order == default.best.order
        assert pinned.evaluations == default.evaluations
        other = search._block_search(p, cache, *_pinned_blocks(6, [1, 0]))
        assert other.best.order[:3] == ec_order(6)[3:6]


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
        with pytest.raises(ValidationError, match="graph already complete; nothing to order"):
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
            tied = [h for pb, h in scored.values() if pb <= best + search.TIE_TOLERANCE]
            rest = [h for pb, h in scored.values() if pb > best + search.TIE_TOLERANCE]
            assert scored[order[k]][0] <= best + search.TIE_TOLERANCE
            assert not rest or min(tied) >= max(rest)

    # ebg_order bounds each candidate's conditional entropy by the last one
    # looked up, widened by m: along any order, H(e | S_k) <= H(e | S_j) + m
    # for j < k, S_0 empty, and H(e | S_k) >= -m, as computed in floats.  The
    # float excess over exact submodularity is also far inside m.
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_conditional_entropy_bounds_hold_in_floats(self, data, shared_cache):
        q = data.draw(st.sampled_from((2, 3, 5)), label="q")
        f = data.draw(st.integers(3, {2: 9, 3: 7, 5: 6}[q]), label="f")
        n = data.draw(st.sampled_from((1, 2, 3, 5, UNDERFLOW_N)), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        cache = shared_cache(f, q)
        order = ebg_order(params(f, n=n, q=q), tie_policy="random", seed=seed, cache=cache).best.order
        m = CAP_MARGIN * cache.full_entropy
        bits = _edge_bits(f)
        # the least H(e | S_j) over j < k, for every e outside S_k
        least = dict.fromkeys(all_edges(f), cache.marginal_entropy())
        mask = 0
        for placed in order:
            prev = cache.joint_entropy(mask)
            for e in least:
                c = cache.joint_entropy(mask | bits[e]) - prev
                assert -m <= c <= least[e] + m
                assert c - least[e] <= 1e-4 * m
                least[e] = min(least[e], c)
            del least[placed]
            mask |= bits[placed]


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
        got = _pooled(workers, exhaustive_search, p, cache=cache, collect_argmin=collect_argmin)
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
        got = search._block_search(p, cache, (first,), [(e,) for e in rest], tie_tol=0.01)
        want = _exhaustive_oracle(p, cache, collect_argmin=True, tie_tol=0.01)
        exact = exhaustive_search(p, cache=cache, collect_argmin=True)
        assert got.argmin_orders == want.argmin_orders
        assert len(exact.argmin_orders) < len(got.argmin_orders) < math.factorial(5)

    # ties: the number of orders that score the second-best bound
    @pytest.mark.parametrize("f,n,ties", [(4, 2, 16), (4, 3, 16), (5, 2, 960)])
    def test_window_edge_is_inside(self, f, n, ties, shared_cache):
        # a tolerance that ends exactly on the second-best score: the window
        # is closed, so every order of that score is listed
        p, cache = params(f, n=n), shared_cache(f)
        head, blocks = search._exhaustive_blocks(f)
        hmin = cache.marginal_entropy()

        def score(order):
            return hmin / search._fold(0.0, weighted_terms(cache, n, order)[0])

        wide = search._block_search(p, cache, head, blocks, tie_tol=0.05).argmin_orders
        t0, b2 = sorted({score(o) for o in wide})[:2]
        # Sterbenz: b2 <= 2 * t0, so b2 - t0 is exact and t0 plus it is b2
        assert t0 + (b2 - t0) == b2
        got = search._block_search(p, cache, head, blocks, tie_tol=b2 - t0).argmin_orders
        edge = [o for o in wide if score(o) == b2]
        assert len(edge) == ties
        assert set(edge) <= set(got)


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

    # the water-filled cap prunes more than the one-position cap, never
    # differently: the same winner, the same draws and orders scored in
    # full, the same near-ties
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_water_fill_matches_one_position_cap(self, data, shared_cache):
        if data.draw(st.booleans(), label="random"):
            f = data.draw(st.integers(4, 7), label="f")
            q = data.draw(st.sampled_from((2, 3, 5) if f <= 5 else (2, 3) if f <= 6 else (2,)), label="q")
            n = data.draw(st.integers(1, 3), label="n")
            fixed = data.draw(st.integers(2, len(color_sets(f).sets)), label="fixed_colors")
            budget = data.draw(st.integers(1, 40), label="budget")
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            p, cache = params(f, n=n, q=q), shared_cache(f, q)

            def go():
                return directed_random_search(p, seed=seed, budget=budget, fixed_colors=fixed, cache=cache)
        else:
            p, cache, head, blocks, tie_tol = _block_case(data, shared_cache)

            def go():
                return search._block_search(p, cache, head, blocks, tie_tol=tie_tol)

        got = go()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "remaining_cap", one_position_cap)
            want = go()
        _assert_same_search(got, want)
        assert (got.scored, got.argmin_orders) == (want.scored, want.argmin_orders)

    # the one-position cap left 4,343 cache entries for random search at
    # f = 8 (seed 7), 1,075 for e-ec at f = 10 and 497 for exhaustive search
    # at f = 5; the water-fill under per-edge caps leaves 1,037, 786 and 412
    @pytest.mark.parametrize("method,f,options,entries", [
        ("random", 8, {"seed": 7, "budget": 2500}, 1100),
        ("e-ec", 10, {}, 850),
        ("exhaustive", 5, {}, 450),
    ])
    def test_per_edge_caps_skip_lookups(self, method, f, options, entries):
        cache = EntropyCache(f, 2)
        run(method, params(f), cache=cache, **options)
        assert len(cache) < entries

    # remaining_cap reads H_min at every placed edge; when each read was a
    # joint_entropy hit this run made 9,876 calls, 6,156 of them for mask 1
    def test_marginal_entropy_is_looked_up_once(self, monkeypatch):
        masks = []
        joint_entropy = EntropyCache.joint_entropy

        def counting(cache, edges_or_mask):
            masks.append(edges_or_mask)
            return joint_entropy(cache, edges_or_mask)

        monkeypatch.setattr(EntropyCache, "joint_entropy", counting)
        cache = EntropyCache(8, 2)
        directed_random_search(params(8), seed=7, budget=2500, cache=cache)
        assert masks.count(1) == 1
        assert (len(masks), len(cache)) == (3_721, 1_037)

    # with n = 1 every order has the same denominator up to rounding, so no
    # subtree can be cut: argmin collection scores every order, and the
    # permutation cap still bounds its work.  Without it the walk returns at
    # the first order with the optimum's bits, the fifth.
    def test_n1_prunes_nothing(self, shared_cache):
        result = exhaustive_search(params(4, n=1), cache=shared_cache(4), collect_argmin=True)
        assert result.scored == result.evaluations == math.factorial(5)
        assert exhaustive_search(params(4, n=1), cache=shared_cache(4)).scored == 5
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
        with pytest.raises(GuardViolation, match="14! = 87178291200 block orders exceed the permutation cap"):
            exhaustive_search(params(6), cache=shared_cache(6))

    def test_argmin_set_n_independent(self, shared_cache):
        r2 = exhaustive_search(params(4, n=2), cache=shared_cache(4), collect_argmin=True)
        r3 = exhaustive_search(params(4, n=3), cache=shared_cache(4), collect_argmin=True)
        assert r2.argmin_orders
        assert r2.best.order in r2.argmin_orders
        assert r2.argmin_orders == r3.argmin_orders

    def test_pool_never_exceeds_its_tasks(self, inline_pool, shared_cache):
        got = _pooled(64, exhaustive_search, params(4), cache=shared_cache(4))
        want = _pooled(1, exhaustive_search, params(4), cache=shared_cache(4))
        assert inline_pool and max(inline_pool) <= edge_count(4) - 1
        assert (got.best, got.evaluations, got.scored) == (want.best, want.evaluations, want.scored)

    def test_one_chunk_per_worker(self, inline_pool, shared_cache):
        got = _pooled(2, exhaustive_search, params(5), cache=shared_cache(5))
        want = _pooled(1, exhaustive_search, params(5), cache=shared_cache(5))
        # the 9 first-block tasks go to 2 workers in chunks of 5 and 4
        assert inline_pool == [2]
        assert inline_pool.maps == [(9, 5)]
        assert (got.best, got.evaluations, got.scored) == (want.best, want.evaluations, want.scored)

    # with no pool the tasks are mapped inline, and give what a pool's do
    def test_no_pool_starts_no_process(self, inline_pool, shared_cache):
        p, cache = params(5), shared_cache(5)
        searches = [(e_ec_search, {}), (exhaustive_search, {}), (exhaustive_search, {"collect_argmin": True})]
        alone = [fn(p, cache=cache, **kw) for fn, kw in searches]
        assert inline_pool == []
        pooled = [_pooled(2, fn, p, cache=cache, **kw) for fn, kw in searches]
        assert inline_pool == [2, 2, 2]
        for got, want in zip(alone, pooled):
            assert (got.best, got.evaluations, got.scored, got.argmin_orders) == (
                want.best, want.evaluations, want.scored, want.argmin_orders)

    def test_worker_count_does_not_change_result(self, shared_cache):
        one = _pooled(1, exhaustive_search, params(4), cache=shared_cache(4), collect_argmin=True)
        two = _pooled(2, exhaustive_search, params(4), cache=shared_cache(4), collect_argmin=True)
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


# Oracle: the smallest bound over every order that starts with (1, 2), by a
# DP over the sets of placed edges instead of a search over orders.  D[S],
# for a set S of the other edges, is the largest left-to-right fold of
# weighted_terms over the orders of (1, 2) then S: the max over e in S of
# D[S - e] plus e's term after S - e.  IEEE addition is monotone, so the
# max of the folds is D of the full set, to the bit.

def _optimal_bound_dp(p, cache):
    mu = edge_count(p.f)
    w = _weights(p.n, mu)
    # h[S]: the joint entropy of (1, 2), mask bit 0, and the edges of S
    h = [cache.joint_entropy(s << 1 | 1) for s in range(1 << (mu - 1))]
    d = [h[0]]  # the head's term, of weight 1
    for s in range(1, len(h)):
        k, best, rest = s.bit_count(), -math.inf, s
        while rest:
            b = rest & -rest
            rest ^= b
            a = d[s ^ b] + w[k] * (h[s] - h[s ^ b])
            if a > best:
                best = a
        d.append(best)
    return cache.marginal_entropy() / d[-1]


# The DP's smallest bound at q = 2, as hex and as the CLI prints it.  The
# paper certifies LDF and EBG optimal for f < 6 only.
OPTIMAL_BOUNDS = {
    (6, 2): ("0x1.0a20ee8aca384p-1", "0.5197824997350"),
    (6, 3): ("0x1.58a6295305692p-1", "0.6731427110523"),
    (7, 2): ("0x1.06a25252bd51ep-1", "0.5129571653366"),
}


class TestOptimalOrders:
    @pytest.mark.parametrize("n", [2, 3])
    def test_dp_matches_exhaustive_at_f5(self, n, shared_cache):
        p, cache = params(5, n=n), shared_cache(5)
        assert _optimal_bound_dp(p, cache).hex() == exhaustive_search(p, cache=cache).best.bound.hex()

    # f = 7 looks up all 2^20 entropies in a cache of its own, which is
    # dropped after the test
    @pytest.mark.parametrize("f,n", [(6, 2), (6, 3), pytest.param(7, 2, marks=pytest.mark.slow)])
    def test_ldf_and_ebg_are_optimal(self, f, n, shared_cache):
        p = params(f, n=n)
        cache = shared_cache(f) if f < 7 else EntropyCache(f, 2)
        optimum = _optimal_bound_dp(p, cache)
        assert (optimum.hex(), f"{optimum:.13f}") == OPTIMAL_BOUNDS[f, n]
        assert capacity_outer_bound(ldf_order(f), p, cache).bound.hex() == optimum.hex()
        assert ebg_order(p, cache=cache).best.bound.hex() == optimum.hex()

    # exhaustive search's head and blocks past its permutation cap: the
    # kernel's lex-first walk scores a handful of orders.  On a 2-vCPU
    # machine f = 6 takes about 0.2 s and f = 7 about 7.5 s and 220 MB.
    @pytest.mark.parametrize("f,n", [(6, 2), (6, 3), pytest.param(7, 2, marks=pytest.mark.slow)])
    def test_block_kernel_matches_dp(self, f, n, shared_cache):
        p = params(f, n=n)
        cache = shared_cache(f) if f < 7 else EntropyCache(f, 2)
        first, *rest = all_edges(f)
        result = search._block_search(p, cache, (first,), [(e,) for e in rest])
        assert (result.best.bound.hex(), f"{result.best.bound:.13f}") == OPTIMAL_BOUNDS[f, n]
        assert capacity_outer_bound(result.best.order, p, cache).bound.hex() == OPTIMAL_BOUNDS[f, n][0]


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


# Oracles: the f! relabeling canonical form and the two walks that
# search._class_walk replaced, copied unchanged apart from the f <= 5 guard,
# which now lives in the walk.

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
    remaps = edge_remaps(f)
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
    remaps = edge_remaps(f)
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
        from pqcbound.verify import _labeled_path_oracle

        assert count_distinct_paths(4) == _labeled_path_oracle(4) == 6

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

    def test_class_counts_past_f5(self):
        # unlabeled graphs on 6 and 7 vertices, OEIS A000088
        assert count_graph_classes(6) == 156
        assert count_graph_classes(7) == 1044

    def test_f6_against_the_relabeling_walk(self):
        assert count_distinct_paths(6) == _count_distinct_paths_dfs(6) == KNOWN_PATH_COUNTS[6] == 4_836_277

    @pytest.mark.slow
    def test_f7_against_the_relabeling_walk(self):
        assert count_distinct_paths(7) == _count_distinct_paths_dfs(7) == KNOWN_PATH_COUNTS[7] \
            == 6_437_064_646_754

    @pytest.mark.slow
    def test_f8(self):
        assert count_graph_classes(8) == 12_346
        assert count_distinct_paths(8) == 2_039_776_098_788_426_618_237

    def test_guard(self):
        with pytest.raises(GuardViolation, match="supported for 2 <= f <= 8, got 9"):
            count_distinct_paths(9)
        for count in (count_distinct_paths, count_graph_classes):
            for f in (9, 16):
                with pytest.raises(GuardViolation, match="2 <= f <= 8"):
                    count(f)
            # no graph has these vertex counts: a usage error, as in every other suite
            for f in (1, 17):
                with pytest.raises(ValidationError, match=r"vertex count must be an integer in \[2, 16\]"):
                    count(f)

    @pytest.mark.parametrize("f", [2, 3, 4, 5])
    def test_walk_matches_the_two_walks_it_replaced(self, f):
        assert count_distinct_paths(f) == _count_distinct_paths_dfs(f)
        assert count_graph_classes(f) == _count_graph_classes_stack(f)

    @pytest.mark.parametrize("f", [4, 5])
    def test_canonical_form_matches_loop(self, f):
        # the labeler names a class by another mask than the loop's smallest
        # relabeling, but two masks share one name exactly when they share the other
        remaps = edge_remaps(f)
        names = {}
        for mask in range(1 << edge_count(f)):
            names.setdefault(graphs._canonical_form(mask, f), set()).add(_canonical_form_loop(mask, remaps))
        assert all(len(loop) == 1 for loop in names.values())
        assert len(set.union(*names.values())) == len(names)

    def test_both_counts_read_one_walk(self, monkeypatch):
        calls = []
        canonical_form = graphs._canonical_form

        def counting(mask, f):
            calls.append(mask)
            return canonical_form(mask, f)

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
        result = run(method, params(6), cache=shared_cache(6))
        assert result.best.bound == pytest.approx(expected, abs=1e-11)

    def test_random_method(self, shared_cache):
        result = run("random", params(6), cache=shared_cache(6), seed=7, budget=50)
        assert result.evaluations == 50

    def test_unknown_method(self, shared_cache):
        with pytest.raises(ValidationError):
            run("simulated-annealing", params(4))

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
        if read:
            assert run(method, params(4), cache=shared_cache(4), **options).best.bound > 0
        else:
            with pytest.raises(ValidationError, match="applies to"):
                run(method, params(4), cache=shared_cache(4), **options)

    @pytest.mark.parametrize("method,options", [("ebg", {"seed": 3}), ("ec", {})])
    def test_bad_tie_policy_named_before_other_options(self, method, options, shared_cache):
        with pytest.raises(ValidationError, match="^tie_policy must be 'lex' or 'random', got 'coin'$"):
            run(method, params(4), cache=shared_cache(4), tie_policy="coin", **options)

    def test_defaults_fill_what_is_not_given(self, shared_cache):
        p, cache = params(6), shared_cache(6)
        assert run("random", p, cache=cache) == run(
            "random", p, cache=cache, seed=0, budget=1000, fixed_colors=2)
        assert run("e-ec", p, cache=cache) == run("e-ec", p, cache=cache, fixed_colors=1)
        assert run("ebg", p, cache=cache) == run("ebg", p, cache=cache, tie_policy="lex")
        # None is not given, also for an option that the method does not read
        assert run("e-ec", p, cache=cache, fixed_colors=None, seed=None) == run("e-ec", p, cache=cache)

    def test_unknown_option_name_refused(self, shared_cache):
        with pytest.raises(TypeError, match="fixed_colours"):
            run("e-ec", params(4), cache=shared_cache(4), fixed_colours=2)

    # the pool a search maps on is opened, and so checked, before the search
    @pytest.mark.parametrize("call", [
        lambda cache: _pooled(0, e_ec_search, params(5), cache=cache),
        lambda cache: _pooled(-3, exhaustive_search, params(5), cache=cache),
        lambda cache: _pooled(2.5, run, "e-ec", params(5), cache=cache),
    ], ids=["e-ec-0", "exhaustive-negative", "run-float"])
    def test_worker_count_refused_before_any_entropy(self, call):
        cache = EntropyCache(5, 2)
        with pytest.raises(ValidationError, match="^--threads must be an int of at least 1, got "):
            call(cache)
        # only the empty set's entropy, which every fresh cache holds
        assert len(cache) == 1

    # what each method refuses of its own, after the option gate
    REFUSED = [
        ("e-ec", 6, 2, {"fixed_colors": 0}, ValidationError, "fixed_colors must be in"),
        ("e-ec", 11, 2, {"fixed_colors": 1}, GuardViolation, "permutation cap"),
        ("ldf", 2, 2, {}, ValidationError, "f >= 3"),
        ("exhaustive", 6, 2, {}, GuardViolation, "permutation cap"),
        ("random", 6, 2, {"fixed_colors": 1}, ValidationError, "fixed_colors >= 2"),
        ("random", 6, 2, {"budget": 0}, ValidationError, "budget must be"),
        ("random", 4, 2, {"fixed_colors": 4}, ValidationError, "exceeds chi'"),
        ("ec", 14, 3, {}, GuardViolation, "enumeration guard"),
        ("ebg", 14, 3, {}, GuardViolation, "enumeration guard"),
        # the method's own refusal comes before q^f's
        ("e-ec", 14, 3, {"fixed_colors": 0}, ValidationError, "fixed_colors must be in"),
    ]

    @pytest.mark.parametrize("method,f,q,options,error,message", REFUSED)
    def test_check_run_refuses_what_run_refuses(self, method, f, q, options, error, message,
                                                 monkeypatch):
        with pytest.raises(error, match=message):
            run(method, params(f, q=q), **options)
        # and without an entropy
        monkeypatch.setattr(EntropyCache, "joint_entropy", None)
        with pytest.raises(error, match=message):
            search.check_run(method, params(f, q=q), **options)
