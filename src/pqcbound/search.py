"""Ordering-search methods for the capacity outer bound.

Implements the edge-coloring order (EC) and its permutation search (E-EC),
the longest-distance-first graph construction (LDF), the entropy-greedy
construction (EBG), exhaustive enumeration, directed random search, and the
isomorphism-class path count used to size the effective search space.

Deterministic conventions used throughout (all tie-breaks resolve to the
smallest edge index or lexicographically smallest order):

* EBG ties: candidates whose partial bound lies within 1e-12 of the best are
  tied; the "lex" policy picks the smallest edge, "random" picks with the
  seeded generator.
* EBG and exhaustive search fix the first edge to (1, 2): all single edges
  are equivalent under vertex relabeling, which leaves the bound unchanged.
* The last two edges of the LDF construction are appended in lexicographic
  order.
* Parallel workers merge results by (smallest bound, lexicographically
  smallest order), so worker count never changes the outcome.
"""
from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .bound import BoundParams, BoundReport, capacity_outer_bound, make_cache, partial_bound
from .coloring import color_sets, ec_order
from .entropy import EntropyCache
from .errors import (
    GraphComplete,
    InfeasibleBudget,
    SearchSpaceTooLarge,
    ValidationError,
)
from .graphs import (
    Edge,
    Graph,
    all_edges,
    check_edge,
    connected_components,
    edge_count,
    edge_from_index,
    edge_index,
    periphery,
    simple_path_counts,
)

EBG_TIE_TOLERANCE = 1e-12
ARGMIN_TIE_TOLERANCE = 1e-12
EXHAUSTIVE_DEFAULT_LIMIT = 5
PATH_COUNT_LIMIT = 5
PERMUTATION_CAP = 1_000_000


def feasible_fixed_colors(f: int) -> int:
    """Smallest leading-class count keeping the e-ec permutation search feasible."""
    chi = len(color_sets(f).sets)
    fixed = 1
    while math.factorial(chi - fixed) > PERMUTATION_CAP:
        fixed += 1
    return fixed


@dataclass(frozen=True)
class SearchConfig:
    """One search invocation as driven by the CLI."""

    method: str
    params: BoundParams
    seed: int | None = 0
    budget: int | None = 1000
    fixed_colors: int | None = None
    tie_policy: str = "lex"
    workers: int = 1
    force: bool = False


@dataclass(frozen=True)
class SearchResult:
    best: BoundReport
    evaluations: int
    trace: tuple | None = None
    argmin_orders: tuple | None = None


@lru_cache(maxsize=None)
def _edge_bits(f: int) -> dict:
    return {e: 1 << i for i, e in enumerate(all_edges(f))}


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


# ---------------------------------------------------------------------------
# E-EC: search over color-class permutations
# ---------------------------------------------------------------------------

def _e_ec_branch(task):
    """Best (bound, order) and the number of orders scored among the orders
    whose first free class is `second`.

    A DFS over the other free classes carries the running denominator, the
    last joint entropy and the edge position along shared prefixes, so a
    class step adds only the terms of its own edges.
    """
    step, weights, hmin, head, blocks, start, second = task
    full = (1 << len(blocks)) - 1
    best = (math.inf, ())
    count = 0
    perm = []

    def visit(done, c, pos, acc, prev):
        nonlocal best, count
        for h in step[done][c]:
            acc += weights[pos] * (h - prev)
            prev = h
            pos += 1
        done |= 1 << c
        perm.append(c)
        if done == full:
            count += 1
            b = hmin / acc
            if b <= best[0]:
                order = head + tuple(e for j in perm for e in blocks[j])
                if (b, order) < best:
                    best = (b, order)
        else:
            for j in range(len(blocks)):
                if not done >> j & 1:
                    visit(done, j, pos, acc, prev)
        perm.pop()

    visit(0, second, *start)
    return best, count


def e_ec_search(
    params: BoundParams,
    fixed_colors: int = 1,
    leading_colors=None,
    cache: EntropyCache | None = None,
    workers: int = 1,
    permutation_cap: int = PERMUTATION_CAP,
) -> SearchResult:
    """Best bound over color-class permutations with the leading classes fixed.

    The first fixed_colors classes of the coloring stay in place; every
    permutation of the remaining (free) classes is evaluated,
    (chi' - fixed_colors)! in total.  leading_colors pins an explicit
    sequence of 1-based class numbers instead of the first fixed_colors
    (useful for reproducing runs that held a nonstandard pair of classes
    fixed).

    The entropies come from a step table built once through the cache: for
    every set T of free classes and every free class c outside T, the joint
    entropies along c's edges appended after the leading classes and T.  A
    DFS over the free classes then adds one term per edge,
    weight * (H - H_prev), with the running-product weights 1, 1/n, 1/n^2, ...
    in the order _eval_order uses, so every order scores the same bits as a
    from-scratch evaluation.  There is one DFS task per second class, run in
    worker processes when workers > 1.  Ties in the bound go to the
    lexicographically smallest edge order, so the worker count never
    changes the result.
    """
    part = color_sets(params.f)
    chi = len(part.sets)
    if leading_colors is None:
        if not 1 <= fixed_colors <= chi:
            raise ValidationError(f"fixed_colors must be in [1, {chi}], got {fixed_colors}")
        leading = list(range(fixed_colors))
    else:
        leading = [c - 1 for c in leading_colors]
        if len(set(leading)) != len(leading) or not all(0 <= c < chi for c in leading) or not leading:
            raise ValidationError(
                f"leading_colors must be distinct class numbers in [1, {chi}], got {leading_colors!r}"
            )
    n_perms = math.factorial(chi - len(leading))
    if n_perms > permutation_cap:
        raise InfeasibleBudget(
            f"(chi' - fixed)! = {n_perms} exceeds the permutation cap {permutation_cap}; "
            f"fix more leading classes"
        )
    rest = [c for c in range(chi) if c not in leading]
    if not rest:
        order = part.concatenated(leading)
        return SearchResult(best=capacity_outer_bound(order, params, cache), evaluations=1)

    cache = make_cache(params, cache)
    bits = _edge_bits(params.f)

    def along(mask, edges):
        """Joint entropies as the edges join the set `mask` one by one."""
        hs = []
        for e in edges:
            mask |= bits[e]
            hs.append(cache.joint_entropy(mask))
        return tuple(hs)

    inv_n = 1.0 / params.n
    weights = [1.0]
    for _ in range(edge_count(params.f) - 1):
        weights.append(weights[-1] * inv_n)
    head = tuple(e for c in leading for e in part.sets[c])
    acc = prev = 0.0
    for pos, h in enumerate(along(0, head)):
        acc += weights[pos] * (h - prev)
        prev = h
    head_mask = sum(bits[e] for e in head)
    blocks = [tuple(part.sets[c]) for c in rest]
    block_masks = [sum(bits[e] for e in block) for block in blocks]
    step = []
    for done in range(1 << len(rest)):
        base = head_mask | sum(m for j, m in enumerate(block_masks) if done >> j & 1)
        step.append([
            None if done >> j & 1 else along(base, block) for j, block in enumerate(blocks)
        ])

    start = (len(head), acc, prev)
    tasks = [
        (step, weights, cache.marginal_entropy(), head, blocks, start, second)
        for second in range(len(rest))
    ]
    if workers > 1 and len(rest) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_e_ec_branch, tasks))
    else:
        results = [_e_ec_branch(t) for t in tasks]
    best = min(local_best for local_best, _ in results)
    total = sum(count for _, count in results)
    return SearchResult(best=capacity_outer_bound(best[1], params, cache), evaluations=total)


# ---------------------------------------------------------------------------
# LDF: matching, then a spanning cycle, then inner edges by cycle census
# ---------------------------------------------------------------------------

def ldf_order(f: int, start: Edge | None = (1, 2), seed=None) -> tuple[Edge, ...]:
    """Longest-distance-first order.

    Builds a Hamiltonian cycle greedily: starting from one edge, repeatedly
    join the two most weakly connected components at their minimum-degree
    vertices (which lays down a (near) perfect matching first), close the
    cycle across the periphery pair, then hand the chords to
    order_inner_edges.  start=None picks a random starting edge with the
    seeded generator.
    """
    if f < 3:
        raise ValidationError(f"the distance-first construction needs f >= 3, got {f}")
    if start is None:
        rng = random.Random(seed)
        start = tuple(sorted(rng.sample(range(1, f + 1), 2)))
    start = check_edge(start, f)
    g = Graph(f, [start])
    order = [start]
    for _ in range(f - 2):
        comps = connected_components(g)
        ends = []
        for comp in comps[:2]:
            best_v, best_d = None, 2
            for v in comp:
                d = g.degree(v)
                if d < best_d:
                    best_v, best_d = v, d
            ends.append(best_v)
        e = (min(ends), max(ends))
        g.add_edge(e)
        order.append(e)
    # the graph is now a Hamiltonian path; its unique diameter pair closes it
    u, v = min(periphery(g))
    g.add_edge((u, v))
    order.append((u, v))
    if len(order) == edge_count(f):
        return tuple(order)
    return order_inner_edges(g, order)


def order_inner_edges(g: Graph, partial) -> tuple[Edge, ...]:
    """Extend a partial order over g by repeatedly adding the chord that
    induces the lexicographically smallest per-length cycle census.

    Candidates are scored through-edge (cycles containing the chord); the
    base census of g is a common additive offset, so the argmin matches
    full-graph scoring.  The last two edges are appended in lexicographic
    order.
    """
    partial = [check_edge(e, g.f) for e in partial]
    if set(partial) != g.edge_set or len(partial) != len(g.edge_set):
        raise ValidationError("partial order must list exactly the edges of g")
    missing = sorted(set(all_edges(g.f)) - g.edge_set)
    if not missing:
        raise GraphComplete("graph already complete; nothing to order")
    work = g.copy()
    order = list(partial)
    while len(missing) > 2:
        counts_by_source: dict[int, object] = {}
        best_vec = None
        best_edge = None
        for k, l in missing:
            res = counts_by_source.get(k)
            if res is None:
                res = simple_path_counts(work, k)
                counts_by_source[k] = res
            # paths of length L close to cycles of length L+1
            # a list, not a generator: see bound.capacity_outer_bound
            vec = tuple([int(res[l, length]) for length in range(2, work.f)])
            if best_vec is None or vec < best_vec:
                best_vec, best_edge = vec, (k, l)
        work.add_edge(best_edge)
        order.append(best_edge)
        missing.remove(best_edge)
    order.extend(missing)
    return tuple(order)


# ---------------------------------------------------------------------------
# EBG: greedy partial-bound minimization
# ---------------------------------------------------------------------------

def ebg_order(
    params: BoundParams,
    tie_policy: str = "lex",
    seed=None,
    cache: EntropyCache | None = None,
    trace: bool = False,
) -> SearchResult:
    """Greedy order: append the edge minimizing the partial bound each step.

    The argmin is independent of n (it equals the conditional-entropy argmax),
    so the same order comes out for every n >= 1.  Starts from (1, 2); ties
    within 1e-12 go to the smallest edge ("lex") or a seeded random pick
    ("random").
    """
    if tie_policy not in ("lex", "random"):
        raise ValidationError(f"tie_policy must be 'lex' or 'random', got {tie_policy!r}")
    cache = make_cache(params, cache)
    rng = random.Random(seed)
    order = [(1, 2)]
    remaining = [e for e in all_edges(params.f) if e != (1, 2)]
    evaluations = 0
    log = []
    while remaining:
        scored = []
        for e in remaining:
            scored.append((partial_bound(order + [e], params, cache), e))
            evaluations += 1
        best = min(pb for pb, _ in scored)
        tied = [e for pb, e in scored if pb <= best + EBG_TIE_TOLERANCE]
        pick = min(tied) if tie_policy == "lex" else rng.choice(tied)
        order.append(pick)
        remaining.remove(pick)
        if trace:
            log.append((pick, best))
    report = capacity_outer_bound(order, params, cache)
    return SearchResult(best=report, evaluations=max(evaluations, 1), trace=tuple(log) if trace else None)


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

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


def exhaustive_search(
    params: BoundParams,
    cache: EntropyCache | None = None,
    force: bool = False,
    workers: int = 1,
    collect_argmin: bool = False,
    tie_tol: float = ARGMIN_TIE_TOLERANCE,
) -> SearchResult:
    """Minimum bound over every monomial order.

    The first edge is pinned to (1, 2), a pure symmetry reduction: any order
    can be vertex-relabeled so that its first edge is (1, 2) without changing
    the bound.  With collect_argmin, all enumerated orders within tie_tol of
    the minimum are returned.
    """
    if params.f > EXHAUSTIVE_DEFAULT_LIMIT and not force:
        raise SearchSpaceTooLarge(
            f"exhaustive search over {edge_count(params.f)}! orders needs force=True for f > "
            f"{EXHAUSTIVE_DEFAULT_LIMIT}"
        )
    cache = make_cache(params, cache)
    mu = edge_count(params.f)
    if mu > 24:
        raise SearchSpaceTooLarge(
            "exhaustive search precomputes all 2^mu joint entropies and supports mu <= 24 "
            "(f <= 7) even when forced"
        )
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


# ---------------------------------------------------------------------------
# Directed random search
# ---------------------------------------------------------------------------

def directed_random_search(
    params: BoundParams,
    seed: int,
    budget: int,
    fixed_colors: int = 2,
    cache: EntropyCache | None = None,
) -> SearchResult:
    """Random search over orders whose prefix is pinned to leading color classes.

    The first fixed_colors classes of the edge-coloring stay fixed
    (lexicographic inside); each draw shuffles the remaining edges with the
    seeded generator and evaluates the bound.  Reproducible given the seed.
    """
    if fixed_colors < 2:
        raise ValidationError(f"directed random search needs fixed_colors >= 2, got {fixed_colors}")
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    part = color_sets(params.f)
    if fixed_colors > len(part.sets):
        raise ValidationError(f"fixed_colors {fixed_colors} exceeds chi' = {len(part.sets)}")
    cache = make_cache(params, cache)
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
    report = capacity_outer_bound(best[1], params, cache)
    return SearchResult(best=report, evaluations=budget)


# ---------------------------------------------------------------------------
# Isomorphism-class path count
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _edge_remaps(f: int) -> tuple:
    """Edge-index permutation induced by each vertex permutation."""
    edges = all_edges(f)
    remaps = []
    for perm in permutations(range(1, f + 1)):
        r = [0] * len(edges)
        for i, (k, l) in enumerate(edges):
            a, b = perm[k - 1], perm[l - 1]
            r[i] = edge_index((min(a, b), max(a, b)), f)
        remaps.append(tuple(r))
    return tuple(remaps)


def _canonical_form(mask: int, remaps) -> int:
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


def _path_count_guard(f: int) -> None:
    if f < 2 or f > PATH_COUNT_LIMIT:
        raise SearchSpaceTooLarge(
            f"path counting enumerates canonical forms over f! relabelings; supported for 2 <= f <= "
            f"{PATH_COUNT_LIMIT}, got {f}"
        )


def count_distinct_paths(f: int) -> int:
    """Number of edge-addition sequences from the empty graph to K_f that are
    distinct up to graph isomorphism at every step (memoized DFS over
    canonical unlabeled-graph states)."""
    _path_count_guard(f)
    remaps = _edge_remaps(f)
    mu = edge_count(f)
    full = (1 << mu) - 1
    canon_cache: dict[int, int] = {}

    def canon(mask):
        c = canon_cache.get(mask)
        if c is None:
            c = _canonical_form(mask, remaps)
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


def count_graph_classes(f: int) -> int:
    """Number of isomorphism classes of graphs on f unlabeled vertices,
    counted as the canonical states reachable from the empty graph."""
    _path_count_guard(f)
    remaps = _edge_remaps(f)
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
                nxt = _canonical_form(cmask | (1 << i), remaps)
                if nxt not in seen:
                    stack.append(nxt)
    return len(seen)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def run(config: SearchConfig, cache: EntropyCache | None = None) -> SearchResult:
    """Run one method from a SearchConfig (the CLI entry point)."""
    params = config.params
    method = config.method
    if method == "ec":
        order = ec_order(params.f)
        return SearchResult(best=capacity_outer_bound(order, params, cache), evaluations=1)
    if method == "e-ec":
        return e_ec_search(
            params,
            fixed_colors=1 if config.fixed_colors is None else config.fixed_colors,
            cache=cache,
            workers=config.workers,
        )
    if method == "ldf":
        order = ldf_order(params.f)
        return SearchResult(best=capacity_outer_bound(order, params, cache), evaluations=1)
    if method == "ebg":
        return ebg_order(params, tie_policy=config.tie_policy, seed=config.seed, cache=cache)
    if method == "exhaustive":
        return exhaustive_search(params, cache=cache, force=config.force, workers=config.workers)
    if method == "random":
        return directed_random_search(
            params,
            seed=config.seed,
            budget=config.budget,
            fixed_colors=2 if config.fixed_colors is None else config.fixed_colors,
            cache=cache,
        )
    raise ValidationError(f"unknown method {method!r}")
