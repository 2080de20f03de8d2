"""Ordering-search methods for the capacity outer bound.

Implements the edge-coloring order (EC) and its permutation search (E-EC),
the longest-distance-first graph construction (LDF), the entropy-greedy
construction (EBG), exhaustive enumeration, directed random search, and the
isomorphism-class path count used to size the effective search space.

E-EC and exhaustive search are one brute-force kernel, _block_search: every
order of a set of blocks after a fixed head.  E-EC's head is the leading
color classes and its blocks are the free classes; exhaustive search's head
is the edge (1, 2) and its blocks are the other edges, one each.  Both are
refused when the blocks have more than PERMUTATION_CAP orders, which admits
exhaustive search up to f = 5.

Every score is a sum of bound.weighted_terms; each winner is re-evaluated
with capacity_outer_bound.  Both brute-force and random search are branch
and bound: an order stops being scored once its denominator so far plus
bound.remaining_cap cannot reach the best one found so far.  The cap is
widened, so pruning skips only orders strictly worse than that best and
never changes a result; evaluations still counts every order covered.

run is the one option gate: METHOD_OPTIONS names the options each method
reads and the value each takes when not given, and run refuses any other
option that is given.  ebg reads its seed only with the "random" tie policy.

Deterministic conventions used throughout (all tie-breaks resolve to the
smallest edge index or lexicographically smallest order):

* EBG ties: candidates whose partial bound lies within 1e-12 of the best are
  tied; the "lex" policy picks the smallest edge, "random" picks with the
  seeded generator.
* LDF, EBG and exhaustive search start from the edge (1, 2): all single
  edges are equivalent under vertex relabeling, which leaves the bound
  unchanged.
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

from .bound import (
    BoundParams,
    BoundReport,
    capacity_outer_bound,
    make_cache,
    remaining_cap,
    weighted_terms,
)
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
    chord_censuses,
    connected_components,
    edge_count,
    edge_index,
    periphery,
)

EBG_TIE_TOLERANCE = 1e-12
ARGMIN_TIE_TOLERANCE = 1e-12
PATH_COUNT_LIMIT = 5
PERMUTATION_CAP = 1_000_000
# how ebg breaks ties within EBG_TIE_TOLERANCE; every other method breaks them lex
TIE_POLICIES = ("lex", "random")
# The SearchConfig options each method reads besides its params, with the
# value each takes when not given (None).  Messages name an option's readers
# in this order.
METHOD_OPTIONS = {
    "ec": {},
    "e-ec": {"fixed_colors": 1},
    "ldf": {},
    "ebg": {"seed": None, "tie_policy": "lex"},
    "exhaustive": {},
    "random": {"seed": 0, "budget": 1000, "fixed_colors": 2},
}
# how refusals name each option, and the command-line flag that sets it
OPTION_NAMES = {"seed": ("seed", "--seed"), "budget": ("budget", "--budget"),
                "fixed_colors": ("fixed_colors", "--fixed-colors"),
                "tie_policy": ("tie policy", "--tie")}


def reads_option(method: str, option: str, tie_policy: str | None = None) -> bool:
    """Whether method reads option when ties are broken by tie_policy.  Every
    method breaks its ties lex, so each reads a lex tie policy; ebg alone
    breaks them at random, and reads its seed only then."""
    if option == "tie_policy" and tie_policy == "lex":
        return True
    if method == "ebg" and option == "seed":
        return tie_policy == "random"
    return option in METHOD_OPTIONS[method]


def option_readers(option: str, tie_policy: str | None = None) -> tuple[str, ...]:
    """The methods that read option under tie_policy, in METHOD_OPTIONS order."""
    return tuple(m for m in METHOD_OPTIONS if reads_option(m, option, tie_policy))


def _check_tie_policy(tie_policy) -> None:
    if tie_policy not in TIE_POLICIES:
        raise ValidationError(f"tie_policy must be {' or '.join(map(repr, TIE_POLICIES))}, got {tie_policy!r}")


def feasible_fixed_colors(f: int) -> int:
    """Smallest leading-class count from e-ec's default up that keeps e-ec feasible."""
    chi = len(color_sets(f).sets)
    fixed = METHOD_OPTIONS["e-ec"]["fixed_colors"]
    while math.factorial(chi - fixed) > PERMUTATION_CAP:
        fixed += 1
    return fixed


@dataclass(frozen=True)
class SearchConfig:
    """One search invocation as driven by the CLI.  An option left None is not
    given: run gives it the method's METHOD_OPTIONS value."""

    method: str
    params: BoundParams
    seed: int | None = None
    budget: int | None = None
    fixed_colors: int | None = None
    tie_policy: str | None = None
    workers: int = 1


@dataclass(frozen=True)
class SearchResult:
    best: BoundReport
    evaluations: int
    trace: tuple | None = None
    argmin_orders: tuple | None = None
    # orders scored in full, where a search prunes the others
    scored: int | None = None


# ---------------------------------------------------------------------------
# Brute force: every order of the blocks after a fixed head
# ---------------------------------------------------------------------------

def _permutation_guard(k: int, error: type, advice: str) -> None:
    """Refuse a brute-force search over more than PERMUTATION_CAP block orders."""
    count = math.factorial(k)
    if count > PERMUTATION_CAP:
        raise error(
            f"{k}! = {count} block orders exceed the permutation cap {PERMUTATION_CAP}; {advice}"
        )


def _block_branch(task):
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


def _block_search(params, cache, head, blocks, workers, tie_tol=None) -> SearchResult:
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
            results = list(pool.map(_block_branch, tasks))
    else:
        results = [_block_branch(t) for t in tasks]
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


# ---------------------------------------------------------------------------
# E-EC: search over color-class permutations
# ---------------------------------------------------------------------------

def e_ec_search(
    params: BoundParams,
    fixed_colors: int = METHOD_OPTIONS["e-ec"]["fixed_colors"],
    leading_colors=None,
    cache: EntropyCache | None = None,
    workers: int = 1,
) -> SearchResult:
    """Best bound over color-class permutations with the leading classes fixed.

    The first fixed_colors classes of the coloring stay in place; every
    permutation of the remaining (free) classes is evaluated,
    (chi' - fixed_colors)! in total, by _block_search with the leading
    classes as the head and one block per free class.  leading_colors pins
    an explicit sequence of 1-based class numbers instead of the first
    fixed_colors (useful for reproducing runs that held a nonstandard pair
    of classes fixed).
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
    blocks = [tuple(part.sets[c]) for c in range(chi) if c not in leading]
    _permutation_guard(len(blocks), InfeasibleBudget, "fix more leading classes")
    return _block_search(params, cache, part.concatenated(leading), blocks, workers)


# ---------------------------------------------------------------------------
# LDF: matching, then a spanning cycle, then inner edges by cycle census
# ---------------------------------------------------------------------------

def ldf_order(f: int) -> tuple[Edge, ...]:
    """Longest-distance-first order.

    Builds a Hamiltonian cycle greedily: starting from the edge (1, 2),
    repeatedly join the two most weakly connected components at their
    minimum-degree vertices (which lays down a (near) perfect matching
    first), close the cycle across the periphery pair, then hand the chords
    to order_inner_edges.
    """
    if f < 3:
        raise ValidationError(f"the distance-first construction needs f >= 3, got {f}")
    g = Graph(f, [(1, 2)])
    order = [(1, 2)]
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

    Candidates are scored through-edge by graphs.chord_censuses (cycles
    containing the chord); the base census of g is a common additive offset,
    so the argmin matches full-graph scoring.  Ties go to the smallest chord,
    and the last two edges are appended in lexicographic order.
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
        census = chord_censuses(work, missing)
        best = min(missing, key=lambda e: (census[e], e))
        work.add_edge(best)
        order.append(best)
        missing.remove(best)
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
    ("random").  The order's weighted terms are carried from step to step,
    so a candidate costs one entropy lookup and one fsum over the terms.
    """
    _check_tie_policy(tie_policy)
    cache = make_cache(params, cache)
    hmin = cache.marginal_entropy()
    rng = random.Random(seed)
    order = [(1, 2)]
    remaining = [e for e in all_edges(params.f) if e != (1, 2)]
    evaluations = 0
    log = []
    # the order so far: its weighted terms and its state
    terms, _, state = weighted_terms(cache, params.n, order)
    while remaining:
        cache.hold(state[0])
        scored = {}
        for e in remaining:
            t, _, end = weighted_terms(cache, params.n, (e,), state)
            # the partial bound of order + [e], to the bit
            scored[e] = (hmin / math.fsum(terms + t), t, end)
            evaluations += 1
        best = min(pb for pb, _, _ in scored.values())
        tied = [e for e, (pb, _, _) in scored.items() if pb <= best + EBG_TIE_TOLERANCE]
        pick = min(tied) if tie_policy == "lex" else rng.choice(tied)
        order.append(pick)
        remaining.remove(pick)
        _, t, state = scored[pick]
        terms += t
        if trace:
            log.append((pick, best))
    report = capacity_outer_bound(order, params, cache)
    return SearchResult(best=report, evaluations=max(evaluations, 1), trace=tuple(log) if trace else None)


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

def exhaustive_search(
    params: BoundParams,
    cache: EntropyCache | None = None,
    workers: int = 1,
    collect_argmin: bool = False,
    tie_tol: float = ARGMIN_TIE_TOLERANCE,
) -> SearchResult:
    """Minimum bound over every monomial order.

    The first edge is pinned to (1, 2), a pure symmetry reduction: any order
    can be vertex-relabeled so that its first edge is (1, 2) without changing
    the bound.  The rest is _block_search with one block per remaining edge,
    so the permutation cap admits f <= 5 ((mu - 1)! = 9! orders).  With
    collect_argmin, all enumerated orders within tie_tol of the minimum are
    returned.
    """
    first, *rest = all_edges(params.f)
    _permutation_guard(len(rest), SearchSpaceTooLarge, "exhaustive search supports f <= 5")
    return _block_search(params, cache, (first,), [(e,) for e in rest], workers,
                         tie_tol if collect_argmin else None)


# ---------------------------------------------------------------------------
# Directed random search
# ---------------------------------------------------------------------------

def directed_random_search(
    params: BoundParams,
    seed: int,
    budget: int,
    fixed_colors: int = METHOD_OPTIONS["random"]["fixed_colors"],
    cache: EntropyCache | None = None,
) -> SearchResult:
    """Random search over orders whose prefix is pinned to leading color classes.

    The first fixed_colors classes of the edge-coloring stay fixed
    (lexicographic inside); each draw shuffles the remaining edges with the
    seeded generator and scores the order one edge at a time.  A draw stops,
    with no further entropy lookups, once its denominator plus remaining_cap
    falls below the best draw's: it can no longer win or tie.  Reproducible
    given the seed; evaluations counts the draws and scored those scored in
    full.
    """
    if fixed_colors < 2:
        raise ValidationError(f"directed random search needs fixed_colors >= 2, got {fixed_colors}")
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    part = color_sets(params.f)
    if fixed_colors > len(part.sets):
        raise ValidationError(f"fixed_colors {fixed_colors} exceeds chi' = {len(part.sets)}")
    cache = make_cache(params, cache)
    n = params.n
    prefix = part.concatenated(range(fixed_colors))
    rest_base = sorted(set(all_edges(params.f)) - set(prefix))
    # each draw folds its tail's terms onto the prefix's, from the prefix's state
    head_terms, _, start = weighted_terms(cache, n, prefix)
    cache.hold(start[0])
    head = 0.0
    for t in head_terms:
        head += t
    hmin = cache.marginal_entropy()
    rng = random.Random(seed)
    best = (math.inf, ())
    floor = 0.0  # the best draw's denominator
    scored = 0
    for _ in range(budget):
        rest = rest_base.copy()
        rng.shuffle(rest)
        acc, state = head, start
        for e in rest:
            if acc + remaining_cap(cache, n, state) < floor:
                break
            (t,), _, state = weighted_terms(cache, n, (e,), state)
            acc += t
        else:
            scored += 1
            b = hmin / acc
            order = prefix + tuple(rest)
            if (b, order) < best:
                best = (b, order)
                floor = acc
    report = capacity_outer_bound(best[1], params, cache)
    return SearchResult(best=report, evaluations=budget, scored=scored)


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
    """The smallest mask among the relabelings of mask."""
    bits = [i for i in range(len(remaps[0])) if mask >> i & 1]
    return min(sum(1 << r[i] for i in bits) for r in remaps)


@lru_cache(maxsize=None)
def _class_walk(f: int) -> tuple[int, int]:
    """(states, paths) of the layered graph of the unlabeled graphs on f vertices.

    Layer k maps the canonical mask of each class with k edges to the number
    of distinct class sequences from the empty graph that reach it; a state's
    successors are the distinct canonical forms of it plus one absent edge.
    Canonical forms take all f! relabelings, so 2 <= f <= PATH_COUNT_LIMIT."""
    if f < 2 or f > PATH_COUNT_LIMIT:
        raise SearchSpaceTooLarge(
            f"path counting enumerates canonical forms over f! relabelings; supported for 2 <= f <= "
            f"{PATH_COUNT_LIMIT}, got {f}"
        )
    remaps = _edge_remaps(f)
    mu = edge_count(f)
    layer = {0: 1}
    states = 1
    for _ in range(mu):
        nxt: dict[int, int] = {}
        for mask, paths in layer.items():
            for s in {_canonical_form(mask | 1 << i, remaps) for i in range(mu) if not mask >> i & 1}:
                nxt[s] = nxt.get(s, 0) + paths
        layer = nxt
        states += len(layer)
    return states, layer[(1 << mu) - 1]


def count_distinct_paths(f: int) -> int:
    """Number of edge-addition sequences from the empty graph to K_f that are
    distinct up to graph isomorphism at every step: the paths of _class_walk."""
    return _class_walk(f)[1]


def count_graph_classes(f: int) -> int:
    """Number of isomorphism classes of graphs on f unlabeled vertices: the
    states of _class_walk."""
    return _class_walk(f)[0]


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def run(config: SearchConfig, cache: EntropyCache | None = None) -> SearchResult:
    """Run one method from a SearchConfig (the CLI entry point).  A given
    option that the method does not read is refused; one that it reads and
    is not given takes its METHOD_OPTIONS value."""
    params = config.params
    method = config.method
    if method not in METHOD_OPTIONS:
        raise ValidationError(f"unknown method {method!r}")
    tie = config.tie_policy
    if tie is not None:
        _check_tie_policy(tie)
    opts = {}
    for option, (name, flag) in OPTION_NAMES.items():
        value = getattr(config, option)
        if value is None:
            value = METHOD_OPTIONS[method].get(option)
        elif not reads_option(method, option, tie):
            readers = " and ".join(option_readers(option, tie))
            has_tie = "tie_policy" in METHOD_OPTIONS[method]
            where = f"{method!r} with tie policy {tie or 'lex'!r}" if has_tie else repr(method)
            raise ValidationError(f"{name} {value!r} applies to {readers} only, not {where} ({flag})")
        opts[option] = value
    if method in ("ec", "ldf"):
        order = ec_order(params.f) if method == "ec" else ldf_order(params.f)
        return SearchResult(best=capacity_outer_bound(order, params, cache), evaluations=1)
    if method == "e-ec":
        return e_ec_search(params, fixed_colors=opts["fixed_colors"], cache=cache, workers=config.workers)
    if method == "ebg":
        return ebg_order(params, tie_policy=opts["tie_policy"], seed=opts["seed"], cache=cache)
    if method == "exhaustive":
        return exhaustive_search(params, cache=cache, workers=config.workers)
    # random, the one method left
    return directed_random_search(params, seed=opts["seed"], budget=opts["budget"],
                                  fixed_colors=opts["fixed_colors"], cache=cache)
