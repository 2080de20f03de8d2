"""Ordering-search methods for the capacity outer bound.

Implements the edge-coloring order (EC) and its permutation search (E-EC),
the longest-distance-first graph construction (LDF), the entropy-greedy
construction (EBG), exhaustive enumeration, directed random search, and the
isomorphism-class path count used to size the effective search space: one
layered walk over the classes of graphs on f vertices, each named by
graphs._canonical_form, admitted up to PATH_COUNT_LIMIT, the largest f
measured to finish.

E-EC and exhaustive search are one brute-force kernel, _block_search: every
order of a set of blocks after a fixed head.  E-EC's head is the leading
color classes and its blocks are the free classes; exhaustive search's head
is the edge (1, 2) and its blocks are the other edges, one each.  Both are
refused when the blocks have more than PERMUTATION_CAP orders, which admits
exhaustive search up to f = 5.

Every score is the left-to-right fold _fold of bound.weighted_terms; each
winner is re-evaluated with capacity_outer_bound, which sums its terms
exactly rounded.  ebg looks up only the candidates whose place in its tie
window the bounds it carries cannot settle: by submodularity a candidate's
last conditional entropy bounds its next, and a step whose weight has
fallen far below the window ties every candidate with no lookup.  It scores
at most one candidate per orbit of its prefix graph's automorphisms
(graphs.edge_orbits), found only at a step that looks something up: the
others give isomorphic edge sets, whose entropies, by the relabeling
invariance of EntropyCache, and so scores, are equal to the bit.  Both
brute-force and random search are branch and bound: an order stops being
scored once its denominator so far plus bound.remaining_cap cannot reach a
floor.  That cap water-fills the entropy still to come into the next
positions, each up to a per-edge cap: an edge's conditional entropy given a
subset of the edges before it, which by submodularity bounds its
conditional entropy there.  Random search caps
each edge of a draw by its conditional entropy given the fixed prefix, and
its floor is the best draw's denominator.  The brute-force kernel caps the
free edges of a set of placed blocks once, from the walks of the row that
first reaches the set.  It first expands those sets best-first, by their
largest denominator so far plus that cap (A* search), which finds the
optimum's floor; it builds the entropy rows of its step table only for the
sets that can reach that floor, and its DFS prunes against the best-first
pass's floor.  The cap is widened, so pruning skips only orders strictly
worse than an incumbent and never changes a result; evaluations still
counts every order covered.  The best-first pass also gives the DFS its
one target, the optimum's bound: the DFS walks its orders in lexicographic
order, returns the first that scores the target and, unless it lists the
near-ties, stops there.

run is the one option gate: METHOD_OPTIONS names the options each method
reads and the value each takes when not given, and run refuses any other
option that is given.  ebg reads its seed only with the "random" tie policy.
WorkerPool is the one check of a worker count.

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
* The brute-force DFS runs one task per first block, in lexicographic
  order, and the first task that scores the optimum's bound gives the
  winner, so the worker count never changes the outcome.  A command starts
  at most one pool, a WorkerPool that its first brute-force search with
  more than one task starts and its later ones reuse; without one the tasks
  run inline.
"""
from __future__ import annotations

import heapq
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from .bound import (
    CAP_MARGIN,
    BoundParams,
    BoundReport,
    capacity_outer_bound,
    make_cache,
    _weights,
    remaining_cap,
    weighted_terms,
)
from .coloring import color_sets, ec_order
from .entropy import EntropyCache, check_enumeration
from .errors import GuardViolation, ValidationError
from .graphs import (
    Edge,
    Graph,
    _canonical_form,
    all_edges,
    check_edge,
    check_vertex_count,
    chord_censuses,
    connected_components,
    edge_count,
    edge_orbits,
    periphery,
    short_path_counts,
)

# how close to the best bound an ebg candidate or an exhaustive argmin ties it
TIE_TOLERANCE = 1e-12
PATH_COUNT_LIMIT = 8
PERMUTATION_CAP = 1_000_000
# how ebg breaks ties within TIE_TOLERANCE; every other method breaks them lex
TIE_POLICIES = ("lex", "random")
# The options of run that each method reads besides its params, with the
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
# the options run takes: how refusals name each, and the command-line flag that sets it
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
class SearchResult:
    best: BoundReport
    evaluations: int
    argmin_orders: tuple | None = None
    # orders scored in full, where a search prunes the others; the
    # brute-force DFS without argmin collection counts them only up to the
    # first order with the optimum's bits in each of its tasks
    scored: int | None = None


# ---------------------------------------------------------------------------
# Brute force: every order of the blocks after a fixed head
# ---------------------------------------------------------------------------

def _permutation_guard(k: int, advice: str) -> None:
    """Refuse a brute-force search over more than PERMUTATION_CAP block orders."""
    count = math.factorial(k)
    if count > PERMUTATION_CAP:
        raise GuardViolation(
            f"{k}! = {count} block orders exceed the permutation cap {PERMUTATION_CAP}; {advice}"
        )


class WorkerPool:
    """The worker processes of one command, shared by its brute-force searches.

    map(fn, tasks) maps inline when count is at most 1 or there is one task.
    Otherwise the first such map starts one ProcessPoolExecutor of
    min(count, len(tasks)) workers, which every later map reuses, and each
    map sends every worker one chunk of its tasks, so a table shared by the
    tasks is pickled once per worker.  Leaving the with block shuts the pool
    down and joins its workers.  This is the one check of a worker count: one
    that is not an int of at least 1 is refused.
    """

    def __init__(self, count: int):
        if not isinstance(count, int) or count < 1:
            raise ValidationError(f"--threads must be an int of at least 1, got {count!r}")
        self.count = count
        self._pool = None
        self._size = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.__exit__(*exc)
            self._pool = None
        return False

    def map(self, fn, tasks) -> list:
        if self.count <= 1 or len(tasks) <= 1:
            return [fn(t) for t in tasks]
        if self._pool is None:
            self._size = min(self.count, len(tasks))
            self._pool = ProcessPoolExecutor(max_workers=self._size).__enter__()
        return list(self._pool.map(fn, tasks, chunksize=math.ceil(len(tasks) / self._size)))


def _block_branch(task):
    """The first order that scores the target, the number of orders scored
    in full and, with tie_tol, the orders that score at most target +
    tie_tol, among the orders whose first step is one of `firsts`, steps of
    rows[0].  An order here is a sequence of block indices.

    rows[done] lists, for each block j outside the set `done` of blocks
    placed after the head, (j, the set with j added, the weighted terms of
    j's edges from there), and cap[done] holds the remaining_cap from done,
    so a DFS over the blocks carries only the set placed so far and the
    running denominator, from head_acc, the head's fold.  The DFS enters a
    set, a whole order included, only if its denominator plus cap reaches
    the floor, the best-first pass's: no order below a set it skips scores
    within tie_tol of the target, and every set it enters has its row.  It
    scores an order when it enters the full set.

    The target is the optimum's bound, which no order scores below.  Each
    row lists its blocks in index order, so the DFS walks its orders in
    lexicographic order, and the first that scores the target is the
    task's smallest optimum, or None if none of its orders does.  Without
    tie_tol the DFS stops there; with it, it walks every order it enters.
    """
    rows, cap, hmin, head_acc, firsts, tie_tol, target, floor = task
    full = len(rows) - 1
    hit = None
    ties = []
    scored = 0
    perm = []

    def visit(done, acc, steps):
        """Whether the walk stops: it scored the target and lists no ties."""
        nonlocal hit, scored
        if done == full:
            scored += 1
            b = hmin / acc
            if tie_tol is not None and b <= target + tie_tol:
                ties.append(tuple(perm))
            if hit is None and b == target:
                hit = tuple(perm)
                return tie_tol is None
            return False
        for j, nxt, terms in steps:
            a = _fold(acc, terms)
            if a + cap[nxt] >= floor:
                perm.append(j)
                if visit(nxt, a, rows[nxt]):
                    return True
                perm.pop()
        return False

    visit(0, head_acc, firsts)
    del visit  # visit refers to itself; dropping it frees the task without a collection
    return hit, scored, ties


def _fold(acc, terms):
    """acc plus the terms, added left to right: every search score is this
    fold of weighted_terms, so the best-first pass and the DFS agree to the
    bit."""
    for t in terms:
        acc += t
    return acc


def _block_search(params, cache, head, blocks, pool: WorkerPool | None = None,
                  tie_tol=None) -> SearchResult:
    """Best bound over the orders head + (the blocks in every order).

    Every order scores the bits of a left-to-right fold of its weighted
    terms, which come from a table built through the cache: a set of placed
    blocks has a row, which lists each block j outside it with the
    weighted_terms of j's edges from the set's state.  The row that first
    reaches a set gives it its state, and its cap: the remaining_cap from
    that state, with the conditional entropies of the walks of the other
    free blocks in that row, sorted in descending order, as per-edge caps.
    Each bounds its edge's conditional entropy from any set that follows
    the row's, and sorted they hold whatever order the blocks come in.  A
    set's cap never changes once assigned.  Rows are built only for the
    sets that can still reach the optimum, in two passes:

    1. A best-first pass (A* search, with the cap as its heuristic).  D[S] is
       the largest fold into S found so far.  It pops the set with the
       largest D[S] plus cap, builds its row and folds each free block into
       D of the set one block larger, pushing that set only when its fold
       improves and, plus its cap, reaches the floor.  Each fold that
       improves D[full] raises the floor to hmin / (its bound + tie_tol), the
       denominator an order must reach to win or tie.  The pass stops when
       the largest D[S] plus cap falls below the floor.  The cap never
       falls below what a completion adds (it is admissible), but it can
       fall by more than a step's terms (it is not consistent), so D[S] can
       rise after S is popped.  Such a set is pushed and expanded again from
       its cached row, so along the optimum's order every set is expanded
       with at least its fold there, and the floor ends at the optimum's.
       The same holds for every order the DFS enters: IEEE addition is
       monotone and each set keeps the cap it was first given, so every set
       that the DFS enters was expanded and has its row.
    2. One DFS task per first block after the head (_block_branch), with
       target = hmin / D[full], the optimum's bound; with no blocks, one task
       scores the head alone.  pool, the caller's WorkerPool, maps the tasks
       in one chunk per worker when it has more than one; with None they are
       mapped inline.  Each task prunes against the best-first pass's
       floor, so neither the worker count nor the chunking changes the
       result; an order a task completes folds to at most D[full], so a
       floor of its own would never rise above the pass's.  The blocks are
       sorted by first edge, so the tasks, in the order of their first
       blocks, and the walk of each, are in lexicographic order: the first
       order that scores the target in the first task that has one is the
       lexicographically smallest optimum, and without tie_tol each task
       stops at its first.

    The widened cap skips only orders strictly worse than an incumbent, so
    ties in the bound go to the lexicographically smallest edge order.  With
    tie_tol, every order whose bound is at most the optimum's plus tie_tol
    is returned as argmin_orders, in lexicographic order, as the tasks list
    them.  evaluations counts the orders covered, k! for k blocks, and
    scored those scored in full, up to each task's stop.
    Callers apply _permutation_guard.
    """
    cache = make_cache(params, cache)
    # the blocks are disjoint, so in first-edge order the DFS walks its
    # orders lexicographically
    blocks = sorted(blocks)
    k, n = len(blocks), params.n
    hmin = cache.marginal_entropy()
    slack = 0.0 if tie_tol is None else tie_tol
    full = (1 << k) - 1
    head_terms, _, start = weighted_terms(cache, n, head)
    head_acc = _fold(0.0, head_terms)
    # per set of placed blocks: its state (where the head and those blocks
    # end, in any order), its cap and its row
    states = [start] + [None] * full
    cap = [remaining_cap(cache, n, start)] + [None] * full
    rows = [None] * (full + 1)

    def row(done):
        if rows[done] is None:
            state = states[done]
            cache.hold(state[0])
            walks = [(j, done | 1 << j, *weighted_terms(cache, n, blocks[j], state))
                     for j in range(k) if not done >> j & 1]
            rows[done] = [(j, nxt, terms) for j, nxt, terms, _, _ in walks]
            for j, nxt, _, _, end in walks:
                if states[nxt] is None:
                    # each edge of the blocks still free after nxt is capped
                    # by its conditional entropy in its block's walk from done
                    caps = sorted((c for i, _, _, cond, _ in walks if i != j for c in cond), reverse=True)
                    states[nxt], cap[nxt] = end, remaining_cap(cache, n, end, caps)
        return rows[done]

    # reach[S] is D[S]; the heap holds (-(reach[S] + cap[S]), S)
    reach = [-math.inf] * (full + 1)
    reach[0] = head_acc
    floor = 0.0
    heap = [(-(head_acc + cap[0]), 0)]
    while heap and -heap[0][0] >= floor:
        value, done = heapq.heappop(heap)
        if -value != reach[done] + cap[done]:
            continue  # stale: the set was pushed again when its reach rose
        for _, nxt, terms in row(done):
            a = _fold(reach[done], terms)
            if a > reach[nxt]:
                reach[nxt] = a
                if nxt == full:
                    floor = hmin / (hmin / a + slack)
                elif a + cap[nxt] >= floor:
                    heapq.heappush(heap, (-(a + cap[nxt]), nxt))

    target = hmin / reach[full]
    tasks = [
        (rows, cap, hmin, head_acc, firsts, tie_tol, target, floor)
        for firsts in [[step] for step in rows[0]] or [[]]
    ]
    results = [_block_branch(t) for t in tasks] if pool is None else pool.map(_block_branch, tasks)
    winner = next(hit for hit, _, _ in results if hit is not None)

    def order(seq):
        return head + tuple(e for i in seq for e in blocks[i])

    argmin_orders = None
    if tie_tol is not None:
        argmin_orders = tuple(order(seq) for _, _, ties in results for seq in ties)
    return SearchResult(
        best=capacity_outer_bound(order(winner), params, cache),
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
    cache: EntropyCache | None = None,
    pool: WorkerPool | None = None,
) -> SearchResult:
    """Best bound over color-class permutations with the leading classes fixed.

    The first fixed_colors classes of the coloring stay in place; every
    permutation of the remaining (free) classes is evaluated,
    (chi' - fixed_colors)! in total, by _block_search with the leading
    classes as the head and one block per free class.  To hold another
    sequence of classes fixed, pass its head and blocks to _block_search.
    """
    head, blocks = _e_ec_blocks(params.f, fixed_colors)
    return _block_search(params, cache, head, blocks, pool)


def _e_ec_blocks(f: int, fixed_colors: int):
    """e-ec's head and blocks at f, once its classes and the cap admit them."""
    part = color_sets(f)
    chi = len(part.sets)
    if not 1 <= fixed_colors <= chi:
        raise ValidationError(f"fixed_colors must be in [1, {chi}], got {fixed_colors}")
    blocks = [tuple(c) for c in part.sets[fixed_colors:]]
    _permutation_guard(len(blocks), "fix more leading classes")
    return part.concatenated(range(fixed_colors)), blocks


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
    _check_ldf_size(f)
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


def _check_ldf_size(f: int) -> None:
    if f < 3:
        raise ValidationError(f"the distance-first construction needs f >= 3, got {f}")


def order_inner_edges(g: Graph, partial) -> tuple[Edge, ...]:
    """Extend a partial order over g by repeatedly adding the chord that
    induces the lexicographically smallest per-length cycle census.

    Candidates are scored through-edge by graphs.chord_censuses (cycles
    containing the chord); the base census of g is a common additive offset,
    so the argmin matches full-graph scoring.  Ties go to the smallest chord,
    and the last two edges are appended in lexicographic order.

    A census starts with the chord's 2-edge and 3-edge path counts, which
    graphs.short_path_counts reads exactly off the adjacency rows.  Censuses
    compare lexicographically, so every chord above the minimum of that pair
    loses, and only the chords tied at it are given full censuses; a unique
    minimum is the argmin with no path-count DP.  The tied chords share the
    pair, so their full censuses, then the smallest chord, pick the same
    chord as a census of every chord would.
    """
    partial = [check_edge(e, g.f) for e in partial]
    if set(partial) != g.edge_set or len(partial) != len(g.edge_set):
        raise ValidationError("partial order must list exactly the edges of g")
    missing = sorted(set(all_edges(g.f)) - g.edge_set)
    if not missing:
        raise ValidationError("graph already complete; nothing to order")
    work = g.copy()
    order = list(partial)
    while len(missing) > 2:
        short = short_path_counts(work, missing)
        low = min(short.values())
        tied = [e for e in missing if short[e] == low]
        if len(tied) == 1:
            best = tied[0]
        else:
            census = chord_censuses(work, tied)
            best = min(tied, key=lambda e: (census[e], e))
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
    tie_policy: str = METHOD_OPTIONS["ebg"]["tie_policy"],
    seed=METHOD_OPTIONS["ebg"]["seed"],
    cache: EntropyCache | None = None,
) -> SearchResult:
    """Greedy order: append the edge minimizing the partial bound each step.

    The argmin is independent of n (it equals the conditional-entropy argmax),
    so the same order comes out for every n >= 1.  Starts from (1, 2); ties
    within 1e-12 go to the smallest edge ("lex") or a seeded random pick
    ("random").  The fold of the order's weighted terms is carried from step
    to step, so a score costs one entropy lookup and one _fold of the
    candidate's term onto it, like every other search score.

    Most scores are never looked up.  With w the weight of the next
    position, a candidate e with c = H(e | order) scores
    score(c) = hmin / _fold(acc, (w * c,)), which never rises as c rises,
    also in floats: IEEE multiplication, addition and division are
    monotone.  Each remaining edge keeps a bound ub[e] on H(e | order),
    H(e) = hmin at first and then the conditional entropy last looked up
    for it; the order only grows, so by submodularity of entropy neither is
    ever exceeded.  Hence e's score lies in [score(ub[e] + m), score(-m)].
    The widening m = CAP_MARGIN * H(K_f) covers rounding, as in
    bound.remaining_cap: every entropy is f minus one exactly rounded sum
    over one division, so it is within a few units in the last place of
    f <= 16, about 1e-14, and a conditional entropy within twice that, while
    m is at least 1e-9 * hmin > 8e-10.  _ebg_window settles each step's tie
    window from these intervals and looks up only the candidates they
    leave open; at n = 2, from about the 35th step on, where the weights
    have shrunk the intervals below TIE_TOLERANCE, it looks up none.
    evaluations still counts every candidate, and the window is listed in
    edge order, so the lex and seeded picks are those of scoring every
    candidate.  The pick's own entropy is then looked up, from the held
    prefix, so every prefix of the order is in the cache.
    """
    _check_tie_policy(tie_policy)
    cache = make_cache(params, cache)
    hmin = cache.marginal_entropy()
    margin = CAP_MARGIN * cache.full_entropy
    weights = _weights(params.n, cache.mu)
    rng = random.Random(seed)
    order = [(1, 2)]
    graph = Graph(params.f, order)
    remaining = [e for e in all_edges(params.f) if e != (1, 2)]
    # an upper bound on H(e | order) for each remaining edge e
    ub = dict.fromkeys(remaining, hmin)
    evaluations = 0
    # the order so far: the fold of its weighted terms and its state
    terms, _, state = weighted_terms(cache, params.n, order)
    acc = _fold(0.0, terms)
    while remaining:
        cache.hold(state[0])
        w = weights[state[1]]

        def score(c):
            """The partial bound of order + [e] where H(e | order) = c."""
            return hmin / _fold(acc, (w * c,))

        def lookup(e):
            """H(e | order), from the cache."""
            return weighted_terms(cache, params.n, (e,), state)[1][0]

        tied = _ebg_window(graph, remaining, ub, score, margin, lookup)
        evaluations += len(remaining)
        pick = min(tied) if tie_policy == "lex" else rng.choice(tied)
        order.append(pick)
        remaining.remove(pick)
        del ub[pick]
        graph.add_edge(pick)
        t, _, state = weighted_terms(cache, params.n, (pick,), state)
        acc = _fold(acc, t)
    report = capacity_outer_bound(order, params, cache)
    return SearchResult(best=report, evaluations=max(evaluations, 1))


def _ebg_window(graph, remaining, ub, score, margin, lookup) -> list:
    """The candidates of one ebg step whose score is within TIE_TOLERANCE of
    the best, in edge order, with as few lookups as the bounds ub allow.

    An unscored candidate scores in [score(ub + margin), score(-margin)],
    and a scored one exactly, so the best score lies in [lo, hi], the least
    of the lower and of the upper ends.  A candidate is in the window if its
    upper end is at most lo + TIE_TOLERANCE, and out if its lower end
    exceeds hi + TIE_TOLERANCE; float addition is monotone, so either also
    holds against the best score.  When every candidate is in on its bound
    alone, the step needs no lookup and no orbits.  Otherwise candidates in
    one orbit of the prefix graph's automorphisms (graphs.edge_orbits) give
    isomorphic edge sets, whose entropies, and so scores, are equal to the
    bit: an orbit's bound, which its members take in ub, is their
    tightest, and looking up its smallest member scores them all and sets
    their bounds to its conditional entropy.  While some candidate is
    neither in nor out, the unscored orbit with the largest bound, whose
    lower end is the least, is looked up.
    """
    top = score(-margin)  # the upper end of every unscored candidate
    if top <= score(max(ub.values()) + margin) + TIE_TOLERANCE:
        return remaining
    reps = edge_orbits(graph, remaining)
    members = {}
    for e in remaining:
        members.setdefault(reps[e], []).append(e)
    orbits = []
    for es in members.values():
        bound = min(ub[e] for e in es)
        for e in es:
            ub[e] = bound
        orbits.append((bound, es))
    # largest bound first; equal bounds keep the edge order of their smallest members
    orbits.sort(key=lambda o: -o[0])
    scored, best, j = [], math.inf, 0
    while j < len(orbits):
        bound, es = orbits[j]
        low = score(bound + margin)  # the least lower end of an unscored candidate
        inside, outside = min(best, low) + TIE_TOLERANCE, min(best, top) + TIE_TOLERANCE
        if (top <= inside or low > outside) and all(s <= inside or s > outside for s, _ in scored):
            break
        c = lookup(es[0])
        for e in es:
            ub[e] = c
        scored.append((score(c), es))
        best = min(best, scored[-1][0])
        j += 1
    else:
        inside = best + TIE_TOLERANCE
    window = {e for s, es in scored if s <= inside for e in es}
    if top <= inside:
        window.update(e for _, es in orbits[j:] for e in es)
    return [e for e in remaining if e in window]


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

def exhaustive_search(
    params: BoundParams,
    cache: EntropyCache | None = None,
    pool: WorkerPool | None = None,
    collect_argmin: bool = False,
) -> SearchResult:
    """Minimum bound over every monomial order.

    The first edge is pinned to (1, 2), a pure symmetry reduction: any order
    can be vertex-relabeled so that its first edge is (1, 2) without changing
    the bound.  The rest is _block_search with one block per remaining edge,
    so the permutation cap admits f <= 5 ((mu - 1)! = 9! orders).  With
    collect_argmin, all enumerated orders within TIE_TOLERANCE of the minimum
    are returned.
    """
    head, blocks = _exhaustive_blocks(params.f)
    return _block_search(params, cache, head, blocks, pool, TIE_TOLERANCE if collect_argmin else None)


def _exhaustive_blocks(f: int):
    """Exhaustive search's head and blocks at f, once the cap admits them."""
    first, *rest = all_edges(f)
    _permutation_guard(len(rest), "exhaustive search supports f <= 5")
    return (first,), [(e,) for e in rest]


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
    falls below the best draw's: it can no longer win or tie.  The cap
    limits each edge of the draw's tail, in the draw's order, to its
    conditional entropy given the prefix, looked up once per run: by
    submodularity the edge adds no more at any later position.  Reproducible
    given the seed; evaluations counts the draws and scored those scored in
    full.
    """
    prefix = _random_prefix(params.f, fixed_colors, budget)
    cache = make_cache(params, cache)
    n = params.n
    rest_base = sorted(set(all_edges(params.f)) - set(prefix))
    # each draw folds its tail's terms onto the prefix's, from the prefix's state
    head_terms, _, start = weighted_terms(cache, n, prefix)
    cache.hold(start[0])
    head = _fold(0.0, head_terms)
    # each edge's conditional entropy given the prefix caps its conditional
    # entropy at any later position of a draw
    ceiling = {e: weighted_terms(cache, n, (e,), start)[1][0] for e in rest_base}
    hmin = cache.marginal_entropy()
    rng = random.Random(seed)
    best = (math.inf, ())
    floor = 0.0  # the best draw's denominator
    scored = 0
    for _ in range(budget):
        rest = rest_base.copy()
        rng.shuffle(rest)
        acc, state = head, start
        caps = [ceiling[e] for e in rest]
        for i, e in enumerate(rest):
            if acc + remaining_cap(cache, n, state, caps[i:]) < floor:
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


def _random_prefix(f: int, fixed_colors: int, budget: int):
    """Random search's fixed prefix at f, once its options are admitted."""
    if fixed_colors < 2:
        raise ValidationError(f"directed random search needs fixed_colors >= 2, got {fixed_colors}")
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    part = color_sets(f)
    if fixed_colors > len(part.sets):
        raise ValidationError(f"fixed_colors {fixed_colors} exceeds chi' = {len(part.sets)}")
    return part.concatenated(range(fixed_colors))


# ---------------------------------------------------------------------------
# Isomorphism-class path count
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _class_walk(f: int) -> tuple[int, int]:
    """(states, paths) of the layered graph of the unlabeled graphs on f vertices.

    Layer k maps the canonical mask of each class with k edges to the number
    of distinct class sequences from the empty graph that reach it; a state's
    successors are the distinct canonical forms (graphs._canonical_form) of
    it plus one absent edge.  The walk visits every class, so it is admitted
    for 2 <= f <= PATH_COUNT_LIMIT, the largest f measured to finish."""
    check_vertex_count(f)
    if f > PATH_COUNT_LIMIT:
        raise GuardViolation(
            f"path counting walks every isomorphism class of graphs on f vertices; supported for "
            f"2 <= f <= {PATH_COUNT_LIMIT}, got {f}"
        )
    mu = edge_count(f)
    layer = {0: 1}
    states = 1
    for _ in range(mu):
        nxt: dict[int, int] = {}
        for mask, paths in layer.items():
            for s in {_canonical_form(mask | 1 << i, f) for i in range(mu) if not mask >> i & 1}:
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

def check_run(method: str, params: BoundParams, **options) -> dict:
    """Refuse, with no entropy computed, what run(method, params, **options)
    would refuse, and return the options the method reads, each one not
    given at its METHOD_OPTIONS value.  A given option that the method does
    not read is refused, then the method's own options and guards, then q^f."""
    unknown = sorted(set(options) - set(OPTION_NAMES))
    if unknown:
        raise TypeError(f"run() got unknown options {', '.join(unknown)}")
    if method not in METHOD_OPTIONS:
        raise ValidationError(f"unknown method {method!r}")
    tie = options.get("tie_policy")
    if tie is not None:
        _check_tie_policy(tie)
    opts = {}
    for option, (name, flag) in OPTION_NAMES.items():
        value = options.get(option)
        if value is None:
            value = METHOD_OPTIONS[method].get(option)
        elif not reads_option(method, option, tie):
            readers = " and ".join(option_readers(option, tie))
            has_tie = "tie_policy" in METHOD_OPTIONS[method]
            where = f"{method!r} with tie policy {tie or 'lex'!r}" if has_tie else repr(method)
            raise ValidationError(f"{name} {value!r} applies to {readers} only, not {where} ({flag})")
        opts[option] = value
    f = params.f
    if method == "e-ec":
        _e_ec_blocks(f, opts["fixed_colors"])
    elif method == "ldf":
        _check_ldf_size(f)
    elif method == "exhaustive":
        _exhaustive_blocks(f)
    elif method == "random":
        _random_prefix(f, opts["fixed_colors"], opts["budget"])
    check_enumeration(f, params.q)
    return opts


def run(method: str, params: BoundParams, cache: EntropyCache | None = None,
        pool: WorkerPool | None = None, **options) -> SearchResult:
    """Run one method (the CLI entry point).  options are the keywords of
    OPTION_NAMES; one that is None is not given.  check_run refuses what the
    method would refuse and fills in the options not given."""
    opts = check_run(method, params, **options)
    if method in ("ec", "ldf"):
        order = ec_order(params.f) if method == "ec" else ldf_order(params.f)
        return SearchResult(best=capacity_outer_bound(order, params, cache), evaluations=1)
    if method == "e-ec":
        return e_ec_search(params, fixed_colors=opts["fixed_colors"], cache=cache, pool=pool)
    if method == "ebg":
        return ebg_order(params, tie_policy=opts["tie_policy"], seed=opts["seed"], cache=cache)
    if method == "exhaustive":
        return exhaustive_search(params, cache=cache, pool=pool)
    # random, the one method left
    return directed_random_search(params, seed=opts["seed"], budget=opts["budget"],
                                  fixed_colors=opts["fixed_colors"], cache=cache)
