"""The order-dependent capacity outer bound and its prefix version.

For an order S = (s_1, ..., s_mu) of all monomials and n databases, the bound

    C(S) = H_min / sum_v n^-(v-1) * H(X^(s_v) | X^(s_1), ..., X^(s_{v-1}))

is the overflow-free normalized form of the weighted-denominator expression
(numerator and denominator both divided by n^mu); the two are identical in
exact arithmetic.  Lower values are tighter.  The denominator is accumulated
with exactly rounded summation so relabeling a whole order leaves the value
unchanged to the last bit.

An order's state is the tuple (mask, length, joint entropy) of its edges so
far, EMPTY_ORDER for none.  One kernel, weighted_terms, gives the denominator
terms of the edges that join an order from a state and the state where they
stop; every bound and search score sums these terms, and no caller rebuilds
a state.  remaining_cap bounds what the terms still to come can add: every
weight is positive and nonincreasing and every conditional entropy is
nonnegative, so from a state of length pos and joint entropy H(S) the rest
adds at most n^-pos * (H(K_f) - H(S)).  The searches stop scoring an order
once its denominator plus this cap cannot reach the best one found so far.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .entropy import EntropyCache, FieldSpec
from .errors import DuplicateEdge, NotAPermutation, ValidationError
from .graphs import check_edge, check_vertex_count, edge_bits, edge_count

# Relative widening of remaining_cap: far above the rounding of a fold of
# at most a few hundred terms and of the entropies' last bits, far below
# any gap between two bounds that a search must tell apart.
CAP_MARGIN = 1e-9
EMPTY_ORDER = (0, 0, 0.0)


@dataclass(frozen=True)
class BoundParams:
    """Problem size: n databases, f messages, prime field size q."""

    n: int
    f: int
    q: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n!r}")
        check_vertex_count(self.f)
        FieldSpec(self.q)  # primality guard


@dataclass(frozen=True)
class BoundReport:
    """An order, its per-step conditional entropies, and the bound value."""

    order: tuple
    bound: float
    marginal_entropy: float
    cond_entropies: tuple


def make_cache(params: BoundParams, cache: EntropyCache | None = None) -> EntropyCache:
    if cache is None:
        return EntropyCache(params.f, params.q)
    if cache.f != params.f or cache.q != params.q:
        raise ValidationError(
            f"cache is for (f={cache.f}, q={cache.q}), params need (f={params.f}, q={params.q})"
        )
    return cache


@lru_cache(maxsize=None)
def _weights(n: int, mu: int) -> tuple:
    """The weights 1, 1/n, 1/n^2, ... of the mu steps, as running products."""
    inv_n = 1.0 / n
    weights = [1.0]
    for _ in range(mu - 1):
        weights.append(weights[-1] * inv_n)
    return tuple(weights)


def weighted_terms(cache: EntropyCache, n: int, edges, state: tuple = EMPTY_ORDER):
    """Weighted terms and conditional entropies of validated edges joining an
    order at state = (mask, pos, prev), and the state where they stop.

    The order so far is the edge set mask, with pos edges and joint entropy
    prev.  Edge e at position v adds the term n^-v * (H(mask + e) - H(mask))
    and the conditional entropy H(mask + e) - H(mask); then e joins the mask.
    """
    mask, pos, prev = state
    bits = edge_bits(cache.f)
    weights = _weights(n, cache.mu)
    entropy = cache.joint_entropy
    terms, cond = [], []
    for e in edges:
        mask |= bits[e]
        h = entropy(mask)
        cond.append(h - prev)
        terms.append(weights[pos] * (h - prev))
        prev = h
        pos += 1
    return terms, cond, (mask, pos, prev)


def remaining_cap(cache: EntropyCache, n: int, state: tuple) -> float:
    """Widened largest value that the terms after an order's state, of length
    pos and joint entropy prev, can add to its denominator.

    Every completion's left-to-right fold of weighted_terms stays below the
    denominator so far plus this cap by about CAP_MARGIN * H(K_f), so an
    order pruned against an incumbent whose denominator exceeds that sum is
    strictly worse than the incumbent, after rounding too.  With nothing
    left (pos = mu) the cap is the widening alone.
    """
    _, pos, prev = state
    top = cache.full_entropy
    rest = _weights(n, cache.mu)[pos] * (top - prev) if pos < cache.mu else 0.0
    return rest + CAP_MARGIN * top


def capacity_outer_bound(order, params: BoundParams, cache: EntropyCache | None = None) -> BoundReport:
    """Evaluate the outer bound for a full monomial order."""
    mu = edge_count(params.f)
    # tuple() of a list, not of a generator: a generator fills a 10-slot tuple
    # and resizes it, which moves tuples between CPython's per-size free lists
    # on every call, so they fill up and hold memory until a full collection
    order = tuple([check_edge(e, params.f) for e in order])
    if len(order) != mu or len(set(order)) != mu:
        raise NotAPermutation(
            f"order must list each of the {mu} edges of K_{params.f} exactly once"
        )
    cache = make_cache(params, cache)
    terms, cond, _ = weighted_terms(cache, params.n, order)
    bound = cache.marginal_entropy() / math.fsum(terms)
    return BoundReport(
        order=order,
        bound=bound,
        marginal_entropy=cache.marginal_entropy(),
        cond_entropies=tuple(cond),
    )


def partial_bound(prefix, params: BoundParams, cache: EntropyCache | None = None) -> float:
    """The bound evaluated over a nonempty prefix of distinct edges only."""
    prefix = tuple([check_edge(e, params.f) for e in prefix])  # a list: see capacity_outer_bound
    if not prefix:
        raise ValidationError("prefix must be nonempty")
    if len(set(prefix)) != len(prefix):
        raise DuplicateEdge(f"prefix repeats an edge: {prefix!r}")
    cache = make_cache(params, cache)
    return cache.marginal_entropy() / math.fsum(weighted_terms(cache, params.n, prefix)[0])
