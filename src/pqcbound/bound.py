"""The order-dependent capacity outer bound and its prefix version.

For an order S = (s_1, ..., s_mu) of all monomials and n databases, the bound

    C(S) = H_min / sum_v n^-(v-1) * H(X^(s_v) | X^(s_1), ..., X^(s_{v-1}))

is the overflow-free normalized form of the weighted-denominator expression
(numerator and denominator both divided by n^mu); the two are identical in
exact arithmetic.  Lower values are tighter.  The denominator is accumulated
with exactly rounded summation so relabeling a whole order leaves the value
unchanged to the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .entropy import EntropyCache, FieldSpec
from .errors import DuplicateEdge, NotAPermutation, ValidationError
from .graphs import Edge, check_edge, check_vertex_count, edge_count, edge_index


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

    @property
    def spec(self) -> FieldSpec:
        return FieldSpec(self.q)


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
    cond, weighted = _weighted_terms(order, params, cache)
    bound = cache.marginal_entropy() / math.fsum(weighted)
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
    _, weighted = _weighted_terms(prefix, params, cache)
    return cache.marginal_entropy() / math.fsum(weighted)
