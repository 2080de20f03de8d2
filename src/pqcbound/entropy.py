"""Exact joint entropies of quadratic monomials of i.i.d. uniform field symbols.

A monomial X^(k,l) is the product of two distinct symbols drawn uniformly
from the prime field F_q.  The joint law of any monomial subset is obtained
by enumerating all q^f symbol assignments and tallying outcome vectors, so
probabilities are exact integer counts over q^f until the final logarithm.
All entropies are in q-ary units (log base q): a uniform F_q symbol has
entropy 1.

One kernel, EntropyCache._classes, gives every assignment an outcome class
code, an int64 in [0, span), by folding in one monomial column at a time
(code * q + column).  H depends only on the partition of the assignments
into classes, not on the code values, so a code can be refined by further
columns in any order.  The cache carries two codes: that of its last miss,
which serves chains of growing masks, and a base that the caller pins with
hold(mask).  A miss for mask M starts from the carried code with the most
columns among those whose mask is a subset of M and folds in only the
columns it lacks, so H(S + e) after H(S) costs O(q^f), not O(|S| q^f).  A
refine never changes the code it starts from.  The monomial columns are
built on first use.

A code is re-ranked, each value replaced by its rank among the values it
takes, which keeps the order of the codes, in two places: when the next
column could overflow 63 bits, and once when hold pins a base.  A held base
with K classes then spans exactly [0, K), and a miss one column past it
spans K * q.  A miss counts its classes, and a code is ranked, with
np.bincount over the span when the span is at most BINCOUNT_SPAN * q^f,
which after a held base it is for every q <= BINCOUNT_SPAN; a larger span
falls back to np.unique's O(q^f log q^f) sort.

The entropy sum groups equal class counts and takes one logarithm per
distinct count, then hands math.fsum two exact products per distinct count
whose exact sum is that of the per-class terms c*log(c).  fsum is exactly
rounded, so identical count multisets produce bit-identical entropies
regardless of tally or grouping order, and vertex relabelings leave every
entropy unchanged to the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import EdgeAlreadyConditioned, EnumerationTooLarge, InvalidFieldSize
from .graphs import (_bits, check_edge, check_vertex_count, edge_count, edge_from_index, edge_index,
                     edges_to_mask)

# ceiling on the q^f assignments, all of which are held in memory at once
ENUMERATION_GUARD = 1 << 22
# codes whose span is at most this multiple of q^f are counted and ranked
# with np.bincount over the span; larger spans are sorted with np.unique
BINCOUNT_SPAN = 8
# Veltkamp's splitting factor 2^27 + 1 for doubles
_SPLIT = float((1 << 27) + 1)


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_q."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or not is_prime(self.q):
            raise InvalidFieldSize(f"field size must be prime, got {self.q!r}")


def field_mul(a: int, b: int, spec: FieldSpec) -> int:
    """Product in F_q; inputs must already be reduced."""
    if not (0 <= a < spec.q and 0 <= b < spec.q):
        raise ValueError(f"field elements must lie in [0, {spec.q}), got {a}, {b}")
    return (a * b) % spec.q


@dataclass(frozen=True)
class JointDistribution:
    """Exact joint law of a monomial tuple: outcome vectors with rational mass."""

    support: tuple

    def as_dict(self) -> dict:
        return dict(self.support)


def joint_distribution(edges, f: int, q: int) -> JointDistribution:
    """Joint distribution of the monomials named by edges, for f symbols.

    Enumerates all q^f assignments; counts sum exactly to q^f.  Outcome
    vectors are listed in lexicographic order.  Only the named monomial
    columns are built.
    """
    cache = EntropyCache(f, q)
    indices = [edge_index(e, f) for e in edges]
    code, _ = cache._classes(indices)
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    rows = np.array([cache._row(i)[first] for i in indices]).reshape(len(indices), len(first))
    support = tuple(
        (tuple(row), Fraction(c, cache.total)) for row, c in zip(rows.T.tolist(), counts.tolist())
    )
    assert sum(c for _, c in support) == 1
    return JointDistribution(support=support)


def _xlogx_sum(counts: np.ndarray) -> float:
    """Exactly rounded sum of c*log(c) over the class counts c > 1.

    Equal counts share one logarithm.  The m classes of count c add m * x,
    x = c*log(c) rounded, but the product m * x would round once more.  So
    x is split as hi + lo (Veltkamp, factor 2^27 + 1): hi has at most 26
    significant bits and lo at most 27.  The count sum is q^f, so m <=
    q^f / 2 <= 2^21 has at most 22 bits, m*hi and m*lo have at most 49 and
    are exact doubles, and their sum is m * x exactly.  fsum thus gets terms
    with the same exact sum as the per-class multiset [x] * m, and rounds it
    to the same bits.
    """
    tally = np.bincount(counts)
    sizes = np.flatnonzero(tally[2:]) + 2
    terms = []
    for c, m in zip(sizes.tolist(), tally[sizes].tolist()):
        x = c * math.log(c)
        t = x * _SPLIT
        hi = t - (t - x)
        terms += (m * hi, m * (x - hi))
    return math.fsum(terms)


# a carried outcome code: (mask, code, span); code None stands for all zeros
_NO_CODE = (0, None, 1)


class EntropyCache:
    """Memoized joint entropies for all monomial subsets at a fixed (f, q).

    Subsets are keyed by their edge-index bitmask.  H(empty) = 0 is always
    present, and every cached value equals recomputation bit for bit.  Besides
    the entropies the cache holds the monomial columns built so far and two
    carried outcome codes (see the module docstring).
    """

    def __init__(self, f: int, q: int):
        check_vertex_count(f)
        FieldSpec(q)  # primality guard
        self.f = f
        self.q = q
        self.total = self.q ** f
        if self.total > ENUMERATION_GUARD:
            raise EnumerationTooLarge(
                f"q^f = {self.total} exceeds the enumeration guard {ENUMERATION_GUARD}"
            )
        self.mu = edge_count(f)
        self._entropies: dict[int, float] = {0: 0.0}
        self._ln_q = math.log(self.q)
        self._rows: list[np.ndarray | None] = [None] * self.mu
        self._last = _NO_CODE
        self._base = _NO_CODE

    def _row(self, i: int) -> np.ndarray:
        """Value of monomial i under every assignment, built on first use."""
        row = self._rows[i]
        if row is None:
            q, f = self.q, self.f
            k, l = edge_from_index(i, f)
            # symbol j of assignment a is base-q digit j of a; products of two
            # symbols must not overflow
            digit = np.arange(q, dtype=np.min_scalar_type((q - 1) ** 2))
            a, b = (np.tile(np.repeat(digit, q ** j), q ** (f - 1 - j)) for j in (k - 1, l - 1))
            row = self._rows[i] = (a * b % q).astype(np.min_scalar_type(q - 1))
        return row

    def _classes(self, indices, code=None, span=1):
        """Outcome class of every assignment under the monomials at the given
        edge indices, folded into `code`, the int64 classes under earlier
        columns with values in [0, span) (one class when code is None).
        Returns the new code and span.  From no code, the order of the codes
        is the lexicographic order of the outcome vectors.

        Each column makes the code the big-endian base-q number code * q +
        column; whenever the next column could overflow 63 bits, the codes
        are re-ranked (see _ranks), which keeps their order.  The given code
        is never changed: the first column writes a new array.
        """
        owned = code is None
        if owned:
            code = np.zeros(self.total, dtype=np.int64)
        for i in indices:
            if span * self.q > 1 << 63:
                code, span = self._ranks(code, span)
                owned = True
            code = np.multiply(code, self.q, out=code if owned else None)
            owned = True
            code += self._row(i)
            span *= self.q
        return code, span

    def _ranks(self, code, span, owned=False):
        """The code replaced by the rank of each value among the values it
        takes, and the number of those values.  Keeps the order of the codes.

        A span of at most BINCOUNT_SPAN * q^f is ranked by a prefix sum over
        the values that np.bincount finds occupied, with every buffer
        filled in place; the ranks overwrite the code only if `owned`, else
        they go to a new array.  A larger span is ranked by np.unique's
        sort, into a new array.
        """
        if span > BINCOUNT_SPAN * self.total:
            values, code = np.unique(code, return_inverse=True)
            return code, len(values)
        rank = np.bincount(code)
        np.minimum(rank, 1, out=rank)
        np.cumsum(rank, out=rank)
        classes = int(rank[-1])
        rank -= 1
        # every code is in range; mode "raise" would copy `out` first
        return rank.take(code, out=code if owned else None, mode="clip"), classes

    def _carried(self, mask: int) -> tuple:
        """(mask, code, span) for mask, refined from the carried code with the
        most columns among those whose masks are subsets of mask."""
        start = _NO_CODE
        for held in (self._last, self._base):
            if held[0] & ~mask == 0 and held[0].bit_count() > start[0].bit_count():
                start = held
        rest = mask & ~start[0]
        if not rest:
            return start
        code, span = self._classes(_bits(rest), start[1], start[2])
        return mask, code, span

    def hold(self, edges_or_mask) -> None:
        """Pin the code of this subset as the base that later misses refine.

        Callers pin a set that many of the coming masks extend, such as a
        greedy prefix.  The pinned code is rank-compacted once (see _ranks),
        in place only if no carried code holds its array, so the K classes
        of the base take the values [0, K) and a miss one column past it
        counts K * q bins, not q times the base's span.  Adds no entropy to
        the cache.
        """
        mask = self._mask_of(edges_or_mask)
        if mask != self._base[0]:
            mask, code, span = self._carried(mask)
            self._base = _NO_CODE  # the old base's array is not needed now
            if code is not None:
                code, span = self._ranks(code, span, owned=code is not self._last[1])
            self._base = (mask, code, span)

    def _mask_of(self, edges_or_mask) -> int:
        if isinstance(edges_or_mask, int):
            if edges_or_mask < 0 or edges_or_mask >> self.mu:
                raise ValueError(f"mask {edges_or_mask:#x} out of range for f={self.f}")
            return edges_or_mask
        return edges_to_mask(edges_or_mask, self.f)

    def joint_entropy(self, edges_or_mask) -> float:
        """H of the monomial subset in q-ary units; memoized."""
        mask = self._mask_of(edges_or_mask)
        h = self._entropies.get(mask)
        if h is not None:
            return h
        _, code, span = self._last = self._carried(mask)
        if span > BINCOUNT_SPAN * self.total:
            counts = np.unique(code, return_counts=True)[1]
        else:
            counts = np.bincount(code)  # zeros for unused values are harmless
        # H = log_q(q^f) - sum c/q^f * log_q c, with the count sum exact
        h = self.f - _xlogx_sum(counts) / (self.total * self._ln_q)
        self._entropies[mask] = h
        return h

    def conditional_entropy(self, edge, given=()) -> float:
        """H(X^edge | monomials in given); value in [0, 1]."""
        e = check_edge(edge, self.f)
        bit = 1 << edge_index(e, self.f)
        given_mask = self._mask_of(given)
        if given_mask & bit:
            raise EdgeAlreadyConditioned(f"edge {edge!r} is already in the conditioning set")
        h = self.joint_entropy(given_mask | bit) - self.joint_entropy(given_mask)
        # exact difference can dip a hair below zero in floating point
        return 0.0 if -1e-12 < h < 0.0 else h

    @cached_property
    def full_entropy(self) -> float:
        """H(K_f), the entropy of all mu monomials; looked up once per cache."""
        return self.joint_entropy((1 << self.mu) - 1)

    def marginal_entropy(self) -> float:
        """Entropy of any single monomial (all mu marginals are equal)."""
        return self.joint_entropy(1)

    def __len__(self) -> int:
        return len(self._entropies)
