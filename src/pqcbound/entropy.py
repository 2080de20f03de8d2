"""Exact joint entropies of quadratic monomials of i.i.d. uniform field symbols.

A monomial X^(k,l) is the product of two distinct symbols drawn uniformly
from the prime field F_q.  The joint law of a monomial subset S is known
once the integer count multiset of its outcome classes is: the number of
the q^f symbol assignments behind each outcome.  H(S) depends only on that
multiset, and two kernels compute it exactly.  All entropies are in q-ary
units (log base q): a uniform F_q symbol has entropy 1.

The outcome code, which serves every miss at q = 2, reads the classes off
the supports directly.  At q = 2 an assignment x is its support T, and
x_k x_l = 1 iff k and l are in T.  So the outcome under S is the edge set
of S[N(T)], where N(T) holds the vertices of T with an S-edge inside T, and
N(T) can be read back from that outcome: the vertex mask N(T) in [0, 2^f)
is an exact class code.  Each monomial's row is a uint16 array over the
2^f supports that holds the bits of both its vertices where T holds both
and 0 elsewhere, and the code of S is the OR of its rows, so a code can be
refined by further rows in any order.  The cache carries two codes: that of
its last miss, which serves chains of growing masks, and a base that the
caller pins with hold(mask).  A miss for mask M starts from the carried
code with the most rows among those whose mask is a subset of M and ORs in
only the rows it lacks, the first OR into a new array, so a refine never
changes the code it starts from; then it counts its classes with
np.bincount over the 2^f code values.  H(S + e) after H(S) thus costs
O(2^f), not O(|S| 2^f).  The rows are built on first use.

The support sum, which serves every miss at q >= 3, reads the multiset off
the supports of the assignments instead, at a cost of 2^f that does not
grow with q.  Let m = q - 1 and let T be the support of an assignment x.
Monomial x_k x_l is nonzero iff k and l are in T, and on (F_q^*)^T the map
x -> (x_k x_l) is a group homomorphism, so every outcome in its image has
|kernel| preimages.  Split T into N, the vertices of T with an S-edge inside
T, and the rest, an independent set of S outside N's closed neighbourhood
N[N].  The outcomes whose nonzero monomials are those of S[N] then number
m^|N| / k(N), each with count k(N) * Ind(S - N[N])(m), where
  - N ranges over the vertex sets, the empty set included, on which S[N]
    has no isolated vertex;
  - k(N) = m^b * gcd(2, m)^c for the b bipartite and c other components of
    S[N]: the kernel of a -> (a_k + a_l) over Z_m;
  - Ind(G)(m) is the independence polynomial of G at m, the number of ways
    to give an independent set of G nonzero symbols.
Vertices that S does not touch multiply every count by q, so the sum runs
over the subsets of the k vertices that S covers, all 2^k of them at once
(_SupportSum): the open neighbourhood of every subset in one highest-bit
pass, Ind over every subset in one zeta pass per vertex, the component
count and bipartiteness of S[N] by a parity BFS from N's highest vertex
over those tables, and the components past the first by pointer jumping.
At q >= 3 hold does nothing, and no miss builds rows or carried codes.

enumerated_tally, the stateless reference that the tests and verify's
entropy suite compare both kernels with, tallies the outcome vectors of all
q^f assignments.

The entropy sum takes the tally, each distinct class count with the number
of classes of that count, and takes one logarithm per distinct count, then
hands math.fsum two exact products per distinct count whose exact sum is
that of the per-class terms c*log(c).  A multiplicity is at most q^f / 2 <=
2^21 inside ENUMERATION_GUARD, which keeps those products exact.  fsum is
exactly rounded, so identical count multisets produce bit-identical
entropies, whichever kernel tallied them and in whatever order, and vertex
relabelings leave every entropy unchanged to the last bit.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import GuardViolation, ValidationError
from .graphs import (_bits, check_edge, check_vertex_count, edge_count, edge_ends, edge_from_index,
                     edge_index, edges_to_mask, mask_rows)

# ceiling on q^f, the assignments whose outcome classes a tally counts.  It
# keeps _xlogx_sum exact (a multiplicity is at most q^f / 2 <= 2^21), the
# support sum's packed (count, multiplicity) keys within int64, and the q^f
# codes that enumerated_tally holds at once within memory; a q = 2 cache
# holds at most 2^16 codes, far below it
ENUMERATION_GUARD = 1 << 22
# Veltkamp's splitting factor 2^27 + 1 for doubles
_SPLIT = float((1 << 27) + 1)
# the support sum sorts each (count, multiplicity) pair as one int64 key,
# count << _KEY_SHIFT | multiplicity; both are at most q^f <= ENUMERATION_GUARD
_KEY_SHIFT = ENUMERATION_GUARD.bit_length()


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


def check_field_size(q: int) -> None:
    if not isinstance(q, int) or not is_prime(q):
        raise GuardViolation(f"field size must be prime, got {q!r}")


def check_enumeration(f: int, q: int) -> int:
    """q^f, the assignments whose outcome classes an EntropyCache at (f, q)
    and enumerated_tally count, once f, q and q^f pass their guards."""
    check_vertex_count(f)
    check_field_size(q)
    total = q ** f
    if total > ENUMERATION_GUARD:
        raise GuardViolation(f"q^f = {total} exceeds the enumeration guard {ENUMERATION_GUARD}")
    return total


def _xlogx_sum(counts: np.ndarray, multiplicities: np.ndarray) -> float:
    """Exactly rounded sum of c*log(c) over the outcome classes, from their
    tally: distinct class counts c, each with the number m of classes of
    count c.  A count of 1 adds 0.

    The m classes of count c add m * x, x = c*log(c) rounded, but the
    product m * x would round once more.  So x is split as hi + lo
    (Veltkamp, factor 2^27 + 1): hi has at most 26 significant bits and lo
    at most 27.  The count sum is q^f, so for c >= 2, m <= q^f / 2 <= 2^21
    has at most 22 bits, m*hi and m*lo have at most 49 and are exact
    doubles, and their sum is m * x exactly.  fsum thus gets terms with the
    same exact sum as the per-class multiset [x] * m, and rounds it to the
    same bits.
    """
    terms = []
    for c, m in zip(counts.tolist(), multiplicities.tolist()):
        x = c * math.log(c)
        t = x * _SPLIT
        hi = t - (t - x)
        terms += (m * hi, m * (x - hi))
    return math.fsum(terms)


class _SupportSum:
    """The support sum (see the module docstring) over the subsets N of k
    vertices at m = q - 1, with its index tables and work buffers, which
    every call at this k reuses.  Subset N is the bitmask N, so a table is
    an int64 array over [0, 2^k).
    """

    def __init__(self, k: int, m: int):
        size = 1 << k
        self.m = m
        self.subsets = np.arange(size, dtype=np.int64)
        # the highest vertex of N, and |N|
        self.top = np.zeros(size, np.int64)
        order = np.zeros(size, np.int64)
        for j in range(k):
            self.top[1 << j:2 << j] = 1 << j
            order[1 << j:2 << j] = order[:1 << j] + 1
        self.power = (m ** np.arange(k + 1, dtype=np.int64)).take(order)  # m^|N|
        self.nbhd = np.zeros(size, np.int64)
        self.blocks = [(self.nbhd[:1 << j], self.nbhd[1 << j:2 << j]) for j in range(k)]
        self.ind = np.empty(size, np.int64)
        self.halves = [(v[:, 0], v[:, 1]) for v in (self.ind.reshape(-1, 2, 1 << j) for j in range(k))]
        # at m = 2, gcd(2, m) = m: k(N) = 2^(components), and plain reachability
        # (one row) replaces the parity BFS (two rows)
        self.walk = np.empty((1 if m == 2 else 2, size), np.int64)
        self.step = np.empty_like(self.walk)
        # a counted N has at most k // 2 components, each of two vertices or more
        self.rounds = (max(k // 2, 1) - 1).bit_length()

    def tally(self, adj: list, scale: int) -> tuple:
        """(counts, multiplicities), the counts ascending, of the outcome
        classes of the graph with adjacency rows adj on the k vertices,
        every count times `scale` for the vertices it does not cover."""
        size = len(self.subsets)
        subsets, nbhd, ind = self.subsets, self.nbhd, self.ind
        # the open neighbourhood of every N, one highest vertex at a time
        for (low, high), row in zip(self.blocks, adj):
            np.bitwise_or(low, row, out=high)
        # Ind(S[U])(m) for every U: m^|I| on the independent sets I, summed
        # over the subsets of U one vertex at a time
        np.bitwise_and(subsets, nbhd, out=ind)
        np.equal(ind, 0, out=ind)
        ind *= self.power
        for without, with_ in self.halves:
            np.add(without, with_, out=with_)
        closed = subsets | nbhd
        # counted: no vertex of N isolated in S[N]
        counted = closed == nbhd
        # parity BFS from N's highest vertex inside N: the vertices that an
        # even walk reaches, and those that an odd one does; they only grow
        walk, step = self.walk, self.step
        walk.fill(0)
        walk[0] = self.top
        walk[-1] |= nbhd.take(self.top) & subsets
        reached = walk.sum()
        while True:
            nbhd.take(walk, out=step, mode="clip")
            step &= subsets
            walk |= step[::-1]
            now = walk.sum()
            if now == reached:
                break
            reached = now
        even, odd = walk[0], walk[-1]
        # k(N): m per bipartite component and gcd(2, m) = 2 (q is odd) per
        # other one, the first component's times that of N minus it
        kernel = np.where(even & odd, 2, self.m)
        kernel[0] = 1
        rest = subsets ^ (even | odd)
        for _ in range(self.rounds):
            kernel *= kernel.take(rest)
            rest = rest.take(rest)
        count = ind.take(closed ^ (size - 1))
        count *= kernel
        count *= counted  # 0 drops N from the tally
        if scale > 1:
            count *= scale
        key = self.power // kernel  # m^|N| / k(N) outcomes of each count
        count <<= _KEY_SHIFT
        key |= count
        key.sort()
        count = key >> _KEY_SHIFT
        first = np.empty(size, bool)
        first[0] = True
        np.not_equal(count[1:], count[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        key &= (1 << _KEY_SHIFT) - 1
        counts, multiplicities = count.take(starts), np.add.reduceat(key, starts)
        if counts[0] == 0:
            return counts[1:], multiplicities[1:]
        return counts, multiplicities


def enumerated_tally(f: int, q: int, mask: int) -> tuple:
    """(counts, multiplicities), the counts ascending, of the outcome classes
    of the mask, by enumerating all q^f assignments: the stateless reference
    for both kernels.  Builds only the named monomials' values.

    Each monomial folds its values into a base-q code (code * q + value);
    whenever the next one could overflow 63 bits, each code is replaced by
    its rank among the values the codes take.
    """
    total = check_enumeration(f, q)
    code = np.zeros(total, dtype=np.int64)
    span = 1
    # symbol j of assignment a is base-q digit j of a; products of two
    # symbols must not overflow
    digit = np.arange(q, dtype=np.min_scalar_type((q - 1) ** 2))
    for i in _bits(mask):
        if span * q > 1 << 63:
            values, code = np.unique(code, return_inverse=True)
            span = len(values)
        k, l = edge_from_index(i, f)
        a, b = (np.tile(np.repeat(digit, q ** j), q ** (f - 1 - j)) for j in (k - 1, l - 1))
        code *= q
        code += a * b % q
        span *= q
    return np.unique(np.unique(code, return_counts=True)[1], return_counts=True)


# a carried outcome code: (mask, code); code None stands for all zeros
_NO_CODE = (0, None)


class EntropyCache:
    """Memoized joint entropies for all monomial subsets at a fixed (f, q).

    Subsets are keyed by their edge-index bitmask.  H(empty) = 0 is always
    present, and every cached value equals recomputation bit for bit.  Besides
    the entropies the cache holds, at q = 2, the monomial rows built so far
    and two carried outcome codes, each a (mask, code) pair, and at q >= 3
    one _SupportSum per number of covered vertices (see the module
    docstring).
    """

    def __init__(self, f: int, q: int):
        self.total = check_enumeration(f, q)
        self.f = f
        self.q = q
        self.mu = edge_count(f)
        self._entropies: dict[int, float] = {0: 0.0}
        self._ln_q = math.log(self.q)
        self._rows: list[np.ndarray | None] = [None] * self.mu
        self._last = self._base = _NO_CODE
        self._sums: dict[int, _SupportSum] = {}

    def _row(self, i: int) -> np.ndarray:
        """Code of monomial i at q = 2 over every support, built on first use."""
        row = self._rows[i]
        if row is None:
            u, v = edge_ends(self.f)[i]
            both = 1 << u | 1 << v
            row = self._rows[i] = np.arange(self.total, dtype=np.uint16) & both
            row[row != both] = 0
        return row

    def _carried(self, mask: int) -> tuple:
        """(mask, code) for mask, refined from the carried code with the most
        rows among those whose masks are subsets of mask."""
        start = _NO_CODE
        for held in (self._base, self._last):
            if held[0] & ~mask == 0 and held[0].bit_count() > start[0].bit_count():
                start = held
        rest = mask & ~start[0]
        if not rest:
            return start
        bits = _bits(rest)
        row = self._row(next(bits))
        # the first OR writes a new array, so the start code never changes
        code = row.copy() if start[1] is None else row | start[1]
        for i in bits:
            code |= self._row(i)
        return mask, code

    def hold(self, edges_or_mask) -> None:
        """Pin the code of this subset as the base that later misses refine.

        Callers pin a set that many of the coming masks extend, such as a
        greedy prefix.  Adds no entropy to the cache, and does nothing at
        q >= 3, where no miss carries a code.
        """
        mask = self._mask_of(edges_or_mask)
        if self.q == 2 and mask != self._base[0]:
            self._base = self._carried(mask)

    def _code_tally(self, mask: int) -> tuple:
        """(counts, multiplicities) of the outcome classes of a nonempty mask
        at q = 2 that hold two assignments or more (a class of one adds
        nothing to the entropy sum), from the carried codes, which it
        updates."""
        _, code = self._last = self._carried(mask)
        tally = np.bincount(np.bincount(code))  # zeros for unused codes are harmless
        sizes = np.flatnonzero(tally[2:]) + 2
        return sizes, tally[sizes]

    def _support_tally(self, mask: int) -> tuple:
        """(counts, multiplicities) of the outcome classes of a mask at q >= 3,
        by the support sum over the vertices the mask covers."""
        rows = mask_rows(mask, self.f)
        covered = [v for v in range(self.f) if rows[v]]
        k = len(covered)
        if k < self.f:
            label = {1 << v: 1 << i for i, v in enumerate(covered)}
            rows = [sum(label[1 << u] for u in _bits(rows[v])) for v in covered]
        support = self._sums.get(k)
        if support is None:
            support = self._sums[k] = _SupportSum(k, self.q - 1)
        return support.tally(rows, self.q ** (self.f - k))

    def _mask_of(self, edges_or_mask) -> int:
        if isinstance(edges_or_mask, int):
            if edges_or_mask < 0 or edges_or_mask >> self.mu:
                raise ValidationError(f"mask {edges_or_mask:#x} out of range for f={self.f}")
            return edges_or_mask
        return edges_to_mask(edges_or_mask, self.f)

    def joint_entropy(self, edges_or_mask) -> float:
        """H of the monomial subset in q-ary units; memoized."""
        mask = self._mask_of(edges_or_mask)
        h = self._entropies.get(mask)
        if h is not None:
            return h
        tally = self._code_tally if self.q == 2 else self._support_tally
        h = self._entropy(*tally(mask))
        self._entropies[mask] = h
        return h

    def _entropy(self, counts, multiplicities) -> float:
        """H in q-ary units from a tally of the q^f assignments' classes."""
        # H = log_q(q^f) - sum c/q^f * log_q c, with the count sum exact
        return self.f - _xlogx_sum(counts, multiplicities) / (self.total * self._ln_q)

    def conditional_entropy(self, edge, given=()) -> float:
        """H(X^edge | monomials in given) = H(given + edge) - H(given); value in [0, 1]."""
        e = check_edge(edge, self.f)
        bit = 1 << edge_index(e, self.f)
        given_mask = self._mask_of(given)
        if given_mask & bit:
            raise ValidationError(f"edge {edge!r} is already in the conditioning set")
        return self.joint_entropy(given_mask | bit) - self.joint_entropy(given_mask)

    @cached_property
    def full_entropy(self) -> float:
        """H(K_f), the entropy of all mu monomials; looked up once per cache."""
        return self.joint_entropy((1 << self.mu) - 1)

    @cached_property
    def _marginal(self) -> float:
        return self.joint_entropy(1)

    def marginal_entropy(self) -> float:
        """Entropy of any single monomial (all mu marginals are equal); looked
        up once per cache."""
        return self._marginal

    def __len__(self) -> int:
        return len(self._entropies)
