"""Exact joint entropies of quadratic monomials of i.i.d. uniform field symbols.

A monomial X^(k,l) is the product of two distinct symbols drawn uniformly
from the prime field F_q.  The joint law of any monomial subset is obtained
by enumerating all q^f symbol assignments and tallying outcome vectors, so
probabilities are exact integer counts over q^f until the final logarithm.
All entropies are in q-ary units (log base q): a uniform F_q symbol has
entropy 1.

Entropy accumulation uses math.fsum, which is exactly rounded; identical
count multisets therefore produce bit-identical entropies regardless of
tally order, and vertex relabelings leave every entropy unchanged to the
last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EdgeAlreadyConditioned, EnumerationTooLarge, InvalidFieldSize
from .graphs import all_edges, check_edge, check_vertex_count, edge_count, edge_index

# ceiling on the q^f assignments, all of which are held in memory at once
ENUMERATION_GUARD = 1 << 22


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


def _as_spec(spec_or_q) -> FieldSpec:
    return spec_or_q if isinstance(spec_or_q, FieldSpec) else FieldSpec(spec_or_q)


@dataclass(frozen=True)
class JointDistribution:
    """Exact joint law of a monomial tuple: outcome vectors with rational mass."""

    support: tuple

    def as_dict(self) -> dict:
        return dict(self.support)

    def probability(self, outcome) -> Fraction:
        return self.as_dict().get(tuple(outcome), Fraction(0))


def joint_distribution(edges, f: int, spec_or_q) -> JointDistribution:
    """Joint distribution of the monomials named by edges, for f symbols.

    Enumerates all q^f assignments; counts sum exactly to q^f.  Outcome
    vectors are listed in lexicographic order.
    """
    cache = EntropyCache(f, spec_or_q)
    indices = [edge_index(e, f) for e in edges]
    _, first, counts = np.unique(cache._classes(indices), return_index=True, return_counts=True)
    rows = cache._full_table()[indices][:, first].T.tolist()
    support = tuple(
        (tuple(row), Fraction(c, cache.total)) for row, c in zip(rows, counts.tolist())
    )
    assert sum(c for _, c in support) == 1
    return JointDistribution(support=support)


class EntropyCache:
    """Memoized joint entropies for all monomial subsets at a fixed (f, q).

    Subsets are keyed by their edge-index bitmask.  H(empty) = 0 is always
    present, and every cached value equals recomputation bit for bit.
    """

    def __init__(self, f: int, spec_or_q):
        check_vertex_count(f)
        self.spec = _as_spec(spec_or_q)
        self.f = f
        self.q = self.spec.q
        self.total = self.q ** f
        if self.total > ENUMERATION_GUARD:
            raise EnumerationTooLarge(
                f"q^f = {self.total} exceeds the enumeration guard {ENUMERATION_GUARD}"
            )
        self.mu = edge_count(f)
        self._entropies: dict[int, float] = {0: 0.0}
        self._ln_q = math.log(self.q)
        self._table: np.ndarray | None = None

    def _full_table(self) -> np.ndarray:
        """Value of every monomial under every assignment: row i holds edge i."""
        if self._table is None:
            q, f = self.q, self.f
            # symbol j of assignment a is base-q digit j of a; products of two
            # symbols must not overflow
            digit = np.arange(q, dtype=np.min_scalar_type((q - 1) ** 2))
            symbols = [np.tile(np.repeat(digit, q ** j), q ** (f - 1 - j)) for j in range(f)]
            self._table = np.empty((self.mu, self.total), dtype=np.min_scalar_type(q - 1))
            for i, (k, l) in enumerate(all_edges(f)):
                self._table[i] = symbols[k - 1] * symbols[l - 1] % q
        return self._table

    def _classes(self, indices) -> np.ndarray:
        """Outcome class of every assignment under the monomials at the given
        edge indices, as a code whose order is the lexicographic order of the
        outcome vectors.

        The code is the big-endian base-q number of the outcome vector;
        whenever the next column could overflow 63 bits, the codes are
        replaced by their ranks, which keeps their order.
        """
        table = self._full_table()
        code = np.zeros(self.total, dtype=np.uint64)
        span = 1  # codes lie in [0, span)
        for i in indices:
            if span * self.q > 1 << 63:
                values, code = np.unique(code, return_inverse=True)
                code = code.astype(np.uint64)
                span = len(values)
            code *= np.uint64(self.q)
            code += table[i]
            span *= self.q
        return code

    def _mask_of(self, edges_or_mask) -> int:
        if isinstance(edges_or_mask, int):
            if edges_or_mask < 0 or edges_or_mask >> self.mu:
                raise ValueError(f"mask {edges_or_mask:#x} out of range for f={self.f}")
            return edges_or_mask
        mask = 0
        for e in edges_or_mask:
            mask |= 1 << edge_index(e, self.f)
        return mask

    def joint_entropy(self, edges_or_mask) -> float:
        """H of the monomial subset in q-ary units; memoized."""
        mask = self._mask_of(edges_or_mask)
        h = self._entropies.get(mask)
        if h is not None:
            return h
        indices = [i for i in range(self.mu) if (mask >> i) & 1]
        counts = np.unique(self._classes(indices), return_counts=True)[1]
        # H = log_q(q^f) - sum c/q^f * log_q c, with the count sum exact
        s = math.fsum(c * math.log(c) for c in counts.tolist() if c > 1)
        h = self.f - s / (self.total * self._ln_q)
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

    def marginal_entropy(self) -> float:
        """Entropy of any single monomial (all mu marginals are equal)."""
        return self.joint_entropy(1)

    def __len__(self) -> int:
        return len(self._entropies)
