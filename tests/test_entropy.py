import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqcbound import EntropyCache, all_edges, edge_index
from pqcbound.entropy import BINCOUNT_SPAN, _xlogx_sum, check_field_size
from pqcbound.errors import (
    EdgeAlreadyConditioned,
    EnumerationTooLarge,
    InvalidEdge,
    InvalidFieldSize,
)

H_SINGLE_Q2 = 0.8112781244591  # -(3/4)log2(3/4) - (1/4)log2(1/4)


def outcome_space_entropy(edges, f, q):
    """Independent oracle: enumerate the outcome space and sum over preimages."""
    m = len(edges)
    total = q ** f
    counts = []
    for outcome in product(range(q), repeat=m):
        c = 0
        for w in product(range(q), repeat=f):
            if all(w[k - 1] * w[l - 1] % q == y for (k, l), y in zip(edges, outcome)):
                c += 1
        if c:
            counts.append(c)
    assert sum(counts) == total
    return -math.fsum((c / total) * math.log(c / total, q) for c in counts)


def counter_oracle(edges, f, q):
    """Independent oracle: a pure-Python tally of outcome vectors over every
    assignment.  Returns the entropy, by the formula EntropyCache uses, and
    the assignments per outcome vector in lexicographic order."""
    total = q ** f
    tally = Counter(
        tuple(w[k - 1] * w[l - 1] % q for k, l in edges) for w in product(range(q), repeat=f)
    )
    s = math.fsum(c * math.log(c) for c in tally.values() if c > 1)
    return f - s / (total * math.log(q)), [c for _, c in sorted(tally.items())]


def class_counts(edges, f, q):
    """Assignments per outcome class of EntropyCache._classes, in the order of
    the class codes, which from no code is the lexicographic order of the
    outcome vectors."""
    cache = EntropyCache(f, q)
    code, _ = cache._classes([edge_index(e, f) for e in edges])
    return np.unique(code, return_counts=True)[1].tolist()


def per_class_sum(counts):
    """Test-only oracle for _xlogx_sum: one c*log(c) term and one logarithm
    per class."""
    return math.fsum(c * math.log(c) for c in counts.tolist() if c > 1)


class TestFieldSpec:
    """check_field_size: a field size must be a prime int."""

    def test_prime_accepted(self):
        for q in (2, 3, 5, 7, 11, 13):
            check_field_size(q)
            assert EntropyCache(2, q).q == q

    @pytest.mark.parametrize("q", [0, 1, 4, 6, 8, 9, 15])
    def test_composite_rejected(self, q):
        with pytest.raises(InvalidFieldSize, match=f"field size must be prime, got {q}"):
            check_field_size(q)


class TestJointDistribution:
    """The joint law of the named monomials up to the labels of its outcomes:
    the assignments in each outcome class that EntropyCache builds."""

    def test_single_monomial_f2_q2(self):
        # outcomes 0 and 1 with mass 3/4 and 1/4
        assert class_counts([(1, 2)], 2, 2) == [3, 1]

    def test_empty_product(self):
        assert class_counts([], 4, 2) == [16]

    def test_two_monomials_f3_q2(self):
        # outcomes (0, 0), (0, 1), (1, 0), (1, 1) with mass 5/8, 1/8, 1/8, 1/8
        assert class_counts([(1, 2), (1, 3)], 3, 2) == [5, 1, 1, 1]

    def test_probabilities_sum_to_one_exactly(self):
        rng = random.Random(5)
        for _ in range(5):
            f = rng.randint(2, 5)
            q = rng.choice([2, 3])
            edges = rng.sample(all_edges(f), rng.randint(0, f))
            counts = class_counts(edges, f, q)
            assert sum(counts) == q ** f
            assert counts == counter_oracle(edges, f, q)[1]

    def test_invalid_edge(self):
        cache = EntropyCache(4, 2)
        with pytest.raises(InvalidEdge):
            cache.joint_entropy([(2, 1)])
        with pytest.raises(InvalidEdge):
            cache.joint_entropy([(1, 7)])

    def test_builds_only_the_named_monomials(self):
        # the whole 78-monomial table at (13, 3) is 124 MB
        tracemalloc.start()
        try:
            cache = EntropyCache(13, 3)
            h = cache.joint_entropy(0b11)  # (1, 2) and (1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        assert sum(row is not None for row in cache._rows) == 2
        assert np.count_nonzero(np.bincount(cache._last[1])) == 9
        # the other eleven symbols leave the law of (1, 2) and (1, 3) unchanged
        assert h == pytest.approx(EntropyCache(3, 3).joint_entropy(0b11), abs=1e-12)


class TestJointEntropy:
    def test_empty_set_is_zero(self, shared_cache):
        assert shared_cache(4).joint_entropy(0) == 0.0
        assert shared_cache(4).joint_entropy([]) == 0.0

    def test_single_monomial_q2(self, shared_cache):
        assert shared_cache(6).joint_entropy([(1, 2)]) == pytest.approx(H_SINGLE_Q2, abs=1e-12)

    def test_pair_sharing_vertex_f3_q2(self, shared_cache):
        got = shared_cache(3).joint_entropy([(1, 2), (1, 3)])
        want = -math.fsum(
            p * math.log2(p) for p in (0.625, 0.125, 0.125, 0.125)
        )
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.5487949407, abs=1e-9)

    def test_mask_and_edge_apis_agree(self, shared_cache):
        cache = shared_cache(5)
        edges = [(1, 2), (3, 4), (2, 5)]
        mask = 0
        for e in edges:
            mask |= 1 << edge_index(e, 5)
        assert cache.joint_entropy(edges) == cache.joint_entropy(mask)

    def test_rejects_mask_bits_at_or_above_mu(self, shared_cache):
        cache = shared_cache(4)  # mu = 6
        assert cache.joint_entropy((1 << 6) - 1) == cache.full_entropy
        for mask in (1 << 6, 1 | 1 << 9, -1):
            with pytest.raises(ValueError, match="out of range for f=4"):
                cache.joint_entropy(mask)

    def test_oracle_equivalence_small(self):
        rng = random.Random(11)
        for f, q in [(3, 2), (4, 2), (3, 3), (4, 3)]:
            cache = EntropyCache(f, q)
            for _ in range(4):
                edges = rng.sample(all_edges(f), rng.randint(1, min(4, f * (f - 1) // 2)))
                assert cache.joint_entropy(edges) == pytest.approx(
                    outcome_space_entropy(edges, f, q), abs=1e-12
                )

    def test_bounds(self, shared_cache):
        cache = shared_cache(5)
        rng = random.Random(3)
        for _ in range(20):
            edges = rng.sample(all_edges(5), rng.randint(0, 10))
            h = cache.joint_entropy(edges)
            assert -1e-12 <= h <= min(len(edges), 5) + 1e-12

    def test_monotone_under_inclusion(self, shared_cache):
        cache = shared_cache(6)
        rng = random.Random(4)
        for _ in range(25):
            sup = rng.sample(all_edges(6), rng.randint(1, 15))
            sub = rng.sample(sup, rng.randint(0, len(sup)))
            assert cache.joint_entropy(sub) <= cache.joint_entropy(sup) + 1e-12

    def test_relabeling_invariance_exact(self, shared_cache):
        cache = shared_cache(6)
        rng = random.Random(7)
        for _ in range(20):
            edges = rng.sample(all_edges(6), rng.randint(1, 15))
            perm = list(range(1, 7))
            rng.shuffle(perm)
            mapped = [tuple(sorted((perm[k - 1], perm[l - 1]))) for k, l in edges]
            assert cache.joint_entropy(edges) == cache.joint_entropy(mapped)

    def test_cache_is_deterministic(self):
        a = EntropyCache(5, 2)
        b = EntropyCache(5, 2)
        edges = [(1, 2), (2, 3), (4, 5)]
        assert a.joint_entropy(edges) == b.joint_entropy(edges)
        # cached value equals the first computation bit for bit
        assert a.joint_entropy(edges) == a.joint_entropy(edges)

    def test_guard_at_construction(self):
        assert EntropyCache(13, 3).total == 3 ** 13  # the largest q^f under 2^22 at q=3
        with pytest.raises(EnumerationTooLarge):
            EntropyCache(14, 3)
        with pytest.raises(EnumerationTooLarge):
            EntropyCache(16, 5)

    # (12, 2) and (10, 3) pack more columns than 63 bits hold; q=257 needs
    # more than 8 bits per symbol
    @pytest.mark.parametrize("f,q", [(12, 2), (10, 3), (2, 257)])
    def test_counter_oracle_all_edges(self, f, q):
        edges = all_edges(f)
        assert EntropyCache(f, q).joint_entropy(edges) == counter_oracle(edges, f, q)[0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_counter_oracle_random_masks(self, data):
        f = data.draw(st.integers(2, 6), label="f")
        q = data.draw(st.sampled_from((2, 3, 5)), label="q")
        mu = f * (f - 1) // 2
        mask = data.draw(st.integers(1, (1 << mu) - 1), label="mask")
        edges = [e for i, e in enumerate(all_edges(f)) if mask >> i & 1]
        assert EntropyCache(f, q).joint_entropy(mask) == counter_oracle(edges, f, q)[0]


def _edges_of(mask, f):
    return [e for i, e in enumerate(all_edges(f)) if mask >> i & 1]


def _lexicographic_ranks(edges, f, q):
    """Rank of each assignment's outcome vector among all outcome vectors,
    in the cache's assignment order (symbol j is base-q digit j)."""
    vectors = []
    for a in range(q ** f):
        w = [a // q ** j % q for j in range(f)]
        vectors.append(tuple(w[k - 1] * w[l - 1] % q for k, l in edges))
    rank = {v: r for r, v in enumerate(sorted(set(vectors)))}
    return np.array([rank[v] for v in vectors])


class TestCarriedCodes:
    """Misses refine a carried code (the last miss's, or the base pinned by
    hold) by the columns it lacks; the values must not depend on that."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_chains_holds_and_branches_match_fresh_cache(self, data):
        q = data.draw(st.sampled_from((2, 3, 5)), label="q")
        # the pure-Python oracle takes seconds per mask at (7, 5)
        f = data.draw(st.integers(2, 7 if q < 5 else 6), label="f")
        mu = f * (f - 1) // 2
        full = (1 << mu) - 1
        cache = EntropyCache(f, q)
        got = []
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            kind = data.draw(st.sampled_from(("chain", "hold", "branch")), label="kind")
            if kind == "chain":
                order = data.draw(st.permutations(range(mu)), label="order")
                mask = 0
                for i in order[: data.draw(st.integers(1, mu), label="length")]:
                    mask |= 1 << i
                    got.append((mask, cache.joint_entropy(mask)))
            elif kind == "hold":
                size = len(cache)
                cache.hold(data.draw(st.integers(0, full), label="held"))
                assert len(cache) == size
            else:
                base = data.draw(st.integers(0, full), label="base")
                cache.hold(base)
                for i in range(mu):
                    if not base >> i & 1 and data.draw(st.booleans(), label=f"branch {i}"):
                        got.append((base | 1 << i, cache.joint_entropy(base | 1 << i)))
        want = {}
        for mask, h in got:
            if mask not in want:
                oracle = counter_oracle(_edges_of(mask, f), f, q)[0]
                assert EntropyCache(f, q).joint_entropy(mask).hex() == oracle.hex()
                want[mask] = oracle
            assert h.hex() == want[mask].hex()

    def test_chain_across_rerank_and_held_base_f12(self):
        # q=2 codes pass 2^63 at the 64th column, where they are re-ranked
        f, q = 12, 2
        rng = random.Random(17)
        order = list(range(66))
        rng.shuffle(order)
        cache = EntropyCache(f, q)
        mask = 0
        for i in order:
            mask |= 1 << i
            assert cache.joint_entropy(mask).hex() == EntropyCache(f, q).joint_entropy(mask).hex()
        size = len(cache)
        # a 64-edge base off the chain, and two branches from it
        branches = [order[10], order[40]]
        base = mask & ~sum(1 << i for i in branches)
        cache.hold(base)
        assert len(cache) == size
        fresh = EntropyCache(f, q)
        for i in branches:
            assert cache.joint_entropy(base | 1 << i).hex() == fresh.joint_entropy(base | 1 << i).hex()
        assert len(cache) == size + 2

    def test_sort_fallbacks_against_oracle(self):
        # 14 and 15 columns at q = 5 span 5^14 and 5^15, far above
        # BINCOUNT_SPAN * 5^6: a held K_6 minus one edge is ranked, and K_6 in
        # a fresh cache counted, by np.unique's sort
        f, q = 6, 5
        full = (1 << 15) - 1
        base = full & ~1
        assert q ** 14 > BINCOUNT_SPAN * q ** f
        cache = EntropyCache(f, q)
        cache.hold(base)
        _, code, span = cache._base
        ranks = _lexicographic_ranks(_edges_of(base, f), f, q)
        assert span == ranks.max() + 1 < q ** f
        assert np.array_equal(code, ranks)
        # the miss one column past the compacted base is counted by np.bincount
        want = counter_oracle(all_edges(f), f, q)[0]
        assert cache.joint_entropy(full).hex() == want.hex()
        assert cache._last[2] == span * q <= BINCOUNT_SPAN * q ** f
        fresh = EntropyCache(f, q)
        assert fresh.joint_entropy(full).hex() == want.hex()
        assert fresh._last[2] == q ** 15 > BINCOUNT_SPAN * q ** f

    def test_hold_never_changes_a_code_it_starts_from(self):
        f, q = 6, 3
        cache = EntropyCache(f, q)
        cache.hold(0b111)
        cache.joint_entropy(0b1111)
        # the base pinned next is the last miss itself: both start from one array
        last = cache._last[1]
        before = last.copy()
        cache.hold(0b1111)
        assert cache._last[1] is last and np.array_equal(last, before)
        assert cache._base[1] is not last
        assert np.array_equal(cache._base[1], np.unique(before, return_inverse=True)[1])
        assert cache._base[2] == len(np.unique(before))
        # a base that refines a carried code is ranked in the refine's array
        refined = cache._carried(0b110111)[1]
        cache.hold(0b110111)
        assert cache._last[1] is last and np.array_equal(last, before)
        assert np.array_equal(cache._base[1], np.unique(refined, return_inverse=True)[1])
        for mask in (0b111111, 0b1110111, 0b11111):
            want = counter_oracle(_edges_of(mask, f), f, q)[0]
            assert cache.joint_entropy(mask).hex() == want.hex()

    def test_hold_adds_no_entropy(self):
        cache = EntropyCache(6, 3)
        cache.hold([(1, 2), (3, 4)])
        cache.hold(0b101)
        cache.hold(0)
        assert len(cache) == 1
        assert cache.joint_entropy(0b1101) == EntropyCache(6, 3).joint_entropy(0b1101)

    def test_grouped_sum_bit_identical_to_per_class_sum(self):
        # one group per distinct count would round m * (c*log c) once more
        counts = np.array([2] * 3 + [12] * 5 + [14] * 7 + [1] * 4, dtype=np.int64)
        assert _xlogx_sum(counts).hex() == per_class_sum(counts).hex()
        assert _xlogx_sum(np.array([1, 1], dtype=np.int64)) == per_class_sum(np.array([1, 1])) == 0.0

    def test_grouped_sum_at_the_extremes(self):
        # counts of q^f = 2^22 assignments: multiplicities up to 2^21 and
        # counts near 2^22.  In the last two, rounding each m * (c*log c)
        # would change the bits of the sum.
        for groups in (
            [(2, 1 << 21)],
            [(1 << 21, 2)],
            [((1 << 22) - 3, 1), (3, 1)],
            [(2, (1 << 21) - 2), (3, 1), (1, 1)],
            [(4183279, 1), (3, 3675)],
        ):
            counts = np.repeat(*np.array(groups, dtype=np.int64).T)
            assert counts.sum() == 1 << 22
            assert _xlogx_sum(counts).hex() == per_class_sum(counts).hex()

    @settings(max_examples=100, deadline=None)
    @given(
        groups=st.lists(
            st.tuples(
                st.one_of(st.integers(1, 9), st.integers(1_000, 1 << 22)),
                st.integers(1, 3_000),
            ),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grouped_sum_random_counts(self, groups, seed):
        counts = np.array([c for c, m in groups for _ in range(m)], dtype=np.int64)
        np.random.default_rng(seed).shuffle(counts)
        assert _xlogx_sum(counts).hex() == per_class_sum(counts).hex()


class TestConditionalEntropy:
    def test_unconditioned_equals_marginal(self, shared_cache):
        cache = shared_cache(6)
        assert cache.conditional_entropy((1, 2)) == pytest.approx(H_SINGLE_Q2, abs=1e-12)

    def test_conditioning_reduces(self, shared_cache):
        cache = shared_cache(3)
        got = cache.conditional_entropy((1, 3), [(1, 2)])
        assert got == pytest.approx(0.7375168163, abs=1e-9)

    def test_rejects_conditioned_edge(self, shared_cache):
        with pytest.raises(EdgeAlreadyConditioned):
            shared_cache(4).conditional_entropy((1, 2), [(1, 2)])

    def test_range(self, shared_cache):
        cache = shared_cache(6)
        rng = random.Random(9)
        for _ in range(25):
            edges = rng.sample(all_edges(6), rng.randint(1, 15))
            given = edges[1:]
            h = cache.conditional_entropy(edges[0], given)
            assert 0.0 <= h <= 1.0 + 1e-12

    def test_chain_rule(self, shared_cache):
        rng = random.Random(13)
        for _ in range(40):
            f = rng.randint(2, 8)
            cache = shared_cache(f)
            k = rng.randint(1, min(10, f * (f - 1) // 2))
            prefix = rng.sample(all_edges(f), k)
            total = math.fsum(
                cache.conditional_entropy(prefix[i], prefix[:i]) for i in range(k)
            )
            assert total == pytest.approx(cache.joint_entropy(prefix), abs=1e-12)


class TestMarginalEntropy:
    def test_value_q2(self, shared_cache):
        assert shared_cache(6).marginal_entropy() == pytest.approx(H_SINGLE_Q2, abs=1e-12)

    def test_value_q3(self):
        cache = EntropyCache(4, 3)
        want = -math.fsum(
            p * math.log(p, 3) for p in (Fraction(5, 9), Fraction(2, 9), Fraction(2, 9))
        )
        assert cache.marginal_entropy() == pytest.approx(want, abs=1e-12)

    def test_independent_of_f(self):
        base = EntropyCache(2, 2).marginal_entropy()
        for f in (3, 4, 5, 6, 9):
            assert EntropyCache(f, 2).marginal_entropy() == pytest.approx(base, abs=1e-12)

    def test_balancedness(self, shared_cache):
        for q in (2, 3):
            cache = EntropyCache(5, q)
            marg = cache.marginal_entropy()
            for e in all_edges(5):
                assert cache.joint_entropy([e]) == pytest.approx(marg, abs=1e-12)

    def test_field_size_is_an_int(self):
        for q in (3.0, "3", None):
            with pytest.raises(InvalidFieldSize):
                check_field_size(q)
        with pytest.raises(InvalidFieldSize):
            EntropyCache(3, 3.0)
