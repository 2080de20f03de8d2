import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqcbound import EntropyCache, all_edges, edge_count, edge_index
from pqcbound.bound import weighted_terms
from pqcbound.entropy import ENUMERATION_GUARD, _xlogx_sum, check_field_size, enumerated_tally
from pqcbound.errors import GuardViolation, ValidationError
from pqcbound.graphs import MAX_VERTICES, edge_from_index, edges_to_mask, mask_to_edges

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
    """Assignments per outcome class, ascending, as enumerated_tally counts
    them."""
    counts, multiplicities = enumerated_tally(f, q, edges_to_mask(edges, f))
    return np.repeat(counts, multiplicities).tolist()


def tally_of(counts):
    """The tally that _xlogx_sum reads: each distinct class count, and the
    number of classes of that count."""
    return np.unique(counts, return_counts=True)


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
        with pytest.raises(GuardViolation, match=f"field size must be prime, got {q}"):
            check_field_size(q)


class TestJointDistribution:
    """The joint law of the named monomials up to the labels of its outcomes:
    the assignments in each outcome class, by enumeration."""

    def test_single_monomial_f2_q2(self):
        # outcomes 1 and 0 with mass 1/4 and 3/4
        assert class_counts([(1, 2)], 2, 2) == [1, 3]

    def test_empty_product(self):
        assert class_counts([], 4, 2) == [16]

    def test_two_monomials_f3_q2(self):
        # outcomes (0, 1), (1, 0), (1, 1) with mass 1/8 each, and (0, 0) with 5/8
        assert class_counts([(1, 2), (1, 3)], 3, 2) == [1, 1, 1, 5]

    def test_probabilities_sum_to_one_exactly(self):
        rng = random.Random(5)
        for _ in range(5):
            f = rng.randint(2, 5)
            q = rng.choice([2, 3])
            edges = rng.sample(all_edges(f), rng.randint(0, f))
            counts = class_counts(edges, f, q)
            assert sum(counts) == q ** f
            assert counts == sorted(counter_oracle(edges, f, q)[1])

    def test_invalid_edge(self):
        cache = EntropyCache(4, 2)
        with pytest.raises(ValidationError, match=r"edge \(2, 1\) invalid for f=4"):
            cache.joint_entropy([(2, 1)])
        with pytest.raises(ValidationError, match=r"edge \(1, 7\) invalid for f=4"):
            cache.joint_entropy([(1, 7)])

    def test_builds_only_the_named_monomials(self):
        # the whole 78-monomial table at (13, 3) is 124 MB.  A miss at q >= 3
        # is a support sum, which builds no monomial values at all; the
        # enumeration oracle builds the two it names
        tracemalloc.start()
        try:
            h = EntropyCache(13, 3).joint_entropy(0b11)  # (1, 2) and (1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        tracemalloc.start()
        try:
            counts, multiplicities = enumerated_tally(13, 3, 0b11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        assert multiplicities.sum() == 9
        assert EntropyCache(13, 3)._entropy(counts, multiplicities).hex() == h.hex()
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
            with pytest.raises(ValidationError, match="out of range for f=4"):
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
        with pytest.raises(GuardViolation, match=rf"q\^f = {3 ** 14} exceeds the enumeration guard"):
            EntropyCache(14, 3)
        with pytest.raises(GuardViolation, match=rf"q\^f = {5 ** 16} exceeds the enumeration guard"):
            EntropyCache(16, 5)

    # the enumeration oracle packs more columns than 63 bits hold at (12, 2)
    # and (10, 3), and needs more than 8 bits per symbol at q=257
    @pytest.mark.parametrize("f,q", [(12, 2), (10, 3), (2, 257)])
    def test_counter_oracle_all_edges(self, f, q):
        edges = all_edges(f)
        want = counter_oracle(edges, f, q)[0]
        cache = EntropyCache(f, q)
        assert cache.joint_entropy(edges) == want
        assert cache._entropy(*enumerated_tally(f, q, (1 << edge_count(f)) - 1)) == want

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


def _oracle_entropy(mask, f, q):
    return EntropyCache(f, q)._entropy(*enumerated_tally(f, q, mask))


class TestCarriedCodes:
    """At q = 2 a miss ORs into a carried code (the last miss's, or the base
    pinned by hold) the rows it lacks; the values must not depend on that."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_chains_holds_and_branches_match_fresh_cache(self, data):
        # only q = 2 misses carry codes; at f = 16 they use all 16 bits
        q = 2
        f = data.draw(st.integers(2, MAX_VERTICES), label="f")
        mu = edge_count(f)
        full = (1 << mu) - 1
        cache = EntropyCache(f, q)
        got = []
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            kind = data.draw(st.sampled_from(("chain", "hold", "branch")), label="kind")
            # no miss or hold changes a code that the cache carried before it
            carried = [(code, code.copy()) for _, code in (cache._last, cache._base)
                       if code is not None]
            if kind == "chain":
                order = data.draw(st.permutations(range(mu)), label="order")
                mask = 0
                for i in order[: data.draw(st.integers(1, min(mu, 24)), label="length")]:
                    mask |= 1 << i
                    got.append((mask, cache.joint_entropy(mask)))
            elif kind == "hold":
                size = len(cache)
                cache.hold(data.draw(st.integers(0, full), label="held"))
                assert len(cache) == size
            else:
                base = data.draw(st.integers(0, full), label="base")
                cache.hold(base)
                free = [i for i in range(mu) if not base >> i & 1]
                if free:
                    for i in data.draw(st.lists(st.sampled_from(free), max_size=4), label="branches"):
                        got.append((base | 1 << i, cache.joint_entropy(base | 1 << i)))
            for code, before in carried:
                assert np.array_equal(code, before)
        want = {}
        for mask, h in got:
            if mask not in want:
                want[mask] = _oracle_entropy(mask, f, q)
                assert EntropyCache(f, q).joint_entropy(mask).hex() == want[mask].hex()
                if f <= 8:
                    assert counter_oracle(_edges_of(mask, f), f, q)[0].hex() == want[mask].hex()
            assert h.hex() == want[mask].hex()

    def test_code_is_the_vertex_mask_of_the_covered_support(self):
        # the code of S at support T is N(T): the vertices of T with an S-edge
        # inside T
        f, q = 6, 2
        rng = random.Random(23)
        cache = EntropyCache(f, q)
        for _ in range(10):
            mask = rng.getrandbits(edge_count(f)) | 1
            _, code = cache._carried(mask)
            want = []
            for t in range(q ** f):
                ends = [k for e in _edges_of(mask, f) if all(t >> k - 1 & 1 for k in e) for k in e]
                want.append(sum(1 << k - 1 for k in set(ends)))
            assert code.dtype == np.uint16
            assert code.tolist() == want

    def test_held_base_off_a_full_chain_f12(self):
        # a 64-edge base one hold off the chain's last miss, K_12, and two
        # branches from it
        f, q = 12, 2
        rng = random.Random(17)
        order = list(range(66))
        rng.shuffle(order)
        cache = EntropyCache(f, q)
        mask = 0
        for i in order:
            mask |= 1 << i
            cache.joint_entropy(mask)
        size = len(cache)
        branches = [order[10], order[40]]
        base = mask & ~sum(1 << i for i in branches)
        cache.hold(base)
        assert len(cache) == size
        fresh = EntropyCache(f, q)
        for i in branches:
            h = cache.joint_entropy(base | 1 << i)
            assert h.hex() == fresh.joint_entropy(base | 1 << i).hex()
            assert h.hex() == _oracle_entropy(base | 1 << i, f, q).hex()
        assert len(cache) == size + 2

    def test_hold_never_changes_a_code_it_starts_from(self):
        f, q = 6, 2
        cache = EntropyCache(f, q)
        cache.hold(0b111)
        cache.joint_entropy(0b1111)
        # the base pinned next is the last miss itself: both share one array
        last = cache._last[1]
        before = last.copy()
        cache.hold(0b1111)
        assert cache._base[1] is last
        # a base that refines a carried code gets a new array
        cache.hold(0b110111)
        base = cache._base[1]
        assert base is not last and np.array_equal(last, before)
        held = base.copy()
        for mask in (0b111111, 0b1110111, 0b11111):
            want = counter_oracle(_edges_of(mask, f), f, q)[0]
            assert cache.joint_entropy(mask).hex() == want.hex()
            assert np.array_equal(base, held)

    def test_hold_adds_no_entropy(self):
        # at q = 3 hold does nothing at all: it builds no monomial rows
        for q in (2, 3):
            cache = EntropyCache(6, q)
            cache.hold([(1, 2), (3, 4)])
            cache.hold(0b101)
            cache.hold(0)
            assert len(cache) == 1
            assert cache.joint_entropy(0b1101) == EntropyCache(6, q).joint_entropy(0b1101)
            assert any(row is not None for row in cache._rows) == (q == 2)

    def test_grouped_sum_bit_identical_to_per_class_sum(self):
        # one group per distinct count would round m * (c*log c) once more
        counts = np.array([2] * 3 + [12] * 5 + [14] * 7 + [1] * 4, dtype=np.int64)
        assert _xlogx_sum(*tally_of(counts)).hex() == per_class_sum(counts).hex()
        assert _xlogx_sum(*tally_of(np.array([1, 1]))) == per_class_sum(np.array([1, 1])) == 0.0

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
            assert _xlogx_sum(*tally_of(counts)).hex() == per_class_sum(counts).hex()

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
        assert _xlogx_sum(*tally_of(counts)).hex() == per_class_sum(counts).hex()


def _largest_f(q):
    return max(f for f in range(2, MAX_VERTICES + 1) if q ** f <= ENUMERATION_GUARD)


# the largest f per q whose enumeration takes well under a second
FAST_F = {3: 10, 5: 7, 7: 6}
ORACLE_SIZES = [
    pytest.param(q, f, marks=[pytest.mark.slow] if f > FAST_F[q] else [])
    for q in (3, 5, 7) for f in range(2, _largest_f(q) + 1)
]


class TestSupportSum:
    """At q >= 3 every miss is a support sum over the vertex subsets; the
    enumeration kernel is its oracle, tally for tally and bit for bit."""

    @staticmethod
    def check(edges_or_mask, f, q):
        mask = edges_or_mask if isinstance(edges_or_mask, int) else edges_to_mask(edges_or_mask, f)
        cache = EntropyCache(f, q)
        counts, multiplicities = cache._support_tally(mask)
        want = enumerated_tally(f, q, mask)
        assert counts.tolist() == want[0].tolist()
        assert multiplicities.tolist() == want[1].tolist()
        assert int(np.dot(counts, multiplicities)) == q ** f
        if mask:
            assert cache.joint_entropy(mask).hex() == cache._entropy(*want).hex()
        assert sum(row is not None for row in cache._rows) == 0

    @pytest.mark.parametrize("q,f", ORACLE_SIZES)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_masks(self, q, f, data):
        full = (1 << edge_count(f)) - 1
        mask = data.draw(st.integers(0, full), label="mask")
        # hypothesis favours small integers, so sparse masks; their complements
        # are dense
        if data.draw(st.booleans(), label="complement"):
            mask ^= full
        self.check(mask, f, q)

    @pytest.mark.parametrize("q", [3, 5, 7])
    @pytest.mark.parametrize("f", [2, 5, 6])
    def test_empty_single_edge_and_complete(self, q, f):
        self.check(0, f, q)
        self.check([(1, 2)], f, q)
        self.check([(f - 1, f)], f, q)
        self.check(all_edges(f), f, q)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_perfect_matching_and_star(self, q):
        self.check([(1, 2), (3, 4), (5, 6)], 6, q)
        self.check([(1, v) for v in range(2, 7)], 6, q)

    # gcd(2, m) = 2 < m: the triangle and the 5-cycle are not bipartite, and
    # their kernels differ from those of the bipartite paths
    @pytest.mark.parametrize("q", [5, 7])
    def test_odd_cycles(self, q):
        self.check([(1, 2), (2, 3), (1, 3)], 5, q)
        self.check([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 5, q)
        self.check([(1, 2), (2, 3), (3, 4), (4, 5)], 5, q)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_disconnected_with_isolated_vertices(self, q):
        # a triangle, a 4-path and isolated vertices 4 and 9 at f = 9 (q = 3),
        # a triangle and an edge with 4 and 7 isolated at f = 7 (q = 5, 7)
        if q == 3:
            self.check([(1, 2), (2, 3), (1, 3), (5, 6), (6, 7), (7, 8)], 9, q)
        else:
            self.check([(1, 2), (2, 3), (1, 3), (5, 6)], 7, q)


class TestConditionalEntropy:
    def test_unconditioned_equals_marginal(self, shared_cache):
        cache = shared_cache(6)
        assert cache.conditional_entropy((1, 2)) == pytest.approx(H_SINGLE_Q2, abs=1e-12)

    def test_conditioning_reduces(self, shared_cache):
        cache = shared_cache(3)
        got = cache.conditional_entropy((1, 3), [(1, 2)])
        assert got == pytest.approx(0.7375168163, abs=1e-9)

    def test_rejects_conditioned_edge(self, shared_cache):
        with pytest.raises(ValidationError, match=r"edge \(1, 2\) is already in the conditioning set"):
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

    # S + e refines the outcome partition of S.  An equal partition has the
    # same count multiset, so the same bits and a difference of exactly 0.0;
    # a strict one splits some class of c outcomes, which raises
    # sum c ln c / (q^f ln q) by at least 2 ln 2 / (q^f ln q), far above
    # the entropies' rounding.  So the difference needs no clamp at zero.
    # The 1e-9 allows the rounding of a gap met exactly (a pair split in two).
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_refinement_gap(self, data, shared_cache):
        f, q = data.draw(st.sampled_from([(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2),
                                          (3, 3), (4, 3), (5, 3), (6, 3), (3, 5), (4, 5)]))
        cache = shared_cache(f, q)
        i = data.draw(st.integers(0, edge_count(f) - 1))
        given_mask = data.draw(st.integers(0, (1 << edge_count(f)) - 1)) & ~(1 << i)
        gap = cache.joint_entropy(given_mask | 1 << i) - cache.joint_entropy(given_mask)
        assert gap == 0.0 or gap >= 2 * math.log(2) / (q**f * math.log(q)) * (1 - 1e-9)
        e = edge_from_index(i, f)
        _, cond, _ = weighted_terms(cache, 2, [*mask_to_edges(given_mask, f), e])
        assert cache.conditional_entropy(e, given_mask).hex() == cond[-1].hex() == gap.hex()


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
            with pytest.raises(GuardViolation, match=f"field size must be prime, got {q!r}"):
                check_field_size(q)
        with pytest.raises(GuardViolation, match="field size must be prime, got 3.0"):
            EntropyCache(3, 3.0)
