import math
import random
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqcbound import (
    BoundParams,
    EntropyCache,
    all_edges,
    capacity_outer_bound,
    edge_count,
    partial_bound,
)
from pqcbound.bound import CAP_MARGIN, EMPTY_ORDER, _weights, remaining_cap, weighted_terms
from pqcbound.errors import GuardViolation, ValidationError
from pqcbound.graphs import edges_to_mask
from tests.test_coloring import S_EC_6, S_EEC_6

S_LDF_6 = (
    (1, 2), (3, 4), (5, 6), (1, 6), (2, 3), (4, 5), (1, 4), (2, 5),
    (3, 6), (2, 4), (1, 3), (1, 5), (2, 6), (3, 5), (4, 6),
)


@pytest.fixture
def p6():
    return BoundParams(n=2, f=6, q=2)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BoundParams(n=0, f=6, q=2)
        with pytest.raises(ValidationError, match=r"vertex count must be an integer in \[2, 16\], got 1"):
            BoundParams(n=2, f=1, q=2)
        with pytest.raises(GuardViolation, match="field size must be prime, got 4"):
            BoundParams(n=2, f=6, q=4)

    def test_n1_allowed(self):
        BoundParams(n=1, f=4, q=2)

    def test_cache_mismatch_rejected(self, p6):
        with pytest.raises(ValidationError):
            capacity_outer_bound(S_EC_6, p6, EntropyCache(5, 2))


class TestGoldenBounds:
    def test_ec_order_f6(self, p6, shared_cache):
        report = capacity_outer_bound(S_EC_6, p6, shared_cache(6))
        assert report.bound == pytest.approx(0.5198943946817, abs=1e-11)

    def test_eec_order_f6(self, p6, shared_cache):
        report = capacity_outer_bound(S_EEC_6, p6, shared_cache(6))
        assert report.bound == pytest.approx(0.5198121367672, abs=1e-11)

    def test_ldf_order_f6(self, p6, shared_cache):
        report = capacity_outer_bound(S_LDF_6, p6, shared_cache(6))
        assert report.bound == pytest.approx(0.5197824997350, abs=1e-11)


class TestReportShape:
    def test_cond_entropies(self, p6, shared_cache):
        cache = shared_cache(6)
        report = capacity_outer_bound(S_EC_6, p6, cache)
        assert len(report.cond_entropies) == edge_count(6)
        assert all(-1e-12 <= h <= 1 + 1e-12 for h in report.cond_entropies)
        assert math.fsum(report.cond_entropies) == pytest.approx(
            cache.joint_entropy(all_edges(6)), abs=1e-10
        )
        assert 0 < report.bound <= 1
        assert report.marginal_entropy == cache.marginal_entropy()

    def test_rejects_non_permutations(self, p6):
        permutation = "order must list each of the 15 edges of K_6 exactly once"
        with pytest.raises(ValidationError, match=permutation):
            capacity_outer_bound(S_EC_6[:-1], p6)
        with pytest.raises(ValidationError, match=permutation):
            capacity_outer_bound(S_EC_6[:-1] + ((1, 5),), p6)


class TestPartialBound:
    def test_single_edge_is_exactly_one(self, p6, shared_cache):
        assert partial_bound([(1, 2)], p6, shared_cache(6)) == 1.0
        assert partial_bound([(3, 5)], p6, shared_cache(6)) == 1.0

    def test_two_disjoint_edges(self, shared_cache):
        params = BoundParams(n=2, f=5, q=2)
        got = partial_bound([(1, 2), (3, 4)], params, shared_cache(5))
        assert got == pytest.approx(2 / 3, abs=1e-12)

    def test_full_prefix_matches_bound(self, p6, shared_cache):
        cache = shared_cache(6)
        rng = random.Random(2)
        order = all_edges(6)
        rng.shuffle(order)
        assert partial_bound(order, p6, cache) == capacity_outer_bound(order, p6, cache).bound

    def test_rejects_duplicates_and_empty(self, p6):
        with pytest.raises(ValidationError, match=r"prefix repeats an edge: \(\(1, 2\), \(1, 2\)\)"):
            partial_bound([(1, 2), (1, 2)], p6)
        with pytest.raises(ValidationError):
            partial_bound([], p6)


class TestWeightedTerms:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_running_product_weights(self, n, shared_cache):
        # float(n) ** -v differs from the running product in the last bit
        # for n = 3, 5, 7
        cache = shared_cache(6)
        order = all_edges(6)
        random.Random(n).shuffle(order)
        terms, cond, _ = weighted_terms(cache, n, order)
        weight = 1.0
        for t, h in zip(terms, cond):
            assert t == weight * h
            weight *= 1.0 / n

    @pytest.mark.parametrize("split", [0, 1, 7, 14, 15])
    def test_resumes_from_any_point(self, split, shared_cache):
        cache = shared_cache(6)
        order = all_edges(6)
        random.Random(split).shuffle(order)
        terms, cond, _ = weighted_terms(cache, 3, order)
        state = weighted_terms(cache, 3, order[:split])[2]
        mask = edges_to_mask(order[:split], 6)
        assert state == (mask, split, cache.joint_entropy(mask))
        tail = weighted_terms(cache, 3, order[split:], state)
        assert [t.hex() for t in tail[0]] == [t.hex() for t in terms[split:]]
        assert [h.hex() for h in tail[1]] == [h.hex() for h in cond[split:]]

    # a caller carries the state that one walk returns into the next, so any
    # chain of walks over an order is that order's one walk, to the bit
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_chained_end_states_give_one_walk(self, data, shared_cache):
        f = data.draw(st.integers(2, 7), label="f")
        q = data.draw(st.sampled_from((2, 3)), label="q")
        n = data.draw(st.sampled_from((1, 2, 3)), label="n")
        cache = shared_cache(f, q)
        order = data.draw(st.permutations(all_edges(f)), label="order")
        cuts = sorted(data.draw(st.lists(st.integers(0, len(order)), max_size=6), label="cuts"))
        whole = weighted_terms(cache, n, order)
        state, terms, cond = EMPTY_ORDER, [], []
        for a, b in zip([0] + cuts, cuts + [len(order)]):
            assert weighted_terms(cache, n, [], state) == ([], [], state)
            t, c, state = weighted_terms(cache, n, order[a:b], state)
            terms += t
            cond += c
        assert [t.hex() for t in terms] == [t.hex() for t in whole[0]]
        assert [h.hex() for h in cond] == [h.hex() for h in whole[1]]
        full = (1 << edge_count(f)) - 1
        assert state == whole[2] == (full, edge_count(f), cache.joint_entropy(full))


def one_position_cap(cache, n, state, caps=()):
    """remaining_cap before the water-fill, kept as an oracle: all of the
    entropy still to come at the next position's weight, caps ignored."""
    _, pos, prev = state
    top = cache.full_entropy
    rest = _weights(n, cache.mu)[pos] * (top - prev) if pos < cache.mu else 0.0
    return rest + CAP_MARGIN * top


class TestRemainingCap:
    # a search prunes an order once acc + cap falls below its incumbent's
    # denominator, so every completion must score strictly worse than
    # hmin / (acc + cap); a one-edge or empty tail fills the unwidened cap
    # exactly, so only the margin makes that strict.  Each tail edge e is
    # capped by H(e | S') for a drawn subset S' of the state's edges, which
    # by submodularity bounds its conditional entropy wherever it comes;
    # the caps hold in the tail's own order, from every point of it, and
    # sorted in descending order for every order of the tail.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_caps_every_completion(self, data, shared_cache):
        f = data.draw(st.integers(2, 7), label="f")
        q = data.draw(st.sampled_from((2, 3)), label="q")
        n = data.draw(st.sampled_from((1, 2, 3, 5, 7)), label="n")
        cache = shared_cache(f, q)
        order = data.draw(st.permutations(all_edges(f)), label="order")
        pos = data.draw(st.integers(0, len(order)), label="pos")
        head, tail = order[:pos], order[pos:]
        head_terms, _, state = weighted_terms(cache, n, head)
        ceiling = {}
        for e in tail:
            subset = data.draw(st.lists(st.sampled_from(head), unique=True) if head else st.just([]),
                               label=f"subset for {e}")
            _, (ceiling[e],), _ = weighted_terms(cache, n, (e,), weighted_terms(cache, n, subset)[2])
        acc = 0.0
        for t in head_terms:
            acc += t
        descending = sorted(ceiling.values(), reverse=True)
        caps_here = [remaining_cap(cache, n, state, caps) for caps in ((), descending)]
        assert all(cap <= one_position_cap(cache, n, state) for cap in caps_here)
        tops = [acc + cap for cap in caps_here]
        hmin = cache.marginal_entropy()
        if len(tail) <= 6:
            completions = permutations(tail)
        else:
            completions = data.draw(st.lists(st.permutations(tail), min_size=1, max_size=20),
                                    label="completions")
        for rest in completions:
            terms = weighted_terms(cache, n, rest, state)[0]
            own = [ceiling[e] for e in rest]
            # the fold so far plus the cap from the tail's own caps, at each point of the tail
            a, bounds, at = acc, [], state
            for i, t in enumerate(terms):
                cap = remaining_cap(cache, n, at, own[i:])
                assert cap <= one_position_cap(cache, n, at)
                bounds.append(a + cap)
                a += t
                at = weighted_terms(cache, n, rest[i:i + 1], at)[2]
            assert all(a < b for b in bounds + tops)
            assert all(hmin / a > hmin / top for top in tops)


class TestInvariants:
    def test_relabeling_invariance(self, p6, shared_cache):
        cache = shared_cache(6)
        rng = random.Random(21)
        for _ in range(10):
            order = all_edges(6)
            rng.shuffle(order)
            perm = list(range(1, 7))
            rng.shuffle(perm)
            mapped = [tuple(sorted((perm[k - 1], perm[l - 1]))) for k, l in order]
            assert (
                capacity_outer_bound(order, p6, cache).bound
                == capacity_outer_bound(mapped, p6, cache).bound
            )

    def test_n1_reduces_to_entropy_ratio(self, shared_cache):
        cache = shared_cache(5)
        params = BoundParams(n=1, f=5, q=2)
        rng = random.Random(5)
        want = cache.marginal_entropy() / cache.joint_entropy(all_edges(5))
        for _ in range(5):
            order = all_edges(5)
            rng.shuffle(order)
            got = capacity_outer_bound(order, params, cache).bound
            assert got == pytest.approx(want, abs=1e-12)

    def test_adjacent_swap_incremental_update(self, p6, shared_cache):
        cache = shared_cache(6)
        rng = random.Random(8)
        for _ in range(10):
            order = all_edges(6)
            rng.shuffle(order)
            report = capacity_outer_bound(order, p6, cache)
            v = rng.randint(0, len(order) - 2)
            swapped = list(order)
            swapped[v], swapped[v + 1] = swapped[v + 1], swapped[v]
            full = capacity_outer_bound(swapped, p6, cache)
            # only the two touched denominator terms change
            weights = [2.0 ** -(u) for u in range(len(order))]
            terms = [w * h for w, h in zip(weights, report.cond_entropies)]
            new_terms = [w * h for w, h in zip(weights, full.cond_entropies)]
            for u in range(len(order)):
                if u not in (v, v + 1):
                    assert terms[u] == new_terms[u]
            incremental = report.marginal_entropy / math.fsum(
                terms[:v] + new_terms[v : v + 2] + terms[v + 2 :]
            )
            assert incremental == pytest.approx(full.bound, abs=1e-12)

    def test_partial_argmin_is_cond_entropy_argmax(self, shared_cache):
        rng = random.Random(30)
        for f in (5, 6):
            cache = shared_cache(f)
            params = BoundParams(n=2, f=f, q=2)
            for _ in range(5):
                prefix = rng.sample(all_edges(f), rng.randint(1, edge_count(f) - 2))
                candidates = sorted(set(all_edges(f)) - set(prefix))
                by_bound = min(
                    candidates, key=lambda e: (partial_bound(prefix + [e], params, cache), e)
                )
                best_h = max(cache.conditional_entropy(e, prefix) for e in candidates)
                assert cache.conditional_entropy(by_bound, prefix) == pytest.approx(
                    best_h, abs=1e-12
                )
