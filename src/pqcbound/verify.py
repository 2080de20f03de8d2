"""Self-check suites behind the `verify` CLI command.

Each suite returns (name, passed, detail) triples; the CLI prints one line
per check and exits nonzero if any fails.  Checks are deterministic (seeded
sampling) so repeated runs agree.
"""
from __future__ import annotations

import math
import random
from itertools import accumulate, permutations

from .bound import BoundParams
from .coloring import color_sets, ec_order, validate_coloring
from .entropy import EntropyCache
from .graphs import (
    Graph,
    all_edges,
    complete_cycle_census,
    cycle_census,
    distance,
    edge_count,
    induced_cycle_vector,
    is_near_perfect_matching,
    is_perfect_matching,
    matching_size,
)
from .search import (
    count_distinct_paths,
    count_graph_classes,
    exhaustive_search,
    ldf_order,
)

KNOWN_CLASS_COUNTS = {2: 2, 3: 4, 4: 11, 5: 34}
# random draws per sampled check, and the seed of each suite's generator
ENTROPY_SAMPLES, ENTROPY_SEED = 25, 2024
GRAPH_SAMPLES, GRAPH_SEED = 15, 99

Check = tuple[str, bool, str]


def entropy_suite(f: int, q: int) -> list[Check]:
    cache = EntropyCache(f, q)
    checks: list[Check] = []
    checks.append(("empty-set entropy", cache.joint_entropy(0) == 0.0, "H() = 0"))

    marg = cache.marginal_entropy()
    singles = [cache.joint_entropy([e]) for e in all_edges(f)]
    worst = max(abs(h - marg) for h in singles)
    checks.append(("balancedness", worst <= 1e-12, f"max singleton spread {worst:.2e}"))

    small = EntropyCache(2, q)
    diff = abs(small.marginal_entropy() - marg)
    checks.append(("marginal f-independence", diff <= 1e-12, f"|H_f - H_2| = {diff:.2e}"))

    rng = random.Random(ENTROPY_SEED)
    edges = all_edges(f)
    worst_chain = 0.0
    for _ in range(ENTROPY_SAMPLES):
        k = rng.randint(1, min(8, len(edges)))
        prefix = rng.sample(edges, k)
        total = math.fsum(
            cache.conditional_entropy(prefix[i], prefix[:i]) for i in range(k)
        )
        worst_chain = max(worst_chain, abs(total - cache.joint_entropy(prefix)))
    checks.append(("chain rule", worst_chain <= 1e-12,
                   f"max defect {worst_chain:.2e} over {ENTROPY_SAMPLES} prefixes"))

    ok = True
    for _ in range(ENTROPY_SAMPLES):
        k = rng.randint(1, len(edges))
        sup = rng.sample(edges, k)
        sub = rng.sample(sup, rng.randint(0, k))
        if cache.joint_entropy(sub) > cache.joint_entropy(sup) + 1e-12:
            ok = False
    checks.append(("monotonicity", ok, f"{ENTROPY_SAMPLES} subset pairs"))

    # one cache walks a chain through every edge (past the 63-bit re-rank at
    # q = 2, f >= 12), then branches off a held base and off a base pinned on
    # its last miss; fresh caches recompute the branches and a chain sample
    mu = len(edges)
    carried = EntropyCache(f, q)
    order = rng.sample(range(mu), mu)
    chain = list(accumulate(1 << i for i in order))
    got = {m: carried.joint_entropy(m) for m in chain}
    got = {m: got[m] for m in chain[::-max(1, mu // ENTROPY_SAMPLES)]}
    base = chain[mu // 2] & ~(1 << order[0])
    for _ in range(2):
        carried.hold(base)
        last = base
        for i in rng.sample(range(mu), min(mu, ENTROPY_SAMPLES // 2)):
            if not base >> i & 1:
                last = base | 1 << i
                got[last] = carried.joint_entropy(last)
        base = last
    bad = sum(EntropyCache(f, q).joint_entropy(m).hex() != h.hex() for m, h in got.items())
    checks.append(("carried codes vs fresh caches", bad == 0, f"{bad} of {len(got)} masks differ"))
    return checks


def graph_suite(f: int) -> list[Check]:
    checks: list[Check] = []
    if f <= 10:
        got = cycle_census(Graph.complete(f))
        want = complete_cycle_census(f)
        checks.append(("complete-graph cycle census", got == want, f"{got}"))

    rng = random.Random(GRAPH_SEED)
    edges = all_edges(f)
    ok = True
    for _ in range(GRAPH_SAMPLES):
        g = Graph(f, rng.sample(edges, rng.randint(0, len(edges) - 1)))
        candidates = sorted(set(edges) - g.edge_set)
        e = rng.choice(candidates)
        base = cycle_census(g)
        through = induced_cycle_vector(g, e, "through-edge")
        full = induced_cycle_vector(g, e, "full-graph")
        if tuple(b + t for b, t in zip(base, through)) != full:
            ok = False
    checks.append(("through-edge vs full-graph", ok, f"{GRAPH_SAMPLES} random graph/candidate pairs"))

    ok = True
    for _ in range(GRAPH_SAMPLES):
        g = Graph(f, rng.sample(edges, rng.randint(0, len(edges))))
        u, v = rng.sample(range(1, f + 1), 2)
        if distance(g, u, v) != distance(g, v, u) or distance(g, u, u) != 0:
            ok = False
    checks.append(("distance symmetry", ok, f"{GRAPH_SAMPLES} random pairs"))

    if f == 6:
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        t1 = all(
            induced_cycle_vector(g, e, "full-graph") == (0, 2, 0, 1)
            for e in [(1, 4), (2, 5), (3, 6)]
        ) and all(
            induced_cycle_vector(g, e, "full-graph") == (1, 0, 1, 1)
            for e in [(1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (4, 6)]
        )
        checks.append(("hexagon chord censuses", t1, "antipodal (0,2,0,1), short (1,0,1,1)"))
        g2 = Graph(6, [(1, 2), (3, 4), (5, 6), (1, 6)])
        t2 = (
            distance(g2, 2, 5) == 3
            and distance(g2, 2, 6) == 2
            and distance(g2, 1, 5) == 2
            and distance(g2, 2, 3) == math.inf
        )
        checks.append(("partial-matching distances", t2, "d(2,5)=3, d(2,6)=d(1,5)=2, d(2,3)=inf"))
    return checks


def coloring_suite(f: int) -> list[Check]:
    checks: list[Check] = []
    for ff in range(2, f + 1):
        part = color_sets(ff)
        checks.append(
            (
                f"coloring f={ff}",
                validate_coloring(part),
                f"{len(part.sets)} classes of {matching_size(ff)} edge(s)",
            )
        )
    order = ec_order(f)
    checks.append(
        ("ec order permutation", sorted(order) == all_edges(f), f"{edge_count(f)} edges once each")
    )
    eta = matching_size(f)
    lead = order[:eta]
    ok = is_perfect_matching(lead, f) or is_near_perfect_matching(lead, f)
    checks.append(("leading class is a matching", ok, f"first {eta} edge(s)"))
    return checks


def remarks_suite(f: int) -> list[Check]:
    checks: list[Check] = []
    eta = matching_size(f)
    lead = ec_order(f)[:eta]
    ok = is_perfect_matching(lead, f) or is_near_perfect_matching(lead, f)
    checks.append(("ec matching prefix", ok, f"first {eta} edges"))
    if f >= 4:
        lead = ldf_order(f)[:eta]
        ok = is_perfect_matching(lead, f) or is_near_perfect_matching(lead, f)
        checks.append(("ldf matching prefix", ok, f"first {eta} edges"))
    if f <= 5:
        r2 = exhaustive_search(BoundParams(n=2, f=f, q=2), collect_argmin=True)
        r3 = exhaustive_search(BoundParams(n=3, f=f, q=2), collect_argmin=True)
        same = r2.argmin_orders == r3.argmin_orders
        checks.append(
            (
                "argmin set n-independence",
                same,
                f"{len(r2.argmin_orders)} optimal orders for n=2 and n=3",
            )
        )
    return checks


def _labeled_path_oracle(f: int) -> int:
    """Distinct canonical-class sequences over all labeled addition orders."""
    from .search import _canonical_form, _edge_remaps

    remaps = _edge_remaps(f)
    mu = edge_count(f)
    canon: dict[int, int] = {}

    def c(mask):
        v = canon.get(mask)
        if v is None:
            v = _canonical_form(mask, remaps)
            canon[mask] = v
        return v

    seqs = set()
    for perm in permutations(range(mu)):
        mask = 0
        seq = []
        for i in perm:
            mask |= 1 << i
            seq.append(c(mask))
        seqs.add(tuple(seq))
    return len(seqs)


def paths_suite(f: int) -> list[Check]:
    checks: list[Check] = []
    n = count_distinct_paths(f)
    states = count_graph_classes(f)
    checks.append(("distinct addition paths", n >= 1, f"{n} paths for f={f}"))
    want = KNOWN_CLASS_COUNTS.get(f)
    checks.append(
        ("unlabeled graph classes", states == want, f"{states} states (expected {want})")
    )
    if f <= 4:
        oracle = _labeled_path_oracle(f)
        checks.append(("labeled-sequence oracle", n == oracle, f"oracle {oracle}"))
    return checks


SUITES = {
    "entropy": entropy_suite,
    "graph": lambda f, q: graph_suite(f),
    "coloring": lambda f, q: coloring_suite(f),
    "remarks": lambda f, q: remarks_suite(f),
    "paths": lambda f, q: paths_suite(f),
}

DEFAULT_F = {"entropy": 6, "graph": 6, "coloring": 6, "remarks": 4, "paths": 5}
