"""The f! vertex relabelings of K_f as edge-index permutations: the
test-only oracle behind the labeler and orbit tests, practical for f <= 7."""
from functools import lru_cache
from itertools import permutations

from pqcbound.graphs import all_edges, edge_index


@lru_cache(maxsize=None)
def edge_remaps(f: int) -> tuple:
    """Edge-index permutation induced by each vertex permutation."""
    edges = all_edges(f)
    remaps = []
    for perm in permutations(range(1, f + 1)):
        r = [0] * len(edges)
        for i, (k, l) in enumerate(edges):
            a, b = perm[k - 1], perm[l - 1]
            r[i] = edge_index((min(a, b), max(a, b)), f)
        remaps.append(tuple(r))
    return tuple(remaps)
