"""Proper edge-colorings of K_f and the plain edge-coloring (EC) order.

Both constructions partition the edge set into chi'(K_f) color classes, each
a perfect matching (even f, f-1 classes) or near-perfect matching (odd f,
f classes).  Edges inside each class are kept in lexicographic order, and the
classes are enumerated in the fixed order that the package's reference
results use; concatenating them yields the plain EC monomial order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPermutation, ParityError
from .graphs import (
    Edge,
    all_edges,
    check_vertex_count,
    chromatic_index,
    edge_count,
    is_matching,
    matching_size,
)


@dataclass(frozen=True)
class ColorPartition:
    """Color classes of a proper edge-coloring, lexicographic inside each class."""

    f: int
    sets: tuple

    def concatenated(self, color_order=None) -> tuple[Edge, ...]:
        order = range(len(self.sets)) if color_order is None else color_order
        return tuple(e for c in order for e in self.sets[c])


def mod_star(x: int, f: int) -> int:
    """Residue of x in {1, ..., f}: like x mod f but 0 maps to f."""
    r = x % f
    return r + f if r <= 0 else r


def odd_color_set(f: int, center: int) -> tuple[Edge, ...]:
    """The near-perfect matching of odd K_f with edges paired around center.

    Edge p joins the two vertices at cyclic distance p from the center,
    center - p and center + p (mod*), for p = 1..(f-1)/2; the center vertex
    itself stays uncovered.
    """
    eta = (f - 1) // 2
    edges = []
    for p in range(1, eta + 1):
        a = mod_star(center - p, f)
        b = mod_star(center + p, f)
        edges.append((min(a, b), max(a, b)))
    return tuple(sorted(edges))


def color_sets_odd(f: int) -> ColorPartition:
    """f near-perfect matchings covering K_f, odd f.

    Class c pairs the vertices (c - p) mod f + 1 and (c + p) mod f + 1 for
    p = 1..(f-1)/2 (0-based modulus), i.e. the matching centers run
    2, 3, ..., f, 1; this enumeration is the one the reference EC orders use.
    """
    check_vertex_count(f)
    if f % 2 == 0:
        raise ParityError(f"odd construction requires odd f, got {f}")
    centers = list(range(2, f + 1)) + [1]
    return ColorPartition(f=f, sets=tuple(odd_color_set(f, c) for c in centers))


def color_sets_even(f: int) -> ColorPartition:
    """f-1 perfect matchings covering K_f, even f (a 1-factorization).

    Class c (1-based) is the near-perfect matching odd_color_set(f-1, k) of
    vertices 1..f-1, whose uncovered center k has 2k = c (mod f-1), plus the
    rim edge (k, f); so inner edges (k, l) join class c when k + l = c
    (mod f-1).  Since f = 1 (mod f-1), that center is c * f/2 (mod* f-1).
    """
    check_vertex_count(f)
    if f % 2 == 1:
        raise ParityError(f"even construction requires even f, got {f}")
    centers = (mod_star(c * (f // 2), f - 1) for c in range(1, f))
    sets = (sorted(odd_color_set(f - 1, k) + ((k, f),)) for k in centers)
    return ColorPartition(f=f, sets=tuple(map(tuple, sets)))


def color_sets(f: int) -> ColorPartition:
    return color_sets_even(f) if f % 2 == 0 else color_sets_odd(f)


def validate_coloring(partition: ColorPartition) -> bool:
    """True iff the classes are disjoint (near) perfect matchings covering K_f
    with exactly chi'(K_f) colors."""
    f = partition.f
    if len(partition.sets) != chromatic_index(f):
        return False
    eta = matching_size(f)
    seen: set[Edge] = set()
    for s in partition.sets:
        if len(s) != eta or not is_matching(s):
            return False
        if seen & set(s):
            return False
        seen |= set(s)
    return seen == set(all_edges(f))


def ec_order(f: int, color_permutation=None) -> tuple[Edge, ...]:
    """Monomial order from the edge-coloring: color classes concatenated.

    color_permutation lists 1-based color numbers in the order their classes
    should appear; None means the natural order 1..chi'.  Edges inside each
    class stay lexicographic.
    """
    part = color_sets(f)
    chi = len(part.sets)
    if color_permutation is None:
        order = range(chi)
    else:
        order = [c - 1 for c in color_permutation]
        if sorted(order) != list(range(chi)):
            raise InvalidPermutation(
                f"color permutation must arrange 1..{chi} exactly once, got {color_permutation!r}"
            )
    result = part.concatenated(order)
    assert len(result) == edge_count(f)
    return result
