import pytest

from pqcbound import (
    all_edges,
    chromatic_index,
    color_sets,
    color_sets_even,
    color_sets_odd,
    ec_order,
    edge_count,
    is_matching,
    is_near_perfect_matching,
    is_perfect_matching,
    matching_size,
    validate_coloring,
)
from pqcbound.coloring import ColorPartition, mod_star, odd_color_set
from pqcbound.errors import ParityError

S_EC_6 = (
    (1, 5), (2, 4), (3, 6), (1, 6), (2, 5), (3, 4), (1, 2), (3, 5),
    (4, 6), (1, 3), (2, 6), (4, 5), (1, 4), (2, 3), (5, 6),
)
S_EEC_6 = (
    (1, 5), (2, 4), (3, 6), (1, 6), (2, 5), (3, 4), (1, 4), (2, 3),
    (5, 6), (1, 2), (3, 5), (4, 6), (1, 3), (2, 6), (4, 5),
)


class TestModStar:
    def test_wraps_zero_to_f(self):
        assert mod_star(0, 5) == 5
        assert mod_star(-1, 5) == 4
        assert mod_star(6, 5) == 1
        assert mod_star(3, 5) == 3


class TestOddConstruction:
    def test_center_formula_f5(self):
        assert odd_color_set(5, 1) == ((2, 5), (3, 4))

    def test_center_formula_f3(self):
        assert odd_color_set(3, 1) == ((2, 3),)

    def test_partition_f5(self):
        part = color_sets_odd(5)
        assert len(part.sets) == 5
        assert all(len(s) == 2 for s in part.sets)
        assert validate_coloring(part)
        covered = sorted(e for s in part.sets for e in s)
        assert covered == all_edges(5)

    def test_sets_are_near_perfect(self):
        part = color_sets_odd(7)
        for s in part.sets:
            assert is_near_perfect_matching(s, 7)

    def test_parity_guard(self):
        with pytest.raises(ParityError):
            color_sets_odd(6)


def _color_sets_even_loop(f: int) -> tuple:
    """The even classes by residues, the construction that odd_color_set
    replaced, copied: inner edges (k, l) join class index (k + l - 1) mod
    (f-1), rim edges (k, f) class index (2k - 1) mod (f-1)."""
    sets = [[] for _ in range(f - 1)]
    for k in range(1, f):
        for l in range(k + 1, f):
            sets[(k + l - 1) % (f - 1)].append((k, l))
        sets[(2 * k - 1) % (f - 1)].append((k, f))
    return tuple(tuple(sorted(s)) for s in sets)


class TestEvenConstruction:
    def test_reference_classes_f6(self):
        part = color_sets_even(6)
        assert part.sets == (
            ((1, 5), (2, 4), (3, 6)),
            ((1, 6), (2, 5), (3, 4)),
            ((1, 2), (3, 5), (4, 6)),
            ((1, 3), (2, 6), (4, 5)),
            ((1, 4), (2, 3), (5, 6)),
        )

    def test_sets_are_perfect(self):
        part = color_sets_even(8)
        for s in part.sets:
            assert is_perfect_matching(s, 8)

    def test_parity_guard(self):
        with pytest.raises(ParityError):
            color_sets_even(5)

    def test_f2_single_class(self):
        part = color_sets_even(2)
        assert part.sets == (((1, 2),),)

    @pytest.mark.parametrize("f", range(2, 17, 2))
    def test_matches_residue_loop_oracle(self, f):
        assert color_sets_even(f).sets == _color_sets_even_loop(f)


class TestValidation:
    @pytest.mark.parametrize("f", range(2, 17))
    def test_constructions_validate(self, f):
        part = color_sets(f)
        assert len(part.sets) == chromatic_index(f)
        assert validate_coloring(part)

    def test_incident_edges_rejected(self):
        bad = ColorPartition(f=4, sets=(((1, 2), (1, 3)), ((1, 4), (2, 3)), ((2, 4), (3, 4))))
        assert not validate_coloring(bad)

    def test_overlapping_classes_rejected(self):
        # three perfect matchings of K_4, but the first two are one class twice
        twice = ColorPartition(f=4, sets=(((1, 2), (3, 4)), ((1, 2), (3, 4)), ((1, 3), (2, 4))))
        assert not validate_coloring(twice)

    def test_wrong_color_count_rejected(self):
        part = color_sets(6)
        assert not validate_coloring(ColorPartition(f=6, sets=part.sets[:4]))


class TestEcOrder:
    def test_natural_order_f6(self):
        assert ec_order(6) == S_EC_6

    def test_color_permutation_f6(self):
        assert color_sets(6).concatenated((0, 1, 4, 2, 3)) == S_EEC_6

    def test_f3_is_permutation(self):
        assert sorted(ec_order(3)) == all_edges(3)

    @pytest.mark.parametrize("f", range(2, 17))
    def test_each_edge_once(self, f):
        order = ec_order(f)
        assert len(order) == edge_count(f)
        assert sorted(order) == all_edges(f)

    @pytest.mark.parametrize("f", range(4, 13))
    def test_leading_class_is_matching(self, f):
        eta = matching_size(f)
        lead = ec_order(f)[:eta]
        assert is_matching(lead)
        if f % 2 == 0:
            assert is_perfect_matching(lead, f)
        else:
            assert is_near_perfect_matching(lead, f)
