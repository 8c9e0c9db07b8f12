import random

import pytest

from stonesheaf.linalg import DimensionError, LinMap, VectQ
from stonesheaf.space import Cone, Finite, SpaceMismatch, apex_point, parse_space
from stonesheaf.sheaf import (
    constant, identity_map, make_cone_map, make_cone_sheaf, random_csheaf,
    sec_space, skyscraper, stalk_map, zero_map)
from stonesheaf.homalg import (
    ext1, ext1_dim, ext2_dim, extension_from_twist, hom_basis, is_split,
    make_ses, ses_is_exact, split_ses)

X1 = Cone(Finite(1))


def floor_sheaf():
    tail = constant(Finite(1), 1)
    apex = VectQ.make(0)
    return make_cone_sheaf(X1, {}, tail, apex, LinMap.zero(apex, sec_space(tail)))


def nonsplit_ses():
    floor = floor_sheaf()
    const = constant(X1, 1)
    sky = skyscraper(X1, apex_point(), 1)
    incl = make_cone_map(floor, const, {}, identity_map(floor.tail),
                         LinMap.zero(floor.apex, const.apex))
    proj = make_cone_map(const, sky, {}, zero_map(const.tail, sky.tail),
                         LinMap.identity(const.apex), check=False)
    return make_ses(incl, proj)


# -- short exact sequences ----------------------------------------------------

def test_nonsplit_sequence_is_exact():
    assert ses_is_exact(nonsplit_ses())


def test_make_ses_rejects_non_exact():
    const = constant(X1, 1)
    with pytest.raises(ValueError):
        make_ses(zero_map(constant(X1, 1), const), zero_map(const, constant(X1, 1)))


def test_the_sequence_does_not_split():
    split, wit = is_split(nonsplit_ses())
    assert not split and wit is None


def test_split_sequence_detected_with_witness():
    from stonesheaf.sheaf import direct_sum
    rng = random.Random(3)
    A = random_csheaf(X1, rng, 2, 1)
    B = random_csheaf(X1, rng, 2, 1)
    S, iA, iB, pA, pB = direct_sum(A, B)
    ses = make_ses(iA, pB)
    split, r = is_split(ses)
    assert split
    comp = None
    from stonesheaf.homalg import _probe_points
    from stonesheaf.sheaf import compose
    check = compose(r, ses.proj)
    for x in _probe_points(X1, [ses.quo, ses.mid, r]):
        m = stalk_map(check, x)
        assert m == LinMap.identity(m.source)


# -- extension groups ---------------------------------------------------------

def test_ext_of_skyscraper_by_floor_is_one_dimensional():
    sky = skyscraper(X1, apex_point(), 1)
    classes, reps = ext1(sky, floor_sheaf())
    assert classes.dim == 1
    split, _ = is_split(reps[0])
    assert not split            # the nonzero class is realized


def test_ext_of_skyscraper_by_itself_vanishes():
    sky = skyscraper(X1, apex_point(), 1)
    assert ext1_dim(sky, sky) == 0


def test_ext_dichotomy_small_dimensions():
    # extensions vanish when the quotient has no apex stalk or the sub has
    # no tail stalks; exhaustive over small dimension shapes
    for a_apex in range(0, 3):
        for a_tail in range(0, 3):
            for b_apex in range(0, 3):
                for b_tail in range(0, 3):
                    A = _shaped(a_tail, a_apex)
                    B = _shaped(b_tail, b_apex)
                    d = ext1_dim(A, B)
                    if a_apex == 0 or b_tail == 0:
                        assert d == 0, (a_apex, a_tail, b_apex, b_tail)


def _shaped(tail_dim, apex_dim):
    tail = constant(Finite(1), tail_dim)
    apex = VectQ.make(apex_dim)
    return make_cone_sheaf(X1, {}, tail, apex,
                           LinMap.zero(apex, sec_space(tail)))


def test_extension_from_twist_class_realization():
    sky = skyscraper(X1, apex_point(), 1)
    B = floor_sheaf()
    SB = sec_space(B.tail)
    tw = LinMap.from_rows(sky.apex, SB, [[1]])
    ses = extension_from_twist(sky, B, tw)
    split, _ = is_split(ses)
    assert not split
    zero_tw = LinMap.zero(sky.apex, SB)
    split0, _ = is_split(extension_from_twist(sky, B, zero_tw))
    assert split0


def test_extension_from_twist_refuses_a_twist_off_the_tail_sections():
    """A twist must go from apex(A) to sec_space(tail(B)).  One of the right
    dimensions into another space, and ones of the wrong dimensions, are
    refused before any extension is built, with both spaces named."""
    sky = skyscraper(X1, apex_point(), 1)
    B = floor_sheaf()
    SB = sec_space(B.tail)
    for twist in (LinMap.from_rows(sky.apex, VectQ.make(SB.dim), [[1]]),
                  LinMap.zero(sky.apex, VectQ.make(SB.dim + 1, "s")),
                  LinMap.zero(VectQ.make(sky.apex.dim + 1), SB)):
        with pytest.raises(DimensionError, match=r"apex\(A\) = .* sec_space\(tail\(B\)\) = "):
            extension_from_twist(sky, B, twist)


def test_ext2_vanishes_rank_one():
    rng = random.Random(7)
    for _ in range(10):
        A = random_csheaf(X1, rng, 2, 1)
        B = random_csheaf(X1, rng, 2, 1)
        assert ext2_dim(A, B) == 0


def test_ext_rejects_higher_rank():
    X2 = parse_space("Cone(Cone(Finite(1)))")
    with pytest.raises(ValueError):
        ext1(constant(X2, 1), constant(X2, 1))


@pytest.mark.parametrize("expr", ["Cone(Cone(Finite(1)))", "Sum(Cone(Cone(Finite(1))),Finite(1))"])
def test_rank1_operations_share_one_rank_guard(expr):
    """Hom, splitness and Ext reject rank >= 2 with the same message, also
    when the rank-2 cone is one part of a disjoint union."""
    space = parse_space(expr)
    A, B = constant(space, 1), constant(space, 1)
    ses = split_ses(A, B)
    for call in (lambda: ext1(A, B), lambda: ext1_dim(A, B), lambda: ext2_dim(A, B),
                 lambda: hom_basis(A, B), lambda: is_split(ses)):
        with pytest.raises(ValueError, match="^operation implemented for spaces of rank at most 1$"):
            call()


@pytest.mark.parametrize("left, right", [
    ("Cone(Finite(1))", "Cone(Finite(2))"),
    ("Sum(Cone(Finite(1)),Finite(1))", "Cone(Finite(1))"),
    ("Sum(Cone(Finite(1)),Cone(Finite(2)))", "Sum(Cone(Finite(2)),Cone(Finite(1)))"),
])
def test_rank1_operations_refuse_sheaves_over_different_spaces(left, right):
    """Hom and Ext of two sheaves over different spaces raise SpaceMismatch,
    as `direct_sum` does, instead of pairing up parts of the two spaces."""
    A, B = constant(parse_space(left), 1), constant(parse_space(right), 1)
    for op in (hom_basis, ext1, ext1_dim, ext2_dim):
        for F, G in [(A, B), (B, A)]:
            with pytest.raises(SpaceMismatch, match="different spaces"):
                op(F, G)


# -- Hom spaces ---------------------------------------------------------------

def test_hom_basis_spans_valid_maps():
    rng = random.Random(9)
    F = random_csheaf(X1, rng, 2, 1)
    G = random_csheaf(X1, rng, 2, 1)
    for m in hom_basis(F, G):
        from stonesheaf.sheaf import check_sheaf_map
        assert check_sheaf_map(m)


def test_hom_constant_to_constant():
    # maps of constant sheaves are scalars
    basis = hom_basis(constant(X1, 1), constant(X1, 1))
    assert len(basis) == 1


def test_hom_constant_to_skyscraper():
    # evaluation at the limit point is the only map
    basis = hom_basis(constant(X1, 1), skyscraper(X1, apex_point(), 1))
    assert len(basis) == 1


def test_no_maps_from_skyscraper_to_floor():
    basis = hom_basis(skyscraper(X1, apex_point(), 1), floor_sheaf())
    assert basis == []


def test_injective_resolution_display_is_flagged():
    from stonesheaf.homalg import injective_resolution_display
    doc = injective_resolution_display(constant(X1, 1))
    assert doc["non_constructible"] is True
    assert doc["limit_stalk_dim"] == 1


def test_injective_resolution_display_over_unions():
    from stonesheaf.homalg import injective_resolution_display
    from stonesheaf.space import Sum
    doc = injective_resolution_display(constant(Sum(Finite(2), X1), 3))
    assert doc["limit_stalk_dim"] == [3] and doc["generic_point_stalk_dims"] == [[3]]
    doc = injective_resolution_display(constant(Sum(Finite(1), Finite(2)), 1))
    assert doc["limit_stalk_dim"] is None and doc["generic_point_stalk_dims"] is None
    with pytest.raises(ValueError):
        injective_resolution_display(constant(Sum(Cone(X1), Finite(1)), 1))


def test_ext_over_a_union():
    from stonesheaf.sheaf import make_sum_sheaf
    from stonesheaf.space import Sum
    s = Sum(X1, X1)
    A = make_sum_sheaf(s, skyscraper(X1, apex_point(), 1),
                       skyscraper(X1, apex_point(), 1))
    B = make_sum_sheaf(s, floor_sheaf(), floor_sheaf())
    classes, reps = ext1(A, B)
    assert classes.dim == 2
    for r in reps:
        split, _ = is_split(r)
        assert not split
    assert ext2_dim(A, B) == 0


EXT_SPACES = ["Cone(Finite(1))", "Cone(Sum(Finite(2),Finite(1)))",
              "Sum(Cone(Finite(1)),Finite(2))"]


def test_ext1_dim_counts_the_realized_classes():
    """`ext1_dim` counts the classes that `ext1` realizes, one extension of
    A by B each, on 90 seeded pairs, 19 of which have nonzero Ext^1."""
    nonzero = 0
    for expr in EXT_SPACES:
        space = parse_space(expr)
        for seed in range(30):
            rng = random.Random(seed)
            A, B = random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1)
            classes, reps = ext1(A, B)
            assert ext1_dim(A, B) == classes.dim == len(reps), (expr, seed)
            assert all(s.sub == B and s.quo == A for s in reps), (expr, seed)
            nonzero += classes.dim > 0
    assert nonzero == 19
