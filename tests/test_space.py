import re

import pytest

from stonesheaf.space import (
    iter_points,
    Cone, Finite, Sum, MalformedPoint, ParseError, apex_point, cb_rank,
    complement, copy_point, empty_set, enumerate_finite, find_isolated,
    fin_point, full_set, height, join, meet, member, nbhd_basis,
    parse_space, set_is_finite, singleton, top_stratum, Point)

X1 = Cone(Finite(1))
X2 = Cone(Cone(Finite(1)))


def test_rank_finite():
    assert cb_rank(Finite(5)) == 0


def test_rank_compactified_line():
    assert cb_rank(X1) == 1


def test_rank_nested():
    assert cb_rank(X2) == 2


def test_rank_sum_is_max():
    assert cb_rank(Sum(Finite(1), X2)) == 2


def test_parse_round_trip():
    for text in ["Finite(3)", "Cone(Finite(1))", "Cone(Sum(Finite(2),Finite(1)))"]:
        assert str(parse_space(text)) == text


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_space("Cone(Finite(1)")
    assert err.value.pos == 14


def test_height_isolated():
    for i in range(3):
        assert height(Finite(3), fin_point(i)) == 0


def test_height_apex():
    assert height(X1, apex_point()) == 1


def test_height_nested_apex():
    p = copy_point(3, apex_point())
    assert height(X2, p) == 1
    assert height(X2, apex_point()) == 2


def test_malformed_address():
    with pytest.raises(MalformedPoint):
        height(Finite(2), fin_point(5))
    with pytest.raises(MalformedPoint):
        height(X1, Point(("copy", -1, ("fin", 0))))


def test_nbhd_isolated_singleton():
    x = copy_point(2, fin_point(0))
    for n in range(4):
        u = nbhd_basis(X1, x, n)
        assert u == singleton(X1, x)


def test_nbhd_apex_tail():
    u = nbhd_basis(X1, apex_point(), 4)
    assert member(X1, apex_point(), u)
    for k in range(4):
        assert not member(X1, copy_point(k, fin_point(0)), u)
    for k in range(4, 9):
        assert member(X1, copy_point(k, fin_point(0)), u)


def test_nbhd_nested_apex():
    x = copy_point(3, apex_point())
    u = nbhd_basis(X2, x, 2)
    assert member(X2, x, u)
    assert member(X2, copy_point(3, copy_point(5, fin_point(0))), u)
    assert not member(X2, copy_point(3, copy_point(1, fin_point(0))), u)
    assert not member(X2, copy_point(2, apex_point()), u)


def is_empty(s, u) -> bool:
    return u == empty_set(s)


def test_meet_with_complement_is_empty():
    u = nbhd_basis(X1, apex_point(), 3)
    assert is_empty(X1, meet(X1, u, complement(X1, u)))


def test_member_of_basis():
    for n in range(5):
        assert member(X1, apex_point(), nbhd_basis(X1, apex_point(), n))


def test_meet_of_tail_sets():
    u3 = nbhd_basis(X1, apex_point(), 3)
    u5 = nbhd_basis(X1, apex_point(), 5)
    assert meet(X1, u3, u5) == u5


def test_boolean_laws():
    u = nbhd_basis(X1, apex_point(), 2)
    v = singleton(X1, copy_point(1, fin_point(0)))
    assert meet(X1, u, full_set(X1)) == u
    assert join(X1, u, empty_set(X1)) == u
    assert complement(X1, complement(X1, v)) == v
    assert meet(X1, u, v) == empty_set(X1)


def test_top_stratum_apex():
    assert [str(p) for p in top_stratum(X1)] == ["Apex"]


def test_top_stratum_sum_of_cones():
    s = Sum(X1, X1)
    assert len(top_stratum(s)) == 2


def test_top_stratum_finite():
    assert len(top_stratum(Finite(3))) == 3


def test_density_of_isolated_points():
    # every nonempty clopen set contains a height-0 point
    for u in [full_set(X2), nbhd_basis(X2, apex_point(), 3),
              nbhd_basis(X2, copy_point(1, apex_point()), 2),
              singleton(X2, copy_point(0, copy_point(0, fin_point(0))))]:
        p = find_isolated(X2, u)
        assert p is not None
        assert height(X2, p) == 0
        assert member(X2, p, u)
    assert find_isolated(X2, empty_set(X2)) is None


def test_nbhd_basis_decreasing_with_singleton_intersection():
    for n in range(4):
        u, v = nbhd_basis(X1, apex_point(), n), nbhd_basis(X1, apex_point(), n + 1)
        assert meet(X1, u, v) == v  # decreasing
    # probe: any non-apex point eventually leaves the basis
    for k in range(5):
        x = copy_point(k, fin_point(0))
        assert not member(X1, x, nbhd_basis(X1, apex_point(), k + 1))


def test_strata_sizes():
    # the top stratum is finite, lower strata through a cone are infinite
    # (probe: arbitrarily large copy indices stay at height 0)
    assert len(top_stratum(X1)) == 1
    for k in [10, 100, 1000]:
        assert height(X1, copy_point(k, fin_point(0))) == 0


def test_finite_sets():
    u = singleton(X2, copy_point(2, copy_point(1, fin_point(0))))
    assert set_is_finite(X2, u)
    assert [str(p) for p in enumerate_finite(X2, u)] == ["(2,(1,0))"]
    assert not set_is_finite(X1, full_set(X1))


def test_labels_do_not_affect_equality():
    p = copy_point(1, fin_point(0), label="D_4")
    q = copy_point(1, fin_point(0))
    assert p == q
    assert str(p) == "D_4"


def test_parse_point_round_trip():
    from stonesheaf.space import parse_point
    s = parse_space("Cone(Sum(Finite(2),Cone(Finite(1))))")
    for p in iter_points(s, 2):
        assert parse_point(s, str(p)) == p


def test_parse_point_errors():
    from stonesheaf.space import parse_point
    s = parse_space("Cone(Finite(1))")
    with pytest.raises(ParseError):
        parse_point(s, "(3,0")
    with pytest.raises(ParseError):
        parse_point(s, "Apex junk")


def test_parse_point_skips_whitespace_before_every_token():
    from stonesheaf.space import parse_point
    s = parse_space("Cone(Finite(1))")
    for text in ["( 1,0)", "(1 ,0)", "(1, 0)", "(1,0 )", " ( 1 , 0 ) ", "(\t1,\n0)"]:
        assert parse_point(s, text) == parse_point(s, "(1,0)")
    s = parse_space("Cone(Sum(Finite(2),Cone(Finite(1))))")
    for p in iter_points(s, 2):
        spaced = re.sub(r"(\(|\)|,|Apex|L\.|R\.|\d+)", r" \1 ", str(p))
        assert parse_point(s, spaced) == p
    # whitespace inside a token is still refused, with the same messages
    s = parse_space("Cone(Finite(1))")
    for text, message, pos in [("( x,0)", "expected a copy index", 2),
                               ("(1 0)", "expected ',' after the copy index", 3),
                               ("(1, 0 0)", "expected ')'", 6),
                               ("(1,0) junk", "trailing input in point address", 6),
                               ("Ap ex", "expected Apex or (copy,...) for a cone", 0)]:
        with pytest.raises(ParseError) as err:
            parse_point(s, text)
        assert err.value.pos == pos and message in str(err.value)
