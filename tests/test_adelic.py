import random
from fractions import Fraction

import pytest

from stonesheaf.space import (
    Cone, Finite, apex_point, copy_point, fin_point, meet, nbhd_basis,
    parse_space, singleton, complement)
from stonesheaf.adelic import (
    CFun, _Form, all_flags, build_complex, dmap, indicator, random_cfun,
    random_cocycle)
from stonesheaf.linalg import ONE, ZERO, LinMap, VectQ

X1 = Cone(Finite(1))
X2 = Cone(Cone(Finite(1)))


def seq(exc, tail):
    """Eventually constant sequence over the compactified line, flag (0,)."""
    return CFun(X1, (0,), ("cone", {k: (Fraction(v),) for k, v in exc.items()},
                           Fraction(tail)))


# -- ring operations ---------------------------------------------------------

def test_idempotent_product():
    u = nbhd_basis(X1, apex_point(), 2)
    v = singleton(X1, copy_point(3, fin_point(0)))
    for flag in [(0,), (1,), (1, 0)]:
        eu, ev = indicator(X1, flag, u), indicator(X1, flag, v)
        assert eu * ev == indicator(X1, flag, meet(X1, u, v))


def test_unit_is_neutral():
    rng = random.Random(1)
    for flag in all_flags(1):
        f = random_cfun(X1, flag, rng)
        assert CFun.unit(X1, flag) * f == f


def test_eventually_constant_addition():
    f = seq({0: 1, 1: 1}, 2)     # 1,1,2,2,2,...
    g = seq({1: 1}, 0)           # 0,1,0,0,...
    assert f + g == seq({0: 1}, 2)   # 1,2,2,2,...


# -- cube maps ----------------------------------------------------------------

def test_dmap_evaluation_at_limit():
    f = seq({0: 1, 1: 1}, 2)
    lifted = dmap(1, CFun(X1, (), f.data))
    assert lifted.flag == (1,)
    assert lifted.data == Fraction(2)


def test_dmap_inclusion_of_constants():
    f = CFun(X1, (), seq({2: 7}, 3).data)
    incl = dmap(0, f)
    assert incl.flag == (0,)
    assert incl.data == seq({2: 7}, 3).data


def test_dmap_diagonal_spread():
    v = CFun(X1, (1,), Fraction(5))
    spread = dmap(0, v)
    assert spread.flag == (1, 0)
    assert spread.data == Fraction(5)


def test_dmap_is_ring_map():
    rng = random.Random(3)
    for space in [X1, X2]:
        r = build_complex(space).rank
        for flag in [()] + all_flags(r):
            for b in range(r + 1):
                if b in flag or len(flag) == r + 1:
                    continue
                f, g = random_cfun(space, flag, rng), random_cfun(space, flag, rng)
                assert dmap(b, f * g) == dmap(b, f) * dmap(b, g)
                assert dmap(b, f + g) == dmap(b, f) + dmap(b, g)


# -- the complex --------------------------------------------------------------

def test_rank1_square():
    cx = build_complex(X1)
    assert cx.flags(0) == [(1,), (0,)]
    assert cx.flags(1) == [(1, 0)]


def test_rank2_seven_flags():
    cx = build_complex(X2)
    assert sum(len(cx.flags(d)) for d in range(0, 3)) == 7


def test_rank0_augmentation_iso():
    s = Finite(3)
    cx = build_complex(s)
    assert cx.flags(0) == [(0,)]
    f = CFun(s, (), (Fraction(1), Fraction(2), Fraction(3)))
    image = cx.differential({(): f}, -1)
    assert image[(0,)].data == f.data
    back = cx.exactness_witness(image, 0)
    assert back[()].data == f.data


def test_cocycle_of_global_functions():
    cx = build_complex(X1)
    rng = random.Random(5)
    f = random_cfun(X1, (), rng)
    c0 = cx.differential({(): f}, -1)
    assert cx.is_cocycle(c0, 0)


def test_non_cocycle_mismatch():
    cx = build_complex(X1)
    c0 = {(0,): seq({}, 2), (1,): CFun(X1, (1,), Fraction(3))}
    assert not cx.is_cocycle(c0, 0)


def test_zero_is_cocycle():
    cx = build_complex(X1)
    assert cx.is_cocycle(cx.zero_cochain(0), 0)


# -- witnesses ----------------------------------------------------------------

def test_witness_degree0_rank1():
    cx = build_complex(X1)
    z = {(0,): seq({0: 1, 1: 1}, 2), (1,): CFun(X1, (1,), Fraction(2))}
    assert cx.is_cocycle(z, 0)
    w = cx.exactness_witness(z, 0)
    assert w[()].data == seq({0: 1, 1: 1}, 2).data  # the global function itself


def test_witness_top_degree_rank1():
    cx = build_complex(X1)
    z = {(1, 0): CFun(X1, (1, 0), Fraction(5))}
    w = cx.exactness_witness(z, 1)
    assert w[(0,)] == CFun.scalar(X1, (0,), 5)   # the constant sequence
    assert w[(1,)] == CFun.zero(X1, (1,))


def test_witness_rank2_random():
    cx = build_complex(X2)
    rng = random.Random(7)
    for deg in range(0, 3):
        for _ in range(10):
            z = random_cocycle(cx, deg, rng)
            w = cx.exactness_witness(z, deg)   # verifies d(w) = z internally


def test_random_cocycle_takes_exactly_the_degrees_of_the_complex():
    cx = build_complex(X2)
    for deg in (-1, cx.rank):
        assert cx.is_cocycle(random_cocycle(cx, deg, random.Random(deg)), deg)
    for deg in (-2, cx.rank + 1):
        with pytest.raises(ValueError, match=f"degree {deg} is outside"):
            random_cocycle(cx, deg, random.Random(0))


def test_random_cocycle_refuses_a_negative_exception_bound():
    cx = build_complex(X2)
    for deg in (-1, 0, cx.rank):
        with pytest.raises(ValueError, match="exception bound -1 is negative"):
            random_cocycle(cx, deg, random.Random(0), exc_bound=-1)
    assert cx.is_cocycle(random_cocycle(cx, 0, random.Random(0), exc_bound=0), 0)


def test_witness_rejects_non_cocycle():
    cx = build_complex(X1)
    bad = {(0,): seq({}, 2), (1,): CFun(X1, (1,), Fraction(3))}
    with pytest.raises(ValueError):
        cx.exactness_witness(bad, 0)


# -- invariants ---------------------------------------------------------------

def test_d_squared_zero_ranks_up_to_three():
    rng = random.Random(9)
    for expr in ["Finite(2)", "Cone(Finite(1))", "Cone(Cone(Finite(1)))",
                 "Cone(Cone(Cone(Finite(1))))", "Cone(Sum(Finite(2),Cone(Finite(1))))"]:
        space = parse_space(expr)
        cx = build_complex(space)
        for deg in range(-1, cx.rank - 1):
            coch = ({(): random_cfun(space, (), rng)} if deg == -1 else
                    {A: random_cfun(space, A, rng) for A in cx.flags(deg)})
            once = cx.differential(coch, deg)
            twice = cx.differential(once, deg + 1)
            assert all(v.is_zero() for v in twice.values()), (expr, deg)


def test_kernel_of_c0_is_image_of_augmentation():
    cx = build_complex(X1)
    rng = random.Random(11)
    for _ in range(10):
        f = random_cfun(X1, (), rng)
        z = cx.differential({(): f}, -1)
        w = cx.exactness_witness(z, 0)
        assert w[()] == f  # locally constant functions are recovered exactly


def test_localization_agrees_for_both_idempotent_families():
    # germ extraction at the limit point computed through the clopen
    # neighbourhood basis agrees with cofinite-support idempotents
    rng = random.Random(13)
    for _ in range(20):
        f = random_cfun(X1, (0,), rng)
        germ = dmap(1, f)
        n = max([k for k, _ in f.data[1].items()] + [0]) + 1
        via_clopen = indicator(X1, (0,), nbhd_basis(X1, apex_point(), n)) * f
        assert dmap(1, via_clopen) == germ
        cof = complement(X1, singleton(X1, copy_point(0, fin_point(0))))
        via_cofinite = indicator(X1, (0,), cof) * f
        assert dmap(1, via_cofinite) == germ


# -- the sampler's linear forms ----------------------------------------------

def test_a_form_holds_no_zero_when_a_sum_cancels():
    a, b = _Form({0: ONE, 1: Fraction(2)}), _Form({0: Fraction(1, 2), 2: Fraction(-3)})
    assert a + (-2) * b == {1: Fraction(2), 2: Fraction(6)}
    assert a + (-1) * a == {} and Fraction(-2) * a + 2 * a == {}
    assert ZERO * a == {} and type(ZERO * a) is _Form
    # spread as a germ spreads a leaf of forms: row 0 cancels to the empty
    # form, row 1 leaves b alone, and row 2 drops the coordinate that cancels
    germ = LinMap.from_rows(VectQ.make(3), VectQ.make(3),
                            [[2, -2, 0], [3, -3, 1], [1, 0, -2]])
    out = germ.apply((a, a, b))
    assert out == ({}, b, {1: Fraction(2), 2: Fraction(6)})
    assert all(x for form in out for x in form.values())
    assert a == {0: ONE, 1: Fraction(2)}
