"""The cocycle samplers against the dense kernel-basis reference.

`adelic._sample_cocycle` reads its sample off one RREF of the probed
differential.  The reference below is the dense path it replaced: the
canonical kernel basis of the same probed matrix,
`kernel_basis(LinMap.from_cols(...))`, combined with one kernel draw per
basis vector.  RREF is unique and the arithmetic is exact, so both must
give the same cochain, and use the same draws, for the same seed.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from stonesheaf.adelic import (  # noqa: E402
    ONE, ZERO, _canon, _coords_from_data, _data_from_coords, _differential, _slots,
    build_complex, random_cocycle, random_rat)
from stonesheaf.catalog import o2_dihedral_block  # noqa: E402
from stonesheaf.linalg import LinMap, VectQ, kernel_basis  # noqa: E402
from stonesheaf.space import cb_rank, parse_space  # noqa: E402
from stonesheaf.weyl import eq_random_cocycle, equivariant_adelic, trivial_structure  # noqa: E402

from test_space_properties import spaces  # noqa: E402


def reference_sample(cx, degree, rng, exc_bound, free_draw, kernel_draw) -> dict:
    """A seeded cocycle by the dense path: kernel basis, then Σ draw·b."""
    L, cs, space, flags = cx.leaves, cx.cs, cx.space, cx.flags(degree)

    def decode(values):
        out, pos = {}, 0
        for A in flags:
            out[A], pos = _data_from_coords(L, space, A, cs, exc_bound, values, pos)
        return out

    n = sum(_slots(L, space, A, cs, exc_bound) for A in flags)
    if degree < cx.rank:
        targets = cx.flags(degree + 1)
        cols = []
        for i in range(n):
            image = _differential(L, space, cs, degree,
                                  decode(tuple(ONE if j == i else ZERO for j in range(n))))
            flat = []
            for B in targets:
                _coords_from_data(L, space, B, exc_bound, image[B], flat)
            cols.append(tuple(flat))
        m = sum(_slots(L, space, B, cs, exc_bound) for B in targets)
        basis = kernel_basis(LinMap.from_cols(VectQ.make(n, "c"), VectQ.make(m, "d"), cols))
        values = [ZERO] * n
        for b in basis:
            c = kernel_draw(rng)
            values = [v + c * x for v, x in zip(values, b)]
    else:
        values = [free_draw(rng) for _ in range(n)]
    return {A: L.element(space, A, cs, _canon(L, space, A, cs, data))
            for A, data in decode(tuple(values)).items()}


def eq_free_draw(r):
    return Fraction(r.randint(-4, 4))


def eq_kernel_draw(r):
    return Fraction(r.randint(-3, 3))


def assert_same_sample(cx, degree, seed, sampler, free_draw, kernel_draw, exc_bound=2):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = sampler(cx, degree, rng, exc_bound=exc_bound)
    want = reference_sample(cx, degree, ref_rng, exc_bound, free_draw, kernel_draw)
    assert repr(got) == repr(want)
    assert rng.getstate() == ref_rng.getstate()


# rank and size are capped so that the dense reference stays quick; the
# strategy seldom nests three cones, so rank 3 is also given explicitly
small_spaces = spaces.filter(lambda s: cb_rank(s) <= 3 and len(str(s)) <= 40)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_spaces, st.integers(min_value=0, max_value=2**16))
@example(parse_space("Cone(Cone(Cone(Finite(1))))"), 5)
@example(parse_space("Cone(Sum(Finite(2),Cone(Cone(Finite(1)))))"), 11)
def test_random_cocycle_matches_dense_reference(space, seed):
    cx = build_complex(space)
    for degree in range(cx.rank + 1):
        assert_same_sample(cx, degree, seed + degree, random_cocycle, random_rat, random_rat)


@pytest.mark.parametrize("expr", ["Finite(3)", "Cone(Finite(1))", "Cone(Cone(Finite(1)))",
                                  "Cone(Sum(Finite(2),Finite(1)))"])
def test_eq_random_cocycle_trivial_structure_matches_dense_reference(expr):
    space = parse_space(expr)
    cx = equivariant_adelic(space, trivial_structure(space))
    for degree in range(cx.rank + 1):
        for seed in range(3):
            assert_same_sample(cx, degree, seed, eq_random_cocycle, eq_free_draw, eq_kernel_draw)


def test_eq_random_cocycle_dihedral_block_matches_dense_reference():
    space, _labels, cs = o2_dihedral_block(6)
    cx = equivariant_adelic(space, cs)
    for degree in range(cx.rank + 1):
        for seed in range(3):
            assert_same_sample(cx, degree, 40 + seed, eq_random_cocycle,
                               eq_free_draw, eq_kernel_draw)
