"""The cocycle samplers against the dense kernel-basis reference.

`adelic._sample_cocycle` reads its sample off the RREF of the
differential, one sparse matrix per degree for every space, a root `Sum`
too, laid out like the cube's stalk complex: one signed block per target
flag and face, the cube map on the source flag's coordinates, each decoded
once.  The reference below is the dense path it replaced: the canonical
kernel basis of the whole probed matrix, by the free-column loop of
`reference_kernel_basis` (`tests/test_stalkwise_oracle.py`) over the
test-local dense elimination `dense_rref`
(`tests/test_sparse_rref_properties.py`), combined with one kernel draw
per basis vector.  RREF is unique and the
arithmetic is exact, so both must give the same cochain, and use the same
draws, for the same seed.  The root sums below, and the hypothesis-drawn
ones, check the one matrix on a `Sum`, for both leaf algebras, against the
dense whole-cochain reference.

The reference probes the whole cochain: each unit vector is decoded over
every flag and sent through `_differential`, which the library's sampler
does not call, with `PlainLeaves` in place of the rational leaves: plain
`operator.add`/`operator.sub`, which skip no zero, so the probed matrices
share neither the library's layout nor its leaf arithmetic.
"""

import operator
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from stonesheaf.adelic import (  # noqa: E402
    ONE, RATIONAL, ZERO, RationalLeaves, _canon, _coords_from_data, _data_from_coords,
    _differential, _kernel_rref, _slots, build_complex, random_cocycle, random_rat)
from stonesheaf.catalog import o2_dihedral_block  # noqa: E402
from stonesheaf.linalg import LinMap, VectQ  # noqa: E402
from stonesheaf.space import Sum, cb_rank, parse_space  # noqa: E402
from stonesheaf.weyl import (  # noqa: E402
    GroupError, eq_random_cocycle, equivariant_adelic, trivial_structure)

from test_level_oracle import SEEDED_SPACES, draw_structure  # noqa: E402
from test_space_properties import spaces  # noqa: E402
from test_sparse_rref_properties import dense_rref  # noqa: E402
from test_stalkwise_oracle import reference_kernel_basis  # noqa: E402

# root sums with unequal summand ranks, rank-0 summands and a nested sum:
# degree 0 is the top degree of Finite(2) and degree 1 that of
# Cone(Finite(2)), but neither is the top degree of its whole space
ROOT_SUMS = ["Sum(Cone(Cone(Finite(1))),Finite(2))",
             "Sum(Cone(Finite(1)),Sum(Finite(1),Cone(Finite(2))))",
             "Sum(Cone(Finite(2)),Cone(Cone(Finite(1))))",
             "Sum(Finite(2),Sum(Cone(Finite(1)),Finite(1)))"]


class PlainLeaves(RationalLeaves):
    """Rational leaves added and subtracted by `operator.add`/`operator.sub`."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)


PLAIN = PlainLeaves()


def _decode(cx, degree, exc_bound, values):
    L, cs, space = cx.leaves, cx.cs, cx.space
    out, pos = {}, 0
    for A in cx.flags(degree):
        out[A], pos = _data_from_coords(L, space, A, cs, exc_bound, values, pos)
    return out


def probed_columns(cx, degree, exc_bound):
    """The columns of d on the whole coordinate basis, one probe each, and
    the target dimension (degree below the rank); rational leaves are
    probed as `PlainLeaves`."""
    L, cs, space = cx.leaves, cx.cs, cx.space
    if L is RATIONAL:
        L = PLAIN
    n = sum(_slots(L, space, A, cs, exc_bound) for A in cx.flags(degree))
    targets = cx.flags(degree + 1)
    cols = []
    for i in range(n):
        image = _differential(L, space, cs, degree, _decode(
            cx, degree, exc_bound, tuple(ONE if j == i else ZERO for j in range(n))))
        flat = []
        for B in targets:
            _coords_from_data(L, space, B, exc_bound, image[B], flat)
        cols.append(tuple(flat))
    return cols, sum(_slots(L, space, B, cs, exc_bound) for B in targets)


def reference_sample(cx, degree, rng, exc_bound, free_draw, kernel_draw) -> dict:
    """A seeded cocycle by the dense path: kernel basis, then Σ draw·b."""
    L, cs, space = cx.leaves, cx.cs, cx.space
    n = sum(_slots(L, space, A, cs, exc_bound) for A in cx.flags(degree))
    if degree < cx.rank:
        cols, m = probed_columns(cx, degree, exc_bound)
        basis = reference_kernel_basis(
            LinMap.from_cols(VectQ.make(n, "c"), VectQ.make(m, "d"), cols))
        values = [ZERO] * n
        for b in basis:
            c = kernel_draw(rng)
            values = [v + c * x for v, x in zip(values, b)]
    else:
        values = [free_draw(rng) for _ in range(n)]
    return {A: L.element(space, A, cs, _canon(L, space, A, cs, data))
            for A, data in _decode(cx, degree, exc_bound, tuple(values)).items()}


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
@example(parse_space("Sum(Cone(Cone(Finite(1))),Finite(2))"), 3)
@example(parse_space("Sum(Cone(Finite(2)),Cone(Cone(Finite(1))))"), 7)
@example(parse_space("Sum(Cone(Finite(1)),Sum(Finite(1),Cone(Finite(2))))"), 13)
@example(parse_space("Sum(Cone(Cone(Cone(Finite(1)))),Cone(Finite(1)))"), 17)
def test_random_cocycle_matches_dense_reference(space, seed):
    cx = build_complex(space)
    for degree in range(cx.rank + 1):
        assert_same_sample(cx, degree, seed + degree, random_cocycle, random_rat, random_rat)


@pytest.mark.parametrize("exc_bound", [0, 3])
@pytest.mark.parametrize("expr", ROOT_SUMS)
def test_random_cocycle_on_root_sums_matches_dense_reference(expr, exc_bound):
    cx = build_complex(parse_space(expr))
    for degree in range(cx.rank + 1):
        for seed in range(2):
            assert_same_sample(cx, degree, 60 + seed, random_cocycle, random_rat, random_rat,
                               exc_bound=exc_bound)


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


def assert_whole_rref(cx, exc_bound):
    """`_kernel_rref`, one matrix on a root sum too, is the RREF of the
    whole probed matrix: the same pivots in order, and the same entries."""
    for degree in range(cx.rank):
        cols, m = probed_columns(cx, degree, exc_bound)
        n = len(cols)
        red, pivots = dense_rref([[col[i] for col in cols] for i in range(m)])
        want = [[(j, row[j]) for j in range(p + 1, n) if row[j]] for row, p in zip(red, pivots)]
        assert _kernel_rref(cx.leaves, cx.space, cx.cs, degree, exc_bound) == (want, pivots, n)


@pytest.mark.parametrize("exc_bound", [0, 2])
@pytest.mark.parametrize("expr", ROOT_SUMS)
def test_kernel_rref_of_a_root_sum_is_the_whole_rref(expr, exc_bound):
    assert_whole_rref(build_complex(parse_space(expr)), exc_bound)


def _root_sum_structures():
    """The seeded `draw_structure`s over the root sums of `SEEDED_SPACES`
    (seeds 0-39, level-uniform and free) that `equivariant_adelic` accepts."""
    out = []
    for expr in SEEDED_SPACES:
        space = parse_space(expr)
        if not isinstance(space, Sum):
            continue
        for seed in range(40):
            for free in (False, True):
                cs = draw_structure(space, random.Random(seed), free=free)
                try:
                    out.append((f"{expr} #{seed}{' free' if free else ''}",
                                equivariant_adelic(space, cs)))
                except GroupError:
                    pass
    return out


ROOT_SUM_COMPLEXES = _root_sum_structures()


def test_root_sum_structures_are_found():
    assert len(ROOT_SUM_COMPLEXES) >= 5


@pytest.mark.parametrize("name, cx", ROOT_SUM_COMPLEXES, ids=[n for n, _ in ROOT_SUM_COMPLEXES])
def test_eq_random_cocycle_root_sum_structures_match_dense_reference(name, cx):
    for degree in range(cx.rank + 1):
        for seed in range(2):
            assert_same_sample(cx, degree, 70 + seed, eq_random_cocycle,
                               eq_free_draw, eq_kernel_draw)
    assert_whole_rref(cx, 2)
