"""The sampler's kernel RREF against the whole-cochain probe.

`adelic._kernel_rref` is the RREF of d on the bounded-exception cochains,
reduced one root summand at a time.  It probes d one source flag at a time:
a coordinate at a flag A is decoded on A's slots alone and taken by one cube
map into each coface of A.  The reference below builds each column of that
matrix from the whole cochain: the unit vector is decoded over every
flag (`_decode`), sent through `_differential` over every target flag and
every face, and written back by `_coords_from_data` over every target, one
`LinMap.of` column per coordinate; a `Sum` is split into its parts as the
library splits it.  RREF is unique and the arithmetic is exact, so the
library must agree with it by `repr`, which also compares the types of the
entries.  The library does not apply `_differential` to sample: with it
patched to raise, both samplers still draw cocycles, which the unpatched
`is_cocycle` accepts.

Rational inputs are spaces of rank 0-3 (root sums and sums inside cones
among them) with exception bounds 0-3, in every degree from -1 to rank - 1.
Group-ring inputs are `o2_dihedral_block(4)`, `t2_block()` and the seeded
`draw_structure` family, with exception bounds 0-2 and 1-2, in every
degree from 0 to rank - 1.
"""

import random

import pytest

from stonesheaf import adelic
from stonesheaf.adelic import (
    RATIONAL, _coords_from_data, _decode, _differential, _kernel_rref, _slots,
    build_complex, flags_of_size, random_cocycle)
from stonesheaf.catalog import o2_dihedral_block, t2_block
from stonesheaf.linalg import LinMap, VectQ, rref
from stonesheaf.space import Sum, cb_rank, parse_space
from stonesheaf.weyl import GroupError, eq_random_cocycle, equivariant_adelic

from test_level_oracle import SEEDED_SPACES, draw_structure

RATIONAL_SPACES = ["Finite(2)", "Cone(Finite(1))", "Cone(Finite(3))", "Cone(Cone(Finite(1)))",
                   "Cone(Sum(Finite(2),Finite(1)))", "Cone(Sum(Cone(Finite(1)),Finite(2)))",
                   "Cone(Cone(Cone(Finite(1))))", "Cone(Cone(Sum(Finite(1),Cone(Finite(1)))))",
                   "Sum(Cone(Cone(Finite(1))),Finite(2))",
                   "Sum(Cone(Finite(1)),Sum(Finite(1),Cone(Finite(2))))",
                   "Sum(Cone(Finite(2)),Cone(Cone(Finite(1))))",
                   "Sum(Cone(Cone(Cone(Finite(1)))),Cone(Sum(Finite(1),Finite(1))))"]


def reference_kernel_rref(L, space, cs, degree, exc_bound):
    """(rows, pivots, n) of d from degree, each column probed on the whole
    cochain; a Sum's parts are reduced on their own and merged by pivot."""
    r = cb_rank(space)
    flags = [()] if degree == -1 else flags_of_size(r, degree + 1)
    if isinstance(space, Sum) and r > degree:
        parts = tuple(zip((space.left, space.right), L.sum_parts(cs)))
        cols, n = ([], []), 0
        for A in flags:
            for (part, pcs), col in zip(parts, cols):
                k = _slots(L, part, A, pcs, exc_bound)
                col.extend(range(n, n + k))
                n += k
        merged = []
        for (part, pcs), col in zip(parts, cols):
            rows, pivots, _n = reference_kernel_rref(L, part, pcs, degree, exc_bound)
            merged += [(col[p], [(col[j], x) for j, x in row]) for row, p in zip(rows, pivots)]
        merged.sort(key=lambda pr: pr[0])
        return [row for _p, row in merged], [p for p, _row in merged], n
    n = sum(_slots(L, space, A, cs, exc_bound) for A in flags)
    if r <= degree:
        return [], [], n
    targets = flags_of_size(r, degree + 2)
    m = sum(_slots(L, space, B, cs, exc_bound) for B in targets)

    def d(unit):
        image = _differential(L, space, cs, degree, _decode(L, space, cs, flags, exc_bound, unit))
        flat = []
        for B in targets:
            _coords_from_data(L, space, B, exc_bound, image[B], flat)
        return flat
    red, pivots = rref(LinMap.of(VectQ.make(n), VectQ.make(m), d).matrix)
    return [[(j, row[j]) for j in range(p + 1, n) if row[j]]
            for row, p in zip(red, pivots)], pivots, n


def assert_matches_reference(L, space, cs, degrees, exc_bound):
    for degree in degrees:
        got = _kernel_rref(L, space, cs, degree, exc_bound)
        assert repr(got) == repr(reference_kernel_rref(L, space, cs, degree, exc_bound)), degree


@pytest.mark.parametrize("exc_bound", [0, 1, 2, 3])
@pytest.mark.parametrize("expr", RATIONAL_SPACES)
def test_rational_kernel_rref_matches_the_whole_cochain_probe(expr, exc_bound):
    space = parse_space(expr)
    assert_matches_reference(RATIONAL, space, None, range(-1, cb_rank(space)), exc_bound)


@pytest.mark.parametrize("exc_bound", [0, 1, 2])
@pytest.mark.parametrize("block", ["o2_dihedral_block(4)", "t2_block()"])
def test_block_kernel_rref_matches_the_whole_cochain_probe(block, exc_bound):
    space, cs = o2_dihedral_block(4)[::2] if block.startswith("o2") else t2_block()[:3:2]
    cx = equivariant_adelic(space, cs)
    assert_matches_reference(cx.leaves, space, cs, range(cx.rank), exc_bound)


def _family(per_space=3):
    """Per space of `SEEDED_SPACES`, the first seeded `draw_structure`s
    (seeds 0-39, level-uniform, then free) that `equivariant_adelic` accepts."""
    out = []
    for expr in SEEDED_SPACES:
        space, found = parse_space(expr), []
        for seed in range(40):
            for free in (False, True):
                cs = draw_structure(space, random.Random(seed), free=free)
                try:
                    found.append((f"{expr} #{seed}{' free' if free else ''}",
                                  equivariant_adelic(space, cs)))
                except GroupError:
                    pass
        out += found[:per_space]
    return out


FAMILY = _family()


def test_the_family_is_found():
    # one space of the family, Sum(Cone(Finite(1)),Cone(Cone(Finite(1)))), admits none
    assert len({name.split(" #")[0] for name, _cx in FAMILY}) == len(SEEDED_SPACES) - 1
    assert len(FAMILY) == 24


@pytest.mark.parametrize("name, cx", FAMILY, ids=[n for n, _ in FAMILY])
def test_family_kernel_rref_matches_the_whole_cochain_probe(name, cx):
    for exc_bound in (1, 2):
        assert_matches_reference(cx.leaves, cx.space, cx.cs, range(cx.rank), exc_bound)


def test_the_samplers_do_not_apply_the_differential(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the sampler applied _differential")
    cx = build_complex(parse_space("Cone(Sum(Finite(2),Cone(Finite(1))))"))
    eq = equivariant_adelic(*o2_dihedral_block(4)[::2])
    with monkeypatch.context() as patch:
        patch.setattr(adelic, "_differential", refuse)
        samples = [(cx, degree, random_cocycle(cx, degree, random.Random(degree)))
                   for degree in range(cx.rank)]
        samples += [(eq, degree, eq_random_cocycle(eq, degree, random.Random(degree)))
                    for degree in range(eq.rank)]
        with pytest.raises(AssertionError, match="applied _differential"):
            cx.is_cocycle(samples[0][2], 0)
    assert all(c.is_cocycle(cocycle, degree) for c, degree, cocycle in samples)
