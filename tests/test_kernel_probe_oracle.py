"""The sampler's kernel RREF against the whole-cochain probe.

`adelic._kernel_rref` is the RREF of d on the bounded-exception cochains,
one sparse matrix per degree for every space, a root `Sum` too.  It lays d
out like the cube's stalk complex: each face of a target flag B, the
cube map into B[k] from B minus B[k], is one block with sign (-1)^k, and
`adelic._face_maps` gives every block out of a source flag from one decode
of it, for both leaf algebras: each coordinate is a linear form in the
source coordinates, which the leaf algebra's own cube map carries, and row
i of a block is the form of the target's coordinate i.  The library adds
the signed forms into sparse rows and reduces them with `sparse_rref`.

`reference_face_block` builds one block by unit decode: each coordinate of
the source flag decoded into a whole data tree, all zero but one leaf, sent
through the cube map and encoded, one `LinMap.from_cols` column per
coordinate, scaled by -1 on odd faces.  Every (B, k) block of `_face_maps`,
its forms expanded to a dense block and negated when k is odd
(`dense_block`), must equal it by `repr`, and no form may hold a zero, on
the rational spaces, on both blocks and on the seeded family, whose faces
spread group-ring leaves through different germ components at different
nodes; and the reference blocks laid out by `block_map` and reduced by the
dense `rref` must equal `_kernel_rref`.  The whole-cochain reference below
builds each column of the whole matrix from the whole cochain: the unit
vector is decoded over every flag (`_decode`), sent through `_differential`
over every target flag and every face, and written back by
`_coords_from_data` over every target, one `LinMap.of` column per
coordinate.  On a root `Sum` it checks the library's one matrix, whose
parts keep their own leaf sizes, against the whole cochain.  RREF is unique and the arithmetic is exact, so the
library must agree with it by `repr`, which also compares the types of the
entries.  The library does not apply `_differential` to sample: with it
patched to raise, both samplers still draw cocycles, which the unpatched
`is_cocycle` accepts.

Rational inputs are spaces of rank 0-3 (root sums and sums inside cones
among them) with exception bounds 0-3, in every degree from -1 to rank - 1;
`tests/test_adelic_properties.py` runs the whole-cochain reference on
hypothesis-drawn spaces of rank 1-3 as well.
Group-ring inputs are `o2_dihedral_block(4)`, `t2_block()` and the seeded
`draw_structure` family, with exception bounds 0-2 and 1-2, in every
degree from 0 to rank - 1.
"""

import random

import pytest

from stonesheaf import adelic
from stonesheaf.adelic import (
    RATIONAL, _coords_from_data, _data_from_coords, _decode, _differential, _dmap_leaves,
    _kernel_rref, _slots, build_complex, flags_of_size, random_cocycle)
from stonesheaf.catalog import o2_dihedral_block, t2_block
from stonesheaf.linalg import ZERO, LinMap, VectQ, block_map, rref
from stonesheaf.space import cb_rank, parse_space
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
    cochain and the whole matrix reduced at once, a Sum included."""
    r = cb_rank(space)
    flags = [()] if degree == -1 else flags_of_size(r, degree + 1)
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


def reference_face_block(L, space, cs, B, k, exc_bound):
    """The block of d at (B, B minus B[k]) by unit decode: each coordinate of
    the source flag decoded into a whole data tree, all zero but one leaf,
    sent through the cube map into B[k] and encoded over B, one column per
    coordinate, negated when k is odd."""
    A = B[:k] + B[k + 1:]
    source, target = (VectQ.make(_slots(L, space, F, cs, exc_bound)) for F in (A, B))
    cols = []
    for i in range(source.dim):
        unit = _data_from_coords(L, space, A, cs, exc_bound, source.basis_vec(i), 0)[0]
        cols.append([])
        _coords_from_data(L, space, B, exc_bound, _dmap_leaves(L, space, A, cs, B[k], unit),
                          cols[-1])
    block = LinMap.from_cols(source, target, cols)
    return block.scale(-1) if k % 2 else block


def sources(space, degree):
    """The flags of d's source degree."""
    return [()] if degree == -1 else flags_of_size(cb_rank(space), degree + 1)


def faces(space, degree):
    """(B, k) for every target flag B of d from degree and every face k of B."""
    return [(B, k) for B in flags_of_size(cb_rank(space), degree + 2) for k in range(len(B))]


def assert_matches_reference(L, space, cs, degrees, exc_bound):
    for degree in degrees:
        got = _kernel_rref(L, space, cs, degree, exc_bound)
        assert repr(got) == repr(reference_kernel_rref(L, space, cs, degree, exc_bound)), degree


@pytest.mark.parametrize("exc_bound", [0, 1, 2, 3])
@pytest.mark.parametrize("expr", RATIONAL_SPACES)
def test_rational_kernel_rref_matches_the_whole_cochain_probe(expr, exc_bound):
    space = parse_space(expr)
    assert_matches_reference(RATIONAL, space, None, range(-1, cb_rank(space)), exc_bound)


@pytest.mark.parametrize("exc_bound", [0, 1, 2, 3])
@pytest.mark.parametrize("expr", RATIONAL_SPACES)
def test_the_unit_decode_blocks_laid_out_give_the_kernel_rref(expr, exc_bound):
    space = parse_space(expr)
    for degree in range(-1, cb_rank(space)):
        n_at = {A: _slots(RATIONAL, space, A, None, exc_bound) for A in sources(space, degree)}
        m_at = {B: _slots(RATIONAL, space, B, None, exc_bound) for B, _k in faces(space, degree)}
        blocks = [(B, B[:k] + B[k + 1:], reference_face_block(RATIONAL, space, None, B, k, exc_bound))
                  for B, k in faces(space, degree)]
        n = sum(n_at.values())
        red, pivots = rref(block_map(VectQ.make(n), VectQ.make(sum(m_at.values())),
                                     m_at, n_at, blocks).matrix)
        rows = [[(j, row[j]) for j in range(p + 1, n) if row[j]] for row, p in zip(red, pivots)]
        assert repr(_kernel_rref(RATIONAL, space, None, degree, exc_bound)) == repr(
            (rows, pivots, n)), degree


def dense_block(forms, n, k):
    """The `LinMap` of a block of `adelic._face_maps` given as the forms of
    the target's coordinates in n source coordinates: row i holds the
    entries of form i, zero elsewhere, negated when k is odd."""
    rows = [[ZERO] * n for _ in forms]
    for row, form in zip(rows, forms):
        for j, x in (form or {}).items():
            row[j] = -x if k % 2 else x
    return LinMap(VectQ.make(n), VectQ.make(len(forms)), tuple(map(tuple, rows)))


def assert_face_blocks_match_the_unit_decode(L, space, cs, degrees, exc_bound):
    """Each face block of `adelic._face_maps`, expanded to a dense signed
    block, equals `reference_face_block` by `repr`; no form holds a zero."""
    for degree in degrees:
        n_at = {A: _slots(L, space, A, cs, exc_bound) for A in sources(space, degree)}
        maps = {A: adelic._face_maps(L, space, cs, A, exc_bound, n) for A, n in n_at.items()}
        for B, k in faces(space, degree):
            A = B[:k] + B[k + 1:]
            forms = maps[A](B, k)
            assert all(x for form in forms for x in (form or {}).values()), (degree, B, k)
            got = dense_block(forms, n_at[A], k)
            assert repr(got) == repr(reference_face_block(L, space, cs, B, k, exc_bound)), (
                degree, B, k)


@pytest.mark.parametrize("exc_bound", [0, 1, 2, 3])
@pytest.mark.parametrize("expr", RATIONAL_SPACES)
def test_rational_face_blocks_match_the_unit_decode(expr, exc_bound):
    space = parse_space(expr)
    assert_face_blocks_match_the_unit_decode(RATIONAL, space, None, range(-1, cb_rank(space)),
                                             exc_bound)


@pytest.mark.parametrize("exc_bound", [0, 1, 2])
@pytest.mark.parametrize("block", ["o2_dihedral_block(4)", "t2_block()"])
def test_group_ring_face_blocks_match_the_unit_decode(block, exc_bound):
    space, cs = o2_dihedral_block(4)[::2] if block.startswith("o2") else t2_block()[:3:2]
    cx = equivariant_adelic(space, cs)
    assert_face_blocks_match_the_unit_decode(cx.leaves, space, cs, range(cx.rank), exc_bound)


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


@pytest.mark.parametrize("name, cx", FAMILY, ids=[n for n, _ in FAMILY])
def test_family_face_blocks_match_the_unit_decode(name, cx):
    for exc_bound in (1, 2):
        assert_face_blocks_match_the_unit_decode(cx.leaves, cx.space, cx.cs, range(cx.rank),
                                                 exc_bound)


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
