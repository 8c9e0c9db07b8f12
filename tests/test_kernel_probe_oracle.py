"""The sampler's kernel RREF against the whole-cochain probe.

`adelic._kernel_rref` is the RREF of d on the bounded-exception cochains,
one sparse matrix per degree for every space, a root `Sum` too.  It lays d
out like the cube's stalk complex: each face of a target flag B, the
cube map into B[k] from B minus B[k], is one block with sign (-1)^k.  It
decodes the whole source degree once, each coordinate a linear form that
names its own column, which the leaf algebra's own cube map carries; the
target's coordinates are then its rows' entries on that face.  The library
writes the signed forms into sparse rows and reduces them with
`sparse_rref`.

`reference_face_block` builds one block by unit decode: each coordinate of
the source flag decoded into a whole data tree, all zero but one leaf, sent
through the cube map and encoded, one `LinMap.from_cols` column per
coordinate, scaled by -1 on odd faces.  The whole-cochain reference builds
each column of the whole matrix from the whole cochain: the unit vector is
decoded over every flag (`_decode`), sent through `_differential` over
every target flag and every face, and written back by `_coords_from_data`
over every target, one `LinMap.of` column per coordinate.  The rows that
`_kernel_rref` hands to `sparse_rref`, expanded with `ZERO`, must equal by
`repr` both the reference blocks laid out by `block_map` and the
whole-cochain matrix, and no row may store a zero, on the rational spaces,
on both blocks and on the seeded family, whose faces spread group-ring
leaves through different germ components at different nodes.  The laid-out
blocks on the rational spaces, and the whole-cochain matrix on every input,
reduced by `dense_rref` (the test-local dense elimination of
`tests/test_sparse_rref_properties.py`, not the library's `rref`, which is
a view of `sparse_rref`), must equal `_kernel_rref`; on a root `Sum` that
checks the library's one matrix, whose parts keep their own leaf sizes,
against the whole cochain.  RREF is unique
and the arithmetic is exact, so the library must agree by `repr`, which
also compares the types of the entries.  The library does not apply
`_differential` to sample: with it patched to raise, both samplers still
draw cocycles, which the unpatched `is_cocycle` accepts.

Rational inputs are spaces of rank 0-3 (root sums and sums inside cones
among them) with exception bounds 0-3, in every degree from -1 to rank - 1;
`tests/test_adelic_properties.py` runs the whole-cochain reference on
hypothesis-drawn spaces of rank 1-3 as well.
Group-ring inputs are `o2_dihedral_block(4)`, `t2_block()` and the seeded
`draw_structure` family, with exception bounds 0-2 and 1-2, in every
degree from 0 to rank - 1.  The family is drawn over the spaces of
`SEEDED_SPACES` of rank at least 1, so every structure in it has a degree
to check.
"""

import random

import pytest

from stonesheaf import adelic
from stonesheaf.adelic import (
    RATIONAL, _coords_from_data, _data_from_coords, _decode, _differential, _dmap_leaves,
    _kernel_rref, _slots, build_complex, flags_of_size, random_cocycle)
from stonesheaf.catalog import o2_dihedral_block, t2_block
from stonesheaf.linalg import ZERO, LinMap, VectQ, block_map, sparse_rref
from stonesheaf.space import cb_rank, parse_space
from stonesheaf.weyl import GroupError, eq_random_cocycle, equivariant_adelic

from test_level_oracle import SEEDED_SPACES, draw_structure
from test_sparse_rref_properties import dense_rref

RATIONAL_SPACES = ["Finite(2)", "Cone(Finite(1))", "Cone(Finite(3))", "Cone(Cone(Finite(1)))",
                   "Cone(Sum(Finite(2),Finite(1)))", "Cone(Sum(Cone(Finite(1)),Finite(2)))",
                   "Cone(Cone(Cone(Finite(1))))", "Cone(Cone(Sum(Finite(1),Cone(Finite(1)))))",
                   "Sum(Cone(Cone(Finite(1))),Finite(2))",
                   "Sum(Cone(Finite(1)),Sum(Finite(1),Cone(Finite(2))))",
                   "Sum(Cone(Finite(2)),Cone(Cone(Finite(1))))",
                   "Sum(Cone(Cone(Cone(Finite(1)))),Cone(Sum(Finite(1),Finite(1))))"]


def whole_cochain_matrix(L, space, cs, degree, exc_bound):
    """The matrix of d from degree, each column probed on the whole cochain:
    the unit vector decoded over every flag, sent through `_differential`
    and written back over every target flag."""
    flags = sources(space, degree)
    n = sum(_slots(L, space, A, cs, exc_bound) for A in flags)
    targets = flags_of_size(cb_rank(space), degree + 2)
    m = sum(_slots(L, space, B, cs, exc_bound) for B in targets)

    def d(unit):
        image = _differential(L, space, cs, degree, _decode(L, space, cs, flags, exc_bound, unit))
        flat = []
        for B in targets:
            _coords_from_data(L, space, B, exc_bound, image[B], flat)
        return flat
    return LinMap.of(VectQ.make(n), VectQ.make(m), d)


def reference_kernel_rref(L, space, cs, degree, exc_bound):
    """(rows, pivots, n) of d from degree, the whole probed matrix reduced
    at once, a Sum included."""
    n = sum(_slots(L, space, A, cs, exc_bound) for A in sources(space, degree))
    if cb_rank(space) <= degree:
        return [], [], n
    red, pivots = dense_rref(whole_cochain_matrix(L, space, cs, degree, exc_bound).matrix)
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


def laid_out_blocks(L, space, cs, degree, exc_bound):
    """The `reference_face_block` blocks of d from degree laid out by
    `block_map`: row band B, column band B minus B[k]."""
    n_at = {A: _slots(L, space, A, cs, exc_bound) for A in sources(space, degree)}
    m_at = {B: _slots(L, space, B, cs, exc_bound) for B, _k in faces(space, degree)}
    blocks = [(B, B[:k] + B[k + 1:], reference_face_block(L, space, cs, B, k, exc_bound))
              for B, k in faces(space, degree)]
    return block_map(VectQ.make(sum(n_at.values())), VectQ.make(sum(m_at.values())),
                     m_at, n_at, blocks)


@pytest.mark.parametrize("exc_bound", [0, 1, 2, 3])
@pytest.mark.parametrize("expr", RATIONAL_SPACES)
def test_the_unit_decode_blocks_laid_out_give_the_kernel_rref(expr, exc_bound):
    space = parse_space(expr)
    for degree in range(-1, cb_rank(space)):
        laid = laid_out_blocks(RATIONAL, space, None, degree, exc_bound)
        red, pivots = dense_rref(laid.matrix)
        n = laid.source.dim
        rows = [[(j, row[j]) for j in range(p + 1, n) if row[j]] for row, p in zip(red, pivots)]
        assert repr(_kernel_rref(RATIONAL, space, None, degree, exc_bound)) == repr(
            (rows, pivots, n)), degree


BLOCKS = ["o2_dihedral_block(4)", "t2_block()"]


def block_complex(block):
    space, cs = o2_dihedral_block(4)[::2] if block.startswith("o2") else t2_block()[:3:2]
    return equivariant_adelic(space, cs)


@pytest.mark.parametrize("exc_bound", [0, 1, 2])
@pytest.mark.parametrize("block", BLOCKS)
def test_block_kernel_rref_matches_the_whole_cochain_probe(block, exc_bound):
    cx = block_complex(block)
    assert_matches_reference(cx.leaves, cx.space, cx.cs, range(cx.rank), exc_bound)


FAMILY_SPACES = [expr for expr in SEEDED_SPACES if cb_rank(parse_space(expr)) >= 1]


def _family(per_space=3):
    """Per space of `FAMILY_SPACES`, the first seeded `draw_structure`s
    (seeds 0-39, level-uniform, then free) that `equivariant_adelic` accepts."""
    out = []
    for expr in FAMILY_SPACES:
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
    assert len({name.split(" #")[0] for name, _cx in FAMILY}) == len(FAMILY_SPACES) - 1
    assert len(FAMILY) == 21
    assert all(cx.rank >= 1 for _name, cx in FAMILY)  # every case checks a degree


@pytest.mark.parametrize("name, cx", FAMILY, ids=[n for n, _ in FAMILY])
def test_family_kernel_rref_matches_the_whole_cochain_probe(name, cx):
    for exc_bound in (1, 2):
        assert_matches_reference(cx.leaves, cx.space, cx.cs, range(cx.rank), exc_bound)


MATRIX_CASES = (
    [pytest.param(RATIONAL, parse_space(expr), None, -1, exc_bound, id=f"{expr}-{exc_bound}")
     for expr in RATIONAL_SPACES for exc_bound in (0, 1, 2, 3)]
    + [pytest.param(cx.leaves, cx.space, cx.cs, 0, exc_bound, id=f"{name}-{exc_bound}")
       for name, cx in [(block, block_complex(block)) for block in BLOCKS]
       for exc_bound in (0, 1, 2)]
    + [pytest.param(cx.leaves, cx.space, cx.cs, 0, exc_bound, id=f"{name}-{exc_bound}")
       for name, cx in FAMILY for exc_bound in (1, 2)])


@pytest.mark.parametrize("L, space, cs, low, exc_bound", MATRIX_CASES)
def test_the_samplers_matrix_matches_the_laid_out_blocks_and_the_probe(
        monkeypatch, L, space, cs, low, exc_bound):
    """The rows `_kernel_rref` hands to `sparse_rref`, expanded with `ZERO`,
    equal by `repr` the unit-decode blocks laid out by `block_map` and the
    whole-cochain probe's matrix, in every degree from low to rank - 1; no
    row stores a zero."""
    captured = []

    def capture(rows):
        captured.append(rows)
        return sparse_rref(rows)
    monkeypatch.setattr(adelic, "sparse_rref", capture)
    for degree in range(low, cb_rank(space)):
        captured.clear()
        _kernel_rref(L, space, cs, degree, exc_bound)
        [rows] = captured
        assert all(x for row in rows for x in row.values()), degree
        n = sum(_slots(L, space, A, cs, exc_bound) for A in sources(space, degree))
        got = repr(tuple(tuple(row.get(j, ZERO) for j in range(n)) for row in rows))
        assert got == repr(laid_out_blocks(L, space, cs, degree, exc_bound).matrix), degree
        assert got == repr(whole_cochain_matrix(L, space, cs, degree, exc_bound).matrix), degree


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
