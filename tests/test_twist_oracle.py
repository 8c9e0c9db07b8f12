"""Ext^1 twist classes against the coboundaries built map by map.

On a rank-1 cone, `homalg._twist_classes(A, B)` classifies the germ twists
apex(A) -> sections(tail(B)) modulo two kinds of coboundary.  The reference
below builds the second kind as the code first did: for every free entry
of a tail map h: tail(A) -> tail(B) it assembles the unit map with
`_hom_parametrization`, takes its sections with `sec_functor` and reads
off the twist sections(h) . sigma_A.  Both sides must agree byte for byte,
classes and projection, on seeded `random_csheaf` pairs over three rank-1
cones (stalks of dimension 0 included), and so must the extensions that
`ext1` realizes from them.  Over a rank-1 union, `ext1_dim` must be the sum
of the reference dimensions of its cone parts.
"""

import random

import pytest

from stonesheaf.homalg import (
    _cone_parts, _hom_parametrization, _twist_classes, _twist_matrix, ext1, ext1_dim,
    extension_from_twist)
from stonesheaf.linalg import ONE, ZERO, VectQ, row_space_basis, solve
from stonesheaf.sheaf import _quotient, random_csheaf, sec_functor, sec_space, stalk
from stonesheaf.space import iter_points, parse_space

SPACES = ["Cone(Finite(1))", "Cone(Finite(3))", "Cone(Sum(Finite(2),Finite(1)))"]
SEEDS = range(30)


def reference_twist_classes(A, B):
    """The twist classes with one `SheafMap` and one `sec_functor` per
    tail-map parameter."""
    SB = sec_space(B.tail)
    amb = VectQ.make(A.apex.dim * SB.dim, "t")
    if amb.dim == 0:
        return _quotient(amb, [], "x")[:2]
    cob_cols = []
    for i in range(A.apex.dim):
        for j in range(B.apex.dim):
            twist = [[ZERO] * A.apex.dim for _ in range(SB.dim)]
            col = B.germ.apply(B.apex.basis_vec(j))
            for r_ in range(SB.dim):
                twist[r_][i] = col[r_]
            cob_cols.append(tuple(x for row in twist for x in row))
    h_params, h_build = _hom_parametrization(A.tail, B.tail)
    for i in range(h_params):
        vec = [ZERO] * h_params
        vec[i] = ONE
        comp = A.germ.then(sec_functor(h_build(tuple(vec))))
        cob_cols.append(tuple(x for row in comp.matrix for x in row))
    return _quotient(amb, row_space_basis(cob_cols), "x")[:2]


def reference_ext1(A, B):
    classes, proj = reference_twist_classes(A, B)
    return classes, [extension_from_twist(A, B, _twist_matrix(A, B, solve(proj, classes.basis_vec(i))))
                     for i in range(classes.dim)]


def pairs(expr, seeds=SEEDS):
    space = parse_space(expr)
    for seed in seeds:
        rng = random.Random(seed)
        yield seed, random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1)


def _has_zero_stalk(F):
    return any(stalk(F.tail, p).dim == 0 for p in iter_points(F.space.base))


@pytest.mark.parametrize("expr", SPACES)
def test_twist_classes_match_the_map_by_map_reference(expr):
    zero_stalks = nonzero = 0
    for seed, A, B in pairs(expr):
        got = _twist_classes(A, B)
        assert repr(got) == repr(reference_twist_classes(A, B)), (expr, seed)
        zero_stalks += _has_zero_stalk(A) or _has_zero_stalk(B)
        nonzero += got[0].dim > 0
    # the family reaches empty stalks and nonzero Ext groups
    assert zero_stalks > 0 and nonzero > 0


@pytest.mark.parametrize("expr", SPACES)
def test_ext1_realizes_the_reference_twists(expr):
    realized = 0
    for seed, A, B in pairs(expr, range(12)):
        got = ext1(A, B)
        assert repr(got) == repr(reference_ext1(A, B)), (expr, seed)
        realized += len(got[1])
    assert realized > 0


@pytest.mark.parametrize("expr", ["Sum(Cone(Finite(1)),Finite(2))",
                                  "Sum(Cone(Finite(2)),Cone(Sum(Finite(1),Finite(1))))"])
def test_ext1_dim_over_a_union_sums_the_reference_parts(expr):
    nonzero = 0
    for seed, A, B in pairs(expr, range(15)):
        want = sum(reference_twist_classes(a, b)[0].dim
                   for a, b in zip(_cone_parts(A), _cone_parts(B)))
        assert ext1_dim(A, B) == want, (expr, seed)
        nonzero += want > 0
    assert nonzero > 0
