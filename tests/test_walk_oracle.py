"""Second copies of the engine's walks, kept as test-local references.

Each reference below is a recursion that the engine once ran beside a walk
that does the same job; the engine now calls the walk.  The library must
agree with every reference exactly:

* `reference_singleton`, the singleton clopen of a point of height 0, and
  its refusal of a point of positive height (an apex, or a copy of a nested
  apex such as `(1,Apex)`), at every `iter_points(s, 3)` of
  `test_pathway_golden.SPACES`;
* `reference_trivial_structure`, the trivial component structure, by `==`
  and by its JSON;
* `reference_gr_sheaf`, the sheaf of group rings, whose germ spreads a
  value uniformly by `reference_spread`, on the catalog blocks and on every
  structure of `test_level_oracle.STRUCTURES` that the complex accepts;
* `reference_ext_dim`, the dimensions of Ext^1 and Ext^2 summed over the
  parts of a disjoint union by recursion, on seeded pairs over unions with
  two cones; `ext1` keeps its own recursion and must agree on Ext^1.
"""

import random

import pytest

from stonesheaf import serialize as ser
from stonesheaf.homalg import ext1, ext1_dim, ext2_dim
from stonesheaf.linalg import LinMap
from stonesheaf.sheaf import (
    Section, make_cone_sheaf, make_fin_sheaf, make_sum_sheaf, random_csheaf, sec_space,
    sec_to_coords)
from stonesheaf.space import (
    FinSet, Finite, MalformedPoint, Sum, SumSet, cb_rank, empty_set, iter_points,
    make_cone_set, parse_space, singleton)
from stonesheaf.weyl import (
    cone_structure, fin_structure, germ_component, group_ring_space, group_ring_sheaf,
    sum_structure, trivial_group, trivial_hom, trivial_structure)
from test_level_oracle import STRUCTURES, accepts
from test_pathway_golden import SPACES

UNION_SPACES = ["Sum(Cone(Finite(1)),Cone(Finite(2)))",
                "Sum(Sum(Cone(Finite(1)),Finite(1)),Cone(Finite(1)))"]
SEEDS = range(6)


def reference_singleton(s, addr):
    if isinstance(s, Finite):
        return FinSet(frozenset({addr[1]}))
    if isinstance(s, Sum):
        if addr[0] == "L":
            return SumSet(reference_singleton(s.left, addr[1]), empty_set(s.right))
        return SumSet(empty_set(s.left), reference_singleton(s.right, addr[1]))
    if addr[0] == "apex":
        raise MalformedPoint("an apex has no singleton clopen neighbourhood")
    return make_cone_set(s, {addr[1]: reference_singleton(s.base, addr[2])}, False)


def _outcome(f):
    try:
        return f()
    except MalformedPoint as e:
        return ("refused", str(e))


@pytest.mark.parametrize("expr", SPACES)
def test_singleton_matches_the_reference(expr):
    s = parse_space(expr)
    refused = 0
    for p in iter_points(s, 3):
        expected = _outcome(lambda: reference_singleton(s, p.addr))
        assert _outcome(lambda: singleton(s, p)) == expected
        refused += isinstance(expected, tuple)
    assert refused > 0


def test_singleton_refuses_a_copy_of_a_nested_apex():
    s = parse_space("Cone(Cone(Finite(1)))")
    p = next(p for p in iter_points(s, 3) if str(p) == "(1,Apex)")
    with pytest.raises(MalformedPoint, match="an apex has no singleton"):
        singleton(s, p)


def reference_trivial_structure(space):
    one = trivial_group()
    if isinstance(space, Finite):
        return fin_structure(space, [one] * space.n)
    if isinstance(space, Sum):
        return sum_structure(space, reference_trivial_structure(space.left),
                             reference_trivial_structure(space.right))
    tail = reference_trivial_structure(space.base)
    return cone_structure(space, {}, tail, one, trivial_hom(one, one))


@pytest.mark.parametrize("expr", SPACES + UNION_SPACES + ["Finite(3)"])
def test_trivial_structure_matches_the_reference(expr):
    space = parse_space(expr)
    cs, ref = trivial_structure(space), reference_trivial_structure(space)
    assert cs == ref
    assert ser.structure_to_json(cs) == ser.structure_to_json(ref)


def reference_spread(cs, v):
    if cs.data[0] == "fin":
        return (v,) * cs.space.n
    if cs.data[0] == "sum":
        return (reference_spread(cs.data[1], v), reference_spread(cs.data[2], v))
    return ("sec", (), v)


def reference_gr_sheaf(cs):
    space = cs.space
    if cs.data[0] == "fin":
        return make_fin_sheaf(space, [group_ring_space(g) for g in cs.data[1]])
    if cs.data[0] == "sum":
        return make_sum_sheaf(space, reference_gr_sheaf(cs.data[1]),
                              reference_gr_sheaf(cs.data[2]))
    exc, tail_cs, apex_group, up = cs.cone_parts()
    tail = reference_gr_sheaf(tail_cs)
    V = group_ring_space(apex_group)
    down = germ_component(up)
    germ = LinMap.of(V, sec_space(tail), lambda v: sec_to_coords(
        tail, Section(tail, reference_spread(tail_cs, down.apply(v)))))
    exc_sheaves = {k: reference_gr_sheaf(sub) for k, sub in exc.items()}
    return make_cone_sheaf(space, exc_sheaves, tail, V, germ)


ACCEPTED = [(name, cs) for name, cs in STRUCTURES if accepts(cs)]


@pytest.mark.parametrize("name, cs", ACCEPTED, ids=[n for n, _ in ACCEPTED])
def test_group_ring_sheaf_matches_the_reference(name, cs):
    assert repr(group_ring_sheaf(cs).sheaf) == repr(reference_gr_sheaf(cs))


def test_the_accepted_structures_include_the_catalog_blocks():
    names = {name for name, _ in ACCEPTED}
    assert {"o2_dihedral_block(3)", "o2_dihedral_block(6)", "t2_block(split=True)",
            "t2_block(split=False)"} <= names


def reference_ext_dim(ext_dim, A, B):
    space = A.space
    if cb_rank(space) == 0:
        return 0
    if isinstance(space, Sum):
        return (reference_ext_dim(ext_dim, A.data[0], B.data[0])
                + reference_ext_dim(ext_dim, A.data[1], B.data[1]))
    return ext_dim(A, B)


@pytest.mark.parametrize("expr", UNION_SPACES)
def test_ext_dims_over_unions_match_the_recursion(expr):
    space = parse_space(expr)
    dims = []
    for seed in SEEDS:
        rng = random.Random(seed)
        A, B = random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1)
        for F, G in [(A, B), (B, A)]:
            d1 = ext1_dim(F, G)
            assert d1 == reference_ext_dim(ext1_dim, F, G) == ext1(F, G)[0].dim
            assert ext2_dim(F, G) == reference_ext_dim(ext2_dim, F, G) == 0
            dims.append(d1)
    assert max(dims) > 0
