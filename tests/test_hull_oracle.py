"""`injective_hull_step` against the hull built as a direct sum.

The reference below builds I0 as `direct_sum(sky, wall)`: a skyscraper at
the apex with stalk the apex of B, plus the wall of B (the tail and stored
copies of B, apex stalk the tail sections, identity germ), and embeds B by
v -> (v, sigma_B(v)) at the apex and the sum's wall inclusion elsewhere.
`injective_hull_step` must give a hull with the same Ext^1 dimensions
against seeded sheaves A and the same stalk dimensions of I0 and of the
cokernel Q at every probe point, on seeded `random_csheaf` pairs over three
rank-1 cones.  Its embedding must commute with the germs and be injective
at every stalk, and Q must have no tail sections.

Dropping the identity block of the hull's germ must make some seed fail the
Ext-acyclicity check of `ext2_dim`, so that check does real work.
"""

import random

import pytest

import stonesheaf.homalg as homalg
from stonesheaf.homalg import ext1_dim, ext2_dim, injective_hull_step
from stonesheaf.linalg import LinMap, rank as map_rank
from stonesheaf.sheaf import (
    SheafMap, _probe_points, canonical, check_sheaf_map, cokernel, direct_sum,
    make_cone_map, make_cone_sheaf, random_csheaf, sec_space, stalk, stalk_map, zero_sheaf)
from stonesheaf.space import parse_space

SPACES = ["Cone(Finite(1))", "Cone(Finite(3))", "Cone(Sum(Finite(2),Finite(1)))"]
SEEDS = range(25)


def reference_hull(B):
    """The hull as the direct sum of a skyscraper and the wall of B."""
    space = B.space
    B = canonical(B)
    SB = sec_space(B.tail)
    wall = make_cone_sheaf(space, B.exc_dict(), B.tail, SB, LinMap.identity(SB))
    tail = zero_sheaf(space.base)
    sky = make_cone_sheaf(space, {}, tail, B.apex, LinMap.zero(B.apex, sec_space(tail)))
    _I0, i_sky, i_wall, _p_sky, _p_wall = direct_sum(sky, wall)
    cols = []
    for i in range(B.apex.dim):
        v = B.apex.basis_vec(i)
        cols.append(tuple(a + b for a, b in zip(
            i_sky.apex_map.apply(v), i_wall.apex_map.apply(B.germ.apply(v)))))
    emb_apex = LinMap.from_cols(B.apex, i_sky.target.apex, cols)
    exc = {k: i_wall.copy_map(k) for k in i_wall.source.stored_keys()}
    emb = make_cone_map(i_wall.source, i_wall.target, exc, i_wall.tail_map, emb_apex,
                        check=False)
    emb = SheafMap(B, i_wall.target, ("conemap", emb.data[1], emb.data[2], emb.data[3]))
    assert check_sheaf_map(emb)
    return emb, cokernel(emb)[1]


def pairs(expr):
    space = parse_space(expr)
    for seed in SEEDS:
        rng = random.Random(seed)
        yield seed, random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1)


@pytest.mark.parametrize("expr", SPACES)
def test_hull_matches_the_direct_sum_reference(expr):
    for seed, A, B in pairs(expr):
        emb, proj = injective_hull_step(B)
        ref_emb, ref_proj = reference_hull(B)
        I0, Q, I0_ref, Q_ref = emb.target, proj.target, ref_emb.target, ref_proj.target
        assert ext1_dim(A, I0) == ext1_dim(A, I0_ref) == 0, (expr, seed)
        assert ext1_dim(A, Q) == ext1_dim(A, Q_ref), (expr, seed)
        for x in _probe_points(I0.space, [I0, I0_ref, Q, Q_ref]):
            assert stalk(I0, x).dim == stalk(I0_ref, x).dim, (expr, seed, x)
            assert stalk(Q, x).dim == stalk(Q_ref, x).dim, (expr, seed, x)


@pytest.mark.parametrize("expr", SPACES)
def test_hull_embedding_is_an_injective_sheaf_map_with_skyscraper_cokernel(expr):
    for seed, _A, B in pairs(expr):
        emb, proj = injective_hull_step(B)
        assert proj.source == emb.target
        assert check_sheaf_map(emb), (expr, seed)
        for x in _probe_points(B.space, [emb]):
            m = stalk_map(emb, x)
            assert map_rank(m) == m.source.dim, (expr, seed, x)
        assert sec_space(proj.target.tail).dim == 0, (expr, seed)


def test_dropping_the_germ_identity_block_fails_the_ext_check(monkeypatch):
    """With a zero germ the hull's apex no longer spreads into the tail, so
    the tail part of I0 is a floor sheaf, which has extensions by
    skyscrapers.  Where B's germ is zero the embedding still commutes, and
    `ext2_dim` must then reject I0 on some seed."""
    # the hull's germ [0 | id] is the projection onto the wall part
    monkeypatch.setattr(homalg, "_onto", lambda s, a, _at: LinMap.zero(s, a))
    caught = set()
    for expr in SPACES:
        for _seed, A, B in pairs(expr):
            try:
                ext2_dim(A, B)
            except AssertionError as exc:
                caught.add(str(exc))
    assert "middle resolution term is not Ext-acyclic" in caught
