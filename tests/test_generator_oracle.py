"""The generators of `weyl.generator_epi` against a reference that builds them
by its own recursion.

The reference below is the construction that once lived in `weyl`: one
generator per basis vector of every stored stalk and every apex, plus those
of one generic copy past the stored ones at every cone, each picking its
copy's structure and action by a lookup of its own (`ref_generator_epi`,
with `ref_point_map_fin`, `ref_apex_generator` and `ref_spread_map`).  It
stops at rank 1.

The public function must give the same list, compared by `repr`, on the
trivial structure on `Cone(Finite(1))`, the dihedral block
`o2_dihedral_block(6)`, constant C2 on `Cone(Finite(2))`, constant C3 on
`Sum(Cone(Finite(1)),Finite(2))`, the rank-1 tail of `t2_block()` and the
structure with K4 at copy 0 over a C2 tail, whose group-ring sheaf stores a
copy.  On each it takes the group-ring sheaf, 8 seeded `random_equiv_sheaf`
draws where the structure allows them, and 8 trivial actions on seeded
`random_csheaf` draws, which store copies: 94 lists.  None of these lists
an action at a copy that neither the sheaf nor the group-ring sheaf stores,
so the reference and the public function agree on them.
"""

import random

import pytest

from stonesheaf.catalog import o2_dihedral_block, t2_block
from stonesheaf.linalg import LinMap
from stonesheaf.sheaf import (
    Section, germ_section, make_cone_map, make_fin_map, make_sum_map, random_csheaf, sec_eval,
    zero_map)
from stonesheaf.space import Cone, Finite, Sum, cb_rank, fin_point, parse_space
from stonesheaf.weyl import (
    EquivCSheaf, check_equivariance, cone_structure, constant_structure, cyclic_group,
    direct_product, generator_epi, generator_images_cover, group_ring_sheaf,
    random_equiv_sheaf, trivial_equiv, trivial_group, trivial_hom, trivial_structure)


# ---------------------------------------------------------------------------
# reference: the generators by their own recursion


def ref_generator_epi(E):
    space = E.sheaf.space
    if cb_rank(space) > 1:
        raise ValueError("generator construction implemented for rank <= 1")
    G = group_ring_sheaf(E.cs)
    out = []
    if isinstance(space, Finite):
        for i in range(space.n):
            for j in range(E.sheaf.data[i].dim):
                out.append(ref_point_map_fin(G.sheaf, E, i, E.sheaf.data[i].basis_vec(j)))
        return out
    if isinstance(space, Sum):
        for m in ref_generator_epi(EquivCSheaf(E.sheaf.data[0], E.cs.data[1], E.reps[1])):
            out.append(make_sum_map(G.sheaf, E.sheaf, m,
                                    zero_map(G.sheaf.data[1], E.sheaf.data[1])))
        for m in ref_generator_epi(EquivCSheaf(E.sheaf.data[1], E.cs.data[2], E.reps[2])):
            out.append(make_sum_map(G.sheaf, E.sheaf,
                                    zero_map(G.sheaf.data[0], E.sheaf.data[0]), m))
        return out
    exc_cs, tail_cs, _apex_group, _up = E.cs.cone_parts()
    _, excreps, tail_reps, _apex_rep = E.reps
    for j in range(E.sheaf.apex.dim):
        out.append(ref_apex_generator(G, E, E.sheaf.apex.basis_vec(j)))
    keys = sorted(set(E.sheaf.stored_keys()) | set(G.sheaf.stored_keys()))
    generic = (max(keys) + 1) if keys else 0
    for k in keys + [generic]:
        sub = EquivCSheaf(E.sheaf.copy_sheaf(k), exc_cs.get(k, tail_cs),
                          dict(excreps).get(k, tail_reps))
        for m in ref_generator_epi(sub):
            exc = {kk: zero_map(G.sheaf.copy_sheaf(kk), E.sheaf.copy_sheaf(kk)) for kk in keys}
            exc[k] = m
            out.append(make_cone_map(G.sheaf, E.sheaf, exc, zero_map(G.sheaf.tail, E.sheaf.tail),
                                     LinMap.zero(G.sheaf.apex, E.sheaf.apex)))
    return out


def ref_point_map_fin(GR, E, i, x):
    maps = []
    for p in range(GR.space.n):
        if p != i:
            maps.append(LinMap.zero(GR.data[p], E.sheaf.data[p]))
        else:
            rep = E.reps[1][p]
            cols = [rep[g].apply(x) for g in E.cs.data[1][p].elements()]
            maps.append(LinMap.from_cols(GR.data[p], E.sheaf.data[p], cols))
    return make_fin_map(GR, E.sheaf, maps)


def ref_apex_generator(G, E, x):
    _exc_cs, tail_cs, apex_group, _up = E.cs.cone_parts()
    _, _excreps, tail_reps, apex_rep = E.reps
    cols = [apex_rep[g].apply(x) for g in apex_group.elements()]
    apex_map = LinMap.from_cols(G.sheaf.apex, E.sheaf.apex, cols)
    tail_map = ref_spread_map(G.sheaf.tail, E.sheaf.tail, tail_cs, tail_reps,
                              germ_section(E.sheaf, x))
    exc = {k: zero_map(G.sheaf.copy_sheaf(k), E.sheaf.copy_sheaf(k))
           for k in set(E.sheaf.stored_keys()) | set(G.sheaf.stored_keys())}
    return make_cone_map(G.sheaf, E.sheaf, exc, tail_map, apex_map)


def ref_spread_map(GT, MT, cs, reps, spread):
    if isinstance(GT.space, Finite):
        maps = []
        for p in range(GT.space.n):
            val = sec_eval(MT, spread, fin_point(p))
            cols = [reps[1][p][g].apply(val) for g in cs.data[1][p].elements()]
            maps.append(LinMap.from_cols(GT.data[p], MT.data[p], cols))
        return make_fin_map(GT, MT, maps)
    if isinstance(GT.space, Sum):
        return make_sum_map(GT, MT, *(
            ref_spread_map(GT.data[i], MT.data[i], cs.data[1 + i], reps[1 + i],
                           Section(MT.data[i], spread.data[i]))
            for i in (0, 1)))
    raise ValueError("generator spreading is for rank <= 1")


# ---------------------------------------------------------------------------
# inputs


C2, C3 = cyclic_group(2), cyclic_group(3)


def _k4_copy():
    X1 = Cone(Finite(1))
    return cone_structure(X1, {0: constant_structure(Finite(1), direct_product(C2, C2))},
                          constant_structure(Finite(1), C2), trivial_group(),
                          trivial_hom(C2, trivial_group()))


STRUCTURES = {
    "trivial": lambda: trivial_structure(Cone(Finite(1))),
    "o2_dihedral_block(6)": lambda: o2_dihedral_block(6)[2],
    "C2 on Cone(Finite(2))": lambda: constant_structure(parse_space("Cone(Finite(2))"), C2),
    "C3 on Sum(Cone(Finite(1)),Finite(2))":
        lambda: constant_structure(parse_space("Sum(Cone(Finite(1)),Finite(2))"), C3),
    "t2_block() tail": lambda: t2_block()[2].data[2],
    "K4 at copy 0": _k4_copy,
}
# `random_equiv_sheaf` stores no copies, so it cannot act at an exceptional one
NO_RANDOM_ACTIONS = {"K4 at copy 0"}


def _sheaves(name):
    cs = STRUCTURES[name]()
    out = [group_ring_sheaf(cs)]
    if name not in NO_RANDOM_ACTIONS:
        rng = random.Random(41)
        out += [random_equiv_sheaf(cs.space, cs, rng, 2) for _ in range(8)]
    rng = random.Random(43)
    out += [trivial_equiv(random_csheaf(cs.space, rng, 2, 2), cs) for _ in range(8)]
    return cs, out


# ---------------------------------------------------------------------------
# comparisons


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_generators_match_the_reference(name):
    cs, sheaves = _sheaves(name)
    ring = group_ring_sheaf(cs)
    assert len(sheaves) == (9 if name in NO_RANDOM_ACTIONS else 17)
    for E in sheaves:
        gens = generator_epi(E)
        assert repr(gens) == repr(ref_generator_epi(E))
        assert generator_images_cover(E, gens)
        assert all(check_equivariance(g, ring, E) for g in gens)
    # the trivial actions on random sheaves store copies on every cone space
    if isinstance(cs.space, Cone):
        assert any(E.sheaf.stored_keys() for E in sheaves[-8:])
