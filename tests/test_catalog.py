import random
from fractions import Fraction

import pytest

from stonesheaf.adelic import all_flags, build_complex, insert_height
from stonesheaf.linalg import LinMap, VectQ
from stonesheaf.models import CMod, DiagMod, el_space, is_cocartesian, to_standard
from stonesheaf.sheaf import constant, random_csheaf
from stonesheaf.space import cb_rank, parse_space
from stonesheaf.catalog import (
    Dihedral, Lattice2, SubgroupLabel, circle_component_map,
    complement_vector, component_map, divisor_sigma, hnf_of,
    lattice_contains, line_lattice, nonsplit_filter, o2_dihedral_block,
    o2_normalizer_order_ratio, o2_weyl_group, sublattices,
    t2_block, weyl_of_subgroup)
from stonesheaf.weyl import validate_structure_levels
from test_level_oracle import chain_misses


# -- the dihedral block -------------------------------------------------------

def test_dihedral_weyl_is_order_two():
    for n in range(1, 9):
        assert o2_weyl_group(Dihedral(n, Fraction(0))).order == 2


def test_limit_point_weyl_is_trivial():
    space, labels, cs = o2_dihedral_block(4)
    from stonesheaf.space import apex_point
    assert cs.group_at(apex_point()).order == 1


def test_block_space_has_rank_one():
    space, labels, cs = o2_dihedral_block(4)
    assert cb_rank(space) == 1
    assert labels[("copy", 1, ("fin", 0))] == "D_4"
    assert chain_misses(cs) == []
    validate_structure_levels(cs)


def test_normalizer_oracle_values():
    # the normalizer doubles the rotation count, independent of the offset
    for n in (1, 2, 3, 5):
        for phi in (Fraction(0), Fraction(1, 7)):
            assert o2_normalizer_order_ratio(Dihedral(n, phi)) == 2


# -- sublattice enumeration ---------------------------------------------------

def test_sublattices_index_one():
    assert len(sublattices(1)) == 1


def test_sublattices_index_two():
    assert len(sublattices(2)) == 3


def test_sublattices_index_four():
    assert len(sublattices(4)) == 7


def test_sublattice_counts_sigma():
    for n in range(1, 51):
        subs = sublattices(n)
        assert len(subs) == divisor_sigma(n)
        assert len({(L.a, L.b, L.d) for L in subs}) == len(subs)


def test_hnf_canonicalizes():
    L1 = hnf_of(((2, 0), (1, 2)))
    L2 = hnf_of(((1, 2), (2, 0)))
    assert L1 == L2
    assert lattice_contains(L1, L1)


# -- Weyl groups of subgroups -------------------------------------------------

def test_weyl_orders():
    F = SubgroupLabel("finite", Lattice2("full", a=1, b=0, d=1))
    S = SubgroupLabel("circle", line_lattice(1, 0))
    G = SubgroupLabel("full")
    assert weyl_of_subgroup(F).order == 4
    assert weyl_of_subgroup(S).order == 2
    assert weyl_of_subgroup(G).order == 1


# -- component maps -----------------------------------------------------------

def test_component_map_projection():
    F = SubgroupLabel("finite", Lattice2("full", a=1, b=0, d=1))
    S = SubgroupLabel("circle", line_lattice(1, 0))
    h = component_map(F, S)
    # the dual map is projection onto the first character coordinate
    assert h.values == (0, 1, 0, 1)


def test_component_map_divisible_inclusion_is_trivial():
    F = SubgroupLabel("finite", Lattice2("full", a=1, b=0, d=1))
    S = SubgroupLabel("circle", line_lattice(2, 0))
    assert component_map(F, S).values == (0, 0, 0, 0)


def test_component_map_surjective_case():
    # index-one mod-2 image: the dual map is onto
    F = SubgroupLabel("finite", hnf_of(((1, 1), (0, 2))))
    S = SubgroupLabel("circle", line_lattice(1, 1))
    h = component_map(F, S)
    assert set(h.values) == {0, 1}


def test_component_map_requires_containment():
    F = SubgroupLabel("finite", Lattice2("full", a=2, b=0, d=2))
    S = SubgroupLabel("circle", line_lattice(1, 0))
    with pytest.raises(ValueError):
        component_map(F, S)


def test_component_functoriality_random():
    rng = random.Random(23)
    found = 0
    while found < 40:
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        if (x, y) == (0, 0):
            continue
        S = SubgroupLabel("circle", line_lattice(x, y))
        m2 = rng.randint(2, 3)
        T = SubgroupLabel("circle", line_lattice(
            m2 * S.lattice.mult * S.lattice.vec[0],
            m2 * S.lattice.mult * S.lattice.vec[1]))
        w = complement_vector(S.lattice.vec)
        j = rng.randint(1, 4)
        F = SubgroupLabel("finite", hnf_of((
            (S.lattice.mult * S.lattice.vec[0], S.lattice.mult * S.lattice.vec[1]),
            (j * w[0], j * w[1]))))
        if not lattice_contains(F.lattice, T.lattice):
            continue
        lhs = component_map(F, S).compose(circle_component_map(S, T))
        assert lhs.values == component_map(F, T).values
        found += 1


# -- the non-split filter -----------------------------------------------------

def test_filter_keeps_the_distinguished_lattice():
    e = Lattice2("full", a=1, b=0, d=2)
    assert e in nonsplit_filter([e], e)


def test_filter_rejects_the_full_lattice():
    e = Lattice2("full", a=1, b=0, d=2)
    z2 = Lattice2("full", a=1, b=0, d=1)
    assert nonsplit_filter([z2], e) == []


def test_filter_index_multiplicativity():
    e = Lattice2("full", a=1, b=0, d=2)
    for n in range(1, 21):
        inside = nonsplit_filter(sublattices(2 * n), e)
        assert len(inside) == divisor_sigma(n)


# -- projective-line coordinates ----------------------------------------------

def test_p1q_unit_vector():
    L = line_lattice(1, 0)
    assert (L.vec, L.mult) == ((1, 0), 1)


def test_p1q_gcd_extraction():
    L = line_lattice(2, 4)
    assert (L.vec, L.mult) == ((1, 2), 2)


def test_p1q_vertical():
    L = line_lattice(0, 3)
    assert (L.vec, L.mult) == ((0, 1), 3)


# -- the torus blocks ---------------------------------------------------------

def test_t2_split_block():
    space, labels, cs, data = t2_block(split=True, n_circles=4)
    assert cb_rank(space) == 2
    assert chain_misses(cs) == []
    validate_structure_levels(cs)
    maps = [component_map(F, data["circles"][k])
            for k, tower in data["towers"].items() for F in tower]
    assert maps and all(len(m.values) == 4 for m in maps)


def test_t2_nonsplit_block():
    space, labels, cs, data = t2_block(split=False, n_circles=4)
    e = data["distinguished"]
    for k, tower in data["towers"].items():
        for F in tower:
            assert lattice_contains(e, F.lattice)
    assert chain_misses(cs) == []


def test_tower_maps_stabilize():
    _space, _labels, _cs, data = t2_block(split=True, n_circles=3)
    for k, tower in data["towers"].items():
        S = data["circles"][k]
        values = {component_map(F, S).values for F in tower}
        assert len(values) == 1   # tail-uniformity of the block structure


# -- the cospan template ------------------------------------------------------

def test_cospan_accepts_the_ring_diagram():
    space = parse_space("Cone(Cone(Finite(1)))")
    cx = build_complex(space)
    assert len(all_flags(2)) == 7
    assert sorted(A for i in range(3) for A in cx.flags(i)) == sorted(all_flags(2))
    assert is_cocartesian(to_standard(constant(space, 1)))


def test_cospan_accepts_standard_diagrams():
    space = parse_space("Cone(Cone(Finite(1)))")
    F = random_csheaf(space, random.Random(29), 1, 1)
    assert is_cocartesian(to_standard(F))


def test_cospan_rejects_perturbed_diagram():
    space = parse_space("Cone(Cone(Finite(1)))")
    D = to_standard(constant(space, 1))
    vertices = dict(D.vertices)
    vertices[(2, 1, 0)] = CMod(space, (2, 1, 0), ("zero",))
    edges = dict(D.edges)
    for (A, b) in list(edges):
        if insert_height(A, b) == (2, 1, 0):
            edges[(A, b)] = LinMap.zero(el_space(D.vertices[A]), VectQ.make(0))
    assert not is_cocartesian(DiagMod(space, vertices, edges))


def test_group_ring_sheaf_of_catalog_block():
    from stonesheaf.weyl import group_ring_sheaf
    from stonesheaf.sheaf import stalk
    from stonesheaf.space import apex_point, copy_point, fin_point
    _space, _labels, cs = o2_dihedral_block(5)
    E = group_ring_sheaf(cs)
    assert stalk(E.sheaf, copy_point(2, fin_point(0))).dim == 2
    assert stalk(E.sheaf, apex_point()).dim == 1
