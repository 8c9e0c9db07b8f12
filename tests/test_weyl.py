import random
from fractions import Fraction

import pytest

from stonesheaf.linalg import LinMap, VectQ, rank as map_rank
from stonesheaf.space import (
    Cone, Finite, apex_point, copy_point, fin_point, parse_space)
from stonesheaf.adelic import CFun, build_complex, random_cocycle
from stonesheaf.catalog import o2_dihedral_block
from stonesheaf.homalg import random_hom
from stonesheaf.sheaf import (
    check_sheaf_map, identity_map, make_fin_sheaf, stalk, stalk_map, skyscraper)
from stonesheaf.weyl import (
    EqCFun, GroupError, average, average_stalk, check_equivariance,
    check_germ_equivariance,
    cone_structure, constant_structure, cyclic_group, direct_product,
    eq_random_cocycle, eq_to_plain, equivariant_adelic,
    fin_structure, generator_epi, gr_unit, generator_images_cover,
    group_ring_sheaf, group_ring_space, identity_hom, level_group, make_equiv,
    plain_to_eq, random_equiv_sheaf, regular_rep,
    germ_component, trivial_equiv, trivial_group, trivial_hom,
    trivial_structure, GrpHom, FinGroup)
from test_level_oracle import chain_misses, chain_to_top

X1 = Cone(Finite(1))
C2 = cyclic_group(2)
ONEG = trivial_group()


def o2_structure():
    return cone_structure(X1, {}, constant_structure(Finite(1), C2), ONEG,
                          trivial_hom(C2, ONEG))


# -- groups -------------------------------------------------------------------

def test_group_axioms_checked():
    with pytest.raises(GroupError):
        FinGroup(((0, 1), (1, 1)))   # no inverse for the second element


def test_hom_table_checked():
    with pytest.raises(GroupError):
        GrpHom(C2, C2, (1, 0))       # does not preserve the identity


def test_product_group():
    K4 = direct_product(C2, C2)
    assert K4.order == 4
    assert all(K4.mul(g, g) == K4.identity for g in K4.elements())


# -- component structures -----------------------------------------------------

def test_block_tables_hold_every_chain():
    assert chain_misses(o2_structure()) == []
    assert chain_misses(trivial_structure(parse_space("Cone(Cone(Finite(1)))"))) == []


def test_chain_to_the_apex_composites():
    h = chain_to_top(o2_structure(), copy_point(4, fin_point(0)).addr)
    assert h.source == C2 and h.target == ONEG


def test_germ_functoriality_requires_image_condition():
    def composes(i1, i2):
        return germ_component(i1.compose(i2)) == germ_component(i2).then(germ_component(i1))
    # a tower through a trivial middle group fails to compose
    i1 = trivial_hom(ONEG, C2)       # bottom level into the middle
    i2 = trivial_hom(C2, ONEG)       # middle onto the top
    assert not composes(i1, i2)
    # surjective towers compose
    K4 = direct_product(C2, C2)
    p = GrpHom(K4, C2, tuple(i % 2 for i in range(4)))
    q = trivial_hom(C2, ONEG)
    assert composes(p, q)


# -- the group-ring sheaf -----------------------------------------------------

def test_trivial_groups_give_the_constant_sheaf():
    cs = trivial_structure(X1)
    E = group_ring_sheaf(cs)
    assert stalk(E.sheaf, apex_point()).dim == 1
    assert stalk(E.sheaf, copy_point(2, fin_point(0))).dim == 1
    assert E.sheaf.germ.matrix == ((Fraction(1),),)


def test_o2_block_stalk_dimensions():
    E = group_ring_sheaf(o2_structure())
    assert stalk(E.sheaf, copy_point(0, fin_point(0))).dim == 2
    assert stalk(E.sheaf, apex_point()).dim == 1
    assert check_germ_equivariance(E)


def test_isomorphic_tail_to_apex_gives_identity_germ():
    cs = cone_structure(X1, {}, constant_structure(Finite(1), C2), C2,
                        identity_hom(C2))
    E = group_ring_sheaf(cs)
    assert stalk(E.sheaf, apex_point()).dim == 2
    assert E.sheaf.germ == LinMap(E.sheaf.apex, E.sheaf.germ.target,
                                  LinMap.identity(group_ring_space(C2)).matrix)


# -- equivariance of maps -----------------------------------------------------

def test_identity_is_equivariant():
    cs = o2_structure()
    E = random_equiv_sheaf(X1, cs, random.Random(1), 2)
    from stonesheaf.sheaf import identity_map
    assert check_equivariance(identity_map(E.sheaf), E, E)


def test_projection_off_swap_action_is_not_equivariant():
    pt = Finite(1)
    cs = fin_structure(pt, [C2])
    V2 = VectQ.make(2)
    swap = LinMap.from_rows(V2, V2, [[0, 1], [1, 0]])
    Eswap = make_equiv(make_fin_sheaf(pt, [V2]), cs,
                       ("fin", ((LinMap.identity(V2), swap),)))
    V1 = VectQ.make(1)
    Etriv = make_equiv(make_fin_sheaf(pt, [V1]), cs,
                       ("fin", ((LinMap.identity(V1), LinMap.identity(V1)),)))
    from stonesheaf.sheaf import make_fin_map
    proj = make_fin_map(Eswap.sheaf, Etriv.sheaf,
                        [LinMap.from_rows(V2, V1, [[1, 0]])])
    assert not check_equivariance(proj, Eswap, Etriv)


def test_trivial_action_maps_are_equivariant():
    pt = Finite(1)
    cs = fin_structure(pt, [C2])
    V2 = VectQ.make(2)
    E = make_equiv(make_fin_sheaf(pt, [V2]), cs,
                   ("fin", ((LinMap.identity(V2), LinMap.identity(V2)),)))
    from stonesheaf.sheaf import make_fin_map
    any_map = make_fin_map(E.sheaf, E.sheaf, [LinMap.from_rows(V2, V2, [[1, 2], [3, 4]])])
    assert check_equivariance(any_map, E, E)


# -- averaging ----------------------------------------------------------------

def test_average_swap_example():
    V2 = VectQ.make(2)
    swap = LinMap.from_rows(V2, V2, [[0, 1], [1, 0]])
    rep = [LinMap.identity(V2), swap]
    f = LinMap.from_rows(V2, V2, [[1, 0], [0, 0]])
    avg = average_stalk(C2, rep, rep, f)
    half = Fraction(1, 2)
    assert avg.matrix == ((half, Fraction(0)), (Fraction(0), half))


def test_average_fixes_equivariant():
    V2 = VectQ.make(2)
    swap = LinMap.from_rows(V2, V2, [[0, 1], [1, 0]])
    rep = [LinMap.identity(V2), swap]
    f = LinMap.from_rows(V2, V2, [[2, 3], [3, 2]])   # commutes with the swap
    assert average_stalk(C2, rep, rep, f) == f


def test_average_zero():
    V2 = VectQ.make(2)
    rep = [LinMap.identity(V2), LinMap.identity(V2)]
    z = LinMap.zero(V2, V2)
    assert average_stalk(C2, rep, rep, z) == z


def test_average_properties_random():
    rng = random.Random(3)
    groups = [C2, cyclic_group(3), direct_product(C2, C2)]
    from stonesheaf.weyl import _random_rep
    for _ in range(50):
        G = rng.choice(groups)
        V, rs = _random_rep(G, rng.randint(1, 3), rng)
        W, rt = _random_rep(G, rng.randint(1, 3), rng)
        f = LinMap.from_rows(V, W, [[Fraction(rng.randint(-3, 3))
                                     for _ in range(V.dim)] for _ in range(W.dim)])
        g = LinMap.from_rows(V, W, [[Fraction(rng.randint(-3, 3))
                                     for _ in range(V.dim)] for _ in range(W.dim)])
        a_f = average_stalk(G, rs, rt, f)
        # idempotent, linear, equivariant-valued
        assert average_stalk(G, rs, rt, a_f) == a_f
        assert average_stalk(G, rs, rt, f.add(g)) == a_f.add(average_stalk(G, rs, rt, g))
        for h in G.elements():
            assert rs[h].then(a_f) == a_f.then(rt[h])


@pytest.mark.parametrize("space, group", [
    ("Cone(Finite(1))", None), ("Cone(Finite(2))", C2),
    ("Sum(Cone(Finite(1)),Finite(2))", cyclic_group(3))])
def test_average_of_random_sheaf_maps(space, group):
    """Averaged random maps are sheaf maps and equivariant, averaging is
    idempotent, and it fixes the identity and the generator maps."""
    space = parse_space(space)
    cs = o2_dihedral_block(6)[2] if group is None else constant_structure(space, group)
    ring = group_ring_sheaf(cs)
    rng = random.Random(43)
    draws = [random_equiv_sheaf(space, cs, rng, 2) for _ in range(6)]
    for _ in range(30):
        E1, E2 = rng.choice(draws), rng.choice(draws)
        a = average(random_hom(E1.sheaf, E2.sheaf, rng), E1, E2)
        assert check_sheaf_map(a) and check_equivariance(a, E1, E2)
        assert average(a, E1, E2) == a
    for E in draws:
        assert average(identity_map(E.sheaf), E, E) == identity_map(E.sheaf)
        for g in generator_epi(E):
            assert average(g, ring, E) == g


# -- the equivariant complex --------------------------------------------------

def test_trivial_structure_degenerates_bitwise():
    cs = trivial_structure(X1)
    cx_eq = equivariant_adelic(X1, cs)
    cx = build_complex(X1)
    rng = random.Random(5)
    for deg in range(0, 2):
        for _ in range(10):
            z = random_cocycle(cx, deg, rng)
            zeq = {A: plain_to_eq(f, cs) for A, f in z.items()}
            d1 = cx.differential(z, deg) if deg < 1 else {}
            d2 = cx_eq.differential(zeq, deg) if deg < 1 else {}
            for A in d1:
                assert eq_to_plain(d2[A]) == d1[A]
            w1 = cx.exactness_witness(z, deg)
            w2 = cx_eq.exactness_witness(zeq, deg)
            if deg >= 1:
                for A in w1:
                    assert eq_to_plain(w2[A]) == w1[A]


def test_o2_block_degree0_structure_and_witness():
    cs = o2_structure()
    cx = equivariant_adelic(X1, cs)
    rng = random.Random(7)
    for _ in range(10):
        z = eq_random_cocycle(cx, 0, rng)
        w = cx.exactness_witness(z, 0)    # verified internally
    # C^0 has group-ring leaves downstairs and a scalar at the limit
    u0 = EqCFun.unit(X1, (0,), cs)
    assert len(u0.data[2]) == 2         # the uniform leaf lives in the C2 ring
    u1 = EqCFun.unit(X1, (1,), cs)
    assert len(u1.data) == 1            # the limit group is trivial


def test_o2_block_witnesses_higher_degree():
    cs = o2_structure()
    cx = equivariant_adelic(X1, cs)
    rng = random.Random(9)
    for _ in range(20):
        z = eq_random_cocycle(cx, 1, rng)
        cx.exactness_witness(z, 1)


def test_eq_random_cocycle_takes_degrees_zero_to_rank():
    # degree -1 holds group-ring sections, which the sampler does not decode
    cx = equivariant_adelic(*o2_dihedral_block(4)[::2])
    assert cx.is_cocycle(eq_random_cocycle(cx, cx.rank, random.Random(1)), cx.rank)
    with pytest.raises(ValueError, match="starts at degree 0"):
        eq_random_cocycle(cx, -1, random.Random(0))
    for deg in (-2, cx.rank + 1):
        with pytest.raises(ValueError, match=f"degree {deg} is outside"):
            eq_random_cocycle(cx, deg, random.Random(0))


def test_eq_random_cocycle_refuses_a_negative_exception_bound():
    cx = equivariant_adelic(*o2_dihedral_block(4)[::2])
    for deg in (0, cx.rank):
        with pytest.raises(ValueError, match="exception bound -2 is negative"):
            eq_random_cocycle(cx, deg, random.Random(0), exc_bound=-2)
    assert cx.is_cocycle(eq_random_cocycle(cx, 0, random.Random(0), exc_bound=0), 0)


def test_ring_structure_of_equivariant_leaves():
    cs = o2_structure()
    u = EqCFun.unit(X1, (1, 0), cs)
    assert (u * u).data == u.data
    tau_elt = EqCFun(X1, (1, 0), (Fraction(0), Fraction(1)), cs)
    sq = tau_elt * tau_elt
    assert sq.data == (Fraction(1), Fraction(0))   # an involution squares to one


# -- generators ---------------------------------------------------------------

def test_skyscraper_needs_one_generator():
    cs = o2_structure()
    E = trivial_equiv(skyscraper(X1, apex_point(), 1), cs)
    gens = generator_epi(E)
    assert generator_images_cover(E, gens)
    nonzero = [g for g in gens if not stalk_map(g, apex_point()).is_zero()]
    assert len(nonzero) == 1


def test_regular_representation_is_cyclic():
    pt = Finite(1)
    cs = fin_structure(pt, [C2])
    Vr = group_ring_space(C2)
    E = make_equiv(make_fin_sheaf(pt, [Vr]), cs, ("fin", (tuple(regular_rep(C2)),)))
    gens = generator_epi(E)
    assert generator_images_cover(E, gens[:1])


def test_trivial_two_dimensional_needs_two():
    pt = Finite(1)
    cs = fin_structure(pt, [C2])
    V2 = VectQ.make(2)
    E = make_equiv(make_fin_sheaf(pt, [V2]), cs,
                   ("fin", ((LinMap.identity(V2), LinMap.identity(V2)),)))
    gens = generator_epi(E)
    assert len(gens) == 2
    for g in gens:
        assert map_rank(stalk_map(g, fin_point(0))) <= 1
    assert generator_images_cover(E, gens)
    assert not generator_images_cover(E, gens[:1])


def test_generators_on_random_equivariant_sheaves():
    cs = o2_structure()
    G = group_ring_sheaf(cs)
    rng = random.Random(11)
    for _ in range(10):
        E = random_equiv_sheaf(X1, cs, rng, 2)
        gens = generator_epi(E)
        assert generator_images_cover(E, gens)
        for g in gens:
            assert check_equivariance(g, G, E)


# -- the standard generator ---------------------------------------------------
# The generator of a flag vertex is the equivariant ring as a module over
# itself, represented by its unit `EqCFun.unit`.

def test_standard_generator_trivial_groups():
    cs = trivial_structure(X1)
    for flag in [(0,), (1,), (1, 0)]:
        g = EqCFun.unit(X1, flag, cs)
        assert eq_to_plain(g) == CFun.unit(X1, flag)


def test_standard_generator_apex_group_ring():
    cs = cone_structure(X1, {}, constant_structure(Finite(1), C2), C2,
                        identity_hom(C2))
    g = EqCFun.unit(X1, (1,), cs)
    assert g.data == gr_unit(C2)       # the group ring at the limit point


def test_standard_generator_germ_leaves():
    cs = o2_structure()
    g = EqCFun.unit(X1, (1, 0), cs)
    assert g.data == gr_unit(C2)       # germ of uniform group-ring sequences
    assert level_group(cs, 0) == C2


def test_structure_with_exceptional_copy():
    # one copy carries a bigger group than the tail
    K4 = direct_product(C2, C2)
    exc = {0: constant_structure(Finite(1), K4)}
    cs = cone_structure(X1, exc, constant_structure(Finite(1), C2), ONEG,
                        trivial_hom(C2, ONEG))
    assert cs.group_at(copy_point(0, fin_point(0))).order == 4
    assert cs.group_at(copy_point(1, fin_point(0))).order == 2
    assert chain_misses(cs) == []
    E = group_ring_sheaf(cs)
    assert stalk(E.sheaf, copy_point(0, fin_point(0))).dim == 4
    assert stalk(E.sheaf, copy_point(3, fin_point(0))).dim == 2
    # exceptional copies sit outside the canonical apex neighbourhood
    with pytest.raises(GroupError):
        chain_to_top(cs, copy_point(0, fin_point(0)).addr)
