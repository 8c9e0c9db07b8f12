"""Oracles for what `weyl` computes once and keeps, and for its one-pass averaging.

* `average_stalk` sums (1/|G|) Σ_g ρ_t(g) m ρ_s(g⁻¹) in one pass; the
  reference here is the two-product formula with a brute-force inverse.
  Inputs: criterion 6's eight groups with the monomial representations of
  `_random_rep`, and dense random rational matrices in place of the
  representations (the formula is linear in each, so it need not act).
  Named cases pin the exact rational arithmetic: denominators 2, 3, 5 and 7
  in every matrix, an averaged map fed back in, `int` entries whose sums
  |G| does not divide, the zero map and the regular representation of S3;
  every entry of every output is a `Fraction`.
* `_equivariant_germ` calls `average_stalk`; the reference is its own loop,
  on the inputs `random_equiv_sheaf` draws over the dihedral block and over
  the rank-1 tail of the torus block (random equivariant sheaves stop at
  rank 1, so that tail is where the torus block's germs are averaged).
* `FinGroup` keeps its identity, inverses and sign characters; they must
  agree with a brute-force scan and leave `==`, `hash` and `repr` as they
  are for a group that keeps nothing.
* `ComponentStructure` keeps its group-ring sheaf and germ components per
  object, so structures equal up to group names keep their own names.
* The equivariant rings and complexes accept only structures with one group
  per level, also across the summands of a sum, and `random_equiv_sheaf`
  refuses rank >= 2 before it draws.  The tail predicate of
  `cone_structure` (equal top groups) and the complex's (one group per
  shared height) disagree both ways on `Sum(Finite(1), Cone(Finite(1)))`
  with C2 on `Finite(1)`: with C3 -> C2 on the cone, `cone_structure` takes
  it as a tail and the complex refuses the cone over it; with C2 -> C3, the
  complex takes it as a root sum and `cone_structure` refuses it as a tail.
* The germ check runs at every cone of a structure, not on the root's rows:
  it refuses a sum whose right cone does not compose though the root's
  rows do (without the check d∘d is not zero there), and it accepts a sum
  whose root rows do not compose though every cone's do (d∘d is zero and
  seeded cocycles are witnessed).  It refuses a sum tail whose summand
  reaches the apex by a chain the table does not hold (C2×C2 on
  `Cone(Sum(Cone(Finite(1)),Finite(1)))`, where the sheaf of group rings
  follows the summand's chain and the table the other summand's), and
  accepts the same shape once the chains agree.  Every seeded level-uniform
  structure of `test_level_oracle.draw_structure` that `equivariant_adelic`
  accepts has d∘d = 0 on cochains drawn per flag by `test_pathway_golden`'s
  drawer.
* `check_germ_equivariance` and the generators read spread sections point
  by point: a sign action at an apex over trivial stalks is caught, and
  the generators of random sheaves over a two-point base are valid,
  equivariant and cover.
* The generators act at a copy as the action acts there, also at a copy
  that only the action lists: with the sign at copy 1 of constant C2 on
  `Cone(Finite(1))`, the apex generator is zero there, copy 1 gets its own
  generator, and the cover check probes copy 1, so a generator at copy 0
  alone does not cover.  Over `t2_block()` the generators of the group-ring
  sheaf, of constant sheaves and of skyscrapers at an apex and at a copy's
  apex cover, are valid and are equivariant.
* An action must act at every copy the structure makes exceptional: on the
  structure with S3 at copy 0 over a C2 tail (the shape of the dihedral
  part of SO(3), where W(D_4) = S3), `random_equiv_sheaf`, which stores no
  copies, is refused on 40 seeds, while an action that lists copy 0 is
  accepted and its germs are compared against the tail, past copy 0.
"""

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from stonesheaf import serialize as ser
from stonesheaf import weyl
from stonesheaf.adelic import (
    FlagError, _canon, _dmap_leaves, _zip_leaves, all_flags, check_flag, const_data, dmap,
    insert_height)
from stonesheaf.catalog import (
    SubgroupLabel, Lattice2, line_lattice, o2_dihedral_block, t2_block, weyl_of_subgroup)
from stonesheaf.linalg import ZERO, LinMap, VectQ
from stonesheaf.serialize import SerializeError
from stonesheaf.linalg import rank as map_rank
from stonesheaf.sheaf import (
    check_sheaf_map, constant, make_cone_map, make_cone_sheaf, make_fin_map, sec_space,
    germ_section, sec_eval, skyscraper, stalk_map, zero_map)
from stonesheaf.space import (
    Cone, Finite, Sum, apex_point, copy_point, cb_rank, fin_point, parse_space, right_point)
from stonesheaf.verify import _s3_group
from stonesheaf.weyl import (
    GROUP_RING, EqCFun, FinGroup, GroupError, GrpHom, average_stalk, cone_structure,
    constant_structure, cyclic_group, direct_product, eq_random_cocycle, equivariant_adelic, fin_structure, germ_component, gr_mul, gr_unit, group_ring_sheaf,
    hom_between, identity_hom, level_germ, level_group, make_equiv, random_equiv_sheaf,
    require_uniform_levels, sum_structure, trivial_group, trivial_hom)
from test_level_oracle import GROUPS, SEEDED_SPACES, draw_structure
from test_pathway_golden import _random_eq_cochain, _random_eq_data, exceptional_copy_elements

CRITERION6_GROUPS = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
                     cyclic_group(5), cyclic_group(6),
                     direct_product(cyclic_group(2), cyclic_group(2)), _s3_group()]


def _identity(G):
    return next(e for e in G.elements()
                if all(G.mul(e, g) == g == G.mul(g, e) for g in G.elements()))


def _inverse(G, g):
    e = _identity(G)
    return next(h for h in G.elements() if G.mul(g, h) == e)


def _average_reference(G, rs, rt, m):
    acc = LinMap.zero(m.source, m.target)
    for g in G.elements():
        acc = acc.add(rs[_inverse(G, g)].then(m).then(rt[g]))
    return acc.scale(Fraction(1, G.order))


def _dense(rng, source, target, bound=3):
    return LinMap.from_rows(source, target,
                            [[Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                              for _ in range(source.dim)] for _ in range(target.dim)])


@pytest.mark.parametrize("G", CRITERION6_GROUPS, ids=lambda G: G.name)
def test_average_stalk_matches_two_products_on_monomial_reps(G):
    rng = random.Random(90 + G.order)
    for _ in range(12):
        # dimensions up to |G| + 1 so that the regular block is drawn too
        V, rs = weyl._random_rep(G, rng.randint(1, G.order + 1), rng)
        W, rt = weyl._random_rep(G, rng.randint(1, G.order + 1), rng)
        m = _dense(rng, V, W)
        assert repr(average_stalk(G, rs, rt, m)) == repr(_average_reference(G, rs, rt, m))


@pytest.mark.parametrize("G", CRITERION6_GROUPS, ids=lambda G: G.name)
def test_average_stalk_matches_two_products_on_dense_matrices(G):
    rng = random.Random(70 + G.order)
    for _ in range(6):
        V, W = VectQ.make(rng.randint(1, 3)), VectQ.make(rng.randint(1, 3))
        rs = [_dense(rng, V, V) for _ in G.elements()]
        rt = [_dense(rng, W, W) for _ in G.elements()]
        m = _dense(rng, V, W)
        assert repr(average_stalk(G, rs, rt, m)) == repr(_average_reference(G, rs, rt, m))


def test_average_stalk_rejects_mismatched_representations():
    G = cyclic_group(2)
    V2, V3 = VectQ.make(2), VectQ.make(3)
    rs = [LinMap.identity(V2)] * 2
    with pytest.raises(ValueError):
        average_stalk(G, rs, rs, LinMap.zero(V3, V2))


def _rows(source, target, rows):
    """A `LinMap` on the given entries as they are, `int`s included."""
    return LinMap(source, target, tuple(tuple(row) for row in rows))


def _check_average(G, rs, rt, m):
    got = average_stalk(G, rs, rt, m)
    assert repr(got) == repr(_average_reference(G, rs, rt, m))
    assert all(type(x) is Fraction for row in got.matrix for x in row)
    return got


def test_average_stalk_over_coprime_denominators():
    # m, ρ_s and ρ_t each carry the denominators 2, 3, 5 and 7, so each
    # matrix's common denominator is 210
    G = cyclic_group(2)
    V, W = VectQ.make(2), VectQ.make(2)
    F = Fraction
    m = _rows(V, W, [[F(1, 2), F(-1, 3)], [F(2, 5), F(1, 7)]])
    rs = [_rows(V, V, [[F(1, 3), F(1, 2)], [F(-3, 7), F(4, 5)]]),
          _rows(V, V, [[F(1, 5), 0], [F(1, 7), F(5, 6)]])]
    rt = [_rows(W, W, [[F(1, 7), F(2, 3)], [0, F(1, 10)]]),
          _rows(W, W, [[F(-1, 2), F(3, 5)], [F(1, 3), F(6, 7)]])]
    got = _check_average(G, rs, rt, m)
    assert max(x.denominator for row in got.matrix for x in row) > 210


def test_average_stalk_of_an_averaged_map():
    rng = random.Random(5)
    fractional = 0
    for G in CRITERION6_GROUPS[1:]:
        V, rs = weyl._random_rep(G, G.order + 1, rng)
        W, rt = weyl._random_rep(G, G.order, rng)
        m = _rows(V, W, [[rng.randint(-5, 5) for _ in range(V.dim)] for _ in range(W.dim)])
        once = average_stalk(G, rs, rt, m)
        # the average of an integral map has denominators dividing |G|
        assert all(G.order % x.denominator == 0 for row in once.matrix for x in row)
        fractional += any(x.denominator > 1 for row in once.matrix for x in row)
        assert repr(_check_average(G, rs, rt, once)) == repr(once)
    assert fractional > 0


def test_average_stalk_of_integer_entries_not_divisible_by_the_order():
    for G in CRITERION6_GROUPS[2:]:
        V = VectQ.make(G.order)
        W = VectQ.make(1)
        reg = [_rows(V, V, [[int(x) for x in row] for row in r.matrix])
               for r in weyl.regular_rep(G)]
        trivial = [_rows(W, W, [[1]])] * G.order
        m = _rows(V, W, [[1] + [0] * (G.order - 1)])
        got = _check_average(G, reg, trivial, m)
        assert got.matrix == ((Fraction(1, G.order),) * G.order,)


def test_average_stalk_of_the_zero_map():
    G = _s3_group()
    rng = random.Random(8)
    V, rs = weyl._random_rep(G, 7, rng)
    W, rt = weyl._random_rep(G, 3, rng)
    got = _check_average(G, rs, rt, LinMap.zero(V, W))
    assert got.is_zero()


def test_average_stalk_over_the_regular_representation_of_s3():
    G = _s3_group()
    rep = weyl.regular_rep(G)
    V = rep[0].source
    rng = random.Random(12)
    for _ in range(4):
        _check_average(G, rep, rep, _dense(rng, V, V))


def _germ_reference(tail, up, amats, raw):
    Gy = up.source
    S = sec_space(tail.sheaf)
    sec_mats = [weyl._section_action(tail, g) for g in Gy.elements()]
    acc = LinMap.zero(raw.source, S)
    for h in Gy.elements():
        acc = acc.add(amats[up(_inverse(Gy, h))].then(raw).then(sec_mats[h]))
    return acc.scale(Fraction(1, Gy.order))


@pytest.mark.parametrize("block", ["o2_dihedral_block(6)", "t2_block() tail"])
def test_equivariant_germ_matches_its_loop(block, monkeypatch):
    if block == "t2_block() tail":
        cs = t2_block()[2].data[2]
        space = cs.space
    else:
        space, _labels, cs = o2_dihedral_block(6)
    drawn = []
    averaged = weyl._equivariant_germ

    def record(tail, up, amats, raw):
        germ = averaged(tail, up, amats, raw)
        drawn.append(((tail, up, amats, raw), germ))
        return germ
    monkeypatch.setattr(weyl, "_equivariant_germ", record)
    rng = random.Random(61)
    for _ in range(25):
        random_equiv_sheaf(space, cs, rng, 2)
    assert len(drawn) == 25
    assert any(not germ.is_zero() for _args, germ in drawn)
    for args, germ in drawn:
        assert repr(germ) == repr(_germ_reference(*args))


def _structure_groups(cs):
    if cs.data[0] == "fin":
        return list(cs.data[1])
    if cs.data[0] == "sum":
        return _structure_groups(cs.data[1]) + _structure_groups(cs.data[2])
    _, exc, tail_cs, apex_group, up = cs.data
    out = [apex_group, up.source, up.target] + _structure_groups(tail_cs)
    for _k, sub in exc:
        out += _structure_groups(sub)
    return out


def catalog_groups():
    """Every group the catalog builds, and criterion 6's groups."""
    groups = list(CRITERION6_GROUPS)
    for n in range(1, 9):
        groups += _structure_groups(o2_dihedral_block(n)[2])
    for split in (True, False):
        groups += _structure_groups(t2_block(split=split, n_circles=3)[2])
    groups += [weyl_of_subgroup(SubgroupLabel("finite", Lattice2("full", a=1, b=0, d=1))),
               weyl_of_subgroup(SubgroupLabel("circle", line_lattice(1, 0))),
               weyl_of_subgroup(SubgroupLabel("full"))]
    return groups


@dataclass(frozen=True)
class _PlainGroup:
    """A group that keeps nothing: the fields that equality, hashing and the
    repr of `FinGroup` are made of."""
    table: tuple
    name: str = field(default="G", compare=False)


def test_group_tables_match_a_brute_force_scan():
    groups = catalog_groups()
    assert {G.order for G in groups} >= {1, 2, 3, 4, 5, 6}
    for G in groups:
        assert G.identity == _identity(G)
        assert [G.inv(g) for g in G.elements()] == [_inverse(G, g) for g in G.elements()]
        chars = [bits for bits in itertools.product((1, -1), repeat=G.order)
                 if all(bits[G.mul(a, b)] == bits[a] * bits[b]
                        for a in G.elements() for b in G.elements())]
        assert list(G.sign_characters) == chars
        assert G.sign_characters is G.sign_characters
        plain = _PlainGroup(G.table, G.name)
        assert repr(G) == repr(plain).replace("_PlainGroup", "FinGroup")
        assert hash(G) == hash(plain)
    for G, H in itertools.product(groups, repeat=2):
        assert (G == H) == (_PlainGroup(G.table) == _PlainGroup(H.table))
    assert FinGroup(cyclic_group(3).table, "Z/3") == cyclic_group(3)


def test_group_ring_sheaf_is_kept_per_structure_object():
    def structure(name):
        C2 = FinGroup(cyclic_group(2).table, name)
        one = trivial_group()
        return cone_structure(Cone(Finite(1)), {}, constant_structure(Finite(1), C2), one,
                              trivial_hom(C2, one))
    a, b = structure("C2"), structure("Z/2")
    assert a == b and hash(a) == hash(b)
    ja = ser.equiv_to_json(group_ring_sheaf(a))
    jb = ser.equiv_to_json(group_ring_sheaf(b))
    assert "C2" in repr(ja) and "Z/2" not in repr(ja)
    assert "Z/2" in repr(jb) and "C2" not in repr(jb)
    assert group_ring_sheaf(a) is group_ring_sheaf(a)
    assert group_ring_sheaf(a) is not group_ring_sheaf(b)
    cs = t2_block()[2]
    assert level_germ(cs, 0, 1) is level_germ(cs, 0, 1)
    for b_, a_ in [(0, 1), (0, 2), (1, 2)]:
        assert level_germ(cs, b_, a_) == germ_component(hom_between(cs, b_, a_))


def test_ring_elements_need_level_uniform_structures():
    X1 = Cone(Finite(1))
    C2 = cyclic_group(2)
    mixed = fin_structure(Finite(2), [C2, cyclic_group(3)])
    copy = cone_structure(X1, {0: constant_structure(Finite(1), direct_product(C2, C2))},
                          constant_structure(Finite(1), C2), trivial_group(),
                          trivial_hom(C2, trivial_group()))
    for space, cs in [(Finite(2), mixed), (X1, copy)]:
        for build in (EqCFun.unit, EqCFun.zero):
            with pytest.raises(GroupError, match="level-uniform"):
                build(space, (0,), cs)
    uniform = fin_structure(Finite(2), [C2, C2])
    doc = ser.eqcfun_to_json(EqCFun.unit(Finite(2), (0,), uniform))
    assert ser.eqcfun_from_json(doc) == EqCFun.unit(Finite(2), (0,), uniform)
    doc["structure"] = ser.structure_to_json(mixed)
    with pytest.raises(SerializeError, match="level-uniform"):
        ser.eqcfun_from_json(doc)


def test_sum_summands_need_one_group_per_shared_level():
    two = Sum(Finite(1), Finite(1))
    C2, C3 = cyclic_group(2), cyclic_group(3)
    mixed = sum_structure(two, fin_structure(Finite(1), [C2]), fin_structure(Finite(1), [C3]))
    for build in (EqCFun.unit, EqCFun.zero):
        with pytest.raises(GroupError, match="level-uniform"):
            build(two, (0,), mixed)
    with pytest.raises(GroupError, match="level-uniform"):
        equivariant_adelic(two, mixed)
    uniform = sum_structure(two, fin_structure(Finite(1), [C2]), fin_structure(Finite(1), [C2]))
    doc = ser.eqcfun_to_json(EqCFun.unit(two, (0,), uniform))
    doc["structure"] = ser.structure_to_json(mixed)
    with pytest.raises(SerializeError, match="level-uniform"):
        ser.eqcfun_from_json(doc)
    # the two uniformity predicates disagree both ways on one uneven sum:
    # `cone_structure` takes Sum(Finite(1)[C2], Cone(Finite(1))[C3 -> C2]) as
    # a tail (equal top groups), and the complex refuses it (C2 and C3 at
    # height 0); with C2 -> C3 instead, the complex takes it as a root sum
    # (one group per shared height), and `cone_structure` refuses it as a tail
    uneven, X1 = Sum(Finite(1), Cone(Finite(1))), Cone(Finite(1))
    for low, top in [(C3, C2), (C2, C3)]:
        cs = sum_structure(uneven, fin_structure(Finite(1), [C2]),
                           cone_structure(X1, {}, fin_structure(Finite(1), [low]), top,
                                          trivial_hom(low, top)))
        assert weyl._uniform(cs) == (top == C2) == (not weyl._uniform_levels(cs))
    coned = Cone(uneven)
    tail = sum_structure(uneven, fin_structure(Finite(1), [C2]),
                         cone_structure(X1, {}, fin_structure(Finite(1), [C3]), C2,
                                        trivial_hom(C3, C2)))
    cs = cone_structure(coned, {}, tail, C2, identity_hom(C2))
    for build in (EqCFun.unit, EqCFun.zero):
        with pytest.raises(GroupError, match="level-uniform"):
            build(coned, (0,), cs)
    with pytest.raises(GroupError, match="level-uniform"):
        equivariant_adelic(coned, cs)
    root = sum_structure(uneven, fin_structure(Finite(1), [C2]),
                         cone_structure(X1, {}, fin_structure(Finite(1), [C2]), C3,
                                        trivial_hom(C2, C3)))
    equivariant_adelic(uneven, root)
    with pytest.raises(GroupError, match="tail structures must be level-uniform"):
        cone_structure(coned, {}, root, C2, identity_hom(C2))
    # the catalog's blocks carry one group per level and stay accepted
    for space, _labels, cs, *_towers in [o2_dihedral_block(n) for n in (3, 4, 6)] + [t2_block()]:
        equivariant_adelic(space, cs)
        EqCFun.unit(space, (0,), cs)


X1, X2 = Cone(Finite(1)), Cone(Cone(Finite(1)))


def _fin(G):
    return fin_structure(Finite(1), [G])


def _squares_to_zero(cx, rng, draws=3):
    """Whether d∘d vanishes on `draws` cochains of every degree, drawn per flag."""
    return all(cx.is_cocycle(cx.differential(_random_eq_cochain(cx, degree, rng), degree),
                             degree + 1)
               for degree in range(-1, cx.rank - 1) for _ in range(draws))


def test_germ_check_refuses_a_sum_whose_cone_does_not_compose(monkeypatch):
    """The right cone's germs do not compose, though the root's rows do: the
    root's top row reaches heights 0 and 1 through the left part."""
    one, C2 = trivial_group(), cyclic_group(2)
    inner = cone_structure(X1, {}, _fin(one), C2, trivial_hom(one, C2))
    right = cone_structure(X2, {}, inner, one, trivial_hom(C2, one))
    cs = sum_structure(Sum(X1, X2), inner, right)
    for space, structure in [(X2, right), (Sum(X1, X2), cs)]:
        with pytest.raises(GroupError, match="germ components do not compose along the levels"):
            equivariant_adelic(space, structure)
    # without the check the complex is built, and d∘d is not zero on it
    monkeypatch.setattr(weyl, "validate_structure_levels", lambda _cs: True)
    assert not _squares_to_zero(equivariant_adelic(Sum(X1, X2), cs), random.Random(8))


def test_germ_check_accepts_a_sum_whose_cones_compose():
    """The root's rows do not compose (its top row reaches height 0 through
    `Finite(1)`), but every cone's do, and the complex is exact."""
    C2 = cyclic_group(2)
    inner = cone_structure(X1, {}, _fin(C2), C2, identity_hom(C2))
    right = cone_structure(X2, {}, inner, C2, trivial_hom(C2, C2))
    space = Sum(Finite(1), X2)
    cx = equivariant_adelic(space, sum_structure(space, _fin(C2), right))
    rng = random.Random(23)
    assert _squares_to_zero(cx, rng)
    for degree in range(cx.rank + 1):
        for _ in range(3):
            z = eq_random_cocycle(cx, degree, rng)
            assert cx.differential(cx.exactness_witness(z, degree), degree - 1) == z


def test_germ_check_refuses_a_sum_tail_whose_summand_has_its_own_chain():
    """C2×C2 at every point of Cone(Sum(X1, Finite(1))).  With the map
    (0, 2, 1, 3) at the inner cone, the table reaches height 0 through X1,
    by (0, 3, 0, 3), while the point of `Finite(1)` reaches the apex by the
    outer map (0, 0, 3, 3) alone, as the sheaf of group rings does; with the
    identity there both agree and the complex is built."""
    K4 = direct_product(cyclic_group(2), cyclic_group(2))
    space = Cone(Sum(X1, Finite(1)))
    x = right_point(fin_point(0))     # the point of Finite(1) in the tail

    def structure(inner):
        cone = cone_structure(X1, {}, _fin(K4), K4, GrpHom(K4, K4, inner))
        return cone_structure(space, {}, sum_structure(space.base, cone, _fin(K4)),
                              K4, GrpHom(K4, K4, (0, 0, 3, 3)))
    cs = structure((0, 2, 1, 3))
    assert hom_between(cs, 0, 2).values == (0, 3, 0, 3)
    ring = group_ring_sheaf(cs).sheaf
    e0 = ring.apex.basis_vec(0)
    assert sec_eval(ring.tail, germ_section(ring, e0), x) == (Fraction(1, 2), Fraction(1, 2), 0, 0)
    assert level_germ(cs, 0, 2).apply(e0) == (Fraction(1, 2), 0, Fraction(1, 2), 0)
    with pytest.raises(GroupError, match="a tail point does not reach the apex by the level table"):
        equivariant_adelic(space, cs)
    equivariant_adelic(space, structure((0, 1, 2, 3)))


def test_accepted_structures_square_to_zero():
    # each structure's cochains come from their own generator, so a refused
    # structure shifts no later draw
    accepted = 0
    for i, expr in enumerate(SEEDED_SPACES):
        space, rng = parse_space(expr), random.Random(700 + i)
        for j in range(50):
            cs = draw_structure(space, rng, rng.sample(GROUPS, 2))
            try:
                cx = equivariant_adelic(space, cs)
            except GroupError:
                continue
            accepted += 1
            assert _squares_to_zero(cx, random.Random(f"{700 + i}:{j}")), (expr, cs)
    assert accepted >= 200


def test_random_equiv_sheaf_rejects_rank2_before_drawing():
    space, _labels, cs, _towers = t2_block()
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="rank <= 1"):
        random_equiv_sheaf(space, cs, rng)
    assert rng.getstate() == state


def test_germ_equivariance_reads_the_spread_values():
    X1 = Cone(Finite(1))
    C2 = cyclic_group(2)
    cs = constant_structure(X1, C2)
    tail = constant(Finite(1), 1)
    Q = VectQ.make(1)
    sheaf = make_cone_sheaf(X1, {}, tail, Q, LinMap.from_cols(Q, sec_space(tail), [(1,)]))
    one, minus = LinMap.identity(Q), LinMap.from_rows(Q, Q, [[-1]])
    tail_reps = ("fin", ((one, one),))
    assert weyl.check_germ_equivariance(make_equiv(sheaf, cs, ("cone", (), tail_reps, (one, one))))
    # the sign action at the apex does not commute with spreading onto trivial stalks
    assert not weyl.check_germ_equivariance(
        make_equiv(sheaf, cs, ("cone", (), tail_reps, (one, minus))))


def test_generators_spread_over_every_base_point():
    space = Cone(Finite(2))
    cs = constant_structure(space, cyclic_group(2))
    ring = group_ring_sheaf(cs)
    rng = random.Random(17)
    for _ in range(10):
        E = random_equiv_sheaf(space, cs, rng, 2)
        assert weyl.check_germ_equivariance(E)
        gens = weyl.generator_epi(E)
        assert weyl.generator_images_cover(E, gens)
        assert all(check_sheaf_map(g) and weyl.check_equivariance(g, ring, E) for g in gens)


def _s3_at_copy_0():
    X1 = Cone(Finite(1))
    C2, one = cyclic_group(2), trivial_group()
    return cone_structure(X1, {0: constant_structure(Finite(1), _s3_group())},
                          constant_structure(Finite(1), C2), one, trivial_hom(C2, one))


def test_actions_must_act_at_exceptional_copies():
    cs = _s3_at_copy_0()
    for seed in range(40):
        with pytest.raises(GroupError, match="not multiplicative"):
            random_equiv_sheaf(cs.space, cs, random.Random(seed), 2)
    sheaf = constant(cs.space, 1)
    one = LinMap.identity(sheaf.apex)
    tail_reps = ("fin", ((one, one),))
    with pytest.raises(GroupError):
        make_equiv(sheaf, cs, ("cone", (), tail_reps, (one,)))
    E = make_equiv(sheaf, cs, ("cone", ((0, ("fin", ((one,) * 6,))),), tail_reps, (one,)))
    assert weyl.check_germ_equivariance(E)
    assert weyl.trivial_equiv(sheaf, cs) == E


def _sign_at_copy_1(sheaf):
    """Constant C2 on `Cone(Finite(1))` acting on a sheaf with tail stalk Q:
    trivially at the tail and the apex, by the sign at copy 1, which the
    sheaf does not store."""
    cs = constant_structure(sheaf.space, cyclic_group(2))
    one, apex = LinMap.identity(sheaf.tail.data[0]), LinMap.identity(sheaf.apex)
    sign = ("fin", ((one, one.scale(-1)),))
    return make_equiv(sheaf, cs, ("cone", ((1, sign),), ("fin", ((one, one),)), (apex, apex)))


def test_generators_act_at_a_copy_as_the_action_does():
    E = _sign_at_copy_1(constant(Cone(Finite(1)), 1))
    ring = group_ring_sheaf(E.cs)
    assert weyl.check_germ_equivariance(E)
    gens = weyl.generator_epi(E)
    assert len(gens) == 3   # the apex, copy 1 and the generic copy 2
    assert all(weyl.check_equivariance(g, ring, E) and check_sheaf_map(g) for g in gens)
    assert stalk_map(gens[0], copy_point(1, fin_point(0))).is_zero()
    assert weyl.generator_images_cover(E, gens)


def test_generators_cover_a_copy_only_the_action_lists():
    tail, nothing = constant(Finite(1), 1), VectQ.make(0)
    E = _sign_at_copy_1(make_cone_sheaf(Cone(Finite(1)), {}, tail, nothing,
                                        LinMap.zero(nothing, sec_space(tail))))
    ring = group_ring_sheaf(E.cs).sheaf
    gens = weyl.generator_epi(E)
    assert len(gens) == 2   # copy 1 and the generic copy 2
    assert weyl.generator_images_cover(E, gens)
    at_copy_1 = [col for g in gens for col in stalk_map(g, copy_point(1, fin_point(0))).cols()]
    assert map_rank(LinMap.from_cols(VectQ.make(len(at_copy_1)), tail.data[0], at_copy_1)) == 1
    # one generator at copy 0, read as the generic copy, is zero at copy 1
    at_copy_0 = LinMap.from_cols(ring.tail.data[0], tail.data[0], [(1,), (1,)])
    only = make_cone_map(ring, E.sheaf, {0: make_fin_map(ring.tail, tail, [at_copy_0])},
                         zero_map(ring.tail, tail), LinMap.zero(ring.apex, nothing))
    assert weyl.check_equivariance(only, group_ring_sheaf(E.cs), E)
    assert not weyl.generator_images_cover(E, [only])


@pytest.mark.parametrize("name, count", [
    ("group_ring_sheaf", 7), ("constant 1", 3), ("constant 2", 6),
    ("skyscraper at the apex", 1), ("skyscraper at copy 2's apex", 1)])
def test_generators_at_rank_2(name, count):
    space, _labels, cs, _towers = t2_block()
    ring = group_ring_sheaf(cs)
    E = {"group_ring_sheaf": lambda: ring,
         "constant 1": lambda: weyl.trivial_equiv(constant(space, 1), cs),
         "constant 2": lambda: weyl.trivial_equiv(constant(space, 2), cs),
         "skyscraper at the apex":
             lambda: weyl.trivial_equiv(skyscraper(space, apex_point(), 1), cs),
         "skyscraper at copy 2's apex":
             lambda: weyl.trivial_equiv(skyscraper(space, copy_point(2, apex_point()), 1), cs),
         }[name]()
    gens = weyl.generator_epi(E)
    assert len(gens) == count
    assert weyl.generator_images_cover(E, gens)
    assert all(weyl.check_equivariance(g, ring, E) and check_sheaf_map(g) for g in gens)


# ---------------------------------------------------------------------------
# the ring operations of the equivariant splicing rings, against the
# top-level functions that they were


@dataclass(frozen=True)
class _EqRecord:
    """An equivariant ring element as the references build it: the fields
    of the record that equivariant ring elements were, in their order."""
    space: object
    flag: tuple
    cs: object
    data: object


def _reference_group(cs, flag):
    return level_group(cs, flag[-1] if flag else 0)


def eq_unit_reference(space, flag, cs):
    check_flag(space, flag)
    require_uniform_levels(cs, "equivariant ring elements")
    return _EqRecord(space, flag, cs,
                     const_data(space, flag, gr_unit(_reference_group(cs, flag))))


def eq_zero_reference(space, flag, cs):
    check_flag(space, flag)
    require_uniform_levels(cs, "equivariant ring elements")
    return _EqRecord(space, flag, cs,
                     const_data(space, flag, (ZERO,) * _reference_group(cs, flag).order))


def _zip_reference(f, g, op):
    data = _canon(GROUP_RING, f.space, f.flag, f.cs,
                  _zip_leaves(f.space, f.flag, f.data, g.data, op))
    return _EqRecord(f.space, f.flag, f.cs, data)


def eq_add_reference(f, g):
    return _zip_reference(f, g, lambda a, b: tuple(p + q for p, q in zip(a, b)))


def eq_mul_reference(f, g):
    """Stalkwise convolution product."""
    G = _reference_group(f.cs, f.flag)
    return _zip_reference(f, g, lambda a, b: gr_mul(G, a, b))


def eq_dmap_reference(b, f):
    new_flag = insert_height(f.flag, b)
    check_flag(f.space, new_flag)
    data = _canon(GROUP_RING, f.space, new_flag, f.cs,
                  _dmap_leaves(GROUP_RING, f.space, f.flag, f.cs, b, f.data))
    return _EqRecord(f.space, new_flag, f.cs, data)


def _ring_ops():
    """The ring operations under test, by name."""
    return {"unit": EqCFun.unit, "zero": EqCFun.zero, "add": EqCFun.add,
            "mul": EqCFun.mul, "dmap": dmap}


def _element(record):
    return EqCFun(space=record.space, flag=record.flag, cs=record.cs, data=record.data)


def _same_element(got, want):
    assert type(got) is EqCFun
    assert got.data == want.data
    assert ser.eqcfun_to_json(got) == ser.eqcfun_to_json(want)


def _uniform_ring_cases():
    """(name, space, structure) of the level-uniform structures whose ring
    elements `test_weyl` and this file build."""
    C2, C3, one = cyclic_group(2), cyclic_group(3), trivial_group()
    two, uneven = Sum(Finite(1), Finite(1)), Sum(Finite(1), X1)
    cases = [
        ("o2_structure", X1, cone_structure(X1, {}, _fin(C2), one, trivial_hom(C2, one))),
        ("trivial X1", X1, weyl.trivial_structure(X1)),
        ("trivial X2", X2, weyl.trivial_structure(X2)),
        ("C2 apex", X1, cone_structure(X1, {}, _fin(C2), C2, identity_hom(C2))),
        ("uniform Finite(2)", Finite(2), fin_structure(Finite(2), [C2, C2])),
        ("uniform sum", two, sum_structure(two, _fin(C2), _fin(C2))),
        ("root sum", uneven, sum_structure(uneven, _fin(C2), cone_structure(
            X1, {}, _fin(C2), C3, trivial_hom(C2, C3)))),
    ]
    for n in (3, 4, 6):
        space, _labels, cs = o2_dihedral_block(n)
        cases.append((f"o2_dihedral_block({n})", space, cs))
    space, _labels, cs, _towers = t2_block()
    return cases + [("t2_block()", space, cs)]


def _refused_ring_cases():
    """(name, space, structure) of the structures without one group per
    level that `test_ring_elements_need_level_uniform_structures` and
    `test_sum_summands_need_one_group_per_shared_level` build."""
    C2, C3, one = cyclic_group(2), cyclic_group(3), trivial_group()
    two, uneven = Sum(Finite(1), Finite(1)), Sum(Finite(1), X1)
    tail = sum_structure(uneven, _fin(C2), cone_structure(X1, {}, _fin(C3), C2,
                                                          trivial_hom(C3, C2)))
    return [
        ("mixed Finite(2)", Finite(2), fin_structure(Finite(2), [C2, C3])),
        ("bigger copy", X1, cone_structure(X1, {0: _fin(direct_product(C2, C2))}, _fin(C2),
                                           one, trivial_hom(C2, one))),
        ("mixed sum", two, sum_structure(two, _fin(C2), _fin(C3))),
        ("cone over an uneven sum", Cone(uneven),
         cone_structure(Cone(uneven), {}, tail, C2, identity_hom(C2))),
    ]


UNIFORM_RING_CASES, REFUSED_RING_CASES = _uniform_ring_cases(), _refused_ring_cases()


def _outcome(build, *args):
    """The element that build(*args) returns, or the type and message of
    what it raises."""
    try:
        return build(*args)
    except (ValueError, GroupError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("name, space, cs", UNIFORM_RING_CASES,
                         ids=[name for name, _space, _cs in UNIFORM_RING_CASES])
def test_units_and_zeros_match_the_reference(name, space, cs):
    ops = _ring_ops()
    for flag in [()] + all_flags(cb_rank(space)):
        _same_element(ops["unit"](space, flag, cs), eq_unit_reference(space, flag, cs))
        _same_element(ops["zero"](space, flag, cs), eq_zero_reference(space, flag, cs))
    rank = cb_rank(space)
    for flag in [(rank + 1,), (0, 1), (-1,)]:
        for op, reference in [("unit", eq_unit_reference), ("zero", eq_zero_reference)]:
            got = _outcome(ops[op], space, flag, cs)
            assert got == _outcome(reference, space, flag, cs)
            assert got[0] is FlagError


@pytest.mark.parametrize("name, space, cs", REFUSED_RING_CASES,
                         ids=[name for name, _space, _cs in REFUSED_RING_CASES])
def test_units_and_zeros_refuse_as_the_reference_does(name, space, cs):
    ops = _ring_ops()
    for flag in [(0,), (), (cb_rank(space) + 1,)]:
        for op, reference in [("unit", eq_unit_reference), ("zero", eq_zero_reference)]:
            got = _outcome(ops[op], space, flag, cs)
            assert got == _outcome(reference, space, flag, cs)
            assert isinstance(got, tuple)


def _check_operations(x, y, unit, zero, flags_to_insert):
    """add, mul and dmap on elements x and y against the references."""
    ops = _ring_ops()
    for a, b in [(x, y), (y, x), (x, zero), (zero, y), (x, x)]:
        _same_element(ops["add"](a, b), eq_add_reference(a, b))
        _same_element(ops["mul"](a, b), eq_mul_reference(a, b))
    for a, b in [(x, unit), (unit, y)]:
        _same_element(ops["mul"](a, b), eq_mul_reference(a, b))
    for b in flags_to_insert:
        _same_element(ops["dmap"](b, x), eq_dmap_reference(b, x))


@pytest.mark.parametrize("name, space, cs", UNIFORM_RING_CASES,
                         ids=[name for name, _space, _cs in UNIFORM_RING_CASES])
def test_operations_on_seeded_elements_match_the_reference(name, space, cs):
    rng = random.Random(f"ring {name}")
    rank = cb_rank(space)
    for flag in [()] + all_flags(rank):
        zero = _element(eq_zero_reference(space, flag, cs))
        unit = _element(eq_unit_reference(space, flag, cs))
        x, y = (_element(eq_add_reference(
            EqCFun(space=space, flag=flag, cs=cs,
                        data=_random_eq_data(space, flag, cs, rng)), zero)) for _ in range(2))
        _check_operations(x, y, unit, zero, [b for b in range(rank + 1) if b not in flag])


def test_operations_on_the_seeded_cocycles_of_test_weyl_match_the_reference():
    one, C2 = trivial_group(), cyclic_group(2)
    cs = cone_structure(X1, {}, _fin(C2), one, trivial_hom(C2, one))
    cx = equivariant_adelic(X1, cs)
    for seed, degree in [(7, 0), (9, 1)]:
        rng = random.Random(seed)
        for _ in range(4):
            z, w = eq_random_cocycle(cx, degree, rng), eq_random_cocycle(cx, degree, rng)
            for A in z:
                unit = _element(eq_unit_reference(X1, A, cs))
                zero = _element(eq_zero_reference(X1, A, cs))
                _check_operations(z[A], w[A], unit, zero, [b for b in range(2) if b not in A])
    tau = EqCFun(space=X1, flag=(1, 0), cs=cs, data=(Fraction(0), Fraction(1)))
    _same_element(_ring_ops()["mul"](tau, tau), eq_mul_reference(tau, tau))


def test_operations_on_an_exceptional_copy_match_the_reference():
    x, y, f, zero = exceptional_copy_elements()
    ops = _ring_ops()
    for a, b in [(x, zero), (x, y), (y, x), (zero, y)]:
        _same_element(ops["add"](a, b), eq_add_reference(a, b))
        _same_element(ops["mul"](a, b), eq_mul_reference(a, b))
    for b in (0, 1):
        _same_element(ops["dmap"](b, f), eq_dmap_reference(b, f))
    _same_element(ops["dmap"](1, x), eq_dmap_reference(1, x))
