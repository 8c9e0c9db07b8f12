import random
from fractions import Fraction


import pytest

from stonesheaf.linalg import LinMap, VectQ, is_iso, kernel_basis, rank as map_rank
from stonesheaf.space import (
    Cone, Finite, apex_point, copy_point, fin_point, full_set, iter_points,
    nbhd_basis, parse_space, singleton)
from stonesheaf.adelic import CFun, all_flags, random_cfun
from stonesheaf.sheaf import (
    Section, SectionModule, canonical, constant, direct_sum, extend_section,
    identity_map, kernel, cokernel, make_cone_map, make_cone_sheaf, random_csheaf,
    random_section, sec_dim, sec_eval, sec_space, sections, skyscraper, stalk,
    stalk_map, tensor, zero_map, zero_sheaf)
from stonesheaf.cube import (
    cfun_to_section, pushforward_open, restrict_open, ring_sheaf,
    section_to_cfun, sheaf_cube, stalkwise_cube_check)
from stonesheaf.homalg import gamma, counit_map, unit_iso, is_isomorphism

X1 = Cone(Finite(1))
X2 = Cone(Cone(Finite(1)))


def floor_sheaf(space):
    tail = constant(space.base, 1)
    apex = VectQ.make(0)
    return make_cone_sheaf(space, {}, tail, apex, LinMap.zero(apex, sec_space(tail)))


# -- constructors -------------------------------------------------------------

def test_constant_structure():
    F = constant(X1, 1)
    assert F.apex.dim == 1 and F.tail.data[0].dim == 1
    assert F.germ.matrix == ((Fraction(1),),)  # inclusion as constant section


def test_skyscraper_at_apex():
    F = skyscraper(X1, apex_point(), 1)
    assert F.apex.dim == 1
    assert stalk(F, copy_point(0, fin_point(0))).dim == 0
    assert F.germ.is_zero()


def test_skyscraper_at_isolated():
    F = skyscraper(X1, copy_point(3, fin_point(0)), 1)
    assert stalk(F, copy_point(3, fin_point(0))).dim == 1
    assert stalk(F, copy_point(2, fin_point(0))).dim == 0
    assert F.apex.dim == 0


# -- stalks -------------------------------------------------------------------

def test_stalk_of_constant():
    F = constant(X2, 1)
    for x in iter_points(X2, 2):
        assert stalk(F, x).dim == 1


def test_stalk_of_skyscraper_elsewhere():
    F = skyscraper(X1, apex_point(), 2)
    assert stalk(F, copy_point(5, fin_point(0))).dim == 0


def test_floor_sheaf_has_no_apex_stalk():
    F = floor_sheaf(X1)
    assert stalk(F, apex_point()).dim == 0
    assert stalk(F, copy_point(9, fin_point(0))).dim == 1


# -- sections -----------------------------------------------------------------

def test_sections_whole_space_module():
    F = constant(X1, 1)
    mod = sections(F, full_set(X1))
    assert isinstance(mod, SectionModule)
    assert mod.generic_copy.dim == 1 and mod.coupled.dim == 1


def test_sections_singleton_is_stalk():
    F = random_csheaf(X1, random.Random(3), 2, 1)
    x = copy_point(0, fin_point(0))
    got = sections(F, singleton(X1, x))
    assert got.dim == stalk(F, x).dim


def test_sections_sky_over_tail_neighbourhood():
    F = skyscraper(X1, apex_point(), 1)
    mod = sections(F, nbhd_basis(X1, apex_point(), 4))
    assert mod.coupled.dim == 1
    assert mod.generic_copy.dim == 0


# -- pushforward / restriction ------------------------------------------------

def test_pushforward_of_discrete_constant():
    O = restrict_open(constant(X1, 1), 0)
    P = pushforward_open(O)
    assert P.apex.dim == 1   # tail-constant germ space
    assert P.germ == LinMap.identity(VectQ.make(1, "g")) or P.germ.matrix == ((Fraction(1),),)


def test_restrict_drops_higher_strata():
    O = restrict_open(constant(X1, 1), 0)
    assert O.data[0] == "cone"


def test_push_restrict_round_trip():
    F = constant(X1, 1)
    O = restrict_open(F, 0)
    assert restrict_open(pushforward_open(O), 0) == O


# -- the cube -----------------------------------------------------------------

def test_rank1_cube_shapes():
    cube = sheaf_cube(X1)
    R0, R1, R10 = cube["sheaves"][(0,)], cube["sheaves"][(1,)], cube["sheaves"][(1, 0)]
    assert stalk(R1, apex_point()).dim == 1 and stalk(R1, copy_point(0, fin_point(0))).dim == 0
    assert stalk(R0, copy_point(0, fin_point(0))).dim == 1
    # the square is a pullback stalkwise: checked by exactness below
    assert stalkwise_cube_check(X1, apex_point())["exact"]


def test_gamma_of_top_ring_sheaf_is_scalar():
    # the sections of the top-flag sheaf form the one-dimensional ring
    R1 = ring_sheaf(X1, (1,))
    assert sec_dim(R1) == 1
    f = section_to_cfun(X1, (1,), cfun_to_section(CFun.scalar(X1, (1,), 7)))
    assert f == CFun.scalar(X1, (1,), 7)


def test_stalk_of_germ_sheaf_at_isolated_point():
    R10 = ring_sheaf(X1, (1, 0))
    assert stalk(R10, copy_point(2, fin_point(0))).dim == 0


def test_stalkwise_reports():
    rep = stalkwise_cube_check(X1, copy_point(0, fin_point(0)))
    assert rep["stalk_dims"][(0,)] == 1
    assert rep["stalk_dims"][(1,)] == 0
    assert rep["stalk_dims"][(1, 0)] == 0
    assert rep["exact"]
    rep = stalkwise_cube_check(X1, apex_point())
    assert rep["stalk_dims"][(0,)] == 1 and rep["stalk_dims"][(1,)] == 1
    assert rep["exact"]
    rep0 = stalkwise_cube_check(Finite(2), fin_point(1))
    assert rep0["exact"]


def test_ring_sections_match_rings_rank2():
    rng = random.Random(5)
    for A in all_flags(2):
        for _ in range(5):
            f = random_cfun(X2, A, rng)
            assert section_to_cfun(X2, A, cfun_to_section(f)) == f


def test_ring_sections_over_a_sum_with_a_zero_summand():
    # Finite(2) has rank 0, so its ring for the flags (1,) and (1, 0) is zero
    space = parse_space("Sum(Cone(Finite(1)),Finite(2))")
    rng = random.Random(6)
    for A in [(1,), (1, 0)]:
        for _ in range(5):
            f = random_cfun(space, A, rng)
            s = cfun_to_section(f)
            assert s.sheaf == ring_sheaf(space, A)
            assert section_to_cfun(space, A, s) == f


# -- abelian structure --------------------------------------------------------

def test_kernel_of_apex_projection_is_floor():
    const = constant(X1, 1)
    sky = skyscraper(X1, apex_point(), 1)
    proj = make_cone_map(const, sky, {}, zero_map(const.tail, sky.tail),
                         LinMap.identity(const.apex), check=False)
    K, incl = kernel(proj)
    ref = floor_sheaf(X1)
    assert stalk(K, apex_point()).dim == 0
    for k in range(4):
        assert stalk(K, copy_point(k, fin_point(0))).dim == 1
    assert canonical(K).apex.dim == canonical(ref).apex.dim
    assert K.germ.is_zero()


def test_cokernel_of_zero_map():
    F = random_csheaf(X1, random.Random(7), 2, 1)
    C, proj = cokernel(zero_map(zero_sheaf(X1), F))
    assert is_isomorphism(proj)


def _germless_pair(space, rng):
    """A sheaf over a cone with a zero germ, nonzero everywhere, storing copy
    1, so that any apex and tail maps make an endomorphism; with a singular
    apex map."""
    T = direct_sum(constant(space.base, 1), random_csheaf(space.base, rng, 2, 1))[0]
    E = direct_sum(constant(space.base, 1), random_csheaf(space.base, rng, 2, 1))[0]
    V = VectQ.make(rng.randint(1, 2))
    F = make_cone_sheaf(space, {1: E}, T, V, LinMap.zero(V, sec_space(T)))
    rows = [[rng.randint(-2, 2) for _ in range(V.dim)] for _ in range(V.dim)]
    rows[rng.randrange(V.dim)] = [0] * V.dim
    return F, LinMap.from_rows(V, V, rows)


@pytest.mark.parametrize("expr", ["Cone(Finite(1))", "Cone(Sum(Finite(2),Finite(1)))",
                                  "Cone(Cone(Finite(1)))"])
def test_is_isomorphism_fails_at_one_place(expr):
    """Endomorphisms that are the identity except at the apex, at the one
    stored copy, or on the tail: each is no isomorphism, though the copy's
    case passes a walk over the apex and the tail alone."""
    space = parse_space(expr)
    for seed in range(4):
        F, singular = _germless_pair(space, random.Random(seed))
        E, T, one = F.copy_sheaf(1), F.tail, LinMap.identity(F.apex)
        at_apex = make_cone_map(F, F, {1: identity_map(E)}, identity_map(T), singular)
        at_copy = make_cone_map(F, F, {1: zero_map(E, E)}, identity_map(T), one)
        on_tail = make_cone_map(F, F, {1: identity_map(E)}, zero_map(T, T), one)
        assert is_isomorphism(identity_map(F))
        for f in (at_apex, at_copy, on_tail):
            assert not is_isomorphism(f), (expr, seed)
        assert is_iso(at_copy.apex_map) and is_isomorphism(at_copy.tail_map)


def test_tensor_of_constants():
    T = tensor(constant(X1, 2), constant(X1, 3))
    for x in [apex_point(), copy_point(0, fin_point(0))]:
        assert stalk(T, x).dim == 6


def test_stalk_exactness_of_kernel_and_cokernel():
    rng = random.Random(9)
    from stonesheaf.homalg import random_hom
    for _ in range(8):
        F = random_csheaf(X1, rng, 2, 1)
        G = random_csheaf(X1, rng, 2, 1)
        h = random_hom(F, G, rng)
        K, ik = kernel(h)
        C, pc = cokernel(h)
        for x in iter_points(X1, 4):
            mh = stalk_map(h, x)
            assert len(kernel_basis(mh)) == stalk(K, x).dim
            assert stalk_map(ik, x).then(mh).is_zero()
            assert stalk(C, x).dim == mh.target.dim - map_rank(mh)
            assert mh.then(stalk_map(pc, x)).is_zero()


def test_direct_sum_projections():
    rng = random.Random(11)
    F = random_csheaf(X2, rng, 1, 1)
    G = random_csheaf(X2, rng, 1, 1)
    S, i1, i2, p1, p2 = direct_sum(F, G)
    for x in iter_points(X2, 2):
        assert stalk(S, x).dim == stalk(F, x).dim + stalk(G, x).dim
        comp = stalk_map(i1, x).then(stalk_map(p1, x))
        assert comp == LinMap.identity(comp.source)


# -- softness -----------------------------------------------------------------

def test_extend_section_from_singleton():
    F = constant(X1, 1)
    x = copy_point(2, fin_point(0))
    s = random_section(F, random.Random(13))
    ext = extend_section(F, singleton(X1, x), s)
    assert sec_eval(F, ext, x) == sec_eval(F, s, x)
    assert sec_eval(F, ext, copy_point(3, fin_point(0))) == (Fraction(0),)


def test_extend_section_from_tail_neighbourhood():
    F = constant(X1, 1)
    u = nbhd_basis(X1, apex_point(), 3)
    s = Section(F, ("sec", (), (Fraction(4),)))  # the constant section 4
    ext = extend_section(F, u, s)
    assert sec_eval(F, ext, apex_point()) == (Fraction(4),)
    assert sec_eval(F, ext, copy_point(1, fin_point(0))) == (Fraction(0),)
    assert sec_eval(F, ext, copy_point(7, fin_point(0))) == (Fraction(4),)


def test_extend_whole_space_is_identity():
    F = random_csheaf(X1, random.Random(17), 2, 1)
    s = random_section(F, random.Random(18))
    from stonesheaf.sheaf import sec_canonical
    assert extend_section(F, full_set(X1), s) == sec_canonical(s)


def test_softness_random():
    rng = random.Random(19)
    for _ in range(10):
        F = random_csheaf(X1, rng, 2, 1)
        s = random_section(F, rng)
        u = nbhd_basis(X1, apex_point(), rng.randint(0, 3))
        ext = extend_section(F, u, s)  # always a valid global section
        assert sec_eval(F, ext, apex_point()) == sec_eval(F, s, apex_point())


# -- reconstruction -----------------------------------------------------------

def test_gamma_of_isolated_skyscraper():
    F = skyscraper(X1, copy_point(3, fin_point(0)), 1)
    M = gamma(F)
    assert stalk(M.record, copy_point(3, fin_point(0))).dim == 1
    assert stalk(M.record, copy_point(2, fin_point(0))).dim == 0
    assert stalk(M.record, apex_point()).dim == 0


def test_counit_iso_constant():
    F = constant(X1, 1)
    assert is_isomorphism(counit_map(F))


def test_unit_iso_module():
    M = gamma(constant(X1, 1))
    assert unit_iso(M)


def test_module_action():
    F = constant(X1, 1)
    M = gamma(F)
    rng = random.Random(21)
    f = random_cfun(X1, (), rng)
    g = random_cfun(X1, (), rng)
    s = random_section(F, rng)
    lhs = M.act(f * g, s)
    rhs = M.act(f, M.act(g, s))
    assert lhs == rhs


def test_sections_over_a_union():
    from stonesheaf.sheaf import SumSections
    from stonesheaf.space import Sum, full_set
    s = Sum(X1, Finite(2))
    F = random_csheaf(s, random.Random(23), 2, 1)
    mod = sections(F, full_set(s))
    assert isinstance(mod, SumSections)
    assert isinstance(mod.left, SectionModule)
    assert mod.right.dim == sum(F.data[1].data[i].dim for i in range(2))


def test_tensor_over_rank2_spreads_pointwise_products():
    # a stored copy that is genuinely exceptional must not be spread from
    # the apex; the germ of F ⊗ G sends e_i ⊗ e_j to the pointwise tensor of
    # the germ sections of e_i and e_j
    from stonesheaf.sheaf import _probe_points, germ_section
    from stonesheaf.space import parse_space
    for expr in ["Cone(Cone(Finite(1)))", "Cone(Sum(Finite(2),Cone(Finite(1))))"]:
        space = parse_space(expr)
        for seed in range(30):
            rng = random.Random(seed)
            F = random_csheaf(space, rng, 2, 1)
            G = random_csheaf(space, rng, 2, 1)
            T = tensor(F, G)
            for x in _probe_points(space, [F, G, T]):
                assert stalk(T, x).dim == stalk(F, x).dim * stalk(G, x).dim
            points = _probe_points(space.base, [F.tail, G.tail, T.tail])
            for i in range(F.apex.dim):
                s = germ_section(F, F.apex.basis_vec(i))
                for j in range(G.apex.dim):
                    u = germ_section(G, G.apex.basis_vec(j))
                    t = germ_section(T, T.apex.basis_vec(i * G.apex.dim + j))
                    for y in points:
                        want = tuple(a * b for a in sec_eval(F.tail, s, y)
                                     for b in sec_eval(G.tail, u, y))
                        assert sec_eval(T.tail, t, y) == want
