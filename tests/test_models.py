import random

import pytest

from fractions import Fraction

from stonesheaf.linalg import DimensionError, LinMap, VectQ, image, is_iso, kernel_basis, solve
from stonesheaf.space import (
    cb_rank,
    Cone, Finite, Sum, apex_point, copy_point, fin_point, parse_space)
from stonesheaf.adelic import FlagError, _is_zero_ring, all_flags, check_flag, insert_height
from stonesheaf.sheaf import (
    canonical, constant, germ_section, make_cone_sheaf, random_csheaf, sec_dim,
    sec_from_coords, sec_space, sheaves_equal, skyscraper, zero_sheaf, direct_sum,
    _copy_default)
from stonesheaf.models import (
    CMod, DiagMod, StandardObj, el_space, five_model_roundtrip, from_standard,
    is_cocartesian, kappa, limit_vertex, loc_extend, mod_of_sheaf, section_localize,
    standard_of_sheaf, support_detect, tau, to_standard, zero_mod)
from test_memos import _subsheaves

X1 = Cone(Finite(1))
X2 = Cone(Cone(Finite(1)))


# -- loc_extend ---------------------------------------------------------------

def test_loc_extend_germ_of_constant():
    M = mod_of_sheaf(constant(X1, 1), (0,))
    N, struct = loc_extend(M, 1)
    assert el_space(N).dim == 1


def test_loc_extend_exceptions_invisible():
    tail = constant(Finite(1), 1)
    apex = VectQ.make(1)
    F = make_cone_sheaf(X1, {0: constant(Finite(1), 2)}, tail, apex,
                        LinMap.from_rows(apex, sec_space(tail), [[1]]))
    M = mod_of_sheaf(F, (0,))
    assert el_space(M).dim == 3  # one 2-dim exception plus the uniform part
    N, _ = loc_extend(M, 1)
    assert el_space(N).dim == 1


def test_loc_extend_zero():
    M = mod_of_sheaf(zero_sheaf(X1), (0,))
    N, _ = loc_extend(M, 1)
    assert el_space(N).dim == 0


def test_loc_extend_commutes_with_direct_sums():
    rng = random.Random(3)
    for _ in range(5):
        F = random_csheaf(X1, rng, 2, 1)
        G = random_csheaf(X1, rng, 2, 1)
        S, *_ = direct_sum(F, G)
        MS = mod_of_sheaf(S, (0,))
        NS, _ = loc_extend(MS, 1)
        NF, _ = loc_extend(mod_of_sheaf(F, (0,)), 1)
        NG, _ = loc_extend(mod_of_sheaf(G, (0,)), 1)
        assert el_space(NS).dim == el_space(NF).dim + el_space(NG).dim


def test_loc_extend_functorial_on_chains():
    # inserting two heights in either order gives the same element space
    rng = random.Random(5)
    for _ in range(5):
        F = random_csheaf(X2, rng, 1, 1)
        M = mod_of_sheaf(F, (0,))
        A, _ = loc_extend(M, 1)
        AB, _ = loc_extend(A, 2)
        B, _ = loc_extend(M, 2)
        BA, _ = loc_extend(B, 1)
        assert el_space(AB).dim == el_space(BA).dim


# -- cocartesian detection ----------------------------------------------------

def test_to_standard_is_cocartesian():
    rng = random.Random(7)
    for _ in range(5):
        F = random_csheaf(X1, rng, 2, 1)
        assert is_cocartesian(to_standard(F))


def test_dimension_perturbation_fails():
    D = to_standard(constant(X1, 1))
    bad_vertices = dict(D.vertices)
    wrong = VectQ.make(2)
    bad_vertices[(1, 0)] = CMod(X1, (1, 0), ("apex", wrong, bad_vertices[(1, 0)].payload[2],
                                             LinMap.zero(wrong, el_space(bad_vertices[(1, 0)].payload[2]))
                                             if not isinstance(bad_vertices[(1, 0)].payload[2], tuple)
                                             else LinMap.zero(wrong, sec_space(bad_vertices[(1, 0)].payload[2][1]))))
    bad_edges = {}
    for (A, b), e in D.edges.items():
        if insert_height(A, b) == (1, 0):
            bad_edges[(A, b)] = LinMap.zero(e.source, wrong)
        else:
            bad_edges[(A, b)] = e
    Dbad = DiagMod(X1, bad_vertices, bad_edges)
    assert not is_cocartesian(Dbad)


def test_ring_diagram_is_cocartesian():
    # the diagram of the splicing rings themselves (the generator)
    for space in [X1, X2]:
        assert is_cocartesian(to_standard(constant(space, 1)))


# -- the rank test against the solve route -----------------------------------
#
# `is_cocartesian` decides an edge by ranks alone, and `_sheaf_edge` reads
# the localization into the vertex.  The references keep both as they were
# first written: the comparison map built from a kernel basis of the
# localization and one `solve` per coordinate, and the edge as the
# localization followed by an identity.

def reference_mod_identification(N, M):
    if el_space(N).dim != el_space(M).dim:
        raise AssertionError("canonical chain mismatch: element spaces differ")
    return LinMap(el_space(N), el_space(M), LinMap.identity(el_space(N)).matrix)


def reference_sheaf_edge(b, MA, MB):
    N, struct = loc_extend(MA, b)
    return struct.then(reference_mod_identification(N, MB))


def reference_edge_holds(D, A, b, edge):
    """Whether the edge's comparison map is an isomorphism: the edge kills
    the kernel of the localization, and the map it induces on the
    localization's target, read through one preimage per basis vector, is
    invertible."""
    MB = D.vertices[insert_height(A, b)]
    N, struct = loc_extend(D.vertices[A], b)
    for kvec in kernel_basis(struct):
        if not all(c == 0 for c in edge.apply(kvec)):
            return False
    if el_space(N).dim != el_space(MB).dim:
        return False
    cols = []
    for i in range(el_space(N).dim):
        pre = solve(struct, el_space(N).basis_vec(i))
        if pre is None:
            return False
        cols.append(edge.apply(pre))
    return is_iso(LinMap.from_cols(el_space(N), el_space(MB), cols))


VERDICT_SPACES = {"Cone(Finite(1))": 60, "Cone(Finite(2))": 60,
                  "Sum(Cone(Finite(1)),Finite(1))": 40, "Cone(Cone(Finite(1)))": 50,
                  "Cone(Cone(Cone(Finite(1))))": 25}


def _edge_variants(edge, rng):
    """The edge, zeroed, doubled, replaced by a random map, and plus a
    random map of rank at most one; an edge from or to a zero space has
    only itself."""
    src, tgt = edge.source, edge.target
    if not (src.dim and tgt.dim):
        return [edge]
    draw = [Fraction(0)] * 3 + [Fraction(1), Fraction(-1), Fraction(2)]
    rand = LinMap.from_rows(src, tgt, [[rng.choice(draw) for _ in range(src.dim)]
                                       for _ in range(tgt.dim)])
    u = [rng.choice(draw) for _ in range(tgt.dim)]
    w = [rng.choice(draw) for _ in range(src.dim)]
    rank_one = LinMap.from_rows(src, tgt, [[a * c for c in w] for a in u])
    return [edge, LinMap.zero(src, tgt), edge.scale(2), rand, edge.add(rank_one)]


def _verdict_diagrams():
    for expr, count in VERDICT_SPACES.items():
        space = parse_space(expr)
        rng = random.Random(4400 + len(expr))
        for _ in range(count):
            yield expr, rng, to_standard(random_csheaf(space, rng, 2, 1))


def test_sheaf_edges_match_the_identity_reference():
    for expr, _, D in _verdict_diagrams():
        for (A, b), edge in D.edges.items():
            want = reference_sheaf_edge(b, D.vertices[A], D.vertices[insert_height(A, b)])
            assert repr(edge) == repr(want), (expr, A, b)


def test_rank_verdicts_match_the_solve_reference():
    verdicts = []
    for expr, rng, D in _verdict_diagrams():
        for (A, b), edge in sorted(D.edges.items()):
            for e in _edge_variants(edge, rng):
                got = is_cocartesian(DiagMod(D.space, D.vertices, {(A, b): e}))
                assert got == reference_edge_holds(D, A, b, e), (expr, A, b, e)
                verdicts.append(got)
    assert len(verdicts) >= 3000
    assert verdicts.count(False) >= 500 and verdicts.count(True) >= 1000


def test_an_edge_of_the_wrong_source_dimension_raises_in_both():
    checked = 0
    for expr, _, D in _verdict_diagrams():
        for (A, b), edge in D.edges.items():
            if edge.source.dim == 0:
                continue
            wrong = LinMap.zero(VectQ.make(edge.source.dim + 1), edge.target)
            with pytest.raises(DimensionError):
                reference_edge_holds(D, A, b, wrong)
            with pytest.raises(DimensionError):
                is_cocartesian(DiagMod(D.space, D.vertices, {(A, b): wrong}))
            checked += 1
    assert checked >= 100


def test_an_edge_of_the_wrong_target_dimension_raises():
    D = to_standard(random_csheaf(X2, random.Random(4), 2, 1))
    for (A, b), edge in D.edges.items():
        wrong = LinMap.zero(edge.source, VectQ.make(edge.target.dim + 1))
        with pytest.raises(DimensionError):
            is_cocartesian(DiagMod(D.space, D.vertices, {(A, b): wrong}))


# -- the one vertex recursion against the two it replaced ---------------------
#
# `mod_of_sheaf` and `section_localize` take the vertex module and its
# localization map from one recursion, which reads the map off the
# corestriction that `linalg.image` returns.  The references keep the two
# recursions as they were first written: the module with the corestriction
# thrown away, and the map probed one section at a time, its germ classes
# landed in the stored images by `solve`.  Their localizations of tails are
# not kept, so they share nothing with the code under test.

def reference_section_localize(T, flag):
    M = reference_mod_of_sheaf(T, flag)
    return M, LinMap.of(sec_space(T), el_space(M),
                        lambda v: reference_localize_section(T, flag, M, sec_from_coords(T, v).data))


def reference_localize_section(T, flag, M, data):
    kind = M.payload[0]
    if kind == "zero":
        return ()
    if kind == "fin":
        return tuple(x for v in data for x in v)
    if kind == "sum":
        return (reference_localize_section(T.data[0], flag, M.payload[1], data[0]) +
                reference_localize_section(T.data[1], flag, M.payload[2], data[1]))
    _, exc, apexv = data
    if kind == "apex":
        ambient, emb = M.payload[2], M.payload[3]
        if isinstance(ambient, tuple) and ambient[0] == "sec":
            return tuple(apexv)
        w = solve(emb, reference_apply_pi_sigma(T, M.flag[1:], ambient, apexv))
        assert w is not None, "germ class left the stored germ image"
        return tuple(w)
    _, mexc, generic, W, iota = M.payload
    out = []
    excd = dict(exc)
    for k, mk in mexc:
        sub = excd.get(k)
        if sub is None:
            sub = _copy_default(T, k, apexv)
        out.extend(reference_localize_section(T.copy_sheaf(k), flag, mk, sub))
    w = solve(iota, reference_apply_pi_sigma(T, flag, generic, apexv))
    assert w is not None, "uniform image left the stored uniform part"
    return tuple(out) + tuple(w)


def reference_apply_pi_sigma(T, flag, generic, apexv):
    return reference_localize_section(T.tail, flag, generic, germ_section(T, apexv).data)


def reference_mod_of_sheaf(F, flag):
    space = F.space
    if _is_zero_ring(space, flag):
        return zero_mod(space, flag)
    check_flag(space, flag)
    if isinstance(space, Finite):
        return CMod(space, flag, ("fin", tuple(F.data)))
    if isinstance(space, Sum):
        return CMod(space, flag, ("sum", reference_mod_of_sheaf(F.data[0], flag),
                                  reference_mod_of_sheaf(F.data[1], flag)))
    r = cb_rank(space)
    if flag[0] == r:
        rest = flag[1:]
        if not rest:
            return CMod(space, flag, ("apex", F.apex, ("sec", F.tail), F.germ))
        ambient, pi = reference_section_localize(F.tail, rest)
        V, emb, _ = image(F.germ.then(pi), "g")
        return CMod(space, flag, ("apex", V, ambient, emb))
    generic, pi = reference_section_localize(F.tail, flag)
    W, iota, _ = image(F.germ.then(pi), "w")
    exc = tuple((k, reference_mod_of_sheaf(G, flag)) for k, G in F.data[1])
    return CMod(space, flag, ("low", exc, generic, W, iota))


ORACLE_SPACES = {"Cone(Finite(1))": 12, "Cone(Finite(2))": 8,
                 "Sum(Cone(Finite(1)),Finite(1))": 8, "Cone(Cone(Finite(1)))": 8,
                 "Cone(Sum(Finite(2),Cone(Finite(1))))": 6, "Cone(Cone(Cone(Finite(1))))": 5,
                 "Cone(Sum(Finite(1),Cone(Cone(Finite(1)))))": 5}


def _oracle_sheaves():
    """Seeded sheaves over rank 1-3 spaces, as drawn and canonical."""
    for expr, count in ORACLE_SPACES.items():
        space = parse_space(expr)
        rng = random.Random(4500 + len(expr))
        for _ in range(count):
            F = random_csheaf(space, rng, 2 if cb_rank(space) == 1 else 1, 2)
            yield expr, F
            yield expr, canonical(F)


def test_vertices_and_localizations_match_the_two_recursion_reference():
    held = [0, 0]  # held cones whose stored copies have sections, below and at the apex level
    for expr, F in _oracle_sheaves():
        for G in _subsheaves(F):
            for flag in all_flags(cb_rank(G.space)):
                want_M, want_pi = reference_section_localize(G, flag)
                M = mod_of_sheaf(G, flag)
                got_M, got_pi = section_localize(G, flag)
                assert M == want_M and repr(M) == repr(want_M), (expr, flag)
                assert got_M == want_M and repr(got_M) == repr(want_M), (expr, flag)
                assert got_pi == want_pi and repr(got_pi) == repr(want_pi), (expr, flag)
                if G is not F and isinstance(G.space, Cone) and sec_dim(G) > G.apex.dim:
                    held[flag[0] == cb_rank(G.space)] += 1
    assert min(held) >= 100, held


def test_diagram_vertices_over_stored_copy_tails_match_the_reference():
    """Over rank-3 spaces whose tails store copies, every vertex of a
    sheaf's diagram is the reference's, and the diagram rebuilds the sheaf."""
    for expr in ["Cone(Cone(Cone(Finite(1))))", "Cone(Sum(Finite(1),Cone(Cone(Finite(1)))))"]:
        rng = random.Random(4600 + len(expr))
        for _ in range(4):
            F = canonical(random_csheaf(parse_space(expr), rng, 1, 2))
            D = to_standard(F)
            for A, M in D.vertices.items():
                want = reference_mod_of_sheaf(F, A)
                assert M == want and repr(M) == repr(want), (expr, A)
            assert is_cocartesian(D) and sheaves_equal(from_standard(D), F), expr


BAD_FLAGS = [("Cone(Finite(1))", ()), ("Cone(Finite(1))", (3,)), ("Cone(Finite(1))", (2, 0)),
             ("Cone(Finite(1))", (0, 1)), ("Finite(2)", ()), ("Finite(2)", (1,)),
             ("Sum(Cone(Finite(1)),Finite(1))", ()), ("Cone(Cone(Finite(1)))", (3, 1))]


@pytest.mark.parametrize("expr, flag", BAD_FLAGS)
def test_a_flag_off_the_punctured_cube_raises(expr, flag):
    F = random_csheaf(parse_space(expr), random.Random(1), 1, 1)
    with pytest.raises(FlagError):
        mod_of_sheaf(F, flag)
    with pytest.raises(FlagError):
        section_localize(F, flag)
    assert flag not in F._localized


# -- conversions --------------------------------------------------------------

def test_constant_diagram_shape():
    D = to_standard(constant(X1, 1))
    assert el_space(D.vertices[(0,)]).dim == 1   # uniform part of the sequences
    assert el_space(D.vertices[(1,)]).dim == 1
    assert el_space(D.vertices[(1, 0)]).dim == 1
    back = from_standard(D)
    assert sheaves_equal(back, constant(X1, 1))


def test_skyscraper_diagram_shape():
    D = to_standard(skyscraper(X1, apex_point(), 1))
    assert el_space(D.vertices[(0,)]).dim == 0
    assert el_space(D.vertices[(1,)]).dim == 1
    assert el_space(D.vertices[(1, 0)]).dim == 0
    back = from_standard(D)
    assert sheaves_equal(back, skyscraper(X1, apex_point(), 1))


def test_zero_round_trip():
    D = to_standard(zero_sheaf(X1))
    assert all(el_space(M).dim == 0 for M in D.vertices.values())
    assert sheaves_equal(from_standard(D), zero_sheaf(X1))


def test_round_trips_rank_two():
    rng = random.Random(9)
    for expr in ["Cone(Cone(Finite(1)))", "Cone(Sum(Finite(1),Finite(1)))",
                 "Sum(Cone(Finite(1)),Finite(2))"]:
        space = parse_space(expr)
        for _ in range(6):
            F = random_csheaf(space, rng, 1, 1)
            D = to_standard(F)
            assert is_cocartesian(D)
            assert sheaves_equal(from_standard(D), F)


def test_from_standard_rejects_non_cocartesian():
    D = to_standard(constant(X1, 1))
    bad = dict(D.edges)
    for key, e in bad.items():
        bad[key] = LinMap.zero(e.source, e.target)
    Dbad = DiagMod(X1, D.vertices, bad)
    with pytest.raises(ValueError):
        from_standard(Dbad)


# -- dimension one ------------------------------------------------------------

def test_kappa_reflags_constant_data():
    F = constant(X1, 1)
    X = standard_of_sheaf(F)
    C = kappa(X)
    assert len(C.data[3]) == 1     # one slice-basis vector
    Y = tau(C)
    assert sheaves_equal(Y.record, F)
    assert kappa(Y) == C           # the completion inverts the pullback


def test_round_trip_preserves_exceptions():
    tail = constant(Finite(1), 1)
    apex = VectQ.make(1)
    F = make_cone_sheaf(X1, {0: constant(Finite(1), 2)}, tail, apex,
                        LinMap.from_rows(apex, sec_space(tail), [[1]]))
    Y = tau(kappa(standard_of_sheaf(F)))
    assert sheaves_equal(Y.record, F)
    assert Y.record.copy_sheaf(0).data[0].dim == 2


def test_zero_object_round_trip():
    Z = zero_sheaf(X1)
    Y = tau(kappa(standard_of_sheaf(Z)))
    assert sheaves_equal(Y.record, Z)


def test_five_model_round_trip_random():
    rng = random.Random(11)
    for _ in range(25):
        F = random_csheaf(X1, rng, 2, 2)
        assert sheaves_equal(five_model_roundtrip(F), F)


# -- support detection --------------------------------------------------------

def test_support_zero_module():
    assert support_detect(mod_of_sheaf(zero_sheaf(X1), (0,)))


def test_support_skyscraper_module():
    F = skyscraper(X1, copy_point(1, fin_point(0)), 1)
    assert not support_detect(mod_of_sheaf(F, (0,)))


def test_support_tail_module():
    # no exceptions but a surviving germ slice
    assert not support_detect(mod_of_sheaf(constant(X1, 1), (0,)))


def test_support_detect_matches_vanishing_exhaustive():
    for tail_dim in range(0, 4):
        for apex_dim in range(0, 4):
            tail = constant(Finite(1), tail_dim)
            apex = VectQ.make(apex_dim)
            S = sec_space(tail)
            germ = LinMap.from_rows(apex, S, [[1] * apex_dim] * S.dim)
            F = make_cone_sheaf(X1, {}, tail, apex, germ)
            M = mod_of_sheaf(F, (0,))
            vanishes = tail_dim == 0  # no point slices and no germ image
            assert support_detect(M) == vanishes


def test_kappa_tau_on_mixed_rank_one_spaces():
    rng = random.Random(31)
    for expr in ["Sum(Cone(Finite(1)),Finite(2))", "Sum(Cone(Finite(2)),Cone(Finite(1)))"]:
        space = parse_space(expr)
        for _ in range(8):
            F = random_csheaf(space, rng, 2, 1)
            Y = tau(kappa(standard_of_sheaf(F)))
            assert sheaves_equal(Y.record, F)
            assert sheaves_equal(five_model_roundtrip(F), F)


def test_kappa_rejects_higher_rank():
    rank2 = "operation implemented for spaces of rank at most 1"
    with pytest.raises(ValueError, match=rank2):
        standard_of_sheaf(constant(X2, 1))
    with pytest.raises(ValueError, match=rank2):
        kappa(StandardObj(constant(X2, 1)))


def test_diagram_edges_commute():
    rng = random.Random(37)
    for expr in ["Cone(Cone(Finite(1)))", "Cone(Sum(Finite(1),Finite(1)))"]:
        space = parse_space(expr)
        for _ in range(4):
            F = random_csheaf(space, rng, 1, 1)
            D = to_standard(F)
            r = cb_rank(space)
            for (A, b), e1 in D.edges.items():
                mid = insert_height(A, b)
                for c in range(r + 1):
                    if c in mid or len(mid) == r + 1:
                        continue
                    top = insert_height(mid, c)
                    first = e1.then(D.edges[(mid, c)])
                    other_mid = insert_height(A, c)
                    second = D.edges[(A, c)].then(D.edges[(other_mid, b)])
                    assert first.matrix == second.matrix, (expr, A, b, c)


def test_limit_vertex_recovers_finite_data_sections():
    rng = random.Random(43)
    for expr in ["Cone(Finite(1))", "Cone(Finite(2))", "Cone(Cone(Finite(1)))"]:
        space = parse_space(expr)
        for _ in range(6):
            F = random_csheaf(space, rng, 2 if cb_rank(space) == 1 else 1, 1)
            Fc = canonical(F)
            D = to_standard(Fc)
            L, projections = limit_vertex(D)
            assert L.dim == sec_dim(Fc), expr


def test_limit_vertex_counts_the_sections_of_the_canonical_presentation():
    """`to_standard` canonicalizes first, so the vertex of a drawn sheaf's
    diagram has the finite-data sections of `canonical(F)`, not of F as
    drawn, which may store copies equal to the tail."""
    rng = random.Random(0)
    space = Cone(Finite(2))
    larger = 0
    for _ in range(200):
        F = random_csheaf(space, rng, 2, 2)
        L, _projections = limit_vertex(to_standard(F))
        assert L.dim == sec_dim(canonical(F))
        assert sec_dim(F) >= L.dim
        larger += sec_dim(F) > L.dim
    assert larger == 17
