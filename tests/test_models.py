import random

import pytest

from fractions import Fraction

from stonesheaf.linalg import DimensionError, LinMap, VectQ, is_iso, kernel_basis, solve
from stonesheaf.space import (
    cb_rank,
    Cone, Finite, apex_point, copy_point, fin_point, parse_space)
from stonesheaf.adelic import insert_height
from stonesheaf.sheaf import (
    canonical, constant, make_cone_sheaf, random_csheaf, sec_dim, sec_space, sheaves_equal,
    skyscraper, zero_sheaf, direct_sum)
from stonesheaf.models import (
    CMod, DiagMod, StandardObj, coreflect, el_space, five_model_roundtrip, from_standard,
    is_cocartesian, kappa, limit_vertex, loc_extend, mod_of_sheaf, standard_of_sheaf,
    support_detect, tau, to_standard)

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


# -- coreflection -------------------------------------------------------------

def test_coreflect_fixes_cocartesian():
    D = to_standard(constant(X1, 1))
    Q, counit = coreflect(D)
    assert is_cocartesian(Q)
    for A in D.vertices:
        assert el_space(Q.vertices[A]).dim == el_space(D.vertices[A]).dim


def test_coreflect_restores_zeroed_edge_target():
    D = to_standard(constant(X1, 1))
    vertices = dict(D.vertices)
    vertices[(1, 0)] = CMod(X1, (1, 0), ("zero",))
    edges = dict(D.edges)
    for (A, b) in list(edges):
        if insert_height(A, b) == (1, 0):
            edges[(A, b)] = LinMap.zero(el_space(D.vertices[A]), VectQ.make(0))
    Dz = DiagMod(X1, vertices, edges)
    Q, _ = coreflect(Dz)
    assert el_space(Q.vertices[(1, 0)]).dim == 1  # replaced by the extension


def test_coreflect_zero_diagram():
    D = to_standard(zero_sheaf(X1))
    Q, _ = coreflect(D)
    assert all(el_space(M).dim == 0 for M in Q.vertices.values())


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
