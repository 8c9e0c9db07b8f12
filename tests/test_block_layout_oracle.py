"""Maps between direct sums against their hand-built offset loops.

Six constructions lay out a map between direct sums as a block matrix: the
augmented stalk complex of the cube of ring sheaves, the block-diagonal
structure maps of `models.loc_extend`, its projection onto the uniform part
when the top height is added, the limit vertex of a punctured-cube diagram,
the fiber product of two maps and the random representations of
`weyl._random_rep`.  The references below keep them as the code first built
them, each computing its own row and column offsets, with the face sign of
the stalk complex read off `sign_pos`.  The library must agree with them by
`repr` on:

* the stalk complexes at `iter_points(s, 3)` over spaces of rank 0 to 3,
  a root `Sum` among them;
* every extension, edge and limit vertex of `to_standard` on seeded
  sheaves, and `kappa` and `tau` of their rank-1 completions;
* pullbacks with zero-dimensional sides;
* `_random_rep` draws of dimension 0 to 6 over four groups, which must also
  leave the generator in the same state.

The references find image bases and coordinates in them by
`reference_image_basis` and `reference_coords_in_span` of
`tests/test_sparse_rref_properties.py`, and identify an extension with its
vertex by `reference_mod_identification` of `tests/test_models.py`, so that
`linalg.image` is not checked against itself.
"""

import random
from fractions import Fraction

import pytest

from stonesheaf import weyl
from stonesheaf.adelic import FlagError, _is_zero_ring, check_flag, flags_of_size, insert_height
from stonesheaf.cube import _cube_stalk_complex, _shared_cube
from stonesheaf.linalg import (
    ONE, ZERO, FDComplex, LinMap, VectQ, direct_sum_space, invert, is_iso, kernel_basis,
    pullback, rat)
from stonesheaf.models import (
    CMod, el_space, kappa, limit_vertex, loc_extend, section_localize,
    standard_of_sheaf, tau, to_standard, zero_mod)
from stonesheaf.sheaf import (
    _subspace, canonical, make_cone_sheaf, make_fin_sheaf, make_sum_sheaf, random_csheaf,
    sec_space, stalk, stalk_map)
from stonesheaf.space import Cone, Finite, Sum, cb_rank, iter_points, parse_space
from stonesheaf.weyl import cyclic_group, direct_product, regular_rep, trivial_group
from test_models import reference_mod_identification
from test_sparse_rref_properties import reference_coords_in_span, reference_image_basis

CUBE_SPACES = ["Finite(2)", "Cone(Finite(1))", "Cone(Sum(Finite(2),Finite(1)))",
               "Sum(Cone(Finite(1)),Finite(1))", "Cone(Cone(Finite(1)))",
               "Cone(Cone(Cone(Finite(1))))"]
MODEL_SPACES = ["Finite(2)", "Cone(Finite(1))", "Cone(Finite(2))",
                "Cone(Sum(Finite(2),Finite(1)))", "Sum(Cone(Finite(1)),Finite(1))",
                "Cone(Cone(Finite(1)))"]
RANK1_SPACES = ["Cone(Finite(1))", "Cone(Finite(2))", "Cone(Sum(Finite(2),Finite(1)))",
                "Sum(Cone(Finite(1)),Finite(2))"]
SEEDS = range(4)
GROUPS = [trivial_group(), cyclic_group(2), cyclic_group(3),
          direct_product(cyclic_group(2), cyclic_group(2))]


def sign_pos(flag, b):
    if b in flag:
        raise FlagError(f"height {b} lies in flag {flag}")
    return sum(1 for a in flag if a > b)


def reference_cube_stalk_complex(space, cube, x):
    r = cb_rank(space)
    sheaves, edges = cube["sheaves"], cube["edges"]
    spaces = {}
    stalks = {A: stalk(sheaves[A], x) for A in sheaves}
    flag_lists = {-1: [()]}
    for i in range(r + 1):
        flag_lists[i] = flags_of_size(r, i + 1)
    for i in range(-1, r + 1):
        spaces[i] = direct_sum_space([stalks[A] for A in flag_lists[i]],
                                     [str(A) for A in flag_lists[i]])
    diffs = {}
    for i in range(-1, r):
        src, tgt = spaces[i], spaces[i + 1]
        mat = [[ZERO] * src.dim for _ in range(tgt.dim)]
        col_off = {}
        off = 0
        for A in flag_lists[i]:
            col_off[A] = off
            off += stalks[A].dim
        row_off = {}
        off = 0
        for B in flag_lists[i + 1]:
            row_off[B] = off
            off += stalks[B].dim
        for B in flag_lists[i + 1]:
            for b in B:
                A = tuple(a for a in B if a != b)
                comp = stalk_map(edges[(A, b)], x)
                sign = -1 if sign_pos(A, b) % 2 else 1
                for ii in range(comp.target.dim):
                    for jj in range(comp.source.dim):
                        mat[row_off[B] + ii][col_off[A] + jj] += sign * comp.matrix[ii][jj]
        diffs[i] = LinMap(src, tgt, tuple(tuple(row) for row in mat))
    return FDComplex(spaces, diffs)


def reference_block_many(maps, src, tgt):
    mat = [[ZERO] * src.dim for _ in range(tgt.dim)]
    ro, co = 0, 0
    for m in maps:
        for i in range(m.target.dim):
            for j in range(m.source.dim):
                mat[ro + i][co + j] = m.matrix[i][j]
        ro += m.target.dim
        co += m.source.dim
    return LinMap(src, tgt, tuple(tuple(r) for r in mat))


def reference_loc_extend(M, b):
    """`models._loc_extend` with its block maps and its top-height projection
    built by hand; it recurses into itself, never into the library's memo."""
    new_flag = insert_height(M.flag, b)
    kind = M.payload[0]
    if kind == "zero" or _is_zero_ring(M.space, new_flag):
        N = zero_mod(M.space, new_flag)
        return N, LinMap.zero(el_space(M), el_space(N))
    check_flag(M.space, new_flag)
    if kind == "sum":
        ln, lm = reference_loc_extend(M.payload[1], b)
        rn, rm = reference_loc_extend(M.payload[2], b)
        N = CMod(M.space, new_flag, ("sum", ln, rn))
        return N, reference_block_many([lm, rm], el_space(M), el_space(N))
    r = cb_rank(M.space)
    if kind == "apex":
        V, ambient, emb = M.payload[1], M.payload[2], M.payload[3]
        if isinstance(ambient, tuple) and ambient[0] == "sec":
            amb2, pi = section_localize(ambient[1], (b,))
        else:
            amb2, pi = reference_loc_extend(ambient, b)
        comp = emb.then(pi)
        basis = reference_image_basis(comp)
        V2, emb2 = _subspace(el_space(amb2), basis, "g")
        cols = [reference_coords_in_span(basis, comp.apply(V.basis_vec(i))) for i in range(V.dim)]
        struct = LinMap.from_cols(V, V2, cols)
        return CMod(M.space, new_flag, ("apex", V2, amb2, emb2)), struct
    _, exc, generic, W, iota = M.payload
    if b == r:
        N = CMod(M.space, new_flag, ("apex", W, generic, iota))
        off = sum(el_space(m).dim for _, m in exc)
        E = el_space(M)
        mat = [[ZERO] * E.dim for _ in range(W.dim)]
        for i in range(W.dim):
            mat[i][off + i] = ONE
        return N, LinMap(E, W, tuple(tuple(row) for row in mat))
    parts = [reference_loc_extend(m, b) for _, m in exc]
    gen2, pi = reference_loc_extend(generic, b)
    comp = iota.then(pi)
    basis = reference_image_basis(comp)
    W2, iota2 = _subspace(el_space(gen2), basis, "w")
    wcols = [reference_coords_in_span(basis, comp.apply(W.basis_vec(i))) for i in range(W.dim)]
    wmap = LinMap.from_cols(W, W2, wcols)
    N = CMod(M.space, new_flag,
             ("low", tuple((k, p[0]) for (k, _), p in zip(exc, parts)), gen2, W2, iota2))
    maps = [p[1] for p in parts] + [wmap]
    return N, reference_block_many(maps, el_space(M), el_space(N))


def reference_limit_vertex(D):
    flags = sorted(D.vertices, key=len)
    offs = {}
    total = 0
    for A in flags:
        offs[A] = total
        total += el_space(D.vertices[A]).dim
    big = VectQ.make(total, "l")
    rows = []
    for (A, b), e in D.edges.items():
        B = insert_height(A, b)
        for i in range(e.target.dim):
            row = [ZERO] * total
            for j in range(e.source.dim):
                row[offs[A] + j] = e.matrix[i][j]
            row[offs[B] + i] -= ONE
            rows.append(tuple(row))
    if rows:
        m = LinMap(big, VectQ.make(len(rows), "r"), tuple(rows))
        basis = kernel_basis(m)
    else:
        basis = [big.basis_vec(i) for i in range(total)]
    L = VectQ.make(len(basis), "lim")
    projections = {}
    for A in flags:
        dim = el_space(D.vertices[A]).dim
        cols = [tuple(vec[offs[A]:offs[A] + dim]) for vec in basis]
        projections[A] = LinMap.from_cols(L, el_space(D.vertices[A]), cols)
    return L, projections


def reference_pullback(f, g):
    na, nb = f.source.dim, g.source.dim
    big_src = VectQ.make(na + nb, "p")
    rows = []
    for i in range(f.target.dim):
        rows.append(tuple(f.matrix[i]) + tuple(-x for x in g.matrix[i]))
    diff = LinMap(big_src, f.target, tuple(rows))
    ker = kernel_basis(diff)
    P = VectQ.make(len(ker), "pb")
    to_a = LinMap.from_cols(P, f.source, [tuple(k[:na]) for k in ker])
    to_b = LinMap.from_cols(P, g.source, [tuple(k[na:]) for k in ker])
    return P, to_a, to_b


def reference_tau_data(space, data):
    """`models._tau_data` through the reference pullback."""
    if isinstance(space, Finite):
        return make_fin_sheaf(space, data[1])
    if isinstance(space, Sum):
        return make_sum_sheaf(space, reference_tau_data(space.left, data[1]),
                              reference_tau_data(space.right, data[2]))
    _, exc, tail, slice_basis, vertex, sigma_bar = data
    Wp, incl = _subspace(sec_space(tail), slice_basis, "p")
    P, pV, pW = reference_pullback(sigma_bar, LinMap.identity(Wp))
    assert P.dim == vertex.dim and is_iso(pV)
    return make_cone_sheaf(space, dict(exc), tail, vertex, invert(pV).then(pW).then(incl))


def reference_kappa_data(F):
    """`models._kappa_data` with the germ image's basis and the coordinates
    in it found by the reference helpers."""
    if isinstance(F.space, Finite):
        return ("fin", tuple(F.data))
    if isinstance(F.space, Sum):
        return ("sum", reference_kappa_data(F.data[0]), reference_kappa_data(F.data[1]))
    basis = reference_image_basis(F.germ)
    Wp = VectQ.make(len(basis), "p")
    cols = [reference_coords_in_span(basis, F.germ.apply(F.apex.basis_vec(i)))
            for i in range(F.apex.dim)]
    return ("cone", F.data[1], F.tail, tuple(tuple(b) for b in basis), F.apex,
            LinMap.from_cols(F.apex, Wp, cols))


def reference_random_rep(G, d, rng):
    V = VectQ.make(d)
    if d == 0:
        return V, [LinMap.identity(V) for _ in G.elements()]
    chars = G.sign_characters
    use_reg = d >= G.order and G.order > 1 and rng.randint(0, 1) == 1
    reg = regular_rep(G) if use_reg else None
    head = G.order if use_reg else 0
    picks = [rng.randrange(len(chars)) for _ in range(d - head)]
    mats = []
    for g in G.elements():
        big = [[ZERO] * d for _ in range(d)]
        if use_reg:
            for i in range(G.order):
                for j in range(G.order):
                    big[i][j] = reg[g].matrix[i][j]
        for i, c in enumerate(picks):
            big[head + i][head + i] = rat(chars[c][g])
        mats.append(LinMap(V, V, tuple(tuple(r) for r in big)))
    return V, mats


def _sheaves(exprs):
    for expr in exprs:
        space = parse_space(expr)
        for seed in SEEDS:
            rng = random.Random(1000 * seed + len(expr))
            yield expr, seed, canonical(random_csheaf(space, rng, 2, 1 + seed % 2))


# -- the stalk complex of the cube -------------------------------------------

@pytest.mark.parametrize("expr", CUBE_SPACES)
def test_cube_stalk_complex_matches_reference(expr):
    space = parse_space(expr)
    cube = _shared_cube(space)
    points = list(iter_points(space, 3))
    assert points
    for x in points:
        got = _cube_stalk_complex(space, cube, x)
        assert repr(got) == repr(reference_cube_stalk_complex(space, cube, x)), (expr, x)


def test_cube_spaces_cover_every_rank_and_a_root_sum():
    spaces = [parse_space(e) for e in CUBE_SPACES]
    assert {cb_rank(s) for s in spaces} == {0, 1, 2, 3}
    assert any(isinstance(s, Sum) for s in spaces)


# -- the standard diagram ----------------------------------------------------

@pytest.mark.parametrize("expr", MODEL_SPACES)
def test_loc_extend_and_edges_match_reference(expr):
    tops = 0
    for _, seed, F in _sheaves([expr]):
        D = to_standard(F)
        r = cb_rank(F.space)
        for A, M in D.vertices.items():
            for b in range(r + 1):
                if b in A:
                    continue
                want = reference_loc_extend(M, b)
                assert repr(loc_extend(M, b)) == repr(want), (expr, seed, A, b)
                tops += M.payload[0] == "low" and b == r
        for (A, b), edge in D.edges.items():
            N, struct = reference_loc_extend(D.vertices[A], b)
            want = struct.then(reference_mod_identification(N, D.vertices[insert_height(A, b)]))
            assert repr(edge) == repr(want), (expr, seed, A, b)
    if isinstance(parse_space(expr), Cone):
        assert tops > 0, expr


@pytest.mark.parametrize("expr", MODEL_SPACES)
def test_limit_vertex_matches_reference(expr):
    for _, seed, F in _sheaves([expr]):
        D = to_standard(F)
        assert repr(limit_vertex(D)) == repr(reference_limit_vertex(D)), (expr, seed)


@pytest.mark.parametrize("expr", RANK1_SPACES)
def test_kappa_matches_reference(expr):
    for _, seed, F in _sheaves([expr]):
        X = standard_of_sheaf(F)
        assert repr(kappa(X).data) == repr(reference_kappa_data(X.record)), (expr, seed)


@pytest.mark.parametrize("expr", RANK1_SPACES)
def test_tau_matches_reference(expr):
    for _, seed, F in _sheaves([expr]):
        C = kappa(standard_of_sheaf(F))
        assert repr(tau(C).record) == repr(reference_tau_data(C.space, C.data)), (expr, seed)


def test_pullback_with_zero_dimensional_sides_matches_reference():
    rng = random.Random(7)
    cases = 0
    for na in range(3):
        for nb in range(3):
            for nc in range(3):
                for _ in range(3):
                    A, B, C = VectQ.make(na, "a"), VectQ.make(nb, "b"), VectQ.make(nc, "c")
                    f = LinMap.from_rows(A, C, [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                                                 for _ in range(na)] for _ in range(nc)])
                    g = LinMap.from_rows(B, C, [[rng.randint(-1, 1) for _ in range(nb)]
                                                for _ in range(nc)])
                    assert repr(pullback(f, g)) == repr(reference_pullback(f, g)), (na, nb, nc)
                    cases += 0 in (na, nb, nc)
    assert cases > 0


# -- random representations --------------------------------------------------

@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
def test_random_rep_matches_reference(G):
    for d in range(7):
        for seed in range(6):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = weyl._random_rep(G, d, rng)
            assert repr(got) == repr(reference_random_rep(G, d, ref_rng)), (G.name, d, seed)
            assert rng.getstate() == ref_rng.getstate(), (G.name, d, seed)
