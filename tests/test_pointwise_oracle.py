"""Direct sums, tensors, extensions and reconstruction against their first copies.

The references below are the engine's constructions as they were written
when each hand-wrote its own recursion over the space expression:

* `reference_direct_sum`, the direct sum with its four structure maps,
  assembled cone by cone from the block-matrix helpers
  `reference_incl_first`, `reference_incl_second`, `reference_proj_first`
  and `reference_proj_second`, each cone map checked on its apex square;
* `reference_tensor`, the stalkwise tensor product;
* `reference_extension_from_twist`, the extension of A by B with a germ
  twist, which repeats the cone case of the direct sum on B and A;
* `reference_rebuild`, the sheaf rebuilt from a module record by a
  structural copy.

The library must agree with the first three by `repr` on seeded pairs over
the rank <= 2 spaces of `tests/test_unaligned_ops_golden.py`, and, for
extensions, on the twists of `tests/test_probe_oracle.py` and on the
representatives of `ext1`.  `reference_rebuild` of a record must equal the
record, given or `canonical`, and `recon_e` must return it.
"""

import random

import pytest

from stonesheaf.homalg import (
    GammaModule, _twist_classes, _twist_matrix, ext1, extension_from_twist, make_ses, recon_e)
from stonesheaf.linalg import ZERO, LinMap, direct_sum_space, solve
from stonesheaf.sheaf import (
    Section, canonical, direct_sum, germ_section, make_cone_map, make_cone_sheaf,
    make_fin_map, make_fin_sheaf, make_sum_map, make_sum_sheaf, random_csheaf, sec_functor,
    sec_space, sec_to_coords, tensor, _sectionwise, _tensor_space, _tensor_vec)
from stonesheaf.space import Cone, Finite, SpaceMismatch, Sum, parse_space
from test_probe_oracle import SPACES as PROBE_SPACES, _pairs as probe_pairs
from test_unaligned_ops_golden import SPACES

SEEDS = range(8)
REBUILD_SPACES = SPACES + ["Cone(Finite(1))", "Cone(Finite(3))",
                           "Cone(Sum(Finite(2),Finite(1)))"]
REBUILD_SEEDS = range(60)


def reference_incl_first(a, b, s):
    cols = [tuple(list(a.basis_vec(i)) + [ZERO] * b.dim) for i in range(a.dim)]
    return LinMap.from_cols(a, s, cols)


def reference_incl_second(a, b, s):
    cols = [tuple([ZERO] * a.dim + list(b.basis_vec(i))) for i in range(b.dim)]
    return LinMap.from_cols(b, s, cols)


def reference_proj_first(a, b, s):
    rows = [tuple(list(a.basis_vec(i)) + [ZERO] * b.dim) for i in range(a.dim)]
    return LinMap.from_rows(s, a, rows)


def reference_proj_second(a, b, s):
    rows = [tuple([ZERO] * a.dim + list(b.basis_vec(i))) for i in range(b.dim)]
    return LinMap.from_rows(s, b, rows)


def reference_direct_sum(F, G):
    if F.space != G.space:
        raise SpaceMismatch("direct sum over different spaces")
    if isinstance(F.space, Finite):
        stalks = [direct_sum_space([a, b], ["l", "r"]) for a, b in zip(F.data, G.data)]
        triples = list(zip(F.data, G.data, stalks))
        S = make_fin_sheaf(F.space, stalks)
        return (S,
                make_fin_map(F, S, [reference_incl_first(*t) for t in triples]),
                make_fin_map(G, S, [reference_incl_second(*t) for t in triples]),
                make_fin_map(S, F, [reference_proj_first(*t) for t in triples]),
                make_fin_map(S, G, [reference_proj_second(*t) for t in triples]))
    if isinstance(F.space, Sum):
        ls, li1, li2, lp1, lp2 = reference_direct_sum(F.data[0], G.data[0])
        rs, ri1, ri2, rp1, rp2 = reference_direct_sum(F.data[1], G.data[1])
        S = make_sum_sheaf(F.space, ls, rs)
        return (S, make_sum_map(F, S, li1, ri1), make_sum_map(G, S, li2, ri2),
                make_sum_map(S, F, lp1, rp1), make_sum_map(S, G, lp2, rp2))
    tail_S, t_i1, t_i2, t_p1, t_p2 = reference_direct_sum(F.tail, G.tail)
    apex = direct_sum_space([F.apex, G.apex], ["l", "r"])
    exc_parts = {k: reference_direct_sum(F.copy_sheaf(k), G.copy_sheaf(k))
                 for k in set(F.stored_keys()) | set(G.stored_keys())}
    i1s, i2s = sec_functor(t_i1), sec_functor(t_i2)
    cols = [i1s.apply(F.germ.apply(F.apex.basis_vec(i))) for i in range(F.apex.dim)]
    cols += [i2s.apply(G.germ.apply(G.apex.basis_vec(i))) for i in range(G.apex.dim)]
    germ = LinMap.from_cols(apex, sec_space(tail_S), cols)
    S = make_cone_sheaf(F.space, {k: v[0] for k, v in exc_parts.items()}, tail_S, apex, germ)

    def part(i):
        return {k: v[i] for k, v in exc_parts.items()}
    return (S,
            make_cone_map(F, S, part(1), t_i1, reference_incl_first(F.apex, G.apex, apex)),
            make_cone_map(G, S, part(2), t_i2, reference_incl_second(F.apex, G.apex, apex)),
            make_cone_map(S, F, part(3), t_p1, reference_proj_first(F.apex, G.apex, apex)),
            make_cone_map(S, G, part(4), t_p2, reference_proj_second(F.apex, G.apex, apex)))


def reference_tensor(F, G):
    if F.space != G.space:
        raise SpaceMismatch("tensor over different spaces")
    if isinstance(F.space, Finite):
        return make_fin_sheaf(F.space, [_tensor_space(a, b) for a, b in zip(F.data, G.data)])
    if isinstance(F.space, Sum):
        return make_sum_sheaf(F.space, reference_tensor(F.data[0], G.data[0]),
                              reference_tensor(F.data[1], G.data[1]))
    tail = reference_tensor(F.tail, G.tail)
    apex = _tensor_space(F.apex, G.apex)
    cols = []
    for i in range(F.apex.dim):
        si = germ_section(F, F.apex.basis_vec(i))
        for j in range(G.apex.dim):
            tj = germ_section(G, G.apex.basis_vec(j))
            prod = _sectionwise([F.tail, G.tail], [si.data, tj.data], [], _tensor_vec)
            cols.append(sec_to_coords(tail, Section(tail, prod)))
    germ = LinMap.from_cols(apex, sec_space(tail), cols)
    exc = {k: reference_tensor(F.copy_sheaf(k), G.copy_sheaf(k))
           for k in set(F.stored_keys()) | set(G.stored_keys())}
    return make_cone_sheaf(F.space, exc, tail, apex, germ)


def reference_extension_from_twist(A, B, twist):
    tail_S, t_iB, t_iA, t_pB, t_pA = reference_direct_sum(B.tail, A.tail)
    apex = direct_sum_space([B.apex, A.apex], ["b", "a"])
    iB_s, iA_s = sec_functor(t_iB), sec_functor(t_iA)
    cols = [iB_s.apply(B.germ.apply(B.apex.basis_vec(i))) for i in range(B.apex.dim)]
    for i in range(A.apex.dim):
        base = iA_s.apply(A.germ.apply(A.apex.basis_vec(i)))
        tw = iB_s.apply(twist.apply(A.apex.basis_vec(i)))
        cols.append(tuple(a + b for a, b in zip(base, tw)))
    exc_parts = {k: reference_direct_sum(B.copy_sheaf(k), A.copy_sheaf(k))
                 for k in set(A.stored_keys()) | set(B.stored_keys())}
    germ = LinMap.from_cols(apex, sec_space(tail_S), cols)
    E = make_cone_sheaf(A.space, {k: v[0] for k, v in exc_parts.items()}, tail_S, apex, germ)
    incl = make_cone_map(B, E, {k: v[1] for k, v in exc_parts.items()}, t_iB,
                         reference_incl_first(B.apex, A.apex, apex))
    proj = make_cone_map(E, A, {k: v[4] for k, v in exc_parts.items()}, t_pA,
                         reference_proj_second(B.apex, A.apex, apex), check=False)
    return make_ses(incl, proj)


def reference_rebuild(R):
    space = R.space
    if isinstance(space, Finite):
        return make_fin_sheaf(space, [R.data[i] for i in range(space.n)])
    if isinstance(space, Sum):
        return make_sum_sheaf(space, reference_rebuild(R.data[0]), reference_rebuild(R.data[1]))
    tail = reference_rebuild(R.tail)
    exc = {k: reference_rebuild(G) for k, G in R.data[1]}
    germ = LinMap(R.apex, sec_space(tail), R.germ.matrix)
    return make_cone_sheaf(space, exc, tail, R.apex, germ)


def _pairs(expr):
    space = parse_space(expr)
    for seed in SEEDS:
        rng = random.Random(seed)
        yield random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1)


@pytest.mark.parametrize("expr", SPACES)
def test_direct_sum_matches_the_reference(expr):
    for F, G in _pairs(expr):
        for X, Y in [(F, G), (G, F), (F, F)]:
            assert repr(direct_sum(X, Y)) == repr(reference_direct_sum(X, Y)), expr


@pytest.mark.parametrize("expr", SPACES)
def test_tensor_matches_the_reference(expr):
    for F, G in _pairs(expr):
        for X, Y in [(F, G), (G, F), (F, F)]:
            assert repr(tensor(X, Y)) == repr(reference_tensor(X, Y)), expr


@pytest.mark.parametrize("expr", [e for e in PROBE_SPACES if isinstance(parse_space(e), Cone)])
def test_extension_from_twist_matches_the_reference(expr):
    checked = 0
    for rng, A, B in probe_pairs(expr):
        SB = sec_space(B.tail)
        twist = LinMap.from_rows(A.apex, SB, [[rng.randint(-2, 2) for _ in range(A.apex.dim)]
                                              for _ in range(SB.dim)])
        twists = [twist, LinMap.zero(A.apex, SB)]
        classes, proj = _twist_classes(A, B)
        twists += [_twist_matrix(A, B, solve(proj, classes.basis_vec(i)))
                   for i in range(classes.dim)]
        for t in twists:
            assert repr(extension_from_twist(A, B, t)) == \
                repr(reference_extension_from_twist(A, B, t)), expr
            checked += 1
        assert repr(ext1(A, B)[1]) == repr(
            [reference_extension_from_twist(A, B, t) for t in twists[2:]]), expr
    assert checked > 0


def test_rebuild_is_the_identity_on_records():
    checked = 0
    for expr in REBUILD_SPACES:
        space = parse_space(expr)
        for seed in REBUILD_SEEDS:
            F = random_csheaf(space, random.Random(seed), 2, 2)
            for R in (F, canonical(F)):
                assert reference_rebuild(R) == R, (expr, seed)
                assert recon_e(GammaModule(R)) == R, (expr, seed)
                checked += 1
    assert checked == 840
