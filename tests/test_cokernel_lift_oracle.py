"""`cokernel` against a reference that lifts the apex quotient by `solve`.

At a cone, the germ of the cokernel sends each basis vector of the apex
quotient to the germ of any lift of it, projected to the tail cokernel's
sections.  Two lifts differ by the image of the apex map, whose germ is the
image of the tail map by the apex square, which the projection kills.  So
every lift gives the same germ, and `cokernel` must agree byte for byte
(record and projection) with the reference below, which lifts by `solve`,
on seeded sheaf maps over spaces of rank at most 2: `random_hom` and the
members of `hom_basis` (rank at most 1), zero and identity maps, the
inclusions and projections of `direct_sum`, and kernel inclusions.
"""

import random

import pytest

from stonesheaf.homalg import hom_basis, random_hom
from stonesheaf.linalg import LinMap, solve
from stonesheaf.sheaf import (
    _quotient, check_sheaf_map, cokernel, direct_sum, identity_map, kernel, make_cone_map,
    make_cone_sheaf, make_fin_map, make_fin_sheaf, make_sum_map, make_sum_sheaf,
    random_csheaf, sec_functor, sec_space, zero_map)
from stonesheaf.space import Finite, Sum, cb_rank, parse_space
from test_sparse_rref_properties import reference_image_basis

SPACES = ["Cone(Finite(1))", "Cone(Sum(Finite(2),Finite(1)))", "Sum(Cone(Finite(1)),Finite(2))",
          "Cone(Cone(Finite(1)))", "Cone(Sum(Finite(2),Cone(Finite(1))))"]
SEEDS = range(12)


def reference_cokernel(f):
    G = f.target
    if isinstance(G.space, Finite):
        stalks, projs = [], []
        for m in f.data:
            Q, pr = _quotient(m.target, reference_image_basis(m))[:2]
            stalks.append(Q)
            projs.append(pr)
        QF = make_fin_sheaf(G.space, stalks)
        return QF, make_fin_map(G, QF, projs)
    if isinstance(G.space, Sum):
        lq, lp = reference_cokernel(f.data[0])
        rq, rp = reference_cokernel(f.data[1])
        QF = make_sum_sheaf(G.space, lq, rq)
        return QF, make_sum_map(G, QF, lp, rp)
    qt, pt = reference_cokernel(f.tail_map)
    exc = {k: reference_cokernel(m) for k, m in f.data[1]}
    Qa, pa = _quotient(G.apex, reference_image_basis(f.apex_map))[:2]
    sec_proj = sec_functor(pt)
    cols = [sec_proj.apply(G.germ.apply(solve(pa, Qa.basis_vec(i)))) for i in range(Qa.dim)]
    germ = LinMap.from_cols(Qa, sec_space(qt), cols)
    QF = make_cone_sheaf(G.space, {k: v[0] for k, v in exc.items()}, qt, Qa, germ)
    return QF, make_cone_map(G, QF, {k: v[1] for k, v in exc.items()}, pt, pa, check=False)


def sheaf_maps(space, rng):
    F, G = random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1)
    S, iF, iG, pF, pG = direct_sum(F, G)
    maps = [zero_map(F, G), identity_map(F), iF, iG, pF, pG,
            kernel(pF)[1], kernel(pG)[1], kernel(zero_map(F, G))[1]]
    if cb_rank(space) <= 1:
        maps += [random_hom(F, G, rng), random_hom(S, F, rng)] + hom_basis(G, F)
        maps.append(kernel(maps[-1])[1])
    return maps


@pytest.mark.parametrize("expr", SPACES)
def test_cokernel_matches_the_solve_reference(expr):
    space = parse_space(expr)
    count = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        for f in sheaf_maps(space, rng):
            assert check_sheaf_map(f), (expr, seed)
            Q, proj = cokernel(f)
            Q_ref, proj_ref = reference_cokernel(f)
            assert repr(Q) == repr(Q_ref), (expr, seed)
            assert repr(proj) == repr(proj_ref), (expr, seed)
            count += 1
    assert count >= 9 * len(SEEDS)
