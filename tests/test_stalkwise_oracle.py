"""Kernels, the isomorphism test and quotients against their first copies.

The references below are the engine's operations as they were written
when each hand-wrote its own walk:

* `reference_kernel`, the kernel sheaf with its inclusion, built by its own
  recursion over the space expression, with the free-column loop of
  `reference_kernel_basis` at every stalk;
* `reference_is_isomorphism`, which walks the stalk maps at every apex,
  every listed or stored copy and every tail;
* `reference_quotient`, the quotient of a space by a span with its
  projection, by its own free-column loop.

The cokernel's reference, which lifts the apex quotient by `solve`, is
`tests/test_cokernel_lift_oracle.py`.  The library must agree with these by
`repr` on the seeded sheaf maps of that file over its five `SPACES`, on
their kernel inclusions and cokernel projections, and on the stalk maps of
all of them at every `_probe_points` point.
"""

import functools
import random

import pytest

from stonesheaf.homalg import is_isomorphism
from stonesheaf.linalg import (
    ONE, ZERO, LinMap, VectQ, is_iso, kernel_basis, solve)
from stonesheaf.sheaf import (
    Section, _probe_points, _quotient, _sectionwise, cokernel, germ_section, kernel,
    make_cone_map, make_cone_sheaf, make_fin_map, make_fin_sheaf, make_sum_map,
    make_sum_sheaf, sec_space, sec_to_coords, stalk_map)
from stonesheaf.space import Finite, Sum, parse_space
from test_cokernel_lift_oracle import SEEDS, SPACES, sheaf_maps
from test_sparse_rref_properties import dense_rref, reference_image_basis


def reference_kernel_basis(m):
    red, pivots = dense_rref([list(r) for r in m.matrix])
    basis = []
    for f in [j for j in range(m.source.dim) if j not in pivots]:
        v = [ZERO] * m.source.dim
        v[f] = ONE
        for r_idx, p in enumerate(pivots):
            v[p] = -red[r_idx][f]
        basis.append(tuple(v))
    return basis


def reference_quotient(amb, basis, prefix="q"):
    red, pivots = dense_rref([list(b) for b in basis])
    free = [j for j in range(amb.dim) if j not in pivots]
    rows = []
    for j in free:
        row = [ZERO] * amb.dim
        row[j] = ONE
        for r_i, p in enumerate(pivots):
            row[p] = -red[r_i][j]
        rows.append(tuple(row))
    Q = VectQ.make(len(free), prefix)
    return Q, LinMap.from_rows(amb, Q, rows), free


def reference_subspace(amb, basis):
    K = VectQ.make(len(basis), "k")
    return K, LinMap.from_cols(K, amb, [tuple(b) for b in basis])


def reference_preimage(v, incl):
    x = solve(incl, v)
    assert x is not None, "kernel germ does not factor through kernel sections"
    return x


def reference_kernel(f):
    F = f.source
    if isinstance(F.space, Finite):
        parts = [reference_subspace(m.source, reference_kernel_basis(m)) for m in f.data]
        KF = make_fin_sheaf(F.space, [K for K, _ in parts])
        return KF, make_fin_map(KF, F, [incl for _, incl in parts])
    if isinstance(F.space, Sum):
        lk, li = reference_kernel(f.data[0])
        rk, ri = reference_kernel(f.data[1])
        KF = make_sum_sheaf(F.space, lk, rk)
        return KF, make_sum_map(KF, F, li, ri)
    kt, it_ = reference_kernel(f.tail_map)
    exc = {k: reference_kernel(m) for k, m in f.data[1]}
    Ka, ia = reference_subspace(F.apex, reference_kernel_basis(f.apex_map))
    germ = LinMap.of(Ka, sec_space(kt), lambda v: sec_to_coords(kt, Section(kt, _sectionwise(
        [F.tail], [germ_section(F, ia.apply(v)).data], [it_], reference_preimage))))
    KF = make_cone_sheaf(F.space, {k: v[0] for k, v in exc.items()}, kt, Ka, germ)
    return KF, make_cone_map(KF, F, {k: v[1] for k, v in exc.items()}, it_, ia, check=False)


def reference_is_isomorphism(f):
    F = f.source
    if isinstance(F.space, Finite):
        return all(is_iso(m) for m in f.data)
    if isinstance(F.space, Sum):
        return reference_is_isomorphism(f.data[0]) and reference_is_isomorphism(f.data[1])
    if not is_iso(f.apex_map):
        return False
    keys = set(F.stored_keys()) | set(f.target.stored_keys()) | set(dict(f.data[1]))
    return (reference_is_isomorphism(f.tail_map) and
            all(reference_is_isomorphism(f.copy_map(k)) for k in keys))


@functools.cache
def maps_of(expr, seed):
    """The seeded maps of the cokernel oracle, their kernel inclusions and
    their cokernel projections."""
    maps = sheaf_maps(parse_space(expr), random.Random(seed))
    return maps + [kernel(f)[1] for f in maps] + [cokernel(f)[1] for f in maps]


@pytest.mark.parametrize("expr", SPACES)
def test_kernel_matches_the_reference(expr):
    for seed in SEEDS:
        for f in maps_of(expr, seed):
            K, incl = kernel(f)
            K_ref, incl_ref = reference_kernel(f)
            assert repr(K) == repr(K_ref), (expr, seed)
            assert repr(incl) == repr(incl_ref), (expr, seed)


@pytest.mark.parametrize("expr", SPACES)
def test_is_isomorphism_matches_the_reference(expr):
    verdicts = []
    for seed in SEEDS:
        for f in maps_of(expr, seed):
            verdicts.append(is_isomorphism(f))
            assert verdicts[-1] == reference_is_isomorphism(f), (expr, seed)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("expr", SPACES)
def test_quotients_and_kernel_bases_match_the_references(expr):
    count = 0
    for seed in SEEDS:
        for f in maps_of(expr, seed):
            for x in _probe_points(f.source.space, [f]):
                m = stalk_map(f, x)
                assert repr(kernel_basis(m)) == repr(reference_kernel_basis(m)), (expr, seed)
                for amb, basis, prefix in [(m.target, reference_image_basis(m), "q"),
                                           (m.source, m.matrix, "q"), (m.target, [], "x")]:
                    got = _quotient(amb, basis, prefix)
                    assert repr(got) == repr(reference_quotient(amb, basis, prefix)), (expr, seed)
                count += 1
    assert count >= 100
