"""`hom_basis` and `is_split` against their loops over unit parameters.

Both solve linear equations in the entries of a candidate sheaf map, as laid
out by `_hom_parametrization`.  The references below build the matrix of
those equations as the code first did: one `build` of the unit parameter
vector per column, with early answers when there are no parameters or no
equations.  The library must agree with them by `repr` on seeded
`random_csheaf` pairs over rank <= 1 spaces (stalks of dimension 0
included), on the split and twisted extensions of those pairs, and on
inputs with no parameters at all: maps out of and into a zero sheaf, and a
sequence whose quotient is zero.
"""

import random

import pytest

from stonesheaf.homalg import (
    _germ_residual, _hom_parametrization, _probe_points, ext1, extension_from_twist,
    hom_basis, is_split, split_ses)
from stonesheaf.linalg import ONE, ZERO, LinMap, VectQ, kernel_basis, solve
from stonesheaf.sheaf import (
    compose, random_csheaf, sec_space, stalk, stalk_map, zero_map, zero_sheaf)
from stonesheaf.space import Cone, parse_space

SPACES = ["Finite(2)", "Sum(Finite(1),Finite(2))", "Cone(Finite(1))", "Cone(Finite(2))",
          "Cone(Sum(Finite(2),Finite(1)))", "Sum(Cone(Finite(1)),Finite(1))"]
SEEDS = range(8)


def _unit(params, i):
    vec = [ZERO] * params
    vec[i] = ONE
    return tuple(vec)


def reference_hom_basis(F, G):
    params, build = _hom_parametrization(F, G)
    if params == 0:
        return []
    cols = [_germ_residual(build(_unit(params, i))) for i in range(params)]
    src = VectQ.make(params, "h")
    nres = len(cols[0])
    if nres == 0:
        basis = [src.basis_vec(i) for i in range(params)]
    else:
        basis = kernel_basis(LinMap.from_cols(src, VectQ.make(nres, "c"), cols))
    return [build(v) for v in basis]


def reference_is_split(s):
    C, B, proj = s.quo, s.mid, s.proj
    params, build = _hom_parametrization(C, B)
    probe = _probe_points(C.space, [C, B, proj])
    if params == 0:
        ok = all(stalk(C, x).dim == 0 for x in probe)
        return (ok, zero_map(C, B) if ok else None)

    def equations(r):
        rows = list(_germ_residual(r))
        comp = compose(r, proj)
        for x in probe:
            for row in stalk_map(comp, x).matrix:
                rows.extend(row)
        return rows

    cols = [tuple(equations(build(_unit(params, i)))) for i in range(params)]
    target = [ZERO] * len(_germ_residual(build(tuple([ZERO] * params))))
    for x in probe:
        for row in LinMap.identity(stalk(C, x)).matrix:
            target.extend(row)
    src, tgt = VectQ.make(params, "r"), VectQ.make(len(target), "e")
    x = solve(LinMap.from_cols(src, tgt, cols), tuple(target))
    if x is None:
        return False, None
    return True, build(x)


def _pairs(expr):
    space = parse_space(expr)
    for seed in SEEDS:
        rng = random.Random(seed)
        yield rng, random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1)


def _sequences(rng, A, B):
    out = [split_ses(A, B), split_ses(B, A)]
    if isinstance(A.space, Cone):
        SB = sec_space(B.tail)
        twist = LinMap.from_rows(A.apex, SB, [[rng.randint(-2, 2) for _ in range(A.apex.dim)]
                                              for _ in range(SB.dim)])
        out.append(extension_from_twist(A, B, twist))
    out += ext1(A, B)[1]
    return out


@pytest.mark.parametrize("expr", SPACES)
def test_hom_basis_matches_the_unit_parameter_loop(expr):
    for _rng, A, B in _pairs(expr):
        for F, G in [(A, B), (B, A), (A, A)]:
            assert repr(hom_basis(F, G)) == repr(reference_hom_basis(F, G))


@pytest.mark.parametrize("expr", SPACES)
def test_is_split_matches_the_unit_parameter_loop(expr):
    for rng, A, B in _pairs(expr):
        for s in _sequences(rng, A, B):
            assert repr(is_split(s)) == repr(reference_is_split(s))


@pytest.mark.parametrize("expr", SPACES)
def test_zero_parameter_inputs(expr):
    space = parse_space(expr)
    Z = zero_sheaf(space)
    for _rng, A, _B in _pairs(expr):
        for F, G in [(Z, A), (A, Z), (Z, Z)]:
            assert _hom_parametrization(F, G)[0] == 0
            assert hom_basis(F, G) == reference_hom_basis(F, G) == []
        s = split_ses(Z, A)     # the quotient is zero: Hom(0, A) has no parameters
        assert _hom_parametrization(s.quo, s.mid)[0] == 0
        expected = repr((True, zero_map(s.quo, s.mid)))
        assert repr(is_split(s)) == repr(reference_is_split(s)) == expected
