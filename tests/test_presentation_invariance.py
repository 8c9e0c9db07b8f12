"""Sums, tensors, kernels, cokernels and Ext do not depend on the presentation.

A sheaf has many presentations: the one drawn, its `canonical` form, the
one `align_pair` builds beside another sheaf, and over a disjoint union the
one with its summands swapped.  Whatever an operation returns must be the
same sheaf (`sheaves_equal`) whichever presentations it is given:

* the direct sum and the tensor of a pair, on the given, canonical and
  aligned presentations;
* the kernel and the cokernel of a `random_hom` f, and of f precomposed
  with the identity of the canonical form onto the sheaf;
* over a union with the summands swapped, the direct sum, the tensor and
  the dimensions of Ext^1 and Ext^2.

Hom is not among them: `hom_basis` is relative to the presentation.
"""

import random

import pytest

from stonesheaf.homalg import ext1_dim, ext2_dim, random_hom
from stonesheaf.linalg import LinMap
from stonesheaf.sheaf import (
    _componentwise, canonical, check_sheaf_map, cokernel, compose, direct_sum, kernel,
    make_sum_sheaf, random_csheaf, sheaves_equal, tensor)
from stonesheaf.space import Sum, parse_space
from test_ext_oracle import SPACES, presentations

SEEDS = range(20)
UNIONS = ["Sum(Cone(Finite(1)),Finite(2))", "Sum(Cone(Finite(1)),Cone(Finite(2)))",
          "Sum(Cone(Sum(Finite(2),Finite(1))),Cone(Finite(1)))"]


def _draws(expr):
    space = parse_space(expr)
    for seed in SEEDS:
        rng = random.Random(seed)
        yield seed, rng, random_csheaf(space, rng, 2, 2), random_csheaf(space, rng, 2, 2)


def swapped(F):
    """F over the union with its two summands exchanged."""
    return make_sum_sheaf(Sum(F.space.right, F.space.left), F.data[1], F.data[0])


@pytest.mark.parametrize("expr", SPACES)
def test_sums_and_tensors_agree_across_presentations(expr):
    for seed, _rng, A, B in _draws(expr):
        S, T = direct_sum(A, B)[0], tensor(A, B)
        for X, Y in presentations(A, B)[1:]:
            assert sheaves_equal(direct_sum(X, Y)[0], S), (expr, seed)
            assert sheaves_equal(tensor(X, Y), T), (expr, seed)


@pytest.mark.parametrize("expr", SPACES)
def test_kernels_and_cokernels_agree_across_presentations(expr):
    for seed, rng, A, B in _draws(expr):
        f = random_hom(A, B, rng)
        unit = _componentwise(canonical(A), A, [], lambda a, _b: LinMap.identity(a))
        assert check_sheaf_map(unit), (expr, seed)
        g = compose(unit, f)
        assert sheaves_equal(kernel(g)[0], kernel(f)[0]), (expr, seed)
        assert sheaves_equal(cokernel(g)[0], cokernel(f)[0]), (expr, seed)


@pytest.mark.parametrize("expr", UNIONS)
def test_swapped_summands_agree(expr):
    for seed, _rng, A, B in _draws(expr):
        sA, sB = swapped(A), swapped(B)
        assert ext1_dim(sA, sB) == ext1_dim(A, B), (expr, seed)
        assert ext2_dim(sA, sB) == ext2_dim(A, B), (expr, seed)
        assert sheaves_equal(direct_sum(sA, sB)[0], swapped(direct_sum(A, B)[0])), (expr, seed)
        assert sheaves_equal(tensor(sA, sB), swapped(tensor(A, B))), (expr, seed)
