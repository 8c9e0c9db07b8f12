"""Ext in rank one against oracles that read no presentation.

Every other Ext test compares the engine with an older copy of itself or
with a unit-twist splitting test.  These tests use facts of sheaf theory
that do not depend on how the engine builds Ext¹:

* sections over a Stone space are exact, so a constant sheaf is projective
  and Ext¹ out of it vanishes;
* Ext² = 0 (injective dimension one), so Ext¹(A, −) takes the surjection
  B → coker f to a surjection, and dim Ext¹(A, coker f) <= dim Ext¹(A, B);
* Ext¹, Ext² and splitness are invariants of the sheaves, so they agree on
  the given, the `canonical` and the `align_pair` presentations of a pair.

The Hom basis is not among them: `hom_basis` spans the maps uniform off the
copies the pair stores, so its length depends on the presentation.
"""

import random
from fractions import Fraction

import pytest

from stonesheaf.homalg import (
    ext1_dim, ext2_dim, extension_from_twist, is_split, random_hom)
from stonesheaf.linalg import LinMap
from stonesheaf.sheaf import (
    align_pair, canonical, cokernel, constant, random_csheaf, sec_space, skyscraper)
from stonesheaf.space import apex_point, parse_space

CONES = ["Cone(Finite(1))", "Cone(Finite(3))", "Cone(Sum(Finite(2),Finite(1)))"]
SPACES = CONES + ["Sum(Cone(Finite(1)),Finite(2))"]
SEEDS = range(30)


def presentations(A, B):
    """The pair as drawn, in canonical form, and aligned."""
    return [(A, B), (canonical(A), canonical(B)), align_pair(A, B)]


@pytest.mark.parametrize("expr", SPACES)
def test_constant_sheaves_are_projective(expr):
    space = parse_space(expr)
    for seed in SEEDS:
        G = random_csheaf(space, random.Random(seed), 2, 2)
        for d in (1, 2):
            assert ext1_dim(constant(space, d), G) == 0, (expr, seed, d)


def test_the_apex_skyscraper_is_not_projective():
    """The projectivity oracle is not met trivially."""
    space = parse_space("Cone(Finite(1))")
    sky = skyscraper(space, apex_point(), 1)
    dims = [ext1_dim(sky, random_csheaf(space, random.Random(seed), 2, 2)) for seed in SEEDS]
    assert max(dims) > 0


def test_ext1_into_a_cokernel_is_no_larger():
    strict = 0
    for expr in SPACES:
        space = parse_space(expr)
        for seed in SEEDS:
            rng = random.Random(seed)
            A, B, C = (random_csheaf(space, rng, 2, 2) for _ in range(3))
            Q, _ = cokernel(random_hom(C, B, rng))
            before, after = ext1_dim(A, B), ext1_dim(A, Q)
            assert after <= before, (expr, seed)
            strict += after < before
    assert strict > 0   # some cokernel loses classes, so the bound has teeth


@pytest.mark.parametrize("expr", SPACES)
def test_ext_dimensions_agree_across_presentations(expr):
    space = parse_space(expr)
    for seed in SEEDS:
        rng = random.Random(seed)
        pairs = presentations(random_csheaf(space, rng, 2, 2), random_csheaf(space, rng, 2, 2))
        assert len({ext1_dim(A, B) for A, B in pairs}) == 1, (expr, seed)
        assert len({ext2_dim(A, B) for A, B in pairs}) == 1, (expr, seed)


def test_splitness_agrees_across_presentations():
    """One germ twist, read in every presentation of the pair.  At rank one
    the presentations differ only in the copies they store, so the apex of A
    and the sections of the tail of B, between which a twist acts, are the
    same spaces in all three."""
    seen = set()
    for expr in CONES:
        space = parse_space(expr)
        for seed in range(12):
            rng = random.Random(seed)
            A, B = random_csheaf(space, rng, 2, 2), random_csheaf(space, rng, 2, 2)
            SB = sec_space(B.tail)
            rows = [tuple(Fraction(rng.choice((0, 0, 1, -1))) for _ in range(A.apex.dim))
                    for _ in range(SB.dim)]
            twist = LinMap.from_rows(A.apex, SB, rows)
            split = {is_split(extension_from_twist(a, b, twist))[0]
                     for a, b in presentations(A, B)}
            assert len(split) == 1, (expr, seed)
            seen |= split
    assert seen == {True, False}
