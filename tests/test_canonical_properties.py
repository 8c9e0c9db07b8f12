"""`canonical` is a normal form: two presentations of one sheaf get one.

For the first two sheaves F, G of `random_csheaf(space, random.Random(seed),
2, exc_bound)` over spaces of rank 2 and 3, `align_pair(F, G)` presents F
and G again with more stored copies.  Each presentation must have the canonical
form of the sheaf it presents, and `canonical` must be idempotent.
"""

import random

import pytest

from stonesheaf.sheaf import align_pair, canonical, random_csheaf
from stonesheaf.space import parse_space

CASES = [("Cone(Cone(Finite(1)))", 1, 120), ("Cone(Sum(Finite(2),Cone(Finite(1))))", 1, 120),
         ("Cone(Cone(Cone(Finite(1))))", 1, 120),
         ("Cone(Sum(Cone(Finite(1)),Cone(Cone(Finite(1)))))", 2, 40)]


@pytest.mark.parametrize("expr,exc_bound,seeds", CASES)
def test_presentations_of_one_sheaf_have_one_canonical_form(expr, exc_bound, seeds):
    space = parse_space(expr)
    for seed in range(seeds):
        rng = random.Random(seed)
        F, G = random_csheaf(space, rng, 2, exc_bound), random_csheaf(space, rng, 2, exc_bound)
        for X, A in zip((F, G), align_pair(F, G)):
            C = canonical(X)
            assert canonical(A) == C, (seed, X)
            assert canonical(C) == C, (seed, X)

