"""`canonical` is a normal form: two presentations of one sheaf get one.

For the first two sheaves F, G of `random_csheaf(space, random.Random(seed),
2, exc_bound)` over spaces of rank 2 and 3, `align_pair(F, G)` presents F
and G again with more stored copies.  Each presentation must have the canonical
form of the sheaf it presents, and `canonical` must be idempotent.

`sheaves_equal` compares identical presentations without their normal
forms.  Its verdict must be `canonical(F) == canonical(G)`, computed here on
rebuilt copies that keep no normal form, on four kinds of seeded pairs over
the three `sheaf-models` spaces and `Cone(Cone(Cone(Finite(1))))`: one object
twice, a sheaf and its structurally equal rebuilt twin, a sheaf and its
`align_pair` presentation, and two independently drawn sheaves.
"""

import random

import pytest

import stonesheaf.sheaf as sheaf
from stonesheaf.sheaf import CSheaf, align_pair, canonical, random_csheaf, sheaves_equal
from stonesheaf.space import Cone, Sum, parse_space

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


EQUALITY_SPACES = ["Cone(Finite(1))", "Cone(Cone(Finite(1)))", "Cone(Sum(Finite(2),Finite(1)))",
                   "Cone(Cone(Cone(Finite(1))))"]


def rebuilt(F):
    """A structurally equal copy of F in which every sheaf is a new object,
    so no normal form is kept anywhere in it."""
    if isinstance(F.space, Sum):
        return CSheaf(F.space, tuple(rebuilt(G) for G in F.data))
    if isinstance(F.space, Cone):
        tag, exc, tail, apex, germ = F.data
        return CSheaf(F.space, (tag, tuple((k, rebuilt(G)) for k, G in exc), rebuilt(tail),
                                apex, germ))
    return CSheaf(F.space, F.data)


def reference_equal(F, G):
    return canonical(rebuilt(F)) == canonical(rebuilt(G))


def seeded_pairs(space, seeds=30):
    """(kind, F, G) for each seed: F twice, F and its rebuilt twin, F and its
    `align_pair` presentation against G, and F and G."""
    for seed in range(seeds):
        rng = random.Random(seed)
        F, G = random_csheaf(space, rng, 2, 2), random_csheaf(space, rng, 2, 2)
        yield "identical", F, F
        yield "twin", F, rebuilt(F)
        yield "aligned", align_pair(F, G)[0], F
        yield "unequal", F, G


@pytest.mark.parametrize("expr", EQUALITY_SPACES)
def test_sheaves_equal_is_equality_of_normal_forms(expr):
    verdicts = {}
    for kind, F, G in seeded_pairs(parse_space(expr)):
        expected = reference_equal(F, G)
        assert sheaves_equal(F, G) is expected, (kind, F, G)
        assert sheaves_equal(G, F) is expected, (kind, F, G)
        verdicts.setdefault(kind, []).append((expected, F == G))
    assert all(v == (True, True) for kind in ("identical", "twin") for v in verdicts[kind])
    assert all(same for same, _ in verdicts["aligned"])
    assert any(not identical for _, identical in verdicts["aligned"])  # the forms are compared
    assert any(not same for same, _ in verdicts["unequal"])


@pytest.mark.parametrize("expr", EQUALITY_SPACES)
def test_identical_presentations_are_compared_without_normal_forms(monkeypatch, expr):
    def refuse(F):
        raise AssertionError("computed a normal form")
    pairs = [(F, G) for kind, F, G in seeded_pairs(parse_space(expr), 10)
             if kind in ("identical", "twin")]
    monkeypatch.setattr(sheaf, "canonical", refuse)
    assert all(sheaves_equal(F, G) for F, G in pairs)
