"""The samplers' draws against the formulas they replace.

`adelic.random_rat` and the two draws of `weyl.eq_random_cocycle` read a
table indexed by `randrange`, in place of building a `Fraction` from
`randint` and `choice`.  `randint(a, b)` and `choice` of a 4-list each make
one `_randbelow` call, as `randrange` of the same width does, so every draw
and the generator's state after it must be the formula's.  Each draw is
compared by value and by type over 20 seeds of 2,000 draws, and the states
afterwards must be equal; the tier-1 matrix runs this on every Python it
covers, which pins the stream there.  The equivariant draws are the ones
that `eq_random_cocycle` hands to the sampler, captured from its call.
"""

import random
from fractions import Fraction

import pytest

from stonesheaf import weyl
from stonesheaf.adelic import _sample_cocycle, build_complex, random_cocycle, random_rat
from stonesheaf.catalog import o2_dihedral_block
from stonesheaf.space import parse_space

SEEDS = range(20)
DRAWS = 2000


def formula_rat(rng):
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def formula_free(rng):
    return Fraction(rng.randint(-4, 4))


def formula_kernel(rng):
    return Fraction(rng.randint(-3, 3))


def eq_draws():
    """The (free, kernel) draws that `eq_random_cocycle` passes on."""
    seen = []

    def capture(cx, degree, rng, exc_bound, free_draw, kernel_draw):
        seen.append((free_draw, kernel_draw))
    mp = pytest.MonkeyPatch()
    mp.setattr(weyl, "_sample_cocycle", capture)
    try:
        weyl.eq_random_cocycle(None, 0, random.Random(0))
    finally:
        mp.undo()
    return seen[0]


EQ_FREE, EQ_KERNEL = eq_draws()


@pytest.mark.parametrize("draw, formula", [(random_rat, formula_rat),
                                           (EQ_FREE, formula_free),
                                           (EQ_KERNEL, formula_kernel)],
                         ids=["random_rat", "eq free", "eq kernel"])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_draw_is_the_formula_and_consumes_the_same_stream(draw, formula, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(DRAWS):
        got, want = draw(rng), formula(ref)
        assert got == want and type(got) is Fraction
    assert rng.getstate() == ref.getstate()


def assert_sampler_is_the_formulas(cx, sampler, free_draw, kernel_draw, seed):
    for degree in range(cx.rank + 1):
        rng, ref = random.Random(seed + degree), random.Random(seed + degree)
        got = sampler(cx, degree, rng)
        assert repr(got) == repr(_sample_cocycle(cx, degree, ref, 2, free_draw, kernel_draw))
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("expr", ["Finite(3)", "Cone(Sum(Finite(2),Cone(Finite(1))))",
                                  "Cone(Cone(Cone(Finite(1))))"])
def test_random_cocycle_is_the_formula_sampler(expr):
    assert_sampler_is_the_formulas(build_complex(parse_space(expr)), random_cocycle,
                                   formula_rat, formula_rat, 11)


def test_eq_random_cocycle_is_the_formula_sampler():
    space, _labels, cs = o2_dihedral_block(4)
    assert_sampler_is_the_formulas(weyl.equivariant_adelic(space, cs), weyl.eq_random_cocycle,
                                   formula_free, formula_kernel, 5)
