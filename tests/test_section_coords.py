"""Section coordinates round trip: `sec_to_coords(F, sec_from_coords(F, c))`
gives back c.

The sheaves are drawn with `random_csheaf` from a seed over the derandomized
space expressions of `test_space_properties`, restricted to rank <= 3 and
short expressions; each is checked as drawn and in its canonical form, on
the basis vectors and on seeded random coordinates.  Coordinates one entry
too short or too long raise `ValueError("coordinate length mismatch")`.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stonesheaf.sheaf import (  # noqa: E402
    canonical, random_csheaf, sec_from_coords, sec_space, sec_to_coords)
from stonesheaf.space import cb_rank  # noqa: E402
from test_space_properties import spaces  # noqa: E402

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
SMALL = spaces.filter(lambda s: cb_rank(s) <= 3 and len(str(s)) <= 48)


@SETTINGS
@given(SMALL, st.integers(min_value=0, max_value=2**16), st.integers(min_value=0, max_value=2))
def test_coordinates_of_the_section_built_from_coordinates(space, seed, exc_bound):
    rng = random.Random(seed)
    F = random_csheaf(space, rng, 2, exc_bound)
    for G in (F, canonical(F)):
        S = sec_space(G)
        draws = [S.basis_vec(i) for i in range(S.dim)]
        draws += [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(S.dim))
                  for _ in range(3)]
        for c in draws:
            assert sec_to_coords(G, sec_from_coords(G, c)) == tuple(c)
        c = draws[-1]
        too_short = [c[:-1]] if c else []
        for wrong in too_short + [c + (Fraction(1),)]:
            with pytest.raises(ValueError, match="coordinate length mismatch"):
                sec_from_coords(G, wrong)
