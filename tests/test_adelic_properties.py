"""d∘d = 0 on the adelic complex of spaces drawn from the grammar.

`tests/test_adelic.py` checks d∘d = 0 on five fixed spaces.  Here the
spaces have rank 1, 2 or 3, drawn first as a rank and then by `of_rank`
from the `spaces` strategy of `tests/test_space_properties.py`, and every
degree but the last two gets a cochain of `random_cfun` data, one per flag;
a space of rank 0 would leave no such degree, so it is not drawn.  The
examples are derandomized, and hypothesis runs once per rank r with
`RANK_COUNTS[r]` examples; the count of each rank drawn is checked against
it.  Hypothesis draws some integers from the literals of the local modules
imported so far, so which spaces are drawn can depend on the tests that ran
before, but how many of each rank cannot.
"""

import random
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stonesheaf.adelic import build_complex, random_cfun  # noqa: E402
from stonesheaf.space import Cone, Finite, Sum, cb_rank  # noqa: E402
from test_space_properties import spaces  # noqa: E402

RANK_COUNTS = {1: 33, 2: 48, 3: 19}


def of_rank(r):
    """Spaces of rank exactly r: a cone on a space of rank r - 1, alone or
    beside a space of the grammar of rank at most r."""
    if r == 0:
        return st.integers(min_value=1, max_value=3).map(Finite)
    cone = st.builds(Cone, of_rank(r - 1))
    return cone | st.builds(Sum, cone, spaces.filter(lambda s: cb_rank(s) <= r))


def examples(count):
    """The settings of one run of `count` derandomized examples."""
    return settings(max_examples=count, derandomize=True, database=None, deadline=None)


def test_d_squared_is_zero_in_every_degree():
    ranks = []
    for rank, count in RANK_COUNTS.items():
        @examples(count)
        @given(of_rank(rank), st.integers(min_value=0, max_value=2**16))
        def check(s, seed):
            ranks.append(cb_rank(s))
            rng = random.Random(seed)
            cx = build_complex(s)
            for deg in cx.degrees()[:-2]:
                coch = {A: random_cfun(s, A, rng, 1) for A in cx.flags(deg)}
                twice = cx.differential(cx.differential(coch, deg), deg + 1)
                assert all(v.is_zero() for v in twice.values()), (str(s), deg)

        check()
    assert dict(Counter(ranks)) == RANK_COUNTS
