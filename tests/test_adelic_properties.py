"""d∘d = 0 and the sampler's kernel on spaces drawn from the grammar.

`tests/test_adelic.py` checks d∘d = 0 on five fixed spaces.  Here the
spaces have rank 1, 2 or 3, drawn first as a rank and then by `of_rank`
from the `spaces` strategy of `tests/test_space_properties.py`, and every
degree but the last two gets a cochain of `random_cfun` data, one per flag;
a space of rank 0 would leave no such degree, so it is not drawn.  On the
same kind of draws, with an exception bound of 0-2, the sampler's
`_kernel_rref` must equal the whole-cochain probe of
`tests/test_kernel_probe_oracle.py` by `repr` in every degree from -1 to
rank - 1.  The examples are derandomized, and each test runs hypothesis
once per rank r with `RANK_COUNTS[r]` examples; the count of each rank
drawn is checked against it.  Hypothesis draws some integers from the literals of the local modules
imported so far, so which spaces are drawn can depend on the tests that ran
before, but how many of each rank cannot.
"""

import random
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stonesheaf.adelic import RATIONAL, build_complex, random_cfun  # noqa: E402
from stonesheaf.space import Cone, Finite, Sum, cb_rank  # noqa: E402
from test_kernel_probe_oracle import assert_matches_reference  # noqa: E402
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


def for_each_rank(prop, extra):
    """prop(space, x) on `RANK_COUNTS[r]` derandomized examples of each rank
    r, x drawn from extra; then the count of each rank drawn is checked."""
    ranks = []
    for rank, count in RANK_COUNTS.items():
        @examples(count)
        @given(of_rank(rank), extra)
        def check(s, x):
            ranks.append(cb_rank(s))
            prop(s, x)

        check()
    assert dict(Counter(ranks)) == RANK_COUNTS


def test_d_squared_is_zero_in_every_degree():
    def d_squared_is_zero(s, seed):
        rng = random.Random(seed)
        cx = build_complex(s)
        for deg in cx.degrees()[:-2]:
            coch = {A: random_cfun(s, A, rng, 1) for A in cx.flags(deg)}
            twice = cx.differential(cx.differential(coch, deg), deg + 1)
            assert all(v.is_zero() for v in twice.values()), (str(s), deg)

    for_each_rank(d_squared_is_zero, st.integers(min_value=0, max_value=2**16))


def test_kernel_rref_matches_the_whole_cochain_probe():
    for_each_rank(lambda s, exc_bound: assert_matches_reference(
        RATIONAL, s, None, range(-1, cb_rank(s)), exc_bound), st.integers(min_value=0, max_value=2))
