"""d∘d = 0 on the adelic complex of spaces drawn from the grammar.

`tests/test_adelic.py` checks d∘d = 0 on five fixed spaces.  Here the
spaces come from the `spaces` strategy of `tests/test_space_properties.py`,
kept to rank <= 3, and every degree gets a cochain of `random_cfun` data,
one per flag.  The examples are derandomized and their number is fixed, so
every run draws the same spaces and cochains.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stonesheaf.adelic import build_complex, random_cfun  # noqa: E402
from stonesheaf.space import cb_rank  # noqa: E402
from test_space_properties import spaces  # noqa: E402


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(spaces.filter(lambda s: cb_rank(s) <= 3), st.integers(min_value=0, max_value=2**16))
def test_d_squared_is_zero_in_every_degree(s, seed):
    rng = random.Random(seed)
    cx = build_complex(s)
    for deg in cx.degrees()[:-2]:
        coch = {A: random_cfun(s, A, rng, 1) for A in cx.flags(deg)}
        twice = cx.differential(cx.differential(coch, deg), deg + 1)
        assert all(v.is_zero() for v in twice.values()), (str(s), deg)
