"""The ring-element JSON codec: round trips with hypothesis, and the paths
reported for malformed leaves.

The examples are derandomized and their number is fixed, so every run
draws the same spaces and elements.
"""

import json
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stonesheaf import serialize as ser  # noqa: E402
from stonesheaf.adelic import all_flags, random_cfun  # noqa: E402
from stonesheaf.catalog import o2_dihedral_block  # noqa: E402
from stonesheaf.space import cb_rank  # noqa: E402
from stonesheaf.weyl import eq_unit  # noqa: E402
from test_space_properties import spaces  # noqa: E402

SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


@SETTINGS
@given(spaces, st.integers(min_value=0, max_value=2**32 - 1))
def test_cfun_round_trip_every_flag(s, seed):
    rng = random.Random(seed)
    for flag in [()] + all_flags(cb_rank(s)):
        f = random_cfun(s, flag, rng)
        assert ser.cfun_from_json(json.loads(ser.dumps(ser.cfun_to_json(f)))) == f


def test_malformed_rational_leaf_path():
    doc = {"space": "Sum(Finite(1),Cone(Finite(2)))", "flag": [],
           "data": [["1/1"], {"tail": "oops", "exc": [[1, ["2/1", "1/2"]]]}]}
    with pytest.raises(ser.SerializeError) as err:
        ser.cfun_from_json(doc)
    assert err.value.path == "$.data[1].tail"


def test_malformed_group_ring_leaf_path():
    space, _labels, cs = o2_dihedral_block(3)
    doc = ser.eqcfun_to_json(eq_unit(space, (0,), cs))
    doc["data"] = {"tail": ["1/1", "0/1"], "exc": [[2, [["1/2", "x/1"]]]]}
    with pytest.raises(ser.SerializeError) as err:
        ser.eqcfun_from_json(doc)
    assert err.value.path == "$.data.exc[2][0][1]"
