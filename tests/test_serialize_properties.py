"""The JSON codecs: round trips with hypothesis of ring elements, sheaves,
sections, sheaf maps and component structures, and the paths reported for
malformed ring-element leaves.

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
from stonesheaf.homalg import random_hom  # noqa: E402
from stonesheaf.sheaf import (  # noqa: E402
    align_pair, identity_map, random_csheaf, random_section, zero_map)
from stonesheaf.space import cb_rank  # noqa: E402
from stonesheaf.weyl import EqCFun, trivial_structure  # noqa: E402
from test_space_properties import spaces  # noqa: E402

SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)
TREES = settings(SETTINGS, max_examples=100)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def round_trip(name, x):
    """`x` read back from its JSON text, which it must reproduce byte for byte."""
    text = ser.dumps(getattr(ser, f"{name}_to_json")(x))
    y = getattr(ser, f"{name}_from_json")(json.loads(text))
    assert ser.dumps(getattr(ser, f"{name}_to_json")(y)) == text
    return y


@SETTINGS
@given(spaces, seeds)
def test_cfun_round_trip_every_flag(s, seed):
    rng = random.Random(seed)
    for flag in [()] + all_flags(cb_rank(s)):
        f = random_cfun(s, flag, rng)
        assert ser.cfun_from_json(json.loads(ser.dumps(ser.cfun_to_json(f)))) == f


@TREES
@given(spaces, seeds)
def test_sheaf_round_trip(s, seed):
    F = random_csheaf(s, random.Random(seed), 2, 1)
    assert round_trip("csheaf", F) == F


@TREES
@given(spaces, seeds)
def test_section_round_trip(s, seed):
    rng = random.Random(seed)
    sec = random_section(random_csheaf(s, rng, 2, 1), rng)
    assert round_trip("section", sec) == sec


@TREES
@given(spaces, seeds)
def test_sheaf_map_round_trip(s, seed):
    rng = random.Random(seed)
    F, G = align_pair(random_csheaf(s, rng, 2, 1), random_csheaf(s, rng, 2, 1))
    maps = [identity_map(F), zero_map(F, G)]
    if cb_rank(s) <= 1:
        maps.append(random_hom(F, G, rng))
    for f in maps:
        assert round_trip("sheafmap", f) == f


@SETTINGS
@given(spaces)
def test_trivial_structure_round_trip(s):
    cs = trivial_structure(s)
    assert round_trip("structure", cs) == cs


def test_malformed_rational_leaf_path():
    doc = {"space": "Sum(Finite(1),Cone(Finite(2)))", "flag": [],
           "data": [["1/1"], {"tail": "oops", "exc": [[1, ["2/1", "1/2"]]]}]}
    with pytest.raises(ser.SerializeError) as err:
        ser.cfun_from_json(doc)
    assert err.value.path == "$.data[1].tail"


def test_malformed_group_ring_leaf_path():
    space, _labels, cs = o2_dihedral_block(3)
    doc = ser.eqcfun_to_json(EqCFun.unit(space, (0,), cs))
    doc["data"] = {"tail": ["1/1", "0/1"], "exc": [[2, [["1/2", "x/1"]]]]}
    with pytest.raises(ser.SerializeError) as err:
        ser.eqcfun_from_json(doc)
    assert err.value.path == "$.data.exc[2][0][1]"
