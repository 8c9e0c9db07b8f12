"""Malformed documents: every one raises `SerializeError`, at a path that
holds the offending component (SCHEMA.md).

The corruption sweep replaces each leaf of the golden sheaf, map, section,
structure and equivariant documents in turn (`test_serialize_golden`), so it
covers copy keys, labels that break a germ or a stalk map, and group tables
and homomorphisms that are not valid.  The other tests pin single cases.
"""

import json
import random

import pytest

from stonesheaf import serialize as ser
from stonesheaf.adelic import random_cfun
from stonesheaf.catalog import o2_dihedral_block
from stonesheaf.sheaf import constant, identity_map, random_csheaf, random_section, sec_to_coords
from stonesheaf.space import parse_space
from stonesheaf.weyl import EqCFun, GrpHom, cyclic_group, group_ring_sheaf
from test_serialize_golden import CORRUPTED, GOLDEN, corruptions, reported_inside


def _error(read, doc) -> ser.SerializeError:
    with pytest.raises(ser.SerializeError) as err:
        read(json.loads(json.dumps(doc)))
    return err.value


def test_every_corrupted_leaf_raises_at_a_path_holding_it():
    documents = json.loads(GOLDEN.read_text())["documents"]
    for name, i in CORRUPTED:
        for leaf, outcome in corruptions(name, documents[name][i]):
            if outcome != "loaded":
                assert reported_inside(leaf, outcome.split(" | ")[0]), (name, i, leaf, outcome)


def test_bad_entry_of_a_finite_stalk_map_is_reported_there():
    doc = ser.sheafmap_to_json(identity_map(constant(parse_space("Finite(2)"), 1)))
    doc["data"]["stalk_maps"][1]["matrix"][0][0] = "x"
    assert _error(ser.sheafmap_from_json, doc).path == "$.data.stalk_maps[1].matrix[0][0]"


def test_bad_stalk_action_in_a_tail_is_reported_there():
    doc = ser.equiv_to_json(group_ring_sheaf(o2_dihedral_block(3)[2]))
    doc["reps"]["tail"]["fin"][0][0]["source"]["dim"] = "x"
    assert _error(ser.equiv_from_json, doc).path == "$.reps.tail.fin[0][0].source"


def test_non_integer_copy_key():
    sheaf = ser.csheaf_to_json(random_csheaf(parse_space("Cone(Finite(1))"), random.Random(3), 2, 1))
    sheaf["data"]["exc"] = [["zz", sheaf["data"]["tail"]]]
    err = _error(ser.csheaf_from_json, sheaf)
    assert err.path == "$" and "malformed sheaf: invalid literal for int()" in str(err)
    ring = ser.cfun_to_json(random_cfun(parse_space("Cone(Finite(1))"), (), random.Random(3)))
    ring["data"] = {"tail": "1/1", "exc": [["zz", ["2/1"]]]}
    err = _error(ser.cfun_from_json, ring)
    assert err.path == "$" and "malformed ring element: invalid literal for int()" in str(err)


def test_one_element_sum_in_ring_data():
    doc = {"space": "Sum(Finite(1),Finite(1))", "flag": [], "data": [["1/1"]]}
    assert _error(ser.cfun_from_json, doc).path == "$"


def test_ring_data_with_too_many_leaves():
    doc = {"space": "Finite(2)", "flag": [], "data": ["1/1", "2/1", "3/1"]}
    err = _error(ser.cfun_from_json, doc)
    assert err.path == "$" and "3 leaves over Finite(2)" in str(err)


def test_germ_that_does_not_leave_the_apex():
    doc = ser.csheaf_to_json(constant(parse_space("Cone(Finite(1))"), 1))
    doc["data"]["apex"] = {"dim": 0, "labels": []}
    err = _error(ser.csheaf_from_json, doc)
    assert err.path == "$" and "germ map must go from the apex stalk" in str(err)


def test_stalk_map_with_wrong_endpoints():
    doc = ser.sheafmap_to_json(identity_map(constant(parse_space("Finite(2)"), 1)))
    doc["data"]["stalk_maps"][0]["source"]["labels"] = ["q"]
    err = _error(ser.sheafmap_from_json, doc)
    assert err.path == "$" and "stalk map 0 has wrong endpoints" in str(err)


def test_section_vector_longer_than_its_stalk():
    F = constant(parse_space("Finite(2)"), 1)
    doc = ser.section_to_json(random_section(F, random.Random(1)))
    assert len(sec_to_coords(F, ser.section_from_json(doc))) == 2
    doc["data"][0] = ["1/1", "2/1"]
    err = _error(ser.section_from_json, doc)
    assert err.path == "$" and "vectors of lengths [2, 1] in stalks of dimensions [1, 1]" in str(err)
    cone = constant(parse_space("Cone(Finite(1))"), 1)
    doc = ser.section_to_json(random_section(cone, random.Random(1)))
    doc["data"]["apex"] = []
    assert _error(ser.section_from_json, doc).path == "$"


def test_group_ring_leaf_of_the_wrong_length():
    space, _labels, cs = o2_dihedral_block(3)
    doc = ser.eqcfun_to_json(EqCFun.unit(space, (0,), cs))
    assert doc["data"] == {"tail": ["1/1", "0/1"], "exc": []}
    doc["data"] = {"tail": ["1/1"], "exc": [[2, [["1/2", "3/1", "5/1", "7/1", "9/1"]]]]}
    err = _error(ser.eqcfun_from_json, doc)
    assert err.path == "$.data.exc[2][0]"
    assert "group-ring leaf of length 5 in a group of order 2" in str(err)
    doc["data"] = {"tail": ["1/1"], "exc": []}
    err = _error(ser.eqcfun_from_json, doc)
    assert err.path == "$.data.tail" and "length 1 in a group of order 2" in str(err)


def test_label_that_is_not_a_string():
    err = _error(ser.vectq_from_json, {"dim": 1, "labels": [None]})
    assert err.path == "$.labels[0]" and "is not a string" in str(err)
    doc = ser.csheaf_to_json(constant(parse_space("Finite(2)"), 2))
    doc["data"]["stalks"][1]["labels"][1] = 7
    assert _error(ser.csheaf_from_json, doc).path == "$.data.stalks[1].labels[1]"


@pytest.mark.parametrize("name", [None, 5])
def test_group_name_that_is_not_a_string(name):
    doc = {"table": [[0, 1], [1, 0]], "name": name}
    err = _error(ser.group_from_json, doc)
    assert err.path == "$.name" and "is not a string" in str(err)
    doc = ser.hom_to_json(GrpHom(cyclic_group(2), cyclic_group(2), (0, 1)))
    doc["target"]["name"] = name
    assert _error(ser.hom_from_json, doc).path == "$.target.name"

