"""Golden JSON of every public serializer, byte-compared, and the errors
reported for corrupted documents.

`tests/golden/serialize.json` holds two things:

  * `documents`: for every public `X_to_json`, the `dumps` output on seeded
    instances over six spaces of rank <= 2 (`SPACES`): sheaves, sections,
    `zero_map`/`identity_map` of aligned pairs, `random_hom` and split
    exact sequences at rank <= 1, `trivial_structure` and the structures of
    `o2_dihedral_block(6)` and `t2_block()`, equivariant sheaves over
    `o2_dihedral_block(6)`, ring elements at every flag, a standard diagram
    with its modules, and clopen sets and lattices;
  * `corrupted`: for sheaf, map, section, structure and equivariant
    documents (`CORRUPTED`), the `SerializeError` path and message when one
    leaf of the document is replaced by a value of the wrong JSON type
    (`CORRUPT`).  A leaf whose corruption loads without error is recorded
    as `loaded`.  A leaf is left out when its corruption raises something
    other than a `SerializeError` or reports a path that does not hold the
    leaf.

Regenerate the file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_serialize_golden.py
"""

import json
import pathlib
import random
import re

from stonesheaf import serialize as ser
from stonesheaf.adelic import all_flags, random_cfun
from stonesheaf.catalog import Lattice2, line_lattice, o2_dihedral_block, t2_block
from stonesheaf.homalg import random_hom, split_ses
from stonesheaf.models import to_standard
from stonesheaf.sheaf import (
    align_pair, identity_map, random_csheaf, random_section, zero_map)
from stonesheaf.space import (
    Cone, cb_rank, complement, full_set, iter_points, nbhd_basis, parse_space)
from stonesheaf.weyl import (
    EqCFun, eq_random_cocycle, equivariant_adelic, group_ring_sheaf, random_equiv_sheaf,
    trivial_structure)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "serialize.json"
SPACES = ["Finite(2)", "Sum(Finite(1),Finite(2))", "Cone(Finite(1))",
          "Cone(Sum(Finite(2),Finite(1)))", "Cone(Cone(Finite(1)))",
          "Cone(Sum(Finite(2),Cone(Finite(1))))"]
CORRUPT = {str: None, int: "x", bool: "x", type(None): "x"}
CORRUPTED = [("csheaf", -2), ("sheafmap", -3), ("section", -2), ("structure", 5),
             ("structure", 6), ("equiv", 0), ("equiv", -1)]


def _sheaves(space, rng):
    return [random_csheaf(space, rng, 2, 1) for _ in range(2)]


def _instances():
    """Every serialized instance, by the type name `X` of `X_to_json`."""
    out = {name: [] for name in public_types()}
    o2_space, _labels, o2 = o2_dihedral_block(6)
    for i, expr in enumerate(SPACES):
        space = parse_space(expr)
        rng = random.Random(100 + i)
        F, G = _sheaves(space, rng)
        out["csheaf"] += [F, G]
        out["section"] += [random_section(F, rng), random_section(G, rng)]
        A, B = align_pair(F, G)
        out["sheafmap"] += [zero_map(A, B), identity_map(A), identity_map(B)]
        if cb_rank(space) <= 1:
            out["sheafmap"].append(random_hom(A, B, rng))
            out["ses"].append(split_ses(*_sheaves(space, rng)))
            out["diagmod"].append(to_standard(F))
        out["structure"].append(trivial_structure(space))
        for flag in [()] + all_flags(cb_rank(space)):
            out["cfun"].append(random_cfun(space, flag, rng))
            out["eqcfun"].append(EqCFun.unit(space, flag, trivial_structure(space)))
        u = nbhd_basis(space, list(iter_points(space, 2))[-1], 1)
        out["clopen"] += [u, complement(space, u), full_set(space)]
    out["structure"] += [o2, t2_block()[2]]
    rng = random.Random(7)
    out["equiv"] += [random_equiv_sheaf(o2_space, o2, rng) for _ in range(3)]
    out["equiv"].append(group_ring_sheaf(o2))
    cocycle = eq_random_cocycle(equivariant_adelic(o2_space, o2), 0, rng)
    out["eqcfun"] += [cocycle[A] for A in sorted(cocycle)]
    out["cmod"] += [M for D in out["diagmod"] for _A, M in sorted(D.vertices.items())]
    cones = [F for F in out["csheaf"] if isinstance(F.space, Cone)]
    out["vectq"] += [F.apex for F in cones]
    out["linmap"] += [F.germ for F in cones]
    out["rat"] += [0, 1, -3, "7/4", "-2/9"]
    out["vec"] += [(), ("1/2", 3), (0, 0, "-1/5")]
    out["space"] += [parse_space(e) for e in SPACES]
    out["group"] += [g for cs in out["structure"][-2:] for g in _groups(cs)]
    out["hom"] += [cs.data[4] for cs in out["structure"] if cs.data[0] == "cone"]
    out["lattice"] += [Lattice2("full", a=3, b=2, d=4), line_lattice(2, 4), line_lattice(-3, 1)]
    return out


def _groups(cs):
    if cs.data[0] == "fin":
        return list(cs.data[1])
    if cs.data[0] == "sum":
        return _groups(cs.data[1]) + _groups(cs.data[2])
    exc, tail, apex_group, _up = cs.cone_parts()
    return [apex_group] + _groups(tail) + [g for k in sorted(exc) for g in _groups(exc[k])]


def public_types() -> list:
    """The names X of every public `X_to_json` in `serialize`."""
    return sorted(m.group(1) for name in dir(ser)
                  if (m := re.fullmatch(r"([a-z0-9]+)_to_json", name)))


def documents() -> dict:
    return {name: [ser.dumps(getattr(ser, f"{name}_to_json")(x)) for x in xs]
            for name, xs in _instances().items()}


def leaves(doc, path="$"):
    """(path, parent, key) for every scalar of a JSON document.

    Paths follow the readers' convention: the record of copy k in an
    `exc` list of `[k, record]` pairs is at `.exc[k]`, which is also the
    path of its copy key."""
    if isinstance(doc, dict):
        items = [(f"{path}.{key}", doc, key) for key in doc]
    elif path.endswith(".exc"):
        items = [(f"{path}[{pair[0]}]", pair, j) for pair in doc for j in (0, 1)]
    else:
        items = [(f"{path}[{i}]", doc, i) for i in range(len(doc))]
    for sub, parent, key in items:
        value = parent[key]
        if isinstance(value, (dict, list)):
            yield from leaves(value, sub)
        else:
            yield sub, parent, key


def outcome(name, doc) -> str:
    try:
        getattr(ser, f"{name}_from_json")(doc)
    except ser.SerializeError as exc:
        return f"{exc.path} | {exc}"
    except Exception as exc:  # not a SerializeError: `render` leaves it out
        return f"! {type(exc).__name__}: {exc}"
    return "loaded"


def corruptions(name, text):
    """(leaf path, outcome) for every leaf of `text` replaced by its
    `CORRUPT` value."""
    doc = json.loads(text)
    for path, parent, key in list(leaves(doc)):
        good = parent[key]
        parent[key] = CORRUPT[type(good)]
        yield path, outcome(name, doc)
        parent[key] = good


def reported_inside(leaf, path) -> bool:
    """Whether the error path `path` names the leaf or a component holding it."""
    return leaf == path or leaf.startswith(path + ".") or leaf.startswith(path + "[")


def test_every_public_serializer_has_a_reader_and_a_golden_entry():
    golden = json.loads(GOLDEN.read_text())
    for name in public_types():
        assert hasattr(ser, f"{name}_from_json"), name
        assert golden["documents"][name], name


def test_documents_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert documents() == golden["documents"]


def test_golden_documents_round_trip_byte_for_byte():
    golden = json.loads(GOLDEN.read_text())
    for name, texts in golden["documents"].items():
        read, write = getattr(ser, f"{name}_from_json"), getattr(ser, f"{name}_to_json")
        for text in texts:
            assert ser.dumps(write(read(json.loads(text)))) == text, name


def corrupted(docs) -> dict:
    """The `corrupted` section for the documents `docs`."""
    return {f"{name}[{i}]": {leaf: out for leaf, out in corruptions(name, docs[name][i])
                             if out == "loaded" or reported_inside(leaf, out.split(" | ")[0])}
            for name, i in CORRUPTED}


def test_corrupted_leaves_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert corrupted(golden["documents"]) == golden["corrupted"]


def render() -> str:
    docs = documents()
    doc = {"documents": docs, "corrupted": corrupted(docs), "schema": ser.SCHEMA}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(render())
