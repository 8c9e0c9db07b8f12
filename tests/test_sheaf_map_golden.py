"""Golden sheaf maps, byte-compared.

`tests/golden/sheaf_maps.json` holds, in the SCHEMA.md format, seeded maps
from every builder of sheaf maps:

  * `zero_map`, `identity_map` and `counit_map` of random sheaves over rank
    <= 2 spaces, and `compose` of the inclusions and projections of their
    direct sums;
  * `hom_basis`, `random_hom` and `compose` of two random maps over rank
    <= 1 spaces;
  * the section that `is_split` finds for a split sequence;
  * the inclusion and projection of every representative of `ext1`, on the
    random pairs and on a skyscraper by a floor sheaf, whose group is not 0.

Regenerate the file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_sheaf_map_golden.py
"""

import json
import pathlib
import random

from stonesheaf import serialize as ser
from stonesheaf.homalg import counit_map, ext1, hom_basis, is_split, make_ses, random_hom
from stonesheaf.linalg import LinMap, VectQ
from stonesheaf.sheaf import (
    align_pair, compose, constant, direct_sum, identity_map, make_cone_sheaf,
    make_sum_sheaf, random_csheaf, sec_space, skyscraper, zero_map)
from stonesheaf.space import Cone, Finite, Sum, apex_point, parse_space

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sheaf_maps.json"
RANK2 = ["Cone(Finite(1))", "Cone(Cone(Finite(1)))",
         "Cone(Sum(Finite(2),Cone(Finite(1))))", "Sum(Cone(Finite(1)),Finite(2))"]
RANK1 = ["Cone(Finite(1))", "Cone(Finite(2))", "Sum(Cone(Finite(1)),Finite(2))"]
PAIRS = 2


def _maps(maps) -> list:
    return [ser.sheafmap_to_json(m) for m in maps]


def _rank2(expr, seed):
    space = parse_space(expr)
    rng = random.Random(seed)
    out = []
    for _ in range(PAIRS):
        F = random_csheaf(space, rng, 2, 1)
        G = random_csheaf(space, rng, 2, 1)
        _S, iF, iG, pF, pG = direct_sum(F, G)
        out.append({"zero": _maps([zero_map(F, G)]),
                    "identity": _maps([identity_map(F)]),
                    "counit": _maps([counit_map(F), counit_map(G)]),
                    "compose": _maps([compose(iF, pF), compose(iF, pG), compose(pG, iG)])})
    return out


def _rank1(expr, seed):
    space = parse_space(expr)
    rng = random.Random(seed)
    out = []
    for _ in range(PAIRS):
        F = random_csheaf(space, rng, 2, 1)
        G = random_csheaf(space, rng, 2, 1)
        F, G = align_pair(F, G)
        f = random_hom(F, G, rng)
        g = random_hom(G, F, rng)
        _S, iF, _iG, _pF, pG = direct_sum(F, G)
        split, r = is_split(make_ses(iF, pG))
        assert split
        out.append({"hom_basis": _maps(hom_basis(F, G)),
                    "random_hom": _maps([f, g]),
                    "compose": _maps([compose(f, g), compose(g, f)]),
                    "is_split": _maps([r]),
                    "ext1": _ext1_reps(F, G)})
    return out


def _ext1_reps(A, B):
    return [_maps([s.incl, s.proj]) for s in ext1(A, B)[1]]


def _sky_by_floor():
    X1 = Cone(Finite(1))
    sky = skyscraper(X1, apex_point(), 1)
    tail = constant(Finite(1), 1)
    apex = VectQ.make(0)
    floor = make_cone_sheaf(X1, {}, tail, apex, LinMap.zero(apex, sec_space(tail)))
    two = Sum(X1, X1)
    return {"Cone(Finite(1))": _ext1_reps(sky, floor),
            str(two): _ext1_reps(make_sum_sheaf(two, sky, sky), make_sum_sheaf(two, floor, floor))}


def render() -> str:
    doc = {"rank2": {e: _rank2(e, 40 + i) for i, e in enumerate(RANK2)},
           "rank1": {e: _rank1(e, 50 + i) for i, e in enumerate(RANK1)},
           "sky_by_floor": _sky_by_floor(),
           "schema": ser.SCHEMA}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_sheaf_maps_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
