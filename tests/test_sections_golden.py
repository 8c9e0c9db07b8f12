"""Golden section records, byte-compared.

`tests/golden/sections.json` holds, for each space of `SPACES` (the spaces
of `tests/golden/cube.json`), seeded outputs of every operation that walks
section records or reads a point:

  * `sec_functor`: the induced map on finite-data sections of the
    inclusions and projections of a direct sum, of the idempotents they
    compose to, of the kernel inclusion and cokernel projection of those
    idempotents, and at rank <= 1 of `random_hom` between an aligned pair
    with its kernel inclusion and cokernel projection;
  * `tensor`: the tensor product of an aligned pair;
  * `extend_section`: random sections extended by zero from seeded clopen
    sets;
  * `act`: `GammaModule.act` of a random locally constant function on a
    random section;
  * `ring_mul`: `ring_section_mul` of two random sections of the ring
    sheaf of every flag;
  * `points`: at every `_probe_points` point of the pair and its direct
    sum maps, `stalk` of both sheaves, `stalk_map` of the inclusion and the
    projection, and `sec_eval` of random sections of both sheaves.

Regenerate the file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_sections_golden.py
"""

import json
import pathlib
import random

from stonesheaf import serialize as ser
from stonesheaf.adelic import all_flags, random_cfun
from stonesheaf.cube import ring_section_mul, ring_sheaf
from stonesheaf.homalg import gamma, random_hom
from stonesheaf.sheaf import (
    _probe_points, align_pair, cokernel, compose, direct_sum, extend_section, kernel,
    random_csheaf, random_section, sec_eval, sec_functor, stalk, stalk_map, tensor)
from stonesheaf.space import (
    Finite, FinSet, Sum, SumSet, cb_rank, make_cone_set, parse_space)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sections.json"
SPACES = ["Finite(2)", "Cone(Finite(1))", "Cone(Cone(Finite(1)))",
          "Cone(Sum(Finite(2),Finite(1)))", "Sum(Cone(Finite(1)),Finite(2))",
          "Cone(Cone(Cone(Finite(1))))"]
PAIRS = 2


def _random_clopen(space, rng):
    """A seeded clopen set: random members, up to two exceptional copies
    among the first four per cone, and a random apex."""
    if isinstance(space, Finite):
        return FinSet(frozenset(i for i in range(space.n) if rng.randint(0, 1)))
    if isinstance(space, Sum):
        return SumSet(_random_clopen(space.left, rng), _random_clopen(space.right, rng))
    exc = {rng.randint(0, 3): _random_clopen(space.base, rng) for _ in range(rng.randint(0, 2))}
    return make_cone_set(space, exc, bool(rng.randint(0, 1)))


def _dump(obj) -> str:
    return ser.dumps(obj)


def _sec_functors(maps) -> list:
    return [_dump(ser.linmap_to_json(sec_functor(m))) for m in maps]


def _pair(space, rng) -> dict:
    F, G = align_pair(random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1))
    _S, iF, iG, pF, pG = direct_sum(F, G)
    eF, eG = compose(pF, iF), compose(pG, iG)
    maps = [iF, iG, pF, pG, eF, eG, kernel(eG)[1], cokernel(eF)[1]]
    if cb_rank(space) <= 1:
        f = random_hom(F, G, rng)
        maps += [f, kernel(f)[1], cokernel(f)[1]]
    out = {"sec_functor": _sec_functors(maps),
           "tensor": _dump(ser.csheaf_to_json(tensor(F, G)))}
    out["extend_section"] = []
    for H in (F, G):
        for _ in range(2):
            s = random_section(H, rng)
            U = _random_clopen(space, rng)
            out["extend_section"].append(
                {"set": _dump(ser.clopen_to_json(U)),
                 "section": _dump(ser.section_to_json(extend_section(H, U, s)))})
    M = gamma(F)
    scalar = random_cfun(space, (), rng)
    out["act"] = _dump(ser.section_to_json(M.act(scalar, random_section(M.record, rng))))
    secs = [random_section(H, rng) for H in (F, G)]
    out["points"] = [
        {"point": str(x),
         "stalks": [_dump(ser.vectq_to_json(stalk(H, x))) for H in (F, G)],
         "stalk_maps": [_dump(ser.linmap_to_json(stalk_map(m, x))) for m in (iF, pG)],
         "values": [_dump([ser.rat_to_json(c) for c in sec_eval(H, s, x)])
                    for H, s in zip((F, G), secs)]}
        for x in _probe_points(space, [F, G, iF, pG])]
    return out


def _ring_mul(space, rng) -> dict:
    out = {}
    for A in all_flags(cb_rank(space)):
        R = ring_sheaf(space, A)
        s, t = random_section(R, rng), random_section(R, rng)
        out[",".join(map(str, A))] = _dump(ser.section_to_json(ring_section_mul(space, A, s, t)))
    return out


def _space(expr, seed) -> dict:
    space = parse_space(expr)
    rng = random.Random(seed)
    return {"pairs": [_pair(space, rng) for _ in range(PAIRS)],
            "ring_mul": _ring_mul(space, rng)}


def render() -> str:
    doc = {"spaces": {e: _space(e, 90 + i) for i, e in enumerate(SPACES)},
           "schema": ser.SCHEMA}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_sections_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
