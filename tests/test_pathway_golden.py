"""Golden outputs of both splicing-ring pathways, byte-compared.

`tests/golden/adelic_pathways.json` holds, in the SCHEMA.md format, seeded
cocycles with their exactness witnesses and the differentials of random
non-cocycle cochains, in every degree, for:

  * the scalar complexes of six rank <= 2 spaces, three of them rooted in a
    `Sum` (unequal summand ranks, a nested sum, rank-0 summands), so that a
    degree can be the top degree of one summand and not of the whole;
  * the equivariant complexes of the same spaces under trivial structures
    (the reference for criterion 8's bit-for-bit degeneration);
  * the equivariant complexes of the dihedral block and of the rank-2 torus
    block, whose germ leaves spread across one level and across two;
  * ring operations on a structure with an exceptional copy, which
    canonicalization keeps even where its value equals the tail's.

Regenerate the file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_pathway_golden.py
"""

import json
import pathlib
import random
from fractions import Fraction

from stonesheaf import serialize as ser
from stonesheaf.adelic import build_complex, dmap, random_cfun, random_cocycle
from stonesheaf.catalog import o2_dihedral_block, t2_block
from stonesheaf.sheaf import Section, random_section
from stonesheaf.space import Cone, Finite, Sum, cb_rank, parse_space
from stonesheaf.weyl import (
    EqCFun, cone_structure, constant_structure, cyclic_group, direct_product,
    eq_random_cocycle, equivariant_adelic,
    group_ring_sheaf, level_group, trivial_group, trivial_hom,
    trivial_structure)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "adelic_pathways.json"
SPACES = ["Cone(Finite(1))", "Cone(Cone(Finite(1)))", "Cone(Sum(Finite(2),Finite(1)))",
          "Sum(Cone(Cone(Finite(1))),Finite(2))",
          "Sum(Cone(Finite(1)),Sum(Finite(1),Cone(Finite(2))))",
          "Sum(Cone(Finite(2)),Cone(Cone(Finite(1))))"]
COCYCLES = 2


def _element_json(value):
    if isinstance(value, Section):
        return ser.section_to_json(value)
    if isinstance(value, EqCFun):
        return ser.eqcfun_to_json(value)
    return ser.cfun_to_json(value)


def _cochain_json(cochain) -> list:
    return [[list(A), _element_json(v)] for A, v in sorted(cochain.items())]


def _random_leaf(rng, size):
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(size))


def _random_eq_data(space, flag, cs, rng):
    """Random group-ring data for (space, flag) following the structure."""
    if flag and flag[0] > cb_rank(space):
        return None
    if isinstance(space, Finite):
        return tuple(_random_leaf(rng, g.order) for g in cs.data[1])
    if isinstance(space, Sum):
        return (_random_eq_data(space.left, flag, cs.data[1], rng),
                _random_eq_data(space.right, flag, cs.data[2], rng))
    size = level_group(cs, flag[-1] if flag else 0).order
    if flag and flag[0] == cb_rank(space):
        return _random_leaf(rng, size)
    tail_cs = cs.data[2]
    exc = {k: _random_eq_data(space.base, flag, tail_cs, rng)
           for k in range(rng.randint(0, 2))}
    return ("cone", exc, _random_leaf(rng, size))


def _random_eq_cochain(cx, degree, rng):
    if degree == -1:
        return {(): random_section(group_ring_sheaf(cx.cs).sheaf, rng)}
    out = {}
    for A in cx.flags(degree):
        raw = EqCFun(cx.space, A, _random_eq_data(cx.space, A, cx.cs, rng), cx.cs)
        out[A] = raw.add(EqCFun.zero(cx.space, A, cx.cs))   # canonical form
    return out


def _pathway(cx, sample, random_cochain, seed):
    rng = random.Random(seed)
    cocycles = []
    for degree in range(0, cx.rank + 1):
        for _ in range(COCYCLES):
            z = sample(cx, degree, rng)
            cocycles.append({"degree": degree, "cocycle": _cochain_json(z),
                             "witness": _cochain_json(cx.exactness_witness(z, degree))})
    differentials = []
    for degree in range(-1, cx.rank):
        c = random_cochain(cx, degree, rng)
        differentials.append({"degree": degree, "cochain": _cochain_json(c),
                              "image": _cochain_json(cx.differential(c, degree))})
    return {"cocycles": cocycles, "differentials": differentials}


def _scalar(expr, seed):
    def random_cochain(cx, degree, rng):
        return {A: random_cfun(cx.space, A, rng) for A in cx.flags(degree)}
    return _pathway(build_complex(parse_space(expr)), random_cocycle, random_cochain, seed)


def _equivariant(space, cs, seed):
    return _pathway(equivariant_adelic(space, cs), eq_random_cocycle,
                    _random_eq_cochain, seed)


def exceptional_copy_elements():
    """x, y, f and a zero over a structure where copy 0 carries a bigger
    group than the tail."""
    C2 = cyclic_group(2)
    K4 = direct_product(C2, C2)
    X1 = Cone(Finite(1))
    cs = cone_structure(X1, {0: constant_structure(Finite(1), K4)},
                        constant_structure(Finite(1), C2), trivial_group(),
                        trivial_hom(C2, trivial_group()))
    one, half = Fraction(1), Fraction(1, 2)
    # copies 0 and 1 both equal the tail value: only copy 0 survives canon
    x = EqCFun(X1, (0,), ("cone", {0: ((one, half),), 1: ((one, half),)}, (one, half)), cs)
    y = EqCFun(X1, (0,), ("cone", {1: ((half, one),)}, (Fraction(0), one)), cs)
    f = EqCFun(X1, (), ("cone", {0: ((half, half),), 2: ((one, one),)}, (half, half)), cs)
    # the zero is written out: `EqCFun.zero` rejects structures that are not level-uniform
    zero = EqCFun(X1, (0,), ("cone", {}, (Fraction(0), Fraction(0))), cs)
    return x, y, f, zero


def _exceptional_copy():
    """Ring operations where copy 0 carries a bigger group than the tail."""
    x, y, f, zero = exceptional_copy_elements()
    return {"x": _element_json(x), "y": _element_json(y), "f": _element_json(f),
            "x+0": _element_json(x + zero),
            "x+y": _element_json(x + y),
            "x*y": _element_json(x * y),
            "d0(f)": _element_json(dmap(0, f))}


def render() -> str:
    t2_space, _labels, t2_cs, _data = t2_block()
    o2_space, _labels, o2_cs = o2_dihedral_block(6)
    doc = {
        "scalar": {e: _scalar(e, 10 + i) for i, e in enumerate(SPACES)},
        "trivial_structure": {e: _equivariant(parse_space(e), trivial_structure(parse_space(e)),
                                              20 + i)
                              for i, e in enumerate(SPACES)},
        "equivariant": {"o2_dihedral_block(6)": _equivariant(o2_space, o2_cs, 30),
                        "t2_block()": _equivariant(t2_space, t2_cs, 31)},
        "exceptional_copy": _exceptional_copy(),
        "schema": ser.SCHEMA,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_pathways_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
