"""Golden results of the abelian operations on unaligned pairs, byte-compared.

`tests/golden/unaligned_ops.json` holds, for seeded pairs F, G of
`random_csheaf(space, rng, 2, 1)` over the spaces of
`tests/test_unaligned_maps.py` (rank <= 2), many of which store different
copies (`align_pair(F, G) != (F, G)`):

  * the `canonical` records of `direct_sum(F, G)` and `tensor(F, G)`;
  * the `canonical` records of the kernel and the cokernel of each
    inclusion and projection of the direct sum, of the zero maps F -> G and
    G -> F, and at rank <= 1 of a `random_hom(F, G)`;
  * at rank <= 1, `len(hom_basis(F, G))`, `ext1_dim(F, G)`,
    `ext2_dim(F, G)`, the `is_split` verdict of `split_ses(F, G)` and of
    every representative of `ext1(F, G)`.

Only canonical records and numbers are stored, so the entries do not
depend on how the operations present their results.

Regenerate the file (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_unaligned_ops_golden.py
"""

import json
import pathlib
import random

from stonesheaf import serialize as ser
from stonesheaf.homalg import ext1, ext1_dim, ext2_dim, hom_basis, is_split, random_hom, split_ses
from stonesheaf.sheaf import (
    align_pair, canonical, cokernel, direct_sum, kernel, random_csheaf, tensor, zero_map)
from stonesheaf.space import cb_rank, parse_space

GOLDEN = pathlib.Path(__file__).parent / "golden" / "unaligned_ops.json"
SPACES = ["Cone(Finite(2))", "Sum(Cone(Finite(1)),Finite(2))",
          "Cone(Sum(Finite(2),Cone(Finite(1))))", "Cone(Cone(Finite(1)))"]
PAIRS = 6


def _rec(F) -> str:
    return ser.dumps(ser.csheaf_to_json(canonical(F)))


def _kernel_cokernel(f) -> list:
    return [_rec(kernel(f)[0]), _rec(cokernel(f)[0])]


def _pair(space, rng) -> dict:
    F = random_csheaf(space, rng, 2, 1)
    G = random_csheaf(space, rng, 2, 1)
    S, iF, iG, pF, pG = direct_sum(F, G)
    out = {"aligned": align_pair(F, G) == (F, G),
           "direct_sum": _rec(S),
           "tensor": _rec(tensor(F, G)),
           "kernel_cokernel": [_kernel_cokernel(f)
                               for f in (iF, iG, pF, pG, zero_map(F, G), zero_map(G, F))]}
    if cb_rank(space) <= 1:
        out["random_hom"] = _kernel_cokernel(random_hom(F, G, rng))
        out["hom_dim"] = len(hom_basis(F, G))
        out["ext1_dim"] = ext1_dim(F, G)
        out["ext2_dim"] = ext2_dim(F, G)
        out["split"] = is_split(split_ses(F, G))[0]
        out["ext1_reps_split"] = [is_split(s)[0] for s in ext1(F, G)[1]]
    return out


def _space(expr, seed) -> list:
    space = parse_space(expr)
    rng = random.Random(seed)
    return [_pair(space, rng) for _ in range(PAIRS)]


def render() -> str:
    doc = {e: _space(e, 300 + i) for i, e in enumerate(SPACES)}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_unaligned_ops_match_golden():
    assert render() == GOLDEN.read_text()


def test_golden_has_unaligned_pairs_at_every_space():
    doc = json.loads(GOLDEN.read_text())
    for expr in SPACES:
        assert not all(entry["aligned"] for entry in doc[expr]), expr


if __name__ == "__main__":
    GOLDEN.write_text(render())
