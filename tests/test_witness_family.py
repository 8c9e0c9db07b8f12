"""Witnesses hit their cocycle over the seeded `draw_structure` family.

The family is `FAMILY` of `tests/test_kernel_probe_oracle.py`: per space of
rank at least 1 among `SEEDED_SPACES`, the first seeded structures that
`equivariant_adelic` accepts, level-uniform and free.  In every degree from
0 to the rank, `eq_random_cocycle` draws cocycles at three seeds; each must
be a cocycle, and the differential of its `exactness_witness`, applied here
again, must equal it by `repr`.  The RREFs of these group-ring complexes hold
entries other than ±1, so the sampler's pivot solve runs its general branch
(a product) as well as its ±1 branches.
"""

import random

import pytest

from stonesheaf.adelic import _kernel_rref
from stonesheaf.weyl import eq_random_cocycle

from test_kernel_probe_oracle import FAMILY


@pytest.mark.parametrize("name, cx", FAMILY, ids=[n for n, _ in FAMILY])
def test_witnesses_hit_their_cocycles(name, cx):
    for degree in range(cx.rank + 1):
        for seed in range(3):
            z = eq_random_cocycle(cx, degree, random.Random(100 * seed + degree))
            assert cx.is_cocycle(z, degree)
            w = cx.exactness_witness(z, degree)
            assert repr(cx.differential(w, degree - 1)) == repr(z)


def test_the_family_reaches_the_general_branch_of_the_solve():
    entries = [x for _name, cx in FAMILY for degree in range(cx.rank)
               for row in _kernel_rref(cx.leaves, cx.space, cx.cs, degree, 2)[0]
               for _j, x in row]
    assert any(x not in (1, -1) for x in entries)
    assert any(x in (1, -1) for x in entries)
