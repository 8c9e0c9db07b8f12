"""The ring laws of the splicing rings, over both leaf algebras.

One element class serves the scalar rings (rational leaves) and the
equivariant ones (group-ring leaves), so the same laws are checked on both:
associativity of + and *, distributivity, the unit and zero laws, and that
the cube map dmap(b, .) is additive and multiplicative.  It is unital on
rational leaves.  On group-ring leaves it sends the unit to an idempotent:
the germ component averages over the kernel of the structure homomorphism,
so on `t2_block()` the unit at flag (2,) goes to (1/4, 1/4, 1/4, 1/4).

Rational elements live on spaces of rank 1, 2 or 3 drawn by
`test_adelic_properties.of_rank`, at a flag drawn among all flags of the
space, the empty one included.  Group-ring elements live on the dihedral
blocks `o2_dihedral_block(3)` and `o2_dihedral_block(4)` and on the torus
block `t2_block()`, at a nonempty flag: at the empty flag every leaf is
sized by the group at height 0, and dmap(b, .) for b >= 1 keeps those
leaves where the group at height b belongs, so it is not multiplicative
there (`test_dmap_from_the_empty_flag_is_multiplicative_on_group_rings`,
expected to fail).  Three elements are drawn from a seed.  The examples are
derandomized, and hypothesis runs once per rank and once per block, with
the number of examples that `RANK_COUNTS` and `BLOCK_COUNTS` give; the
counts drawn are checked against them, and do not depend on the tests that
ran before.  Group-ring `+` and `-` raise `ValueError` on leaves of unequal
length rather than truncating the longer one.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from stonesheaf.adelic import CFun, all_flags, dmap, random_cfun  # noqa: E402
from stonesheaf.catalog import o2_dihedral_block, t2_block  # noqa: E402
from stonesheaf.space import Cone, Finite, SpaceMismatch, cb_rank  # noqa: E402
from stonesheaf.weyl import (  # noqa: E402
    EqCFun, constant_structure, cyclic_group, trivial_structure)
from test_adelic_properties import examples, of_rank  # noqa: E402
from test_pathway_golden import _random_eq_data  # noqa: E402

RANK_COUNTS = {1: 10, 2: 32, 3: 18}
BLOCK_COUNTS = {"o2_dihedral_block(3)": 20, "o2_dihedral_block(4)": 25, "t2_block()": 15}
BLOCKS = {"o2_dihedral_block(3)": o2_dihedral_block(3)[::2],
          "o2_dihedral_block(4)": o2_dihedral_block(4)[::2],
          "t2_block()": t2_block()[:3:2]}


def _check_laws(x, y, z, one, zero, heights):
    """The ring laws on x, y and z, and the cube maps inserting `heights`."""
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x + zero == x and x * one == x and one * x == x
    assert (x * zero).is_zero() and (x - x).is_zero() and not one.is_zero()
    assert x.scale(Fraction(-2, 3)) == zero - x.scale(Fraction(2, 3))
    for b in heights:
        assert dmap(b, x + y) == dmap(b, x) + dmap(b, y)
        assert dmap(b, x * y) == dmap(b, x) * dmap(b, y)
        assert dmap(b, zero).is_zero()
        image = dmap(b, one)
        assert image * image == image


def _draw_flag(space, rng, flags):
    flag = flags[rng.randrange(len(flags))]
    return flag, [b for b in range(cb_rank(space) + 1) if b not in flag]


def test_ring_laws_on_rational_leaves():
    ranks = []
    for rank, count in RANK_COUNTS.items():
        @examples(count)
        @given(of_rank(rank), st.integers(min_value=0, max_value=2**16))
        def check(space, seed):
            ranks.append(cb_rank(space))
            rng = random.Random(seed)
            flag, heights = _draw_flag(space, rng, [()] + all_flags(cb_rank(space)))
            x, y, z = (random_cfun(space, flag, rng, 1) for _ in range(3))
            one, zero = CFun.unit(space, flag), CFun.zero(space, flag)
            _check_laws(x, y, z, one, zero, heights)
            for b in heights:
                assert dmap(b, one) == CFun.unit(space, dmap(b, one).flag)

        check()
    assert dict(Counter(ranks)) == RANK_COUNTS


def test_ring_laws_on_group_ring_leaves():
    blocks = []
    for block, count in BLOCK_COUNTS.items():
        space, cs = BLOCKS[block]

        @examples(count)
        @given(st.integers(min_value=0, max_value=2**16))
        def check(seed):
            blocks.append(block)
            rng = random.Random(seed)
            flag, heights = _draw_flag(space, rng, all_flags(cb_rank(space)))
            one, zero = EqCFun.unit(space, flag, cs), EqCFun.zero(space, flag, cs)
            x, y, z = (EqCFun(space, flag, _random_eq_data(space, flag, cs, rng), cs) + zero
                       for _ in range(3))
            _check_laws(x, y, z, one, zero, heights)

        check()
    assert dict(Counter(blocks)) == BLOCK_COUNTS


def test_the_cube_map_sends_the_group_ring_unit_to_an_idempotent():
    space, cs = BLOCKS["t2_block()"]
    image = dmap(0, EqCFun.unit(space, (2,), cs))
    quarter = Fraction(1, 4)
    assert image.flag == (2, 0) and image.data == (quarter,) * 4
    assert image * image == image
    assert image != EqCFun.unit(space, (2, 0), cs)


@pytest.mark.xfail(strict=True, reason="group-ring leaves at the empty flag are sized by "
                   "the group at height 0, also where dmap carries them to a higher height")
def test_dmap_from_the_empty_flag_is_multiplicative_on_group_rings():
    space, cs = BLOCKS["o2_dihedral_block(3)"]
    rng = random.Random(2)
    zero = EqCFun.zero(space, (), cs)
    x, y = (EqCFun(space, (), _random_eq_data(space, (), cs, rng), cs) + zero for _ in range(2))
    assert dmap(1, x * y) == dmap(1, x) * dmap(1, y)


def test_operations_refuse_operands_over_different_flags_or_structures():
    X1 = Cone(Finite(1))
    o2 = o2_dihedral_block(3)[2]
    scalar = CFun.unit(X1, (0,))
    trivial = EqCFun.unit(X1, (0,), trivial_structure(X1))
    pairs = [(scalar, CFun.unit(X1, (1,))),
             (scalar, CFun.unit(Cone(Finite(2)), (0,))),
             (trivial, EqCFun.unit(X1, (1,), trivial_structure(X1))),
             (trivial, EqCFun.unit(o2_dihedral_block(3)[0], (0,), o2)),
             (scalar, trivial), (trivial, scalar)]
    for x, y in pairs:
        for op in (CFun.add, CFun.sub, CFun.mul):
            with pytest.raises(SpaceMismatch):
                op(x, y)
    # equal structures built apart are the same structure
    assert trivial + EqCFun.unit(X1, (0,), trivial_structure(X1)) == trivial.scale(2)


def test_group_ring_operations_refuse_leaves_of_unequal_length():
    X1 = Cone(Finite(1))
    cs = constant_structure(X1, cyclic_group(2))
    long_tail = EqCFun(X1, (0,), ("cone", {}, (Fraction(1), Fraction(0), Fraction(5))), cs)
    zero = EqCFun.zero(X1, (0,), cs)
    for op in (CFun.add, CFun.sub):
        with pytest.raises(ValueError, match="shorter"):
            op(long_tail, zero)
