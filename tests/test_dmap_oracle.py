"""The cube-map and differential recursions against their flag-level references.

`adelic._dmap_leaves` and `adelic._differential` run at every node of the
adelic recursions, so they read what is fixed for the whole call once: the
inserted height b makes a node a zero ring exactly when b exceeds the node's
rank (a node whose own flag is a zero ring already holds None), and the
sign of the term dropping B[i] from a strictly decreasing flag B is i.
The references below are the versions that derive both facts at every node,
from `insert_height`, `cb_rank` and a test-local `sign_pos` (the number of
entries of a flag above a height); the library must agree with them by
`repr`, which also compares the types of the leaves.

Scalar data lives on spaces of rank 1, 2 or 3 drawn by
`test_adelic_properties.of_rank`: `random_cfun` elements at every flag, the
empty one included, and decoded coordinate vectors (the probe's inputs, not
in normal form).  Group-ring data lives on `o2_dihedral_block(4)` and
`t2_block()`, drawn by `test_pathway_golden`.  The examples are derandomized,
and hypothesis runs once per rank and once per block, with the number of
examples that `RANK_COUNTS` and `BLOCK_COUNTS` give; the counts drawn are
checked against them, and do not depend on the tests that ran before.

The shortcut rests on one invariant of the data layout: data is None
exactly at the nodes whose flag is a zero ring (the flag's top above the
node's rank).  It is checked on every producer of data the recursions meet.
"""

import random
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from stonesheaf.adelic import (  # noqa: E402
    RATIONAL, CFun, FlagError, _canon, _decode, _differential, _dmap_leaves, _raw, _slots,
    _zip_leaves, all_flags, const_data, dmap, flags_of_size, insert_height, random_cfun)
from stonesheaf.catalog import o2_dihedral_block, t2_block  # noqa: E402
from stonesheaf.linalg import ONE, ZERO  # noqa: E402
from stonesheaf.space import Cone, Finite, Sum, cb_rank  # noqa: E402
from stonesheaf.weyl import GROUP_RING, equivariant_adelic  # noqa: E402
from test_adelic_properties import examples, of_rank  # noqa: E402
from test_pathway_golden import _random_eq_cochain, _random_eq_data  # noqa: E402

RANK_COUNTS = {1: 16, 2: 17, 3: 27}
BLOCK_COUNTS = {"o2_dihedral_block(4)": 31, "t2_block()": 29}
BLOCKS = {"o2_dihedral_block(4)": o2_dihedral_block(4)[::2], "t2_block()": t2_block()[:3:2]}
EXC_BOUND = 1


def _ref_is_zero_ring(space, flag):
    return bool(flag) and flag[0] > cb_rank(space)


def _ref_dmap_leaves(L, space, flag, cs, b, data):
    if data is None or _ref_is_zero_ring(space, insert_height(flag, b)):
        return None
    if isinstance(space, Finite):
        return tuple(data)
    if isinstance(space, Sum):
        lcs, rcs = L.sum_parts(cs)
        return (_ref_dmap_leaves(L, space.left, flag, lcs, b, data[0]),
                _ref_dmap_leaves(L, space.right, flag, rcs, b, data[1]))
    r = cb_rank(space)
    if b == r:
        return data[2]
    lower = bool(flag) and b < flag[-1]
    if flag and flag[0] == r:
        return L.spread(cs, b, flag[-1], data) if lower else data
    _, exc, tail = data
    exc_cs, tail_cs = L.cone_parts(cs)
    return ("cone", {k: _ref_dmap_leaves(L, space.base, flag, exc_cs.get(k, tail_cs), b, v)
                     for k, v in exc.items()},
            L.spread(cs, b, flag[-1], tail) if lower else tail)


def sign_pos(flag, b):
    if b in flag:
        raise FlagError(f"height {b} lies in flag {flag}")
    return sum(1 for a in flag if a > b)


def _ref_differential(L, space, cs, degree, data):
    out = {}
    for B in flags_of_size(cb_rank(space), degree + 2):
        if degree == -1:
            out[B] = _canon(L, space, B, cs, L.augment(space, cs, data[()], B[0]))
            continue
        acc = None
        for b in B:
            A = tuple(a for a in B if a != b)
            term = _ref_dmap_leaves(L, space, A, cs, b, data[A])
            op = L.sub if sign_pos(A, b) % 2 == 1 else L.add
            acc = term if acc is None else _zip_leaves(space, B, acc, term, op)
        out[B] = _canon(L, space, B, cs, acc)
    return out


def _none_exactly_at_zero_rings(space, flag, data) -> bool:
    """Data is None at a node exactly when the node's flag is a zero ring."""
    zero_ring = bool(flag) and flag[0] > cb_rank(space)
    if zero_ring or data is None:
        return zero_ring and data is None
    if isinstance(space, Finite) or (flag and flag[0] == cb_rank(space)):
        return True
    if isinstance(space, Sum):
        return (_none_exactly_at_zero_rings(space.left, flag, data[0])
                and _none_exactly_at_zero_rings(space.right, flag, data[1]))
    return all(_none_exactly_at_zero_rings(space.base, flag, v) for v in data[1].values())


def _sparse_coords(rng, n):
    """A coordinate vector that is mostly zero, like the probe's unit vectors."""
    return tuple(rng.choice([ZERO, ZERO, ZERO, ONE, -ONE]) for _ in range(n))


def _compare_dmaps(L, space, cs, flag, data):
    """The library's cube maps out of flag equal the reference's, and keep the invariant."""
    for b in range(cb_rank(space) + 2):
        if b in flag:
            continue
        got = _dmap_leaves(L, space, flag, cs, b, data)
        assert repr(got) == repr(_ref_dmap_leaves(L, space, flag, cs, b, data))
        assert _none_exactly_at_zero_rings(space, insert_height(flag, b), got)


def _compare_differentials(L, space, cs, cochains):
    for degree, data in cochains:
        got = _differential(L, space, cs, degree, data)
        assert repr(got) == repr(_ref_differential(L, space, cs, degree, data))


def test_rational_recursions_match_their_references():
    ranks = []
    for rank, count in RANK_COUNTS.items():
        @examples(count)
        @given(of_rank(rank), st.integers(min_value=0, max_value=2**16))
        def check(space, seed):
            r = cb_rank(space)
            ranks.append(r)
            rng = random.Random(seed)
            cochains = []
            for degree in range(-1, r):
                flags = [()] if degree == -1 else flags_of_size(r, degree + 1)
                data = {A: random_cfun(space, A, rng, EXC_BOUND).data for A in flags}
                for A, d in data.items():
                    assert _none_exactly_at_zero_rings(space, A, d)
                    _compare_dmaps(RATIONAL, space, None, A, d)
                n = sum(_slots(RATIONAL, space, A, None, EXC_BOUND) for A in flags)
                probe = _decode(RATIONAL, space, None, flags, EXC_BOUND, _sparse_coords(rng, n))
                for A, d in probe.items():
                    assert _none_exactly_at_zero_rings(space, A, d)
                    _compare_dmaps(RATIONAL, space, None, A, d)
                cochains += [(degree, data), (degree, probe)]
            _compare_differentials(RATIONAL, space, None, cochains)

        check()
    assert dict(Counter(ranks)) == RANK_COUNTS


def test_group_ring_recursions_match_their_references():
    blocks = []
    for block, count in BLOCK_COUNTS.items():
        space, cs = BLOCKS[block]
        cx = equivariant_adelic(space, cs)

        @examples(count)
        @given(st.integers(min_value=0, max_value=2**16))
        def check(seed):
            blocks.append(block)
            rng = random.Random(seed)
            cochains = [(-1, _raw(_random_eq_cochain(cx, -1, rng)))]
            for degree in range(0, cx.rank):
                flags = cx.flags(degree)
                data = {A: _random_eq_data(space, A, cs, rng) for A in flags}
                n = sum(_slots(GROUP_RING, space, A, cs, EXC_BOUND) for A in flags)
                probe = _decode(GROUP_RING, space, cs, flags, EXC_BOUND, _sparse_coords(rng, n))
                for A in flags:
                    for d in (data[A], probe[A]):
                        assert _none_exactly_at_zero_rings(space, A, d)
                        _compare_dmaps(GROUP_RING, space, cs, A, d)
                cochains += [(degree, data), (degree, probe)]
            _compare_differentials(GROUP_RING, space, cs, cochains)

        check()
    assert dict(Counter(blocks)) == BLOCK_COUNTS


def test_const_data_holds_none_exactly_at_zero_rings():
    spaces = [Cone(Finite(1)), Sum(Cone(Cone(Finite(1))), Finite(2)),
              Sum(Cone(Finite(2)), Sum(Finite(1), Cone(Cone(Finite(1))))),
              Cone(Sum(Cone(Finite(1)), Finite(3)))]
    for space in spaces:
        for A in [()] + all_flags(cb_rank(space)):
            assert _none_exactly_at_zero_rings(space, A, const_data(space, A, ONE))
    space, cs = BLOCKS["t2_block()"]
    for A in all_flags(cb_rank(space)):
        assert _none_exactly_at_zero_rings(space, A, const_data(space, A, GROUP_RING.zero(cs, A)))


def test_dmap_refuses_a_height_already_in_the_flag():
    space = Sum(Cone(Cone(Finite(1))), Finite(2))
    for A in all_flags(cb_rank(space)):
        f = CFun.unit(space, A)
        for b in A:
            with pytest.raises(FlagError):
                dmap(b, f)
        with pytest.raises(FlagError):
            dmap(cb_rank(space) + 1, f)
