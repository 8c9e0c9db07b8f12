"""The ring sheaves and unit maps of the cube against a rebuilding reference.

`sheaf_cube` builds each ring sheaf once and walks the built sheaves for the
unit maps.  The reference below builds them the direct way: every ring
sheaf takes its germ from a freshly built unit section of its tail, and
every unit map rebuilds both of its ends at every level of its recursion.
Both must agree on the derandomized space expressions of
`test_space_properties`, restricted to rank <= 3 and short expressions, and
on two rank-3 expressions.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402

from stonesheaf.adelic import all_flags, insert_height  # noqa: E402
from stonesheaf.cube import ring_sheaf, sheaf_cube  # noqa: E402
from stonesheaf.linalg import ONE, LinMap, VectQ  # noqa: E402
from stonesheaf.sheaf import (  # noqa: E402
    constant, make_cone_map, make_cone_sheaf, make_fin_map, make_sum_map, make_sum_sheaf,
    sec_dim, sec_from_coords, sec_space, sec_to_coords, zero_map, zero_sheaf)
from stonesheaf.space import Finite, Sum, cb_rank, parse_space  # noqa: E402
from test_space_properties import spaces  # noqa: E402

SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)
SMALL = spaces.filter(lambda s: cb_rank(s) <= 3 and len(str(s)) <= 48)
# the strategy rarely draws rank 3, so two rank-3 expressions are always run
RANK3 = [parse_space("Cone(Cone(Cone(Finite(1))))"),
         parse_space("Cone(Sum(Finite(2),Cone(Cone(Finite(1)))))")]


def _is_zero_flag(space, flag):
    return bool(flag) and flag[0] > cb_rank(space)


def reference_ring_sheaf(space, flag):
    if _is_zero_flag(space, flag):
        return zero_sheaf(space)
    if isinstance(space, Finite):
        return constant(space, 1)
    if isinstance(space, Sum):
        return make_sum_sheaf(space, reference_ring_sheaf(space.left, flag),
                              reference_ring_sheaf(space.right, flag))
    r = cb_rank(space)
    Q = VectQ.make(1)
    if flag and flag[0] == r:
        tail = zero_sheaf(space.base)
        return make_cone_sheaf(space, {}, tail, Q, LinMap.zero(Q, sec_space(tail)))
    tail = reference_ring_sheaf(space.base, flag)
    coords = sec_to_coords(tail, reference_unit_section(space.base, flag))
    germ = LinMap.from_cols(Q, sec_space(tail), [coords])
    return make_cone_sheaf(space, {}, tail, Q, germ)


def reference_unit_section(space, flag):
    F = reference_ring_sheaf(space, flag)
    return sec_from_coords(F, (ONE,) * sec_dim(F))


def reference_cube_map(space, flag, b):
    F = reference_ring_sheaf(space, flag)
    G = reference_ring_sheaf(space, insert_height(flag, b))
    if _is_zero_flag(space, insert_height(flag, b)):
        return zero_map(F, G)
    if isinstance(space, Finite):
        return make_fin_map(F, G, [LinMap.identity(sp) for sp in F.data])
    if isinstance(space, Sum):
        return make_sum_map(F, G, reference_cube_map(space.left, flag, b),
                            reference_cube_map(space.right, flag, b))
    r = cb_rank(space)
    if b == r or (flag and flag[0] == r):
        return make_cone_map(F, G, {}, zero_map(F.tail, G.tail), LinMap.identity(F.apex))
    return make_cone_map(F, G, {}, reference_cube_map(space.base, flag, b),
                         LinMap.identity(F.apex))


def _edges(space):
    r = cb_rank(space)
    return [(A, b) for A in [()] + all_flags(r) for b in range(r + 1) if b not in A]


@SETTINGS
@given(SMALL)
@example(RANK3[0])
@example(RANK3[1])
def test_ring_sheaves_and_unit_maps_match_the_reference(s):
    for A in [()] + all_flags(cb_rank(s)):
        assert ring_sheaf(s, A) == reference_ring_sheaf(s, A), A
    edges = sheaf_cube(s)["edges"]
    for A, b in _edges(s):
        assert edges[(A, b)] == reference_cube_map(s, A, b), (A, b)


@SETTINGS
@given(SMALL)
@example(RANK3[0])
@example(RANK3[1])
def test_sheaf_cube_matches_the_reference(s):
    cube = sheaf_cube(s)
    flags = [()] + all_flags(cb_rank(s))
    assert list(cube["sheaves"]) == flags
    assert cube["sheaves"][()] == constant(s, 1)
    for A in flags:
        assert cube["sheaves"][A] == reference_ring_sheaf(s, A), A
    assert list(cube["edges"]) == _edges(s)
    for (A, b), f in cube["edges"].items():
        assert f == reference_cube_map(s, A, b), (A, b)
        assert (f.source, f.target) == (cube["sheaves"][A], cube["sheaves"][insert_height(A, b)])
