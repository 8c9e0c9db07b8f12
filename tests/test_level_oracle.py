"""Oracle for the level bookkeeping of component structures.

`level_group(cs, a)` is the group at the generic points of height a,
`hom_between(cs, b, a)` the structure homomorphism from height b up to
height a, and `level_germ(cs, b, a)` its germ component.  The references
are the three recursions the engine used before it kept one level table
per structure: `_level_group`, `_chain_within` (the homomorphism from
height b into the top group) and `_hom_between`.  A sum takes height a
from its first part that reaches a, except that its own top height reads
`_chain_within`, which takes height b from its first part that reaches b.

Every node is compared (the root, the summands, the tails and the
exceptional copies), at every height and every pair of heights, over:

* the catalog blocks: `o2_dihedral_block(n)` for n = 3, 4, 6 and both
  `t2_block`s;
* trivial and constant structures over `test_pathway_golden.SPACES`;
* seeded structures over `SEEDED_SPACES` (rank <= 3, with uneven sum
  tails such as `Cone(Sum(Finite(2),Cone(Finite(1))))`), with groups from
  {1, C2, C3, K4, S3} and every homomorphism found by brute force: level-
  uniform ones (`draw_structure`) and ones with exceptional copies and
  mixed groups at the root (`free=True`).

The table must also agree with the structure point by point.  The
reference is the per-point chain that the engine kept beside the table
until the table became the one model, `chain_to_top`: from the group at a
point, the structure homomorphisms of the cones that enclose it, composed
up to the top group.  At every cone node of every structure that
`equivariant_adelic` accepts, every point class of the tail
(`iter_points(tail, 1)`: one generic copy per cone, since tails have no
exceptional copies) must reach the apex by the table's homomorphism from
its height, `hom_between(cone, height, rank)`.  This runs over the
structures above and over a seeded family, `draw_structure` over
`SEEDED_SPACES` at seeds 900-908 with 50 draws each, where a summand of a
sum tail can carry a chain of its own that one row per height cannot hold;
the complex takes 138 of those 450 draws.
"""

import functools
import itertools
import random

import pytest

from stonesheaf.catalog import o2_dihedral_block, t2_block
from stonesheaf.space import Finite, Sum, cb_rank, height, iter_points, parse_space
from stonesheaf.verify import _s3_group
from stonesheaf.weyl import (
    GroupError, GrpHom, cone_structure, constant_structure, cyclic_group, direct_product,
    equivariant_adelic, fin_structure, germ_component, hom_between, identity_hom, level_germ,
    level_group, sum_structure, top_group, trivial_group, trivial_structure)
from test_pathway_golden import SPACES

GROUPS = [trivial_group(), cyclic_group(2), cyclic_group(3),
          direct_product(cyclic_group(2), cyclic_group(2)), _s3_group()]
SEEDED_SPACES = ["Finite(2)", "Cone(Finite(2))", "Sum(Finite(1),Cone(Cone(Finite(1))))",
                 "Sum(Cone(Finite(1)),Cone(Cone(Finite(1))))",
                 "Sum(Cone(Cone(Finite(1))),Finite(1))",
                 "Cone(Sum(Finite(2),Cone(Finite(1))))", "Cone(Sum(Cone(Finite(1)),Finite(1)))",
                 "Cone(Cone(Sum(Finite(1),Cone(Finite(1)))))", "Cone(Cone(Cone(Finite(1))))"]


def _level_group(cs, a):
    if cs.data[0] == "fin":
        if a != 0:
            raise GroupError("finite spaces have height-0 points only")
        return cs.data[1][0]
    if cs.data[0] == "sum":
        for part in (cs.data[1], cs.data[2]):
            if a <= cb_rank(part.space):
                return _level_group(part, a)
        raise GroupError("height exceeds the rank")
    exc, tail_cs, apex_group, up = cs.cone_parts()
    if a == cb_rank(cs.space):
        return apex_group
    return _level_group(tail_cs, a)


def _chain_within(cs, b):
    if cs.data[0] == "fin":
        return identity_hom(cs.data[1][0])
    if cs.data[0] == "sum":
        for part in (cs.data[1], cs.data[2]):
            if b <= cb_rank(part.space):
                return _chain_within(part, b)
        raise GroupError("height exceeds the rank")
    exc, tail_cs, apex_group, up = cs.cone_parts()
    if b == cb_rank(cs.space):
        return identity_hom(apex_group)
    return _chain_within(tail_cs, b).compose(up)


def _hom_between(cs, b, a):
    if not b < a:
        raise GroupError("levels must increase")
    if a == cb_rank(cs.space):
        return _chain_within(cs, b)
    if cs.data[0] == "sum":
        for part in (cs.data[1], cs.data[2]):
            if a <= cb_rank(part.space):
                return _hom_between(part, b, a)
        raise GroupError("height exceeds the rank")
    return _hom_between(cs.data[2], b, a)


def chain_to_top(cs, addr):
    """The per-point chain: the composite of the structure homomorphisms from
    the group at the point `addr` up to the top group of `cs`."""
    if cs.data[0] == "fin":
        return identity_hom(cs.data[1][addr[1]])
    if cs.data[0] == "sum":
        return chain_to_top(cs.data[1] if addr[0] == "L" else cs.data[2], addr[1])
    exc, tail_cs, apex_group, up = cs.cone_parts()
    if addr[0] == "apex":
        return identity_hom(apex_group)
    if addr[1] in exc:
        raise GroupError("exceptional copies are outside the apex neighbourhood")
    return chain_to_top(tail_cs, addr[2]).compose(up)


@functools.cache
def homs(G, H) -> tuple:
    """Every homomorphism G -> H, found by trying every value table."""
    return tuple(GrpHom(G, H, values) for values in itertools.product(H.elements(), repeat=G.order)
                 if all(values[G.mul(a, b)] == H.mul(values[a], values[b])
                        for a in G.elements() for b in G.elements()))


def draw_structure(space, rng, groups=GROUPS, top=None, free=False):
    """A seeded structure over `space` with groups from `groups` and a random
    homomorphism at every cone.  A given `top` is the top group of both
    parts of a sum, as a cone's tail needs; the parts of a root sum draw
    theirs.  Without `free` no copy is exceptional and the points of a
    `Finite` share one group.  With `free`, the other points of a `Finite`
    and up to two copies of a cone get groups of their own, and so does
    the right part of a sum."""
    G = top or rng.choice(groups)
    if isinstance(space, Finite):
        return fin_structure(space, [G] + [rng.choice(groups) if free else G
                                           for _ in range(space.n - 1)])
    if isinstance(space, Sum):
        return sum_structure(space, draw_structure(space.left, rng, groups, top, free),
                             draw_structure(space.right, rng, groups, None if free else top, free))
    tail = draw_structure(space.base, rng, groups, rng.choice(groups))
    exc = {k: draw_structure(space.base, rng, groups, free=True)
           for k in rng.sample(range(3), rng.randint(0, 2))} if free else {}
    return cone_structure(space, exc, tail, G, rng.choice(homs(top_group(tail), G)))


def _nodes(cs):
    """The structure, its summands, tails and exceptional copies, recursively."""
    yield cs
    if cs.data[0] == "sum":
        yield from itertools.chain(_nodes(cs.data[1]), _nodes(cs.data[2]))
    elif cs.data[0] == "cone":
        exc, tail_cs, _apex, _up = cs.cone_parts()
        for sub in (*exc.values(), tail_cs):
            yield from _nodes(sub)


def chain_misses(cs) -> list:
    """(cone node, tail point) wherever the table's homomorphism into a cone
    node's apex from the point's height is not the point's chain."""
    misses = []
    for node in _nodes(cs):
        if node.data[0] != "cone":
            continue
        _exc, tail_cs, _apex, up = node.cone_parts()
        for y in iter_points(tail_cs.space, 1):
            chain = chain_to_top(tail_cs, y.addr).compose(up)
            if hom_between(node, height(tail_cs.space, y), cb_rank(node.space)) != chain:
                misses.append((str(node.space), str(y)))
    return misses


def accepts(cs) -> bool:
    """Whether `equivariant_adelic` builds a complex on `cs`."""
    try:
        equivariant_adelic(cs.space, cs)
    except GroupError:
        return False
    return True


def _structures():
    for n in (3, 4, 6):
        yield f"o2_dihedral_block({n})", o2_dihedral_block(n)[2]
    for split in (True, False):
        yield f"t2_block(split={split})", t2_block(split=split)[2]
    for expr in SPACES:
        space = parse_space(expr)
        yield f"trivial {expr}", trivial_structure(space)
        for G in GROUPS[1:]:
            yield f"constant {G.name} {expr}", constant_structure(space, G)
    for i, expr in enumerate(SEEDED_SPACES):
        rng = random.Random(400 + i)
        for j in range(12):
            yield f"seeded {expr} #{j}", draw_structure(parse_space(expr), rng, free=j % 2 == 1)


STRUCTURES = list(_structures())


@pytest.mark.parametrize("name, cs", STRUCTURES, ids=[n for n, _ in STRUCTURES])
def test_levels_match_the_three_recursions_at_every_node(name, cs):
    for node in _nodes(cs):
        r = cb_rank(node.space)
        for a in range(r + 1):
            assert level_group(node, a) == _level_group(node, a)
            for b in range(a):
                assert hom_between(node, b, a) == _hom_between(node, b, a)
                assert level_germ(node, b, a) == germ_component(_hom_between(node, b, a))
        with pytest.raises(GroupError):
            level_group(node, r + 1)


def test_seeded_structures_reach_uneven_sum_tails_and_copies():
    seeded = [cs for name, cs in STRUCTURES if name.startswith("seeded")]
    shapes = {str(node.space) for cs in seeded for node in _nodes(cs)}
    assert {"Sum(Finite(2),Cone(Finite(1)))", "Sum(Finite(1),Cone(Finite(1)))"} <= shapes
    assert any(node.data[0] == "cone" and node.data[1] for cs in seeded for node in _nodes(cs))
    # a root sum whose top row mixes its parts: the top group of one part,
    # reached from a height that the other part reaches first
    assert any(cs.data[0] == "sum" and hom_between(cs, 0, cb_rank(cs.space)).target
               != level_group(cs, cb_rank(cs.space)) for cs in seeded)


@pytest.mark.parametrize("name, cs", STRUCTURES, ids=[n for n, _ in STRUCTURES])
def test_the_table_reaches_every_tail_point_by_its_chain(name, cs):
    assert not (accepts(cs) and chain_misses(cs))


def seeded_family():
    for i, expr in enumerate(SEEDED_SPACES):
        rng = random.Random(900 + i)
        for _ in range(50):
            yield draw_structure(parse_space(expr), rng)


def test_the_table_reaches_every_tail_point_over_the_seeded_family():
    accepted = [cs for cs in seeded_family() if accepts(cs)]
    assert [chain_misses(cs) for cs in accepted if chain_misses(cs)] == []
    assert len(accepted) == 138
