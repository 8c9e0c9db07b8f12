"""`align_pair` against a reference built from key trees.

A key tree records the nesting of a sheaf's stored copy keys.  The reference
below merges the trees of two sheaves and materializes, in each sheaf, every
copy of the merged tree as a copy of its tail, re-coordinatizing the germ
where the tail itself grows.  `align_pair` must give the same two sheaves on
the derandomized space expressions of `test_space_properties`, restricted to
rank <= 3 and short expressions, and on explicit rank-3 expressions.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stonesheaf.linalg import LinMap  # noqa: E402
from stonesheaf.sheaf import (  # noqa: E402
    CSheaf, Section, align_pair, germ_section, random_csheaf, sec_space, sec_to_coords)
from stonesheaf.space import Finite, Sum, cb_rank, parse_space  # noqa: E402
from test_space_properties import spaces  # noqa: E402

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
SMALL = spaces.filter(lambda s: cb_rank(s) <= 3 and len(str(s)) <= 48)
RANK3 = ["Cone(Cone(Cone(Finite(1))))", "Cone(Sum(Finite(2),Cone(Cone(Finite(1)))))",
         "Sum(Cone(Cone(Cone(Finite(1)))),Cone(Finite(2)))"]


def key_tree(F):
    if isinstance(F.space, Finite):
        return ("fin",)
    if isinstance(F.space, Sum):
        return ("sum", key_tree(F.data[0]), key_tree(F.data[1]))
    return ("cone", {k: key_tree(G) for k, G in F.data[1]}, key_tree(F.tail))


def merge_trees(t1, t2):
    if t1[0] == "fin":
        return t1
    if t1[0] == "sum":
        return ("sum", merge_trees(t1[1], t2[1]), merge_trees(t1[2], t2[2]))
    copies = {k: merge_trees(t1[1].get(k, t1[2]), t2[1].get(k, t2[2]))
              for k in set(t1[1]) | set(t2[1])}
    return ("cone", copies, merge_trees(t1[2], t2[2]))


def conform(F, tree):
    """F with every copy of `tree` (which refines F's own tree) stored."""
    if isinstance(F.space, Finite):
        return F
    if isinstance(F.space, Sum):
        return CSheaf(F.space, (conform(F.data[0], tree[1]), conform(F.data[1], tree[2])))
    _, copies, tail_tree = tree
    tail = conform(F.tail, tail_tree)
    exc = tuple(sorted((k, conform(F.copy_sheaf(k), copies[k])) for k in copies))
    germ = F.germ
    if tail != F.tail:
        cols = [sec_to_coords(tail, Section(tail, germ_section(F, F.apex.basis_vec(i)).data))
                for i in range(F.apex.dim)]
        germ = LinMap.from_cols(F.apex, sec_space(tail), cols)
    return CSheaf(F.space, ("cone", exc, tail, F.apex, germ))


def reference_align_pair(F, G):
    tree = merge_trees(key_tree(F), key_tree(G))
    return conform(F, tree), conform(G, tree)


def _check(space, seed):
    rng = random.Random(seed)
    F, G = random_csheaf(space, rng, 2, 2), random_csheaf(space, rng, 2, 2)
    aligned = align_pair(F, G)
    assert aligned == reference_align_pair(F, G)
    assert (aligned == (F, G)) == (key_tree(F) == key_tree(G))
    A, B = aligned
    assert key_tree(A) == key_tree(B) == merge_trees(key_tree(F), key_tree(G))


@SETTINGS
@given(SMALL, st.integers(min_value=0, max_value=10_000))
def test_align_pair_matches_the_key_tree_reference(space, seed):
    _check(space, seed)


@pytest.mark.parametrize("expr", RANK3)
def test_align_pair_matches_the_key_tree_reference_at_rank_3(expr):
    space = parse_space(expr)
    for seed in range(12):
        _check(space, seed)
