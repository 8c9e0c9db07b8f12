"""Space expressions from the grammar, checked with hypothesis.

The examples are derandomized and their number is fixed, so every run
draws the same expressions.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stonesheaf.space import Cone, Finite, Sum, cb_rank, parse_space  # noqa: E402

SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)

spaces = st.recursive(
    st.integers(min_value=1, max_value=5).map(Finite),
    lambda inner: st.one_of(st.builds(Sum, inner, inner), st.builds(Cone, inner)),
    max_leaves=8)


def reference_rank(s) -> int:
    """Cantor-Bendixson rank by recursion over the expression."""
    if isinstance(s, Finite):
        return 0
    if isinstance(s, Sum):
        return max(reference_rank(s.left), reference_rank(s.right))
    return reference_rank(s.base) + 1


@SETTINGS
@given(spaces)
def test_stored_rank_matches_recursion(s):
    assert cb_rank(s) == s.rank == reference_rank(s)


@SETTINGS
@given(spaces)
def test_parse_round_trip_keeps_equality_and_hash(s):
    t = parse_space(str(s))
    assert t == s and hash(t) == hash(s)
    assert str(t) == str(s) and repr(t) == repr(s)
    assert "rank" not in repr(s)


def test_rank_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        Finite(1, 0)
    assert Cone(Finite(1)) == Cone(Finite(1))
    assert {Sum(Finite(1), Finite(2)): 1} == {Sum(Finite(1), Finite(2)): 1}
