"""The sampler's exact arithmetic against plain arithmetic.

The library skips arithmetic that cannot change a value: the rational
leaves' `add`/`sub` keep a `Fraction` operand beside a zero one, and
`sparse_rref`, the one elimination, which `rref` views densely, touches
nonzero entries only (see the `RationalLeaves` and `linalg` docstrings).
The references below skip no arithmetic:

* `PlainLeaves` (from `tests/test_sampler_oracle.py`), the rational leaves
  with `operator.add`/`operator.sub`;
* `reference_rref`, elimination that divides every entry of the pivot row
  from the pivot on, zero or not, by a pivot other than 1;
* `reference_sparse_rref`, `sparse_rref` through `reference_rref`: the
  sparse rows expanded to dense rows, reduced, and read back;
* `reference_scale`, `LinMap.scale` as one product c * x per entry, zero
  or not, where the library keeps zeros as `ZERO` and takes a factor of
  ±1 as a sign.

`plain_engine` runs the library with both: a complex whose leaves are
`PlainLeaves`, and `adelic.sparse_rref` replaced by `reference_sparse_rref`;
it fails unless the sampler called the reference.  The library must agree
with it by `repr`, so a `Fraction` turned `int` fails, on `_kernel_rref`,
`random_cocycle` and `exactness_witness` over the `SEEDED_SPACES` and
`ROOT_SUMS` of the sampler oracle at every degree below the rank; `rref`
and `sparse_rref` must agree with their references on the probed matrices,
and `rref` by value on seeded `int` matrices, with every entry a `Fraction`;
`LinMap.scale`, `scalar` and `sub` must agree with `reference_scale` on
seeded mixed `int`/`Fraction` matrices.
"""

import contextlib
import random
from fractions import Fraction
from unittest import mock

import pytest

from stonesheaf import adelic
from stonesheaf.adelic import (
    RATIONAL, AdelicComplex, _differential, _kernel_rref, _slots, build_complex,
    random_cocycle)
from stonesheaf.linalg import ZERO, LinMap, VectQ, rat, rref, sparse_rref
from stonesheaf.space import cb_rank, parse_space

from test_level_oracle import SEEDED_SPACES
from test_sampler_oracle import PLAIN, ROOT_SUMS, _decode, probed_columns


def reference_rref(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            pv = Fraction(pv)
            prow[c:] = [x / pv for x in prow[c:]]
        nonzero = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f != 0:
                for j, y in nonzero:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_sparse_rref(rows):
    """`sparse_rref` by `reference_rref`: the rows {column: entry} expanded
    to dense rows up to their last column, reduced, and read back as the
    nonzero entries right of each pivot."""
    n = 1 + max((j for row in rows for j in row), default=-1)
    red, pivots = reference_rref([[row.get(j, ZERO) for j in range(n)] for row in rows])
    return [[(j, row[j]) for j in range(p + 1, n) if row[j]]
            for row, p in zip(red, pivots)], pivots


class PlainComplex(AdelicComplex):
    leaves = PLAIN


@contextlib.contextmanager
def plain_engine():
    calls = []

    def reference(rows):
        calls.append(len(rows))
        return reference_sparse_rref(rows)
    with mock.patch.object(adelic, "sparse_rref", reference):
        yield
    assert calls, "the sampler never reduced through the reference"


EXPRS = SEEDED_SPACES + ROOT_SUMS
CASES = [(expr, degree) for expr in EXPRS for degree in range(cb_rank(parse_space(expr)))]


@pytest.mark.parametrize("expr, degree", CASES)
def test_kernel_rref_matches_plain_arithmetic(expr, degree):
    space = parse_space(expr)
    got = _kernel_rref(RATIONAL, space, None, degree, 2)
    with plain_engine():
        want = _kernel_rref(PLAIN, space, None, degree, 2)
    assert repr(got) == repr(want)
    # the whole probed matrix, reduced by the reference, has the same rows
    cols, m = probed_columns(build_complex(space), degree, 2)
    n = len(cols)
    red, pivots = reference_rref([[col[i] for col in cols] for i in range(m)])
    whole = [[(j, row[j]) for j in range(p + 1, n) if row[j]] for row, p in zip(red, pivots)]
    assert repr(got) == repr((whole, pivots, n))


@pytest.mark.parametrize("expr, degree", CASES)
def test_cocycles_and_witnesses_match_plain_arithmetic(expr, degree):
    space = parse_space(expr)
    cx, plain = build_complex(space), PlainComplex(space)
    for seed in range(2):
        got = random_cocycle(cx, degree, random.Random(seed))
        with plain_engine():
            want = random_cocycle(plain, degree, random.Random(seed))
            want_witness = plain.exactness_witness(want, degree)
        assert repr(got) == repr(want)
        assert repr(cx.exactness_witness(got, degree)) == repr(want_witness)


@pytest.mark.parametrize("expr, degree", CASES)
def test_rref_matches_reference_on_probed_matrices(expr, degree):
    cols, m = probed_columns(build_complex(parse_space(expr)), degree, 2)
    matrix = [[col[i] for col in cols] for i in range(m)]
    assert repr(rref(matrix)) == repr(reference_rref(matrix))
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    assert repr(sparse_rref(rows)) == repr(reference_sparse_rref(rows))


def test_rref_matches_reference_on_int_matrices():
    rng = random.Random(29)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        matrix = [[rng.choice([0, 0, 0, 1, -1, 2, 3, -4]) for _ in range(cols)]
                  for _ in range(rows)]
        red, pivots = rref(matrix)
        assert (red, pivots) == reference_rref(matrix)
        assert all(type(x) is Fraction for row in red for x in row)


def test_rref_of_an_int_matrix_gives_fractions_from_each_pivot_on():
    # a pivot of 2 with a zero right of it, and a second row whose column 0
    # is never eliminated: rref builds every row anew from `sparse_rref`'s
    # pivot rows, so even that int 0 comes out as a Fraction
    red, pivots = rref([[2, 0, 4], [0, 3, 0]])
    assert pivots == [0, 1]
    assert repr(red) == repr([[Fraction(1), Fraction(0), Fraction(2)],
                              [Fraction(0), Fraction(1), Fraction(0)]])
    # here the second row's column 0 is eliminated
    red, pivots = rref([[2, 0, 4], [1, 3, 0]])
    assert repr(red) == repr([[Fraction(1), Fraction(0), Fraction(2)],
                              [Fraction(0), Fraction(1), Fraction(-2, 3)]])
    assert pivots == [0, 1]


# leaves of both types: int zeros and nonzeros beside Fraction zeros
MIXED = [0, 2, Fraction(0), -3, Fraction(0), 0, Fraction(5, 2), 1, Fraction(0), -1]


@pytest.mark.parametrize("expr", ["Cone(Finite(1))", "Cone(Cone(Finite(1)))",
                                  "Sum(Cone(Finite(2)),Finite(1))",
                                  "Cone(Sum(Finite(2),Cone(Finite(1))))"])
def test_differential_on_mixed_int_and_fraction_leaves(expr):
    space = parse_space(expr)
    cx = build_complex(space)
    for degree in range(-1, cx.rank):
        n = sum(_slots(RATIONAL, space, A, None, 2) for A in cx.flags(degree))
        for shift in range(len(MIXED)):
            values = tuple(MIXED[(i + shift) % len(MIXED)] for i in range(n))
            data = _decode(cx, degree, 2, values)
            got = _differential(RATIONAL, space, None, degree, data)
            want = _differential(PLAIN, space, None, degree, data)
            assert repr(got) == repr(want)


def reference_scale(m, c):
    c = rat(c)
    return LinMap(m.source, m.target, tuple(tuple(c * x for x in row) for row in m.matrix))


FACTORS = [1, -1, 0, 2, -3, Fraction(1), Fraction(-1), Fraction(0), Fraction(1, 3),
           Fraction(-5, 2), "2/3", "-1"]


def test_scale_matches_one_product_per_entry():
    rng = random.Random(33)
    for _ in range(200):
        rows, cols = rng.randint(0, 4), rng.randint(0, 5)
        m = LinMap(VectQ.make(cols), VectQ.make(rows),
                   tuple(tuple(rng.choice(MIXED) for _ in range(cols)) for _ in range(rows)))
        c = rng.choice(FACTORS)
        assert repr(m.scale(c)) == repr(reference_scale(m, c))
        assert repr(m.sub(m)) == repr(m.add(reference_scale(m, -1)))
    for dim in range(4):
        space = VectQ.make(dim)
        for c in FACTORS:
            assert repr(LinMap.scalar(space, c)) == repr(
                reference_scale(LinMap.identity(space), c))
