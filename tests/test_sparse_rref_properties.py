"""`linalg.sparse_rref` against a dense elimination on drawn sparse matrices.

`sparse_rref` is the package's one elimination, and `linalg.rref` is only
its dense view, so the dense reference here is `dense_rref`, a test-local
copy of the dense Gaussian elimination the package had before: it swaps
rows, divides each pivot row by its pivot and clears the pivot column from
every other row.  The kernel, sampler and stalkwise oracles take their
dense elimination from it too.

A matrix of 0-7 rows and 0-7 columns is drawn row by row: a row is empty, a
copy of an earlier row, an earlier row scaled or added to another (so
entries cancel in the reduction), or fresh entries from ±1 and other
`Fraction`s, some of them stored zeros.  Expanded to dense rows (ones at
the pivots, `ZERO` elsewhere, a zero row per missing pivot), the output of
`sparse_rref`, and that of `rref`, must equal `dense_rref` of the dense
matrix by `repr`; read the other way, `dense_rref`'s rows must give
`sparse_rref`'s column-sorted [(column, entry)] lists of the nonzero
entries right of each pivot.  The input rows are left unchanged.

`sparse_rref` takes an elimination factor of ±1 as a sign where the other
entry is a `Fraction` (`_sub_multiple`).  Matrices dominated by ±1 and ±2,
with `int` and `Fraction` entries mixed, check that shortcut: their values
against `dense_rref`, and every entry's type, by `repr`, against
`reference_sparse_rref`, the reduction as it was before the shortcut, whose
`reference_sub_multiple` multiplies every term.
"""

import copy
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stonesheaf.linalg import ONE, ZERO, rref, sparse_rref  # noqa: E402

SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

ENTRIES = [ONE, -ONE, Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3)]
SCALES = [ONE, -ONE, Fraction(2), Fraction(-1, 3)]


def dense_rref(rows):
    """The reduced row echelon form and pivot columns by dense Gaussian
    elimination: the package's `rref` before it became a view of
    `sparse_rref`.  A pivot row's zeros become `ZERO`, but an entry left of
    a row's pivot that was never eliminated keeps its type."""
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
            prow[c:] = [x / pv if x else ZERO for x in prow[c:]]
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


def combine(a, b, c):
    """a + c * b on rows {column: entry}, dropping what cancels."""
    out = dict(a)
    for j, y in b.items():
        s = out.get(j, ZERO) + c * y
        if s:
            out[j] = s
        else:
            out.pop(j, None)
    return out


@st.composite
def sparse_matrices(draw):
    """(rows, column count): rows {column: entry} of a matrix whose rows
    repeat, combine and cancel."""
    n = draw(st.integers(min_value=0, max_value=7))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        kind = draw(st.sampled_from(["fresh", "fresh", "empty", "copy", "combine"]))
        if kind in ("copy", "combine") and rows:
            a = draw(st.sampled_from(rows))
            if kind == "copy":
                rows.append(dict(a))
            else:
                b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(SCALES))
                rows.append(combine(a, b, c))
        elif kind == "fresh" and n:
            cols = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
            rows.append({j: draw(st.sampled_from(ENTRIES + [ZERO])) for j in sorted(cols)})
        else:
            rows.append({})
    return rows, n


def expand(sparse, m, n):
    """`sparse_rref`'s output as `rref` gives it for m rows and n columns."""
    rows, pivots = sparse
    out = []
    for row, p in zip(rows, pivots):
        dense = [ZERO] * n
        dense[p] = ONE
        for j, x in row:
            dense[j] = x
        out.append(dense)
    out += [[ZERO] * n for _ in range(m - len(pivots))]
    return out, pivots


@SETTINGS
@given(sparse_matrices())
def test_sparse_rref_is_the_dense_rref(matrix):
    rows, n = matrix
    before = copy.deepcopy(rows)
    got = sparse_rref(rows)
    assert rows == before
    dense = [[row.get(j, ZERO) for j in range(n)] for row in rows]
    red, pivots = dense_rref(dense)
    assert repr(expand(got, len(rows), n)) == repr((red, pivots))
    assert repr(rref(dense)) == repr((red, pivots))
    want = [[(j, row[j]) for j in range(p + 1, n) if row[j]] for row, p in zip(red, pivots)]
    assert repr(got) == repr((want, pivots))


def test_no_rows_and_zero_rows():
    assert sparse_rref([]) == ([], [])
    assert sparse_rref([{}, {2: ZERO}]) == ([], [])
    assert repr(sparse_rref([{1: Fraction(2)}, {1: Fraction(-4), 3: ZERO}])) == repr(
        ([[]], [1]))


def reference_sparse_rref(rows):
    """`sparse_rref` without the ±1 shortcut: every term is f * y."""
    basis = {}
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        for c in [c for c in row if c in basis]:
            reference_sub_multiple(row, row.pop(c), basis[c])
        if not row:
            continue
        p = min(row)
        pv = row.pop(p)
        if pv != 1:
            pv = Fraction(pv)
            row = {j: x / pv for j, x in row.items()}
        for b in basis.values():
            f = b.pop(p, None)
            if f is not None:
                reference_sub_multiple(b, f, row)
        basis[p] = row
    pivots = sorted(basis)
    return [sorted(basis[p].items()) for p in pivots], pivots


def reference_sub_multiple(row, f, other):
    """row -= f * other, every term multiplied."""
    for j, y in other.items():
        t = f * y
        s = row.get(j)
        if s is None:
            row[j] = -t
        else:
            s -= t
            if s:
                row[j] = s
            else:
                del row[j]


UNITS = [1, -1, 2, -2]
UNIT_ENTRIES = UNITS + [Fraction(x) for x in UNITS] + [Fraction(1, 2), 3]


@st.composite
def unit_matrices(draw):
    """(rows, column count): rows {column: entry} of ±1 and ±2, as `int`
    and as `Fraction`, with a few other entries and stored zeros."""
    n = draw(st.integers(min_value=1, max_value=7))
    entries = st.sampled_from(UNIT_ENTRIES + [0, ZERO])
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        cols = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        rows.append({j: draw(entries) for j in sorted(cols)})
    return rows, n


@SETTINGS
@given(unit_matrices())
def test_unit_dominated_matrices_keep_their_values_and_types(matrix):
    rows, n = matrix
    before = copy.deepcopy(rows)
    got = sparse_rref(rows)
    assert rows == before
    assert repr(got) == repr(reference_sparse_rref(rows))
    red, pivots = dense_rref([[row.get(j, ZERO) for j in range(n)] for row in rows])
    want = [[(j, row[j]) for j in range(p + 1, n) if row[j]] for row, p in zip(red, pivots)]
    assert got == (want, pivots)


def test_unit_matrices_reach_int_and_fraction_entries_in_the_output():
    """The drawn family does produce `int` entries next to `Fraction`s in
    the reduced rows, so the type check compares both."""
    types = set()

    @SETTINGS
    @given(unit_matrices())
    def collect(matrix):
        for row in sparse_rref(matrix[0])[0]:
            types.update(type(x) for _j, x in row)
    collect()
    assert types == {int, Fraction}
