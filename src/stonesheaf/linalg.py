"""Exact rational linear algebra.

Everything is done over Q with `fractions.Fraction`; there is no floating
point and no tolerance anywhere in the package.  Vector spaces carry ordered
opaque basis labels so that stalks can be named after points or group
elements; two spaces are equal exactly when their dimensions and label lists
agree.  Matrices are stored dense as tuples of tuples (rows = target
coordinates), which is plenty for the small spaces that arise here.  The
representation matrices of the equivariant layer are mostly zeros, so
`LinMap.apply` and `LinMap.then` multiply only nonzero entries; the
arithmetic is exact, so skipping zeros changes no result.  The
representation matrices' nonzero entries are mostly ±1, so the two
products take a factor of 1 or -1 as a sign (the term is x or -x, not
a * x) and take an output entry's first term as the entry itself, with no
addition to zero; `LinMap.scale` likewise keeps a zero entry as `ZERO` and
takes a factor of ±1 as a sign.  Neither rule changes a value or a type: a
first term that is not a `Fraction` (int inputs) is still added to `ZERO`,
and an `int` entry is still scaled.

There is one elimination, `sparse_rref`: each row is a dict {column:
entry} of its nonzero entries, so only nonzero entries are touched.  The
adelic sampler's differentials, mostly zeros, are never made dense.
`kernel_basis`, `_quotient`, `solve` and `rank` read its pivot rows
directly, and `rref` is its dense view.  They hand it their dense rows
through one builder, `_sparse`, which makes each entry a `Fraction`, so
every entry they return is a `Fraction` whatever the input.

Entries are coerced once: `rat` returns a `Fraction` as it is, and only
other inputs are converted.  `VectQ.make` interns its spaces, so every call
with the same dimension and prefix returns one shared (frozen) instance.

`band_starts` is the one place that decides where the rows and columns of
a summand start: `block_map` lays out every map between direct sums from
its blocks by it.  The adelic sampler needs no offsets: it decodes a whole
degree at once, so each of its linear forms already names its column.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Rat:
    """Coerce an int, string like '2/3', or Fraction to an exact rational."""
    return x if type(x) is Fraction else Fraction(x)


class DimensionError(ValueError):
    pass


class ComplexError(ValueError):
    """A would-be cochain complex fails d∘d = 0; carries the bad degree."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"d∘d != 0 leaving degree {degree}")


@dataclass(frozen=True)
class VectQ:
    """A finite-dimensional Q-vector space with an ordered, labelled basis."""

    dim: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise DimensionError("negative dimension")
        if len(self.labels) != self.dim:
            raise DimensionError("label count does not match dimension")
        if len(set(self.labels)) != self.dim:
            raise DimensionError("duplicate basis labels")

    @staticmethod
    @functools.cache
    def make(dim: int, prefix: str = "e") -> "VectQ":
        return VectQ(dim, tuple(f"{prefix}{i}" for i in range(dim)))

    @staticmethod
    def labelled(labels: Sequence[str]) -> "VectQ":
        return VectQ(len(labels), tuple(labels))

    def basis_vec(self, i: int) -> tuple[Rat, ...]:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))


QQ = VectQ.make(1)


def vec_add(u: Sequence[Rat], v: Sequence[Rat]) -> tuple[Rat, ...]:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def is_zero_vec(v: Sequence[Rat]) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True)
class LinMap:
    """A Q-linear map; matrix has target.dim rows and source.dim columns."""

    source: VectQ
    target: VectQ
    matrix: tuple[tuple[Rat, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.target.dim:
            raise DimensionError("row count does not match target dimension")
        for row in self.matrix:
            if len(row) != self.source.dim:
                raise DimensionError("column count does not match source dimension")

    @staticmethod
    def from_rows(source: VectQ, target: VectQ, rows) -> "LinMap":
        mat = tuple(tuple(rat(x) for x in row) for row in rows)
        return LinMap(source, target, mat)

    @staticmethod
    def from_cols(source: VectQ, target: VectQ, cols) -> "LinMap":
        cols = [tuple(rat(x) for x in col) for col in cols]
        if len(cols) != source.dim:
            raise DimensionError("column count does not match source dimension")
        if any(len(col) != target.dim for col in cols):
            raise DimensionError("column length does not match target dimension")
        return LinMap(source, target, tuple(zip(*cols)) if cols else ((),) * target.dim)

    @staticmethod
    def of(source: VectQ, target: VectQ, f) -> "LinMap":
        """The matrix of a linear f known only by its values: column i is
        f(source.basis_vec(i)), with one call per basis vector in order.

        >>> Q2, Q3 = VectQ.make(2), VectQ.make(3)
        >>> m = LinMap.of(Q2, Q3, lambda v: (v[0], v[0] + v[1], 2 * v[1]))
        >>> [[int(x) for x in row] for row in m.matrix]
        [[1, 0], [1, 1], [0, 2]]
        """
        return LinMap.from_cols(source, target,
                                [f(source.basis_vec(i)) for i in range(source.dim)])

    @staticmethod
    def zero(source: VectQ, target: VectQ) -> "LinMap":
        return LinMap(source, target, tuple((ZERO,) * source.dim for _ in range(target.dim)))

    @staticmethod
    def identity(space: VectQ) -> "LinMap":
        return LinMap(space, space, tuple(space.basis_vec(i) for i in range(space.dim)))

    @staticmethod
    def scalar(space: VectQ, c) -> "LinMap":
        return LinMap.identity(space).scale(c)

    def apply(self, v: Sequence[Rat]) -> tuple[Rat, ...]:
        if len(v) != self.source.dim:
            raise DimensionError("vector does not lie in the source space")
        nonzero = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.matrix:
            acc = ZERO
            for j, x in nonzero:
                a = row[j]
                if a:
                    t = x if a == 1 else -x if a == -1 else a * x
                    acc = t if acc is ZERO and type(t) is Fraction else acc + t
            out.append(acc)
        return tuple(out)

    def col(self, j: int) -> tuple[Rat, ...]:
        return tuple(row[j] for row in self.matrix)

    def cols(self) -> list[tuple[Rat, ...]]:
        return [self.col(j) for j in range(self.source.dim)]

    def then(self, other: "LinMap") -> "LinMap":
        """self followed by other (other ∘ self).

        >>> Q2 = VectQ.make(2)
        >>> shear = LinMap.from_rows(Q2, Q2, [[1, 1], [0, 1]])
        >>> swap = LinMap.from_rows(Q2, Q2, [[0, 1], [1, 0]])
        >>> [[int(x) for x in row] for row in shear.then(swap).matrix]
        [[0, 1], [1, 1]]
        >>> v = (Fraction(2), Fraction(5))
        >>> shear.then(swap).apply(v) == swap.apply(shear.apply(v))
        True
        """
        if other.source != self.target:
            raise DimensionError("composition mismatch")
        right = [[(j, x) for j, x in enumerate(row) if x] for row in self.matrix]
        rows = []
        for left_row in other.matrix:
            acc = [ZERO] * self.source.dim
            for k, a in enumerate(left_row):
                if a:
                    for j, x in right[k]:
                        t = x if a == 1 else -x if a == -1 else a * x
                        s = acc[j]
                        acc[j] = t if s is ZERO and type(t) is Fraction else s + t
            rows.append(tuple(acc))
        return LinMap(self.source, other.target, tuple(rows))

    def add(self, other: "LinMap") -> "LinMap":
        if (self.source, self.target) != (other.source, other.target):
            raise DimensionError("addition mismatch")
        return LinMap(self.source, self.target,
                      tuple(vec_add(r, s) for r, s in zip(self.matrix, other.matrix)))

    def sub(self, other: "LinMap") -> "LinMap":
        return self.add(other.scale(-1))

    def scale(self, c) -> "LinMap":
        """c times self: a zero entry becomes `ZERO` and a factor of 1 or -1
        keeps or negates a `Fraction` entry, so every entry has the value and
        the type that c * x gives (an `int` entry is still multiplied).

        >>> m = LinMap.from_rows(VectQ.make(2), VectQ.make(1), [[3, 0]]).scale(-1)
        >>> [str(x) for x in m.matrix[0]]
        ['-3', '0']
        """
        c = rat(c)
        sign = c == 1 or c == -1

        def times(x):
            if not x:
                return ZERO
            if sign and type(x) is Fraction:
                return x if c == 1 else -x
            return c * x
        return LinMap(self.source, self.target, tuple(tuple(map(times, r)) for r in self.matrix))

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.matrix)


def direct_sum_space(spaces: Sequence[VectQ], tags: Sequence[str] | None = None) -> VectQ:
    labels = []
    for idx, sp in enumerate(spaces):
        tag = tags[idx] if tags is not None else str(idx)
        labels.extend(f"{tag}.{l}" for l in sp.labels)
    return VectQ.labelled(labels)


def band_starts(bands: dict) -> dict:
    """The first coordinate of each band of a direct sum, the bands mapped
    in order to their dimensions.

    >>> band_starts({"a": 2, "b": 0, "c": 3})
    {'a': 0, 'b': 2, 'c': 2}
    """
    return dict(zip(bands, accumulate(bands.values(), initial=0)))


def block_map(source: VectQ, target: VectQ, rows: dict, cols: dict, blocks) -> LinMap:
    """The map between direct sums whose block at row band i and column band
    j is the sum of the maps m of the blocks (i, j, m), and zero where no
    block falls.  `rows` and `cols` map each band of target and source, in
    order, to its dimension; a band may have none.

    >>> Q1, Q2, Q3 = VectQ.make(1), VectQ.make(2), VectQ.make(3)
    >>> m = block_map(Q3, Q2, {"x": 1, "y": 1}, {"a": 2, "b": 1},
    ...               [("x", "a", LinMap.from_rows(Q2, Q1, [[1, 2]])),
    ...                ("y", "b", LinMap.scalar(Q1, 3)), ("y", "b", LinMap.scalar(Q1, -1))])
    >>> [[int(x) for x in row] for row in m.matrix]
    [[1, 2, 0], [0, 0, 2]]
    """
    if (sum(rows.values()), sum(cols.values())) != (target.dim, source.dim):
        raise DimensionError("band dimensions do not add up to the spaces")
    row_at, col_at = band_starts(rows), band_starts(cols)
    mat = [[ZERO] * source.dim for _ in range(target.dim)]
    for i, j, m in blocks:
        if (m.target.dim, m.source.dim) != (rows[i], cols[j]):
            raise DimensionError("block does not fit its bands")
        for row, block_row in zip(mat[row_at[i]:], m.matrix):
            for k, x in enumerate(block_row, col_at[j]):
                if x:
                    s = row[k]
                    row[k] = x if s is ZERO and type(x) is Fraction else s + x
    return LinMap(source, target, tuple(map(tuple, mat)))


def rref(rows: list[list[Rat]]) -> tuple[list[list[Rat]], list[int]]:
    """The dense view of `sparse_rref`: the RREF, one row per input row (the
    pivot rows, then zero rows), and the pivots; every entry is a `Fraction`.

    >>> red, pivots = rref([[0, 2, 4], [1, 1, 0]])
    >>> [[str(x) for x in row] for row in red], pivots
    ([['1', '0', '-2'], ['0', '1', '2']], [0, 1])
    """
    red = [[ZERO] * len(rows[0]) for _ in rows] if rows else []
    sparse, pivots = sparse_rref(map(_sparse, rows))
    for row, p, entries in zip(red, pivots, sparse):
        row[p] = ONE
        for j, x in entries:
            row[j] = x
    return red, pivots


def sparse_rref(rows) -> tuple[list[list[tuple[int, Rat]]], list[int]]:
    """The RREF of the matrix whose rows are the dicts {column: entry} of
    rows (a missing column is zero): for each pivot, in increasing order,
    the column-sorted [(column, entry)] list of its row's nonzero entries
    right of the pivot, and the pivots.  This is the package's one
    elimination: kernels, quotients, solves and ranks read its rows and
    pivots, and `rref` is its dense view.  Those callers hand it rows built
    by `_sparse`, so every entry they see is a `Fraction`; an `int` entry
    handed in directly may come out an `int`.

    Each row, with its zero entries dropped, is reduced by the basis rows
    found so far, one per pivot column; if anything is left, its least
    column is its pivot, the row is divided by the pivot entry (unless that
    is 1), that column is cleared from the earlier basis rows, and the row
    joins the basis.  No basis row keeps a zero entry, and the input is not
    changed.  An elimination factor of ±1 adds or subtracts a `Fraction`
    entry (`_sub_multiple`): the product would have the same value and type.

    >>> sparse_rref([{1: Fraction(2), 2: Fraction(4)}, {0: Fraction(1), 1: Fraction(1)}])
    ([[(2, Fraction(-2, 1))], [(2, Fraction(2, 1))]], [0, 1])
    """
    basis: dict[int, dict] = {}
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        for c in [c for c in row if c in basis]:
            # a basis row is zero at every other pivot column
            _sub_multiple(row, row.pop(c), basis[c])
        if not row:
            continue
        p = min(row)
        pv = row.pop(p)
        if pv != 1:
            pv = rat(pv)
            row = {j: x / pv for j, x in row.items()}
        for b in basis.values():
            f = b.pop(p, None)
            if f is not None:
                _sub_multiple(b, f, row)
        basis[p] = row
    pivots = sorted(basis)
    return [sorted(basis[p].items()) for p in pivots], pivots


def _sub_multiple(row: dict, f, other: dict):
    """row -= f * other, on sparse rows; an entry that becomes zero is deleted.

    A factor of 1 or -1 is taken as a sign where the other entry is a
    `Fraction` (the term is y or -y, not f * y), so every entry has the
    value and the type that f * y gives (an `int` entry is still multiplied).
    """
    minus = f == -1
    sign = minus or f == 1
    for j, y in other.items():
        if sign and type(y) is Fraction:
            t = -y if minus else y
        else:
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


def _sparse(row) -> dict:
    """A dense row as `sparse_rref` takes it: its nonzero entries, as `Fraction`s."""
    return {j: rat(x) for j, x in enumerate(row) if x}


def kernel_basis(m: LinMap) -> list[tuple[Rat, ...]]:
    """A canonical basis of ker(m), as vectors in the source space: the rows
    of the projection onto the quotient by m's row space."""
    return list(_quotient(m.source, m.matrix)[1].matrix)


def _quotient(amb: VectQ, vectors, prefix="q") -> tuple[VectQ, LinMap, list[int]]:
    """Quotient of amb by the span of vectors; returns (Q, projection, free),
    where the projection sends the standard basis vector at free[i] to the
    i-th basis vector of Q."""
    red, pivots = sparse_rref(map(_sparse, vectors))
    free = [j for j in range(amb.dim) if j not in pivots]
    rows = {j: [ZERO] * amb.dim for j in free}
    for p, entries in zip(pivots, red):
        for j, x in entries:
            rows[j][p] = -x
    for j in free:
        rows[j][j] = ONE
    Q = VectQ.make(len(free), prefix)
    return Q, LinMap(amb, Q, tuple(tuple(rows[j]) for j in free)), free


def row_space_basis(vectors: Iterable[Sequence[Rat]]) -> list[tuple[Rat, ...]]:
    """Canonical (rref echelon) basis of the span of the given vectors."""
    red, pivots = rref(list(vectors))
    return [tuple(row) for row in red[:len(pivots)]]


def image_basis(m: LinMap) -> list[tuple[Rat, ...]]:
    """Canonical basis of im(m), as vectors in the target space."""
    return row_space_basis(m.cols())


def rank(m: LinMap) -> int:
    return len(sparse_rref(map(_sparse, m.matrix))[1])


def solve(m: LinMap, v: Sequence[Rat]):
    """Some x with m(x) = v, or None when v is not in the image."""
    if len(v) != m.target.dim:
        raise DimensionError("right-hand side does not lie in the target space")
    n = m.source.dim
    red, pivots = sparse_rref(_sparse((*row, x)) for row, x in zip(m.matrix, v))
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for p, entries in zip(pivots, red):
        if entries and entries[-1][0] == n:
            x[p] = entries[-1][1]
    return tuple(x)


def is_iso(m: LinMap) -> bool:
    return m.source.dim == m.target.dim and rank(m) == m.source.dim


def invert(m: LinMap) -> LinMap:
    if not is_iso(m):
        raise DimensionError("map is not invertible")
    return LinMap.of(m.target, m.source, lambda v: solve(m, v))


def coords_in_span(basis: Sequence[Sequence[Rat]], v: Sequence[Rat]):
    """Coordinates of v in the given (independent) spanning set, or None."""
    if not basis:
        return () if is_zero_vec(v) else None
    dim = len(basis[0])
    space = VectQ.make(dim, "a")
    src = VectQ.make(len(basis), "c")
    m = LinMap.from_cols(src, space, [tuple(b) for b in basis])
    return solve(m, tuple(v))


def pullback(f: LinMap, g: LinMap) -> tuple[VectQ, LinMap, LinMap]:
    """Fiber product of f: A→C and g: B→C: returns (P, P→A, P→B), P the
    kernel of the map [f | -g] from A ⊕ B."""
    if f.target != g.target:
        raise DimensionError("pullback targets differ")
    A, B = f.source, g.source
    big = VectQ.make(A.dim + B.dim, "p")
    ker = kernel_basis(block_map(big, f.target, {0: f.target.dim}, {0: A.dim, 1: B.dim},
                                 [(0, 0, f), (0, 1, g.scale(-1))]))
    P = VectQ.make(len(ker), "pb")
    return (P, LinMap.from_cols(P, A, [k[:A.dim] for k in ker]),
            LinMap.from_cols(P, B, [k[A.dim:] for k in ker]))


@dataclass(frozen=True)
class FDComplex:
    """A finite cochain complex of labelled Q-vector spaces.

    `spaces` maps a degree to its space and `diffs[i]` is the differential
    from degree i to degree i+1.  Degrees not present are zero.
    """

    spaces: dict
    diffs: dict

    def degrees(self) -> list[int]:
        return sorted(self.spaces)

    def validate(self):
        for i, d in self.diffs.items():
            if d.source != self.spaces[i]:
                raise ComplexError(i, f"differential source mismatch at degree {i}")
            if i + 1 in self.spaces and d.target != self.spaces[i + 1]:
                raise ComplexError(i, f"differential target mismatch at degree {i}")
            nxt = self.diffs.get(i + 1)
            if nxt is not None and not d.then(nxt).is_zero():
                raise ComplexError(i)

    def homology_dims(self) -> dict:
        self.validate()
        out = {}
        for i in self.degrees():
            d_out = self.diffs.get(i)
            dim_ker = len(kernel_basis(d_out)) if d_out is not None else self.spaces[i].dim
            d_in = self.diffs.get(i - 1)
            dim_im = rank(d_in) if d_in is not None else 0
            out[i] = dim_ker - dim_im
        return out
