"""`LinMap.apply`, `LinMap.then`, `rref` and `kernel_basis` against sympy.

sympy is a test-only oracle: the package itself has no dependencies.  The
products are checked on random rationals with about 70% zeros, like the
representation matrices of the equivariant layer, plus the empty and
all-zero shapes.  The eliminations are checked against `Matrix.rref` and
`Matrix.nullspace` on sparse ±1 matrices (the scalar adelic differential),
sparse ±1/2 matrices (group-ring leaves on the dihedral block) and dense
random rationals, plus the empty, all-zero and already-reduced shapes.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from stonesheaf.linalg import (  # noqa: E402
    DimensionError, LinMap, VectQ, kernel_basis, rat, rref)


def random_rational(rng: random.Random) -> Fraction:
    if rng.random() < 0.7:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))


def random_map(rng, source: VectQ, target: VectQ) -> LinMap:
    return LinMap.from_rows(source, target,
                            [[random_rational(rng) for _ in range(source.dim)]
                             for _ in range(target.dim)])


def to_sympy(m: LinMap):
    return sympy.Matrix(m.target.dim, m.source.dim,
                        lambda i, j: sympy.Rational(m.matrix[i][j].numerator,
                                                    m.matrix[i][j].denominator))


def from_sympy(mat) -> tuple:
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in mat.row(i))
                 for i in range(mat.rows))


def assert_exact(values):
    assert all(type(x) is Fraction for x in values)


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7)]


@pytest.mark.parametrize("seed", range(12))
def test_then_matches_sympy(seed):
    rng = random.Random(seed)
    shapes = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(6)]
    for a, b, c in shapes + [(0, 4, 3), (3, 0, 4), (4, 3, 0)]:
        A, B, C = VectQ.make(a, "a"), VectQ.make(b, "b"), VectQ.make(c, "c")
        f, g = random_map(rng, A, B), random_map(rng, B, C)
        gf = f.then(g)
        assert (gf.source, gf.target) == (A, C)
        assert gf.matrix == from_sympy(to_sympy(g) * to_sympy(f))
        for row in gf.matrix:
            assert_exact(row)


@pytest.mark.parametrize("seed", range(12))
def test_apply_matches_sympy(seed):
    rng = random.Random(100 + seed)
    for n, m in SHAPES:
        S, T = VectQ.make(n, "s"), VectQ.make(m, "t")
        f = random_map(rng, S, T)
        v = tuple(random_rational(rng) for _ in range(n))
        col = sympy.Matrix(n, 1, lambda i, _j: sympy.Rational(v[i].numerator,
                                                              v[i].denominator))
        out = f.apply(v)
        assert out == tuple(row[0] for row in from_sympy(to_sympy(f) * col))
        assert_exact(out)


def test_all_zero_products():
    S, T, U = VectQ.make(3), VectQ.make(4, "t"), VectQ.make(2, "u")
    z = LinMap.zero(S, T)
    assert z.apply((Fraction(1), Fraction(-2), Fraction(3))) == (Fraction(0),) * 4
    assert z.then(LinMap.zero(T, U)).is_zero()
    assert LinMap.identity(S).then(z) == z
    rng = random.Random(7)
    assert z.then(random_map(rng, T, U)) == LinMap.zero(S, U)
    assert random_map(rng, U, S).then(z) == LinMap.zero(U, T)
    assert_exact(LinMap.zero(S, T).apply((Fraction(0),) * 3))


def test_integer_entries_come_out_as_fractions():
    Q2 = VectQ.make(2)
    m = LinMap(Q2, Q2, ((1, 0), (2, 3)))
    assert_exact(m.apply((1, 1)))
    for row in m.then(m).matrix:
        assert_exact(row)


def test_integer_entries_eliminate_exactly():
    Q2 = VectQ.make(2)
    basis = kernel_basis(LinMap(Q2, Q2, ((2, 4), (1, 2))))
    red, pivots = rref([[2, 1]])
    assert basis == [(Fraction(-2), Fraction(1))]
    assert red == [[Fraction(1), Fraction(1, 2)]] and pivots == [0]
    for row in basis + red:
        assert not any(isinstance(x, float) for x in row)


def test_rat_passes_fractions_through_and_coerces_the_rest():
    f = Fraction(-3, 7)
    assert rat(f) is f
    for x, want in [(5, Fraction(5)), ("2/3", Fraction(2, 3)), ("-4", Fraction(-4)),
                    (True, Fraction(1)), (False, Fraction(0))]:
        got = rat(x)
        assert type(got) is Fraction and got == want
    assert_exact(LinMap.from_cols(VectQ.make(2), VectQ.make(1), [[f], ["1/2"]]).matrix[0])


def test_vectq_make_interns():
    for d, p in [(0, "e"), (1, "e"), (3, "s"), (4, "lim")]:
        assert VectQ.make(d, p) is VectQ.make(d, p)
        assert VectQ.make(d, p) == VectQ(d, tuple(f"{p}{i}" for i in range(d)))
    assert VectQ.make(2, "s") != VectQ.make(2)
    for _ in range(2):
        with pytest.raises(DimensionError):
            VectQ.make(-1)


def test_mismatched_shapes_raise():
    Q2, Q3 = VectQ.make(2), VectQ.make(3)
    with pytest.raises(DimensionError):
        LinMap.identity(Q2).then(LinMap.identity(Q3))
    with pytest.raises(DimensionError):
        LinMap.identity(Q2).apply((Fraction(1),) * 3)


def sparse_entries(rng, values, n_rows, n_cols) -> list[list[Fraction]]:
    return [[rng.choice(values) if rng.random() < 0.2 else Fraction(0) for _ in range(n_cols)]
            for _ in range(n_rows)]


def dense_entries(rng, n_rows, n_cols) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n_cols)]
            for _ in range(n_rows)]


def elimination_inputs(seed: int) -> list[list[list[Fraction]]]:
    rng = random.Random(200 + seed)
    out = []
    for _ in range(4):
        n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 14)
        out.append(sparse_entries(rng, [Fraction(1), Fraction(-1)], n_rows, n_cols))
        out.append(sparse_entries(rng, [Fraction(1, 2), Fraction(-1, 2)], n_rows, n_cols))
        out.append(dense_entries(rng, rng.randint(1, 6), rng.randint(1, 7)))
    return out


EDGE_INPUTS = [
    [],                                                     # 0 x 0
    [[Fraction(0)] * 0 for _ in range(3)],                  # 3 x 0
    [[Fraction(0)] * 4 for _ in range(3)],                  # all zero
    [[Fraction(x) for x in row] for row in                  # already reduced
     [[1, 2, 0, Fraction(-1, 3)], [0, 0, 1, 5], [0, 0, 0, 0]]],
    [[Fraction(x) for x in row] for row in [[0, 3, 6], [0, 1, 2]]],
]


def sympy_rows(rows, n_cols):
    return sympy.Matrix(len(rows), n_cols,
                        lambda i, j: sympy.Rational(rows[i][j].numerator, rows[i][j].denominator))


@pytest.mark.parametrize("seed", range(8))
def test_rref_and_kernel_basis_match_sympy(seed):
    inputs = elimination_inputs(seed) + EDGE_INPUTS
    for rows in inputs:
        n_cols = len(rows[0]) if rows else 0
        mat = sympy_rows(rows, n_cols)
        red, pivots = rref(rows)
        want_red, want_pivots = mat.rref()
        assert pivots == list(want_pivots)
        assert tuple(map(tuple, red)) == from_sympy(want_red)
        for row in red:
            assert_exact(row)
        m = LinMap(VectQ.make(n_cols, "s"), VectQ.make(len(rows), "t"), tuple(map(tuple, rows)))
        basis = kernel_basis(m)
        assert basis == [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in mat.nullspace()]
        for v in basis:
            assert_exact(v)


def test_rref_of_zero_rows_and_columns():
    assert rref([]) == ([], [])
    for n in range(4):
        m = LinMap.zero(VectQ.make(n, "s"), VectQ.make(0, "t"))
        assert kernel_basis(m) == [VectQ.make(n).basis_vec(i) for i in range(n)]
    assert kernel_basis(LinMap.zero(VectQ.make(0, "s"), VectQ.make(3, "t"))) == []
