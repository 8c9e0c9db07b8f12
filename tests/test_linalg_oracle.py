"""`LinMap.apply`, `LinMap.then` and the readers of the one elimination
against sympy.

sympy is a test-only oracle: the package itself has no dependencies.  The
products are checked on random rationals with about 70% zeros, like the
representation matrices of the equivariant layer, plus the empty and
all-zero shapes.  The eliminations are checked against `Matrix.rref` and
`Matrix.nullspace` on sparse ±1 matrices (the scalar adelic differential),
sparse ±1/2 matrices (group-ring leaves on the dihedral block) and dense
random rationals, plus the empty, all-zero and already-reduced shapes.

`linalg.sparse_rref` is the package's one elimination, and `solve`, `rank`,
`image_basis`, `coords_in_span` and `invert` read its pivot rows.  They are
checked on seeded matrices of `int`, `Fraction` and mixed entries, the 0×n
and n×0 shapes among them: `solve` against the product m·x for a
right-hand side in the image, and against `None` for one outside it (a
vector of the left null space from `Matrix.nullspace`); `rank` against
`Matrix.rank`; `image_basis` against the nonzero rows of `m.T.rref()`;
`coords_in_span` against the coordinates a vector was built from; `invert`
against `Matrix.inv`.  Every entry they return must be a `Fraction`.

The products are also compared, by `repr`, with a test-local copy of the
plain sum of products on the matrices of the equivariant layer: regular
representations, sums of sign characters and signed permutations, ±1
entries on both sides with sums that cancel to 0, and int-only and mixed
int/`Fraction` inputs; every output entry must be a `Fraction`.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from stonesheaf.linalg import (  # noqa: E402
    ZERO, DimensionError, LinMap, VectQ, coords_in_span, image_basis, invert, kernel_basis,
    rank, rat, rref, solve)
from stonesheaf.verify import _s3_group  # noqa: E402
from stonesheaf.weyl import (  # noqa: E402
    _random_rep, cyclic_group, direct_product, regular_rep)


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


# -- the readers of the one elimination -----------------------------------

POOLS = {
    "int": [0, 0, 0, 1, -1, 2, -3],
    "fraction": [ZERO, ZERO, ZERO, Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-5, 3)],
    "mixed": [0, ZERO, ZERO, 1, Fraction(-1), 2, Fraction(2, 3)],
}


def pool_map(rng, pool, n, m) -> LinMap:
    """An m×n matrix of entries drawn from pool, stored as drawn (`LinMap`
    does not coerce), so `int` entries reach the elimination."""
    return LinMap(VectQ.make(n, "s"), VectQ.make(m, "t"),
                  tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(m)))


def pool_maps(seed: int):
    """(pool name, pool, map): every SHAPES shape and a few drawn ones, for
    each pool."""
    rng = random.Random(700 + seed)
    for name, pool in POOLS.items():
        shapes = SHAPES + [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(6)]
        for n, m in shapes:
            yield name, pool, pool_map(rng, pool, n, m)


def left_null(m: LinMap) -> list[tuple]:
    """A basis of the vectors orthogonal to im(m), from sympy."""
    return [tuple(Fraction(int(x.p), int(x.q)) for x in w) for w in to_sympy(m).T.nullspace()]


def product(m: LinMap, x) -> tuple:
    """m·x with plain sums, for any entry types."""
    return tuple(sum((a * b for a, b in zip(row, x)), ZERO) for row in m.matrix)


@pytest.mark.parametrize("seed", range(6))
def test_solve_matches_sympy(seed):
    rng = random.Random(800 + seed)
    for _name, pool, m in pool_maps(seed):
        x = tuple(rng.choice(pool) for _ in range(m.source.dim))
        v = product(m, x)
        got = solve(m, v)
        assert got is not None and product(m, got) == v
        assert_exact(got)
        for w in left_null(m):
            # w is orthogonal to the image and nonzero, so it is not in it
            assert solve(m, w) is None
            assert solve(m, tuple(a + b for a, b in zip(v, w))) is None


@pytest.mark.parametrize("seed", range(6))
def test_rank_and_image_basis_match_sympy(seed):
    for _name, _pool, m in pool_maps(seed):
        mat = to_sympy(m)
        assert rank(m) == mat.rank()
        red, pivots = mat.T.rref()
        want = [tuple(Fraction(int(x.p), int(x.q)) for x in red.row(i))
                for i in range(len(pivots))]
        got = image_basis(m)
        assert got == want
        for v in got:
            assert_exact(v)


@pytest.mark.parametrize("seed", range(6))
def test_coords_in_span_and_invert_match_sympy(seed):
    rng = random.Random(900 + seed)
    inverted = 0
    for _name, pool, m in pool_maps(seed):
        mat = to_sympy(m)
        if mat.rank() == m.source.dim:
            # independent columns: the coordinates of m·x are x
            x = tuple(rng.choice(pool) for _ in range(m.source.dim))
            got = coords_in_span(m.cols(), product(m, x))
            assert got == x
            assert_exact(got)
        if m.source.dim != m.target.dim:
            continue
        if mat.rank() < m.source.dim:
            with pytest.raises(DimensionError):
                invert(m)
            continue
        inv = invert(m)
        assert (inv.source, inv.target) == (m.target, m.source)
        assert inv.matrix == from_sympy(mat.inv())
        for row in inv.matrix:
            assert_exact(row)
        inverted += 1
    assert inverted >= 3


def test_coords_in_span_of_an_image_basis_and_outside_it():
    rng = random.Random(950)
    for name, pool in POOLS.items():
        m = pool_map(rng, pool, 4, 5)
        basis = image_basis(m)
        x = tuple(rng.choice(pool) for _ in range(4))
        c = coords_in_span(basis, product(m, x))
        assert c is not None and len(c) == len(basis)
        assert_exact(c)
        assert tuple(sum((a * b[i] for a, b in zip(c, basis)), ZERO)
                     for i in range(5)) == product(m, x), name
        for w in left_null(m):
            assert coords_in_span(basis, w) is None
    assert coords_in_span([], (ZERO, 0)) == ()
    assert coords_in_span([], (ZERO, 1)) is None


# -- the products on representation matrices -----------------------------
#
# The equivariant layer multiplies matrices whose entries are 0 and ±1:
# sign characters, regular representations and signed permutations.  These
# cases compare `apply` and `then` with the plain sum of products over the
# nonzero entries, kept here as a test-local reference, by `repr` (so an
# int where a `Fraction` belongs shows).

def reference_apply(m: LinMap, v) -> tuple:
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    out = []
    for row in m.matrix:
        acc = ZERO
        for j, x in nonzero:
            a = row[j]
            if a:
                acc += a * x
        out.append(acc)
    return tuple(out)


def reference_then(f: LinMap, g: LinMap) -> LinMap:
    right = [[(j, x) for j, x in enumerate(row) if x] for row in f.matrix]
    rows = []
    for left_row in g.matrix:
        acc = [ZERO] * f.source.dim
        for k, a in enumerate(left_row):
            if a:
                for j, x in right[k]:
                    acc[j] += a * x
        rows.append(tuple(acc))
    return LinMap(f.source, g.target, tuple(rows))


def assert_then_matches(f: LinMap, g: LinMap):
    got = f.then(g)
    assert repr(got) == repr(reference_then(f, g))
    for row in got.matrix:
        assert_exact(row)


def assert_apply_matches(m: LinMap, v):
    got = m.apply(v)
    assert repr(got) == repr(reference_apply(m, v))
    assert_exact(got)


def signed_permutation(rng, space: VectQ, values=(Fraction(1), Fraction(-1))) -> LinMap:
    perm = list(range(space.dim))
    rng.shuffle(perm)
    return LinMap(space, space, tuple(
        tuple(rng.choice(values) if j == perm[i] else ZERO for j in range(space.dim))
        for i in range(space.dim)))


def unit_entries(rng, source: VectQ, target: VectQ, values) -> LinMap:
    """Entries drawn from `values`, about half of them zero."""
    return LinMap(source, target, tuple(
        tuple(rng.choice(values) if rng.random() < 0.5 else ZERO for _ in range(source.dim))
        for _ in range(target.dim)))


GROUPS = [cyclic_group(1), cyclic_group(2), cyclic_group(3),
          direct_product(cyclic_group(2), cyclic_group(2)), _s3_group()]


@pytest.mark.parametrize("seed", range(6))
def test_products_of_representation_matrices(seed):
    rng = random.Random(300 + seed)
    for G in GROUPS:
        reps = [regular_rep(G)] + [_random_rep(G, d, rng)[1] for d in (1, 2, G.order, G.order + 2)]
        for mats in reps:
            V = mats[0].source
            other = VectQ.make(rng.randint(0, 4), "o")
            f, g = random_map(rng, V, other), random_map(rng, other, V)
            for a in mats:
                for b in rng.sample(mats, min(3, len(mats))):
                    assert_then_matches(a, b)
                assert_then_matches(a, f)
                assert_then_matches(g, a)
                assert_apply_matches(a, tuple(random_rational(rng) for _ in range(V.dim)))
                assert_apply_matches(a, tuple(rng.choice([Fraction(1), Fraction(-1)])
                                              for _ in range(V.dim)))


@pytest.mark.parametrize("seed", range(6))
def test_products_of_signed_permutations(seed):
    rng = random.Random(400 + seed)
    for n in range(7):
        V, W = VectQ.make(n), VectQ.make(rng.randint(0, 5), "w")
        p, q = signed_permutation(rng, V), signed_permutation(rng, V)
        half = signed_permutation(rng, V, (Fraction(1, 2), Fraction(-3), Fraction(1), Fraction(-1)))
        assert_then_matches(p, q)
        assert_then_matches(p, half)
        assert_then_matches(half, p)
        assert_then_matches(p, random_map(rng, V, W))
        assert_then_matches(random_map(rng, W, V), p)
        assert_apply_matches(p, tuple(random_rational(rng) for _ in range(n)))
        assert_apply_matches(half, tuple(rng.choice([Fraction(1), Fraction(-1), ZERO])
                                         for _ in range(n)))


@pytest.mark.parametrize("seed", range(6))
def test_products_of_unit_matrices_with_cancellation(seed):
    """±1 entries on both sides; many output entries sum to 0."""
    rng = random.Random(500 + seed)
    units = [Fraction(1), Fraction(-1)]
    for _ in range(8):
        A, B, C = (VectQ.make(rng.randint(0, 6), p) for p in "abc")
        f, g = unit_entries(rng, A, B, units), unit_entries(rng, B, C, units)
        assert_then_matches(f, g)
        assert_apply_matches(f, tuple(rng.choice(units + [ZERO]) for _ in range(A.dim)))
    Q1, Q2 = VectQ.make(1), VectQ.make(2)
    diag = LinMap.from_rows(Q1, Q2, [[1], [1]])
    anti = LinMap.from_rows(Q2, Q1, [[1, -1]])
    assert diag.then(anti).matrix == ((Fraction(0),),)
    assert_then_matches(diag, anti)
    assert_apply_matches(anti, (Fraction(3, 2), Fraction(3, 2)))
    assert_apply_matches(LinMap.from_rows(Q2, Q1, [[-1, -1]]), (Fraction(1), Fraction(-1)))


def test_integer_and_mixed_entries():
    """`LinMap` does not coerce its matrix, so ints reach the products."""
    rng = random.Random(600)
    pools = [[0, 0, 1, -1, 2, -3],
             [0, 0, 1, -1, Fraction(1), Fraction(-1), Fraction(2, 3), 5]]
    for pool in pools:
        for _ in range(20):
            A, B, C = (VectQ.make(rng.randint(0, 4), p) for p in "abc")
            f = LinMap(A, B, tuple(tuple(rng.choice(pool) for _ in range(A.dim))
                                   for _ in range(B.dim)))
            g = LinMap(B, C, tuple(tuple(rng.choice(pool) for _ in range(B.dim))
                                   for _ in range(C.dim)))
            assert_then_matches(f, g)
            assert_apply_matches(f, tuple(rng.choice(pool) for _ in range(A.dim)))
    Q2 = VectQ.make(2)
    ints = LinMap(Q2, Q2, ((1, -1), (-1, 0)))
    assert_then_matches(ints, ints)
    assert_apply_matches(ints, (1, 1))
    assert_apply_matches(ints, (Fraction(-1), 1))
