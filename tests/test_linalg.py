import random
from fractions import Fraction

import pytest

from stonesheaf.linalg import (
    FDComplex, LinMap, VectQ, ComplexError, DimensionError, ZERO, block_map, kernel_basis,
    rank, solve, invert, pullback)

Q1 = VectQ.make(1)
Q2 = VectQ.make(2)
Q3 = VectQ.make(3)


def test_kernel_identity_is_trivial():
    assert kernel_basis(LinMap.identity(Q2)) == []


def test_kernel_of_zero_map_is_everything():
    ker = kernel_basis(LinMap.zero(Q3, Q2))
    assert len(ker) == 3
    # independence: coordinates of the canonical basis
    assert sorted(ker) == sorted([Q3.basis_vec(i) for i in range(3)])


def test_kernel_of_sum_row():
    m = LinMap.from_rows(Q2, Q1, [[1, 1]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    (a, b), = ker
    assert a == -b and a != 0


def test_solve_identity():
    m = LinMap.identity(Q2)
    assert solve(m, (Fraction(2), Fraction(3))) == (Fraction(2), Fraction(3))


def test_solve_zero_map():
    m = LinMap.zero(Q2, Q2)
    assert solve(m, (Fraction(0), Fraction(0))) == (Fraction(0), Fraction(0))
    assert solve(m, (Fraction(1), Fraction(0))) is None


def test_solve_underdetermined():
    m = LinMap.from_rows(Q2, Q1, [[1, 1]])
    x = solve(m, (Fraction(5),))
    assert x is not None and x[0] + x[1] == 5


def test_homology_two_term_identity():
    c = FDComplex({0: Q1, 1: Q1}, {0: LinMap.identity(Q1)})
    assert c.homology_dims() == {0: 0, 1: 0}


def test_homology_single_term():
    c = FDComplex({0: Q1}, {})
    assert c.homology_dims() == {0: 1}


def test_homology_truncated_splice_sequence():
    # the one-point-compactification sequence truncated to three
    # exceptional points: 0 -> locally constant -> product x limit -> germ -> 0
    G = VectQ.make(4, "g")     # three exceptional values and the tail value
    C0 = VectQ.make(5, "c")    # truncated product (4) plus the limit value
    C1 = VectQ.make(1, "t")    # the germ coordinate
    aug = LinMap.from_rows(G, C0, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                   [0, 0, 0, 1], [0, 0, 0, 1]])
    d0 = LinMap.from_rows(C0, C1, [[0, 0, 0, 1, -1]])
    cx = FDComplex({-1: G, 0: C0, 1: C1}, {-1: aug, 0: d0})
    assert cx.homology_dims() == {-1: 0, 0: 0, 1: 0}


def test_complex_error_reports_degree():
    bad = FDComplex({0: Q1, 1: Q1, 2: Q1},
                    {0: LinMap.identity(Q1), 1: LinMap.identity(Q1)})
    with pytest.raises(ComplexError) as err:
        bad.homology_dims()
    assert err.value.degree == 0


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        src, tgt = VectQ.make(n), VectQ.make(m)
        mat = LinMap.from_rows(src, tgt,
                               [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                                 for _ in range(n)] for _ in range(m)])
        assert len(kernel_basis(mat)) + rank(mat) == n


def test_solve_iff_in_image_random():
    rng = random.Random(13)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        src, tgt = VectQ.make(n), VectQ.make(m)
        mat = LinMap.from_rows(src, tgt, [[Fraction(rng.randint(-2, 2))
                                           for _ in range(n)] for _ in range(m)])
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        v = mat.apply(x)
        got = solve(mat, v)
        assert got is not None and mat.apply(got) == v


def test_exact_complex_has_zero_homology_random():
    rng = random.Random(17)
    for _ in range(15):
        # build an exact complex 0 -> A -> A+B -> B -> 0
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        A, B = VectQ.make(a, "a"), VectQ.make(b, "b")
        AB = VectQ.make(a + b, "m")
        incl = LinMap.from_rows(A, AB, [[1 if i == j else 0 for j in range(a)]
                                        for i in range(a)] + [[0] * a for _ in range(b)])
        proj = LinMap.from_rows(AB, B, [[0] * a + [1 if i == j else 0 for j in range(b)]
                                        for i in range(b)])
        cx = FDComplex({0: A, 1: AB, 2: B}, {0: incl, 1: proj})
        assert all(v == 0 for v in cx.homology_dims().values())


def test_pullback_of_maps():
    f = LinMap.from_rows(Q2, Q1, [[1, 0]])
    g = LinMap.from_rows(Q1, Q1, [[1]])
    P, pa, pb = pullback(f, g)
    assert P.dim == 2
    for i in range(P.dim):
        v = P.basis_vec(i)
        assert f.apply(pa.apply(v)) == g.apply(pb.apply(v))


def test_invert():
    m = LinMap.from_rows(Q2, Q2, [[1, 1], [0, 1]])
    inv = invert(m)
    assert m.then(inv) == LinMap.identity(Q2)


def test_from_cols_checks_column_length():
    with pytest.raises(DimensionError):
        LinMap.from_cols(Q1, Q1, [(1, 2)])      # too long: not truncated
    with pytest.raises(DimensionError):
        LinMap.from_cols(Q1, Q2, [(1,)])        # too short
    with pytest.raises(DimensionError):
        LinMap.from_cols(Q2, Q1, [(1,)])        # one column too few
    assert LinMap.from_cols(Q2, Q1, [(1,), (2,)]) == LinMap.from_rows(Q2, Q1, [[1, 2]])


def test_of_recovers_a_map_from_its_values_random():
    """Column i of `LinMap.of(S, T, f)` is f at the i-th basis vector, so
    probing a map's own `apply` gives the map back, 0-dimensional source
    and target included."""
    rng = random.Random(19)
    dims = [(0, 0), (0, 2), (3, 0)] + [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(40)]
    for n, m in dims:
        src, tgt = VectQ.make(n, "s"), VectQ.make(m, "t")
        mat = LinMap.from_rows(src, tgt, [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                                           for _ in range(n)] for _ in range(m)])
        assert LinMap.of(src, tgt, mat.apply) == mat


def test_of_probes_each_basis_vector_once_in_order():
    seen = []
    m = LinMap.of(Q3, Q1, lambda v: seen.append(v) or (sum(v),))
    assert seen == [Q3.basis_vec(i) for i in range(3)]
    assert m == LinMap.from_rows(Q3, Q1, [[1, 1, 1]])
    with pytest.raises(DimensionError):
        LinMap.of(Q2, Q2, lambda v: v[:1])


def _ints(m):
    return [[int(x) for x in row] for row in m.matrix]


def test_block_map_sums_blocks_on_one_band():
    f = LinMap.from_rows(Q2, Q1, [[1, -2]])
    g = LinMap.from_rows(Q2, Q1, [[3, 2]])
    m = block_map(Q3, Q2, {"y": 1, "x": 1}, {"b": 1, "a": 2},
                  [("x", "a", f), ("x", "a", g), ("y", "b", LinMap.scalar(Q1, 5))])
    assert _ints(m) == [[5, 0, 0], [0, 4, 0]]
    assert all(type(x) is Fraction for row in m.matrix for x in row)
    # the cancelled entry is a Fraction too
    assert m.matrix[1][2] == 0


def test_block_map_zero_width_band():
    Q0 = VectQ.make(0)
    bands = {0: 0, 1: 1, 2: 1}
    m = block_map(Q2, Q2, bands, bands, [(0, 0, LinMap.identity(Q0)), (1, 2, LinMap.scalar(Q1, 2)),
                                         (2, 1, LinMap.scalar(Q1, -1))])
    assert _ints(m) == [[0, 2], [-1, 0]]


def test_block_map_zero_row_target():
    Q0 = VectQ.make(0)
    m = block_map(Q3, Q0, {"r": 0}, {"a": 1, "b": 2}, [("r", "b", LinMap.zero(Q2, Q0))])
    assert m == LinMap.zero(Q3, Q0)
    assert kernel_basis(m) == [Q3.basis_vec(i) for i in range(3)]


def test_block_map_checks_the_bands():
    with pytest.raises(DimensionError):
        block_map(Q3, Q2, {0: 1}, {0: 3}, [])
    with pytest.raises(DimensionError):
        block_map(Q3, Q2, {0: 2}, {0: 1, 1: 2}, [(0, 1, LinMap.zero(Q1, Q2))])
    assert block_map(Q2, Q1, {0: 1}, {0: 2}, []).matrix == ((ZERO, ZERO),)
