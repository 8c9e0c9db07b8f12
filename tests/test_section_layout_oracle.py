"""Section coordinates, section building and both canonicalizations against
references that walk a record's layout each their own way.

The references below are four separate recursions over a section record:
coordinates with the deviations outside the stored copies, building from
coordinates, `sec_canonical` (drop a copy entry equal to its default unless
the sheaf stores the copy) and the strict form that `canonical` applies to
germ records (drop every default-valued copy entry whose sheaf is a
presentation of the tail), together with `canonical` itself.  The public
functions must agree with them on the derandomized space expressions of
`test_space_properties`, restricted to rank <= 3 and short expressions, and
on `Cone(Cone(Cone(Finite(1))))`.

Each sheaf F is checked in three presentations: as drawn, its first
`align_pair` partner (which stores more copies) and its canonical form.  The
records are `random_section(…, deviate=2)` records and records built from
coordinates, each read in every presentation: a record of one presentation
read in another lists copies the other does not store, or misses copies it
stores, which are then read through their default.  Coordinates must raise
`ValueError` (with the same message) exactly where the reference does.  The
apex squares of the identity between two presentations are compared too,
since they append the deviations of a germ image as extra coordinates.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stonesheaf.linalg import LinMap, VectQ, ZERO  # noqa: E402
from stonesheaf.sheaf import (  # noqa: E402
    CSheaf, Section, _componentwise, _refine, _sectionwise, align_pair, apex_squares,
    apply_map, canonical, random_csheaf, random_section, sec_canonical, sec_from_coords,
    sec_space, sec_to_coords)
from stonesheaf.space import Finite, Sum, cb_rank, parse_space  # noqa: E402
from test_space_properties import spaces  # noqa: E402

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)
SMALL = spaces.filter(lambda s: cb_rank(s) <= 3 and len(str(s)) <= 48)
RANK3 = parse_space("Cone(Cone(Cone(Finite(1))))")


# -- the references: one recursion per use -----------------------------------


def ref_build(F, coords, pos):
    if isinstance(F.space, Finite):
        vals = []
        for sp in F.data:
            vals.append(tuple(coords[pos:pos + sp.dim]))
            pos += sp.dim
        return tuple(vals), pos
    if isinstance(F.space, Sum):
        left, pos = ref_build(F.data[0], coords, pos)
        right, pos = ref_build(F.data[1], coords, pos)
        return (left, right), pos
    exc = []
    for k, G in F.data[1]:
        sub, pos = ref_build(G, coords, pos)
        exc.append((k, sub))
    apexv = tuple(coords[pos:pos + F.apex.dim])
    return ("sec", tuple(exc), apexv), pos + F.apex.dim


def ref_from_coords(F, coords):
    data, pos = ref_build(F, coords, 0)
    if pos != len(coords):
        raise ValueError("coordinate length mismatch")
    return data


def ref_germ(F, apexv):
    return ref_from_coords(F.tail, F.germ.apply(tuple(apexv)))


def ref_copy_default(F, k, apexv):
    G = F.copy_sheaf(k)
    if G != F.tail and ref_canonical(G) != ref_canonical(F.tail):
        raise ValueError("section must list genuinely exceptional copies")
    return ref_germ(F, apexv)


def ref_coords(F, data, out, deviations):
    if isinstance(F.space, Finite):
        for v in data:
            out.extend(v)
        return
    if isinstance(F.space, Sum):
        ref_coords(F.data[0], data[0], out, deviations)
        ref_coords(F.data[1], data[1], out, deviations)
        return
    _, exc, apexv = data
    excd = dict(exc)
    stored = F.stored_keys()
    for k in excd:
        if k not in stored:
            _sectionwise([F.tail, F.tail], [excd[k], ref_copy_default(F, k, apexv)], [],
                         lambda a, b: deviations.extend(x - y for x, y in zip(a, b)))
    for k, G in F.data[1]:
        sub = excd.get(k)
        if sub is None:
            sub = ref_copy_default(F, k, apexv)
        ref_coords(G, sub, out, deviations)
    out.extend(apexv)


def ref_to_coords(F, data):
    out, deviations = [], []
    ref_coords(F, data, out, deviations)
    if any(deviations):
        raise ValueError("section deviates outside the stored copies")
    return tuple(out)


def ref_sec_canonical(F, data):
    if isinstance(F.space, Finite):
        return data
    if isinstance(F.space, Sum):
        return (ref_sec_canonical(F.data[0], data[0]), ref_sec_canonical(F.data[1], data[1]))
    _, exc, apexv = data
    stored = set(F.stored_keys())
    default = ref_sec_canonical(F.tail, ref_germ(F, apexv))
    cleaned = []
    for k, sub in sorted(exc):
        subs = ref_sec_canonical(F.copy_sheaf(k), sub)
        if k in stored or subs != default:
            cleaned.append((k, subs))
    return ("sec", tuple(cleaned), tuple(apexv))


def ref_strict_canonical(T, data):
    if isinstance(T.space, Finite):
        return data
    if isinstance(T.space, Sum):
        return (ref_strict_canonical(T.data[0], data[0]),
                ref_strict_canonical(T.data[1], data[1]))
    _, exc, apexv = data
    cleaned = []
    for k, sub in sorted(exc):
        G = T.copy_sheaf(k)
        subc = ref_strict_canonical(G, sub)
        if ((G != T.tail and ref_canonical(G) != ref_canonical(T.tail))
                or subc != ref_strict_canonical(G, ref_germ(T, apexv))):
            cleaned.append((k, subc))
    return ("sec", tuple(cleaned), tuple(apexv))


def ref_canonical(F):
    if isinstance(F.space, Finite):
        return F
    if isinstance(F.space, Sum):
        return CSheaf(F.space, (ref_canonical(F.data[0]), ref_canonical(F.data[1])))
    tail_c = ref_canonical(F.tail)
    germ_recs = [ref_strict_canonical(F.tail, ref_germ(F, F.apex.basis_vec(i)))
                 for i in range(F.apex.dim)]
    tail_f = _refine(tail_c, [], germ_recs)
    cols = [ref_to_coords(tail_f, rec) for rec in germ_recs]
    germ = LinMap.from_cols(F.apex, sec_space(tail_f), cols)
    exc = {}
    for k, G in F.data[1]:
        Gc = ref_canonical(G)
        if Gc != tail_c:
            exc[k] = Gc
    return CSheaf(F.space, ("cone", tuple(sorted(exc.items())), tail_f, F.apex, germ))


def ref_apex_square(F, G, tail, apex):
    cols, n_extra = [], 0
    for i in range(F.apex.dim):
        col, deviations = [], []
        image = apply_map(tail, Section(F.tail, ref_germ(F, F.apex.basis_vec(i))))
        ref_coords(G.tail, image.data, col, deviations)
        cols.append(col + deviations)
        n_extra = len(deviations)
    spread = apex.then(G.germ)
    V = VectQ.make(spread.target.dim + n_extra, "s")
    pad = ((ZERO,) * spread.source.dim,) * n_extra
    return LinMap.from_cols(F.apex, V, cols), LinMap(spread.source, V, spread.matrix + pad)


def ref_apex_squares(f):
    F = f.source
    if isinstance(F.space, Finite):
        return
    if isinstance(F.space, Sum):
        yield from ref_apex_squares(f.data[0])
        yield from ref_apex_squares(f.data[1])
        return
    yield ref_apex_square(F, f.target, f.tail_map, f.apex_map)
    for _, m in f.data[1]:
        yield from ref_apex_squares(m)
    yield from ref_apex_squares(f.tail_map)


# -- the comparison ----------------------------------------------------------


def outcome(fn, *args):
    """The value of fn(*args), or the message of the `ValueError` it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def _check(space, seed, exc_bound):
    rng = random.Random(seed)
    F, G = random_csheaf(space, rng, 2, exc_bound), random_csheaf(space, rng, 2, exc_bound)
    shows = [F, align_pair(F, G)[0], canonical(F)]
    for P in shows:
        assert canonical(P) == ref_canonical(P)
    records = []
    for P in shows:
        draws = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(sec_space(P).dim))
                 for _ in range(2)]
        for c in draws:
            built = sec_from_coords(P, c)
            assert built == Section(P, ref_from_coords(P, c))
            records.append(built.data)
        records.append(random_section(P, rng, deviate=2).data)
    errors = 0
    for data in records:
        for P in shows:
            got = outcome(lambda: sec_to_coords(P, Section(P, data)))
            assert got == outcome(ref_to_coords, P, data)
            errors += isinstance(got, tuple) and got[:1] == ("ValueError",)
            assert (outcome(lambda: sec_canonical(Section(P, data)).data)
                    == outcome(ref_sec_canonical, P, data))
    identity = lambda a, _b: LinMap.identity(a)  # noqa: E731
    for P in shows:
        for Q in shows:
            f = _componentwise(P, Q, [], identity)
            assert list(apex_squares(f)) == list(ref_apex_squares(f))
    return errors


@SETTINGS
@given(SMALL, st.integers(min_value=0, max_value=2**16), st.integers(min_value=0, max_value=2))
def test_layout_walks_match_the_references(space, seed, exc_bound):
    _check(space, seed, exc_bound)


def test_layout_walks_match_the_references_at_rank_3():
    errors = sum(_check(RANK3, seed, exc_bound) for seed in range(8) for exc_bound in (1, 2))
    assert errors > 0


def test_coordinates_raise_where_the_reference_raises():
    rng = random.Random(5)
    F = random_csheaf(RANK3, rng, 2, 2)
    raised = 0
    for _ in range(30):
        data = random_section(F, rng, deviate=2).data
        expected = outcome(ref_to_coords, F, data)
        if isinstance(expected, tuple) and expected[:1] == ("ValueError",):
            raised += 1
            with pytest.raises(ValueError, match=expected[1]):
                sec_to_coords(F, Section(F, data))
        else:
            assert sec_to_coords(F, Section(F, data)) == expected
    assert raised > 0
