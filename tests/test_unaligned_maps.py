"""Sheaf maps between sheaves that store different copies.

A map lists every copy that its source or target stores, but a section of
the source lists only the copies the source stores.  The image of a section
must therefore be read at the copies that only the map lists, through the
germ of the section's apex value.  Checked here:

* the zero map between the seeded unaligned pairs of `random_csheaf` over
  two rank-2 spaces passes `check_sheaf_map` (a zero map's squares always
  commute), including the second pair of `random.Random(71)`;
* `sec_functor` of a map from a constant sheaf into one that stores a tail
  copy, with the identity on that copy and zero on the tail, sends the
  apex generator to 1 at the stored copy;
* the identity from a sheaf whose tail stores a copy equal to the tail onto
  its canonical form passes `check_sheaf_map`, though the sections of its
  tail map do not exist on finite-data sections;
* for every basis section and some deviating sections s of the source, and
  every `_probe_points` point x, `sec_eval(G, apply_map(f, s), x)` equals
  `stalk_map(f, x)` applied to `sec_eval(F, s, x)`, for zero maps, counits,
  composites through a canonical direct sum, and the identity of a direct
  sum onto its canonical form, on unaligned pairs; each of these maps
  passes `check_sheaf_map`, which maps only the germ's image through the
  tail map (the identity onto the canonical form sends some finite-data
  sections of the tail outside the finite-data sections of the target's
  tail);
* every map that `hom_basis`, `random_hom`, `direct_sum`, `kernel`,
  `cokernel`, `is_split` and the representatives of `ext1` return on
  seeded unaligned pairs goes between the sheaves passed in (not their
  conformed copies), and passes `check_sheaf_map`;
* a map whose germ image deviates at a copy that the target's tail does
  not store fails its apex square: `check_sheaf_map` returns False and
  `make_cone_map` raises `GermSquareError`, instead of either raising
  `ValueError`.
"""

import random

import pytest

from stonesheaf.homalg import (
    _germ_residual, counit_map, ext1, hom_basis, is_split, random_hom, split_ses)
from stonesheaf.linalg import LinMap, VectQ
from stonesheaf.sheaf import (
    GermSquareError, _componentwise, _probe_points, align_pair, apply_map, canonical,
    check_sheaf_map, cokernel, compose, constant, direct_sum, identity_map, kernel, make_cone_map,
    make_cone_sheaf, random_csheaf, random_section, sec_eval, sec_from_coords, sec_functor,
    sec_space, stalk_map, zero_map)
from stonesheaf.space import Cone, Finite, cb_rank, parse_space

RANK2 = ["Cone(Sum(Finite(2),Cone(Finite(1))))", "Cone(Cone(Finite(1)))"]
SPACES = ["Cone(Finite(2))", "Sum(Cone(Finite(1)),Finite(2))"] + RANK2


def _pair(space, rng):
    return random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1)


def test_zero_maps_between_unaligned_pairs_pass_the_square_check():
    unaligned = 0
    for expr in RANK2:
        space = parse_space(expr)
        for seed in range(60):
            F, G = _pair(space, random.Random(seed))
            unaligned += align_pair(F, G) != (F, G)
            assert check_sheaf_map(zero_map(F, G))
    assert unaligned > 0


def test_second_pair_of_seed_71():
    rng = random.Random(71)
    space = parse_space("Cone(Sum(Finite(2),Cone(Finite(1))))")
    _pair(space, rng)
    F, G = _pair(space, rng)
    assert align_pair(F, G) != (F, G)
    assert check_sheaf_map(zero_map(F, G))


def test_image_is_read_at_a_copy_only_the_target_stores():
    X1 = Cone(Finite(1))
    F = constant(X1, 1)
    T = constant(Finite(1), 1)
    apex = VectQ.make(0)
    G = make_cone_sheaf(X1, {0: T}, T, apex, LinMap.zero(apex, sec_space(T)))
    f = make_cone_map(F, G, {0: identity_map(T)}, zero_map(T, T), LinMap.zero(F.apex, apex))
    assert check_sheaf_map(f)
    assert sec_functor(f).matrix == ((1,),)


def test_identity_onto_the_canonical_form_passes_the_square_check():
    X1 = Cone(Finite(1))
    base = constant(Finite(1), 1)
    Q = VectQ.make(1)
    spread = LinMap.from_cols(Q, sec_space(base), [(1,)])
    T0 = make_cone_sheaf(X1, {0: base}, base, Q, spread)  # copy 0 stored, equal to the tail
    F = make_cone_sheaf(Cone(X1), {}, T0, Q, LinMap.from_cols(Q, sec_space(T0), [(1, 1)]))
    C = canonical(F)
    assert C.tail.stored_keys() == ()
    f = _componentwise(F, C, [], lambda a, _b: LinMap.identity(a))
    assert check_sheaf_map(f)
    with pytest.raises(ValueError, match="deviates outside the stored copies"):
        sec_functor(f.tail_map)


def test_a_deviation_outside_the_targets_copies_fails_the_square():
    X1 = Cone(Finite(1))
    X = Cone(X1)
    base = constant(Finite(1), 1)
    Q = VectQ.make(1)
    T0 = make_cone_sheaf(X1, {0: base}, base, Q, LinMap.from_cols(Q, sec_space(base), [(1,)]))
    F = make_cone_sheaf(X, {}, T0, Q, LinMap.from_cols(Q, sec_space(T0), [(5, 1)]))
    C = constant(X, 1)
    identity = lambda a, _b: LinMap.identity(a)  # noqa: E731
    f = _componentwise(F, C, [], identity)
    assert not check_sheaf_map(f)
    assert any(_germ_residual(f))
    with pytest.raises(GermSquareError):
        make_cone_map(F, C, {}, _componentwise(T0, C.tail, [], identity), LinMap.identity(Q))


def _maps(F, G):
    """Valid maps between unaligned sheaves: zero, the counits (from the
    canonical form, which stores fewer copies), the projections of a direct
    sum precomposed with its counit, and the identity of the direct sum onto
    its canonical form."""
    S, _iF, _iG, pF, pG = direct_sum(F, G)
    cS = counit_map(S)
    onto = _componentwise(S, canonical(S), [], lambda a, _b: LinMap.identity(a))
    return [zero_map(F, G), zero_map(G, F), counit_map(F), counit_map(G),
            compose(cS, pF), compose(cS, pG), onto]


def test_images_match_stalk_maps_pointwise():
    for n, expr in enumerate(SPACES):
        space = parse_space(expr)
        rng = random.Random(200 + n)
        for _ in range(8):
            F, G = _pair(space, rng)
            for f in _maps(F, G):
                A = f.source
                assert check_sheaf_map(f)
                S = sec_space(A)
                basis = [sec_from_coords(A, S.basis_vec(i)) for i in range(S.dim)]
                sections = basis + [random_section(A, rng, 2) for _ in range(2)]
                for x in _probe_points(space, [F, G, f]):
                    m = stalk_map(f, x)
                    for s in sections:
                        assert sec_eval(f.target, apply_map(f, s), x) == \
                            m.apply(sec_eval(A, s, x))


def _returned_maps(F, G, rng):
    """(map, source, target) for every map the operations return on F, G."""
    S, iF, iG, pF, pG = direct_sum(F, G)
    out = [(iF, F, S), (iG, G, S), (pF, S, F), (pG, S, G)]
    homs = [iF, iG, pF, pG, zero_map(F, G)]
    if cb_rank(F.space) <= 1:
        f = random_hom(F, G, rng)
        out += [(h, F, G) for h in hom_basis(F, G)] + [(f, F, G)]
        homs.append(f)
        s = split_ses(F, G)
        split, r = is_split(s)
        assert split
        out.append((r, F, s.mid))
        for e in ext1(F, G)[1]:
            out += [(e.incl, G, e.mid), (e.proj, e.mid, F)]
    for h in homs:
        K, incl = kernel(h)
        Q, proj = cokernel(h)
        out += [(incl, K, h.source), (proj, h.target, Q)]
    return out


def test_operations_return_maps_between_the_given_sheaves():
    unaligned = 0
    for n, expr in enumerate(SPACES):
        space = parse_space(expr)
        rng = random.Random(400 + n)
        for _ in range(6):
            F, G = _pair(space, rng)
            unaligned += align_pair(F, G) != (F, G)
            for f, source, target in _returned_maps(F, G, rng):
                assert f.source == source and f.target == target
                assert check_sheaf_map(f)
    assert unaligned > 0
