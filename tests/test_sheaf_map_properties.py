"""Every builder of sheaf maps against a stalkwise oracle.

At every probe point (each stored stalk plus one generic copy per cone
level), `zero_map`, `identity_map`, `compose` and `random_hom` must have the
stalk maps that linear algebra predicts: zero, the identity, the composite
of the two stalk maps, and the combination of the Hom-basis stalk maps with
the coefficients `random_hom` draws, in the order it draws them.  Every
output must also pass `check_sheaf_map`, since the builders assemble their
cones without checking the apex squares; and `check_sheaf_map` must see a
failed square wherever it sits.
"""

import random
from fractions import Fraction

from stonesheaf.homalg import counit_map, hom_basis, random_hom
from stonesheaf.linalg import LinMap, VectQ
from stonesheaf.sheaf import (
    _probe_points, align_pair, check_sheaf_map, compose, constant, direct_sum,
    identity_map, make_cone_map, make_cone_sheaf, make_sum_map, make_sum_sheaf,
    random_csheaf, sec_space, stalk, stalk_map, zero_map)
from stonesheaf.space import Cone, Finite, Sum, parse_space

RANK1 = ["Finite(3)", "Cone(Finite(1))", "Cone(Finite(2))", "Sum(Cone(Finite(1)),Finite(2))"]
RANK2 = ["Cone(Cone(Finite(1)))", "Cone(Sum(Finite(2),Cone(Finite(1))))"]
PAIRS = 6


def _check_stalkwise(space, F, G, z, one, composites):
    maps = [z, one] + [m for triple in composites for m in triple]
    for m in maps:
        assert check_sheaf_map(m)
    for x in _probe_points(space, [F, G] + maps):
        assert stalk_map(z, x) == LinMap.zero(stalk(F, x), stalk(G, x))
        assert stalk_map(one, x) == LinMap.identity(stalk(F, x))
        for f, g, fg in composites:
            assert stalk_map(fg, x) == stalk_map(f, x).then(stalk_map(g, x))


def test_rank1_builders_match_stalkwise_oracle():
    for n, expr in enumerate(RANK1):
        space = parse_space(expr)
        rng = random.Random(60 + n)
        for _ in range(PAIRS):
            F, G = align_pair(random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1))
            basis = hom_basis(F, G)
            draws = random.Random()
            draws.setstate(rng.getstate())
            coeffs = [Fraction(draws.randint(-3, 3)) for _ in basis]
            f = random_hom(F, G, rng)
            g = random_hom(G, F, rng)
            assert check_sheaf_map(f) and check_sheaf_map(g)
            _check_stalkwise(space, F, G, zero_map(F, G), identity_map(F),
                             [(f, g, compose(f, g)), (g, f, compose(g, f))])
            for x in _probe_points(space, [F, G, f] + basis):
                want = LinMap.zero(stalk(F, x), stalk(G, x))
                for c, b in zip(coeffs, basis, strict=True):
                    want = want.add(stalk_map(b, x).scale(c))
                assert stalk_map(f, x) == want


def test_rank2_builders_match_stalkwise_oracle():
    for n, expr in enumerate(RANK2):
        space = parse_space(expr)
        rng = random.Random(70 + n)
        for _ in range(PAIRS):
            F, G = random_csheaf(space, rng, 2, 1), random_csheaf(space, rng, 2, 1)
            _S, iF, iG, pF, pG = direct_sum(F, G)
            assert check_sheaf_map(counit_map(F))
            _check_stalkwise(space, F, G, zero_map(F, G), identity_map(F),
                             [(iF, pF, compose(iF, pF)), (iF, pG, compose(iF, pG)),
                              (pG, iG, compose(pG, iG))])


def test_check_sheaf_map_sees_every_failed_square():
    X1 = Cone(Finite(1))
    const = constant(X1, 1)
    one = identity_map(const)
    bad = make_cone_map(const, const, {}, one.tail_map, LinMap.zero(const.apex, const.apex),
                        check=False)
    assert check_sheaf_map(one) and not check_sheaf_map(bad)
    # in the left part of a sum
    F = make_sum_sheaf(Sum(X1, Finite(1)), const, constant(Finite(1), 1))
    assert not check_sheaf_map(make_sum_map(F, F, bad, identity_map(F.data[1])))
    # in a stored copy and in the tail, below a cone whose own square holds
    apex = VectQ.make(0)
    G = make_cone_sheaf(Cone(X1), {0: const}, const, apex, LinMap.zero(apex, sec_space(const)))
    assert check_sheaf_map(identity_map(G))
    for copy, tail in [(bad, one), (one, bad)]:
        f = make_cone_map(G, G, {0: copy}, tail, LinMap.identity(apex), check=False)
        assert not check_sheaf_map(f)
    # an apex map from a relabelled stalk: False, not an exception
    relabelled = LinMap.from_rows(VectQ.make(1, "z"), const.apex, [[1]])
    odd = make_cone_map(const, const, {}, one.tail_map, relabelled, check=False)
    assert check_sheaf_map(odd) is False
