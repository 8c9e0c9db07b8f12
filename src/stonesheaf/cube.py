"""The cube of ring sheaves and the open-stratum pushforward calculus.

For each height flag there is a sheaf of rings supported on the points of
height at least the flag's top, with one-dimensional stalks there and germ
maps spreading a value uniformly.  Taking constructible global sections of
these sheaves recovers exactly the splicing rings, flag by flag, and the
stalkwise complexes of the cube are exact with an explicit degeneracy
pattern: the stalk at a point of height a vanishes unless the flag starts
at or below a, and adding any unused height at or below a changes nothing.

`sheaf_cube` builds each ring sheaf once per cube, and each unit map of the
cube is read off the two ring sheaves already built at its ends by
`sheaf._componentwise`: the identity where their stalks agree, zero where
the target's stalk vanishes.  The stalkwise
check reads its complex off one cube per space, kept in a bounded memo of
the most recently used spaces (`sheaf_cube` itself returns a fresh cube),
each differential a `linalg.block_map` with one band per flag.

`restrict_open`/`pushforward_open` give the underlying adjoint calculus for
the opens formed by the points of height at most a fixed level: restriction
drops the higher strata, the pushforward re-attaches apex stalks as the
finite-data sections of the tail family (the tail-constant truncation of
the germ colimit).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

from .linalg import LinMap, VectQ, FDComplex, ZERO, ONE, block_map, direct_sum_space
from .space import (
    Finite, SpaceExpr, Sum, cb_rank, Point, height)
from .adelic import (
    CFun, Flag, RATIONAL, _canon, _is_zero_ring, check_flag, insert_height, flags_of_size,
    all_flags)
from .sheaf import (
    CSheaf, GermSquareError, Section, check_sheaf_map, constant, constant_section,
    make_cone_sheaf, make_sum_sheaf, sec_space, sec_dim, zero_sheaf, stalk, stalk_map,
    sec_canonical, _componentwise, _sectionwise, _tensor_vec)


# ---------------------------------------------------------------------------
# the ring sheaves


def ring_sheaf(space: SpaceExpr, flag: Flag) -> CSheaf:
    """The sheaf of rings attached to a height flag (constructible model)."""
    check_flag(space, flag)
    return _ring_sheaf(space, flag)


def _ring_sheaf(space, flag):
    if _is_zero_ring(space, flag):
        return zero_sheaf(space)
    if isinstance(space, Finite):
        return constant(space, 1)
    if isinstance(space, Sum):
        return make_sum_sheaf(space, _ring_sheaf(space.left, flag),
                              _ring_sheaf(space.right, flag))
    r = cb_rank(space)
    Q = VectQ.make(1)
    if flag and flag[0] == r:
        tail = zero_sheaf(space.base)
        return make_cone_sheaf(space, {}, tail, Q, LinMap.zero(Q, sec_space(tail)))
    tail = _ring_sheaf(space.base, flag)
    # the germ spreads 1 to the unit section of the tail, all of whose
    # finite-data coordinates are 1 (a ring sheaf stores no copies)
    S = sec_space(tail)
    return make_cone_sheaf(space, {}, tail, Q, LinMap.from_cols(Q, S, [(ONE,) * S.dim]))


def _ring_cube_map(F, G):
    """The unit map from the built ring sheaf F of a flag to the built ring
    sheaf G of that flag with one height inserted, checked against its apex
    squares."""
    f = _componentwise(F, G, [], lambda a, b: LinMap.identity(a) if a == b else LinMap.zero(a, b))
    if not check_sheaf_map(f):
        raise GermSquareError("apex square does not commute")
    return f


def sheaf_cube(space: SpaceExpr) -> dict:
    """All ring sheaves indexed by flags, the empty flag's being the constant
    sheaf; `edges` maps (flag, b) to the unit sheaf map.  Each sheaf is built
    once, and the edges walk the built sheaves."""
    r = cb_rank(space)
    flags = [()] + all_flags(r)
    sheaves = {A: _ring_sheaf(space, A) for A in flags}
    edges = {(A, b): _ring_cube_map(sheaves[A], sheaves[insert_height(A, b)])
             for A in flags for b in range(r + 1) if b not in A}
    return {"sheaves": sheaves, "edges": edges}


_CUBE_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_CUBE_MEMO_SIZE)
def _shared_cube(space):
    """`sheaf_cube(space)` for the most recently used spaces, built once and
    shared by the stalk checks, behind read-only views."""
    return MappingProxyType({k: MappingProxyType(v) for k, v in sheaf_cube(space).items()})


# ---------------------------------------------------------------------------
# sections of the ring sheaves versus the splicing rings


def section_to_cfun(space: SpaceExpr, flag: Flag, s: Section) -> CFun:
    """The canonical ring isomorphism from constructible sections of the
    flag's ring sheaf onto the constructible splicing ring."""
    return CFun(space, flag, _stc(space, flag, s.data))


def _stc(space, flag, data):
    if _is_zero_ring(space, flag):
        return None
    if isinstance(space, Finite):
        return tuple(v[0] for v in data)
    if isinstance(space, Sum):
        return (_stc(space.left, flag, data[0]), _stc(space.right, flag, data[1]))
    r = cb_rank(space)
    _, exc, apexv = data
    if flag and flag[0] == r:
        return apexv[0]
    tail_scalar = apexv[0] if apexv else ZERO
    exc_out = {}
    for k, sub in exc:
        exc_out[k] = _stc(space.base, flag, sub)
    return _canon(RATIONAL, space, flag, None, ("cone", exc_out, tail_scalar))


def cfun_to_section(f: CFun) -> Section:
    F = _ring_sheaf(f.space, f.flag)
    return sec_canonical(Section(F, _cts(f.space, f.flag, f.data)))


def _cts(space, flag, data):
    if _is_zero_ring(space, flag):
        return constant_section(zero_sheaf(space), ()).data
    if isinstance(space, Finite):
        return tuple((v,) for v in data)
    if isinstance(space, Sum):
        return (_cts(space.left, flag, data[0]), _cts(space.right, flag, data[1]))
    r = cb_rank(space)
    if flag and flag[0] == r:
        return ("sec", (), (data,))
    _, exc, tail = data
    out = tuple(sorted((k, _cts(space.base, flag, v)) for k, v in exc.items()))
    return ("sec", out, (tail,))


# ---------------------------------------------------------------------------
# open-stratum restriction and pushforward


@dataclass(frozen=True)
class OpenSheaf:
    """A sheaf on the open subspace of points of height at most `level`."""

    space: SpaceExpr
    level: int
    data: object  # ("whole", CSheaf) | (left, right) | ("cone", exc tuple, tail)


def restrict_open(F: CSheaf, level: int) -> OpenSheaf:
    """Restriction to the open union of strata of height <= level."""
    if level < 0:
        raise ValueError("level must be a height")
    space = F.space
    if cb_rank(space) <= level:
        return OpenSheaf(space, level, ("whole", F))
    if isinstance(space, Sum):
        return OpenSheaf(space, level, (restrict_open(F.data[0], level),
                                        restrict_open(F.data[1], level)))
    exc = tuple((k, restrict_open(G, level)) for k, G in F.data[1])
    return OpenSheaf(space, level, ("cone", exc, restrict_open(F.tail, level)))


def pushforward_open(O: OpenSheaf) -> CSheaf:
    """Re-attach the higher strata: each new apex stalk is the space of
    finite-data sections of the pushed tail family (tail-constant germs),
    with the identity as germ map."""
    space = O.space
    if O.data[0] == "whole":
        return O.data[1]
    if isinstance(space, Sum):
        return make_sum_sheaf(space, pushforward_open(O.data[0]),
                              pushforward_open(O.data[1]))
    _, exc, tail = O.data
    pushed_tail = pushforward_open(tail)
    pushed_exc = {k: pushforward_open(G) for k, G in exc}
    apex = VectQ.make(sec_dim(pushed_tail), "g")
    germ = LinMap.from_cols(apex, sec_space(pushed_tail),
                            [sec_space(pushed_tail).basis_vec(i) for i in range(apex.dim)])
    return make_cone_sheaf(space, pushed_exc, pushed_tail, apex, germ)


# ---------------------------------------------------------------------------
# stalkwise acyclicity of the cube


def _cube_stalk_complex(space, cube, x):
    """The augmented complex of the stalks at x of the cube's ring sheaves:
    degree i sums the stalks of the flags of size i + 1, and the face of a
    flag B that drops B[k] enters with sign (-1)^k."""
    r = cb_rank(space)
    sheaves, edges = cube["sheaves"], cube["edges"]
    stalks = {A: stalk(sheaves[A], x) for A in sheaves}
    bands = {i: {A: stalks[A].dim for A in flags_of_size(r, i + 1)} for i in range(-1, r + 1)}
    spaces = {i: direct_sum_space([stalks[A] for A in band], [str(A) for A in band])
              for i, band in bands.items()}
    diffs = {}
    for i in range(-1, r):
        faces = []
        for B in bands[i + 1]:
            for k, b in enumerate(B):
                A = B[:k] + B[k + 1:]
                m = stalk_map(edges[(A, b)], x)
                faces.append((B, A, m.scale(-1) if k % 2 else m))
        diffs[i] = block_map(spaces[i], spaces[i + 1], bands[i + 1], bands[i], faces)
    return FDComplex(spaces, diffs)


def stalkwise_cube_check(space: SpaceExpr, x: Point) -> dict:
    """Stalk dimensions of every cube sheaf at x, the degeneracy pattern,
    and exactness of the augmented stalk complex.  The cube comes from a
    bounded memo keyed on the space, so checks at many points of one space
    build it once."""
    h = height(space, x)
    report = {"point": str(x), "height": h, "stalk_dims": {}, "degeneracy_ok": True}
    cube = _shared_cube(space)
    for A, F in cube["sheaves"].items():
        d = stalk(F, x).dim
        report["stalk_dims"][A] = d
        expected = 1 if (not A or A[0] <= h) else 0
        if d != expected:
            report["degeneracy_ok"] = False
    hd = _cube_stalk_complex(space, cube, x).homology_dims()
    report["homology"] = hd
    report["exact"] = all(v == 0 for v in hd.values())
    return report


def ring_section_mul(space: SpaceExpr, flag: Flag, s: Section, t: Section) -> Section:
    """Pointwise product of sections of a ring sheaf (stalks are at most one
    dimensional, so their tensor product is the coordinatewise product)."""
    F = _ring_sheaf(space, flag)
    return sec_canonical(Section(F, _sectionwise([F, F], [s.data, t.data], [], _tensor_vec)))
