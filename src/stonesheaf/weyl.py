"""Component structures, equivariant sheaves, and group-ring machinery.

A component structure assigns a finite group to each point, tail-uniformly:
one group per cone level beyond finitely many exceptional copies, with a
structure homomorphism from each level's group up to the enclosing apex
group.  The attached sheaf of group rings has the group ring as stalk and
germ components that restrict coefficients to the image of the structure
homomorphism and then average over its kernel; with that normalization the
components are multiplicative, compose along levels (required for the cube
differentials to square to zero, and checked at build time), and the
generator construction extends stalk elements consistently.

The equivariant splicing rings keep the cube combinatorics of the scalar
case with group-ring leaves: they run the recursions of `adelic` (normal
forms, ring operations, cube maps, exactness witnesses, cocycle sampling)
with `GroupRingLeaves`, which follows the component structure into
summands and copies and spreads a leaf down a level through the germ
component `germ_component(hom_between(...))`.  `EqAdelicComplex` is the
complex of `adelic` with these leaves; only its component structure and
the augmentation of group-ring sections (`GroupRingLeaves.augment`) are
its own.  With trivial groups everything collapses bitwise onto the
scalar complex.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import LinMap, VectQ, ZERO, ONE, rat, rank as map_rank
from .space import (Cone, Finite, SpaceExpr, Sum, cb_rank, Point, apex_point,
                    copy_point, fin_point, validate_point)
from .adelic import (
    AdelicComplex, CFun, Flag, _dmap_data, _map_leaves, _sample_cocycle, _zip_data,
    check_flag, const_data, insert_height)
from .sheaf import (
    CSheaf, Section, SheafMap, germ_section, make_cone_map, make_cone_sheaf,
    make_fin_map, make_fin_sheaf, make_sum_map, make_sum_sheaf,
    sec_from_coords, sec_space, sec_to_coords, stalk, stalk_map, zero_map)


# ---------------------------------------------------------------------------
# finite groups


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class FinGroup:
    """A finite group as a multiplication table on indices 0..n-1."""

    table: tuple
    name: str = field(default="G", compare=False)

    def __post_init__(self):
        n = len(self.table)
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupError("malformed multiplication table")
        if self.identity is None:
            raise GroupError("no identity element")
        for g in range(n):
            if self.inv(g) is None:
                raise GroupError("missing inverse")
        for a, b, c in itertools.product(range(n), repeat=3):
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise GroupError("multiplication is not associative")

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def identity(self):
        for e in range(self.order):
            if all(self.table[e][g] == g == self.table[g][e] for g in range(self.order)):
                return e
        return None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int):
        for b in range(self.order):
            if self.mul(a, b) == self.identity:
                return b
        return None

    def elements(self):
        return range(self.order)


def trivial_group() -> FinGroup:
    return FinGroup(((0,),), "1")


def cyclic_group(n: int) -> FinGroup:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FinGroup(table, f"C{n}")


def direct_product(G: FinGroup, H: FinGroup) -> FinGroup:
    n, m = G.order, H.order
    idx = lambda a, b: a * m + b
    table = []
    for a in range(n):
        for b in range(m):
            row = []
            for c in range(n):
                for d in range(m):
                    row.append(idx(G.mul(a, c), H.mul(b, d)))
            table.append(tuple(row))
    return FinGroup(tuple(table), f"{G.name}x{H.name}")


@dataclass(frozen=True)
class GrpHom:
    """A homomorphism given by its value table."""

    source: FinGroup
    target: FinGroup
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.source.order:
            raise GroupError("value table has the wrong length")
        if self.values[self.source.identity] != self.target.identity:
            raise GroupError("homomorphism must preserve the identity")
        for a in self.source.elements():
            for b in self.source.elements():
                if self.values[self.source.mul(a, b)] != \
                        self.target.mul(self.values[a], self.values[b]):
                    raise GroupError("table is not multiplicative")

    def __call__(self, g: int) -> int:
        return self.values[g]

    def kernel(self):
        return [g for g in self.source.elements() if self.values[g] == self.target.identity]

    def image(self):
        return sorted(set(self.values))

    def compose(self, other: "GrpHom") -> "GrpHom":
        """self followed by other."""
        if other.source != self.target:
            raise GroupError("composition mismatch")
        return GrpHom(self.source, other.target,
                      tuple(other.values[v] for v in self.values))


def trivial_hom(G: FinGroup, H: FinGroup) -> GrpHom:
    return GrpHom(G, H, (H.identity,) * G.order)


def identity_hom(G: FinGroup) -> GrpHom:
    return GrpHom(G, G, tuple(G.elements()))


# ---------------------------------------------------------------------------
# component structures


@dataclass(frozen=True)
class ComponentStructure:
    """Finite groups per point in finite-exception form.

    Over a cone: exceptional copies with their own structures, one tail
    structure shared by the remaining copies, the apex group, and the
    structure homomorphism from the tail's top-level group into the apex
    group.  Deeper maps to the apex are composites, so transitivity holds
    by construction and is probed by tests.
    """

    space: SpaceExpr
    data: tuple  # Finite: ("fin", groups) | ("sum", l, r)
    #            | ("cone", exc, tail_cs, apex_group, up_hom)

    def group_at(self, x: Point) -> FinGroup:
        validate_point(self.space, x)
        return _group_addr(self, x.addr)

    def cone_parts(self):
        _, exc, tail_cs, apex_group, up = self.data
        return dict(exc), tail_cs, apex_group, up


def _group_addr(cs, addr):
    if cs.data[0] == "fin":
        return cs.data[1][addr[1]]
    if cs.data[0] == "sum":
        return _group_addr(cs.data[1] if addr[0] == "L" else cs.data[2], addr[1])
    exc, tail_cs, apex_group, up = cs.cone_parts()
    if addr[0] == "apex":
        return apex_group
    sub = exc.get(addr[1], tail_cs)
    return _group_addr(sub, addr[2])


def fin_structure(space: Finite, groups) -> ComponentStructure:
    groups = tuple(groups)
    if len(groups) != space.n:
        raise GroupError("one group per point required")
    return ComponentStructure(space, ("fin", groups))


def sum_structure(space: Sum, left, right) -> ComponentStructure:
    return ComponentStructure(space, ("sum", left, right))


def cone_structure(space: Cone, exc: dict, tail_cs: ComponentStructure,
                   apex_group: FinGroup, up: GrpHom) -> ComponentStructure:
    if up.target != apex_group:
        raise GroupError("structure homomorphism must land in the apex group")
    if up.source != top_group(tail_cs):
        raise GroupError("structure homomorphism must leave the tail's top group")
    if not _uniform(tail_cs):
        raise GroupError("tail structures must be level-uniform")
    return ComponentStructure(space, ("cone", tuple(sorted(exc.items())),
                                      tail_cs, apex_group, up))


def top_group(cs: ComponentStructure) -> FinGroup:
    """The group at the top-stratum points (tail structures are uniform)."""
    if cs.data[0] == "fin":
        return cs.data[1][0]
    if cs.data[0] == "sum":
        return top_group(cs.data[1])
    return cs.data[3]


def _uniform(cs: ComponentStructure) -> bool:
    if cs.data[0] == "fin":
        return all(g == cs.data[1][0] for g in cs.data[1])
    if cs.data[0] == "sum":
        return (_uniform(cs.data[1]) and _uniform(cs.data[2])
                and top_group(cs.data[1]) == top_group(cs.data[2]))
    exc, tail_cs, _apex, _up = cs.cone_parts()
    return not exc and _uniform(tail_cs)


def trivial_structure(space: SpaceExpr) -> ComponentStructure:
    one = trivial_group()
    if isinstance(space, Finite):
        return fin_structure(space, [one] * space.n)
    if isinstance(space, Sum):
        return sum_structure(space, trivial_structure(space.left),
                             trivial_structure(space.right))
    tail = trivial_structure(space.base)
    return cone_structure(space, {}, tail, one, trivial_hom(one, one))


def constant_structure(space: SpaceExpr, G: FinGroup) -> ComponentStructure:
    if isinstance(space, Finite):
        return fin_structure(space, [G] * space.n)
    if isinstance(space, Sum):
        return sum_structure(space, constant_structure(space.left, G),
                             constant_structure(space.right, G))
    tail = constant_structure(space.base, G)
    return cone_structure(space, {}, tail, G, identity_hom(G))


def structure_hom(cs: ComponentStructure, x: Point, y: Point) -> GrpHom:
    """The transition homomorphism from the group at y into the group at x,
    for y in the canonical neighbourhood of x (composites along the levels)."""
    validate_point(cs.space, x)
    validate_point(cs.space, y)
    return _hom_addr(cs, x.addr, y.addr)


def _hom_addr(cs, xaddr, yaddr):
    if cs.data[0] == "fin":
        if xaddr != yaddr:
            raise GroupError("isolated points see only themselves")
        return identity_hom(cs.data[1][xaddr[1]])
    if cs.data[0] == "sum":
        if xaddr[0] != yaddr[0]:
            raise GroupError("points lie in different summands")
        return _hom_addr(cs.data[1] if xaddr[0] == "L" else cs.data[2],
                         xaddr[1], yaddr[1])
    exc, tail_cs, apex_group, up = cs.cone_parts()
    if xaddr[0] == "apex":
        if yaddr[0] == "apex":
            return identity_hom(apex_group)
        k = yaddr[1]
        if k in exc:
            raise GroupError("exceptional copies are outside the apex neighbourhood")
        inner = _hom_to_top(tail_cs, yaddr[2])
        return inner.compose(up)
    if yaddr[0] == "apex" or xaddr[1] != yaddr[1]:
        raise GroupError("point is outside the neighbourhood")
    sub = exc.get(xaddr[1], tail_cs)
    return _hom_addr(sub, xaddr[2], yaddr[2])


def _hom_to_top(cs, yaddr):
    """The composite homomorphism from the group at y to the top group."""
    if cs.data[0] == "fin":
        return identity_hom(cs.data[1][yaddr[1]])
    if cs.data[0] == "sum":
        return _hom_to_top(cs.data[1] if yaddr[0] == "L" else cs.data[2], yaddr[1])
    exc, tail_cs, apex_group, up = cs.cone_parts()
    if yaddr[0] == "apex":
        return identity_hom(apex_group)
    if yaddr[1] in exc:
        raise GroupError("exceptional copies are outside the apex neighbourhood")
    return _hom_to_top(tail_cs, yaddr[2]).compose(up)


def check_transitivity(cs: ComponentStructure, probes: int = 0) -> bool:
    """i_z^x = i_y^x ∘ i_z^y on representable triples (z near y near x)."""
    return _trans_rec(cs)


def _trans_rec(cs) -> bool:
    if cs.data[0] == "fin":
        return True
    if cs.data[0] == "sum":
        return _trans_rec(cs.data[1]) and _trans_rec(cs.data[2])
    exc, tail_cs, apex_group, up = cs.cone_parts()
    if not all(_trans_rec(sub) for sub in exc.values()) or not _trans_rec(tail_cs):
        return False
    # triples apex > y > z inside one generic tail copy
    x = apex_point()
    k = (max(exc) + 1) if exc else 0
    for yaddr, zaddr in _nested_pairs(tail_cs):
        y = copy_point(k, Point(yaddr))
        z = copy_point(k, Point(zaddr))
        i_zy = _hom_addr(tail_cs, yaddr, zaddr)
        i_yx = _hom_addr(cs, x.addr, y.addr)
        i_zx = _hom_addr(cs, x.addr, z.addr)
        if i_zy.compose(i_yx).values != i_zx.values:
            return False
    return True


def _nested_pairs(cs):
    """Pairs (y, z) with z in the canonical neighbourhood of y."""
    if cs.data[0] == "fin":
        for i in range(len(cs.data[1])):
            yield ("fin", i), ("fin", i)
        return
    if cs.data[0] == "sum":
        for y, z in _nested_pairs(cs.data[1]):
            yield ("L", y), ("L", z)
        for y, z in _nested_pairs(cs.data[2]):
            yield ("R", y), ("R", z)
        return
    exc, tail_cs, apex_group, up = cs.cone_parts()
    yield ("apex",), ("apex",)
    for y, z in _nested_pairs(tail_cs):
        yield ("apex",), ("copy", 0, z)
        yield ("copy", 0, y), ("copy", 0, z)


# ---------------------------------------------------------------------------
# group rings and the germ components


def group_ring_space(G: FinGroup) -> VectQ:
    return VectQ(G.order, tuple(f"g{g}" for g in G.elements()))


def regular_rep(G: FinGroup) -> list[LinMap]:
    """Left regular representation matrices, one per group element."""
    V = group_ring_space(G)
    out = []
    for g in G.elements():
        cols = [V.basis_vec(G.mul(g, h)) for h in G.elements()]
        out.append(LinMap.from_cols(V, V, cols))
    return out


def gr_mul(G: FinGroup, a, b):
    """Convolution product in the group ring."""
    out = [ZERO] * G.order
    for g in G.elements():
        if a[g] == 0:
            continue
        for h in G.elements():
            if b[h] == 0:
                continue
            out[G.mul(g, h)] += a[g] * b[h]
    return tuple(out)


def gr_unit(G: FinGroup):
    v = [ZERO] * G.order
    v[G.identity] = ONE
    return tuple(v)


def germ_component(hom: GrpHom) -> LinMap:
    """The group-ring germ component attached to a structure homomorphism.

    A basis element of the upper group ring restricts to its preimage coset
    when it lies in the image, averaged over the kernel; this is a unital
    map onto the invariant corner and composes along towers of surjective
    homomorphisms.
    """
    Gy, Gx = hom.source, hom.target
    Vx, Vy = group_ring_space(Gx), group_ring_space(Gy)
    ker = hom.kernel()
    img = set(hom.image())
    cols = []
    for w in Gx.elements():
        col = [ZERO] * Gy.order
        if w in img:
            c = Fraction(1, len(ker))
            for h in Gy.elements():
                if hom(h) == w:
                    col[h] += c
        cols.append(tuple(col))
    return LinMap.from_cols(Vx, Vy, cols)


def check_germ_functorial(i1: GrpHom, i2: GrpHom) -> bool:
    """Whether germ components compose along a tower (needs the kernel of
    the upper map inside the image of the lower one)."""
    composite = i1.compose(i2)
    lhs = germ_component(composite)
    rhs = germ_component(i2).then(germ_component(i1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# equivariant sheaves


@dataclass(frozen=True)
class EquivCSheaf:
    """A constructible sheaf with compatible group actions on its stalks.

    `reps` mirrors the sheaf: per point a list of matrices (one per group
    element of the component structure's group there)."""

    sheaf: CSheaf
    cs: ComponentStructure
    reps: tuple  # ("fin", per-point tuples) | ("sum", l, r)
    #            | ("cone", exc dict items, tail reps, apex rep)

    def rep_at(self, x: Point) -> list[LinMap]:
        validate_point(self.sheaf.space, x)
        return _rep_addr(self, x.addr)


def _rep_addr(E, addr):
    if E.reps[0] == "fin":
        return list(E.reps[1][addr[1]])
    if E.reps[0] == "sum":
        sub = E.reps[1] if addr[0] == "L" else E.reps[2]
        cs = E.cs.data[1] if addr[0] == "L" else E.cs.data[2]
        sheaf = E.sheaf.data[0] if addr[0] == "L" else E.sheaf.data[1]
        return _rep_addr(EquivCSheaf(sheaf, cs, sub), addr[1])
    _, excitems, tail_reps, apex_rep = E.reps
    if addr[0] == "apex":
        return list(apex_rep)
    exc = dict(excitems)
    k = addr[1]
    exc_cs, tail_cs, _g, _u = E.cs.cone_parts()
    sub_reps = exc.get(k, tail_reps)
    sub_cs = exc_cs.get(k, tail_cs)
    return _rep_addr(EquivCSheaf(E.sheaf.copy_sheaf(k), sub_cs, sub_reps), addr[2])


def make_equiv(sheaf: CSheaf, cs: ComponentStructure, reps) -> EquivCSheaf:
    E = EquivCSheaf(sheaf, cs, reps)
    if not _reps_valid(E):
        raise GroupError("stalk representations are not multiplicative")
    return E


def _reps_valid(E) -> bool:
    if E.reps[0] == "fin":
        for i, mats in enumerate(E.reps[1]):
            G = E.cs.data[1][i]
            if not _is_rep(G, mats, E.sheaf.data[i]):
                return False
        return True
    if E.reps[0] == "sum":
        return (_reps_valid(EquivCSheaf(E.sheaf.data[0], E.cs.data[1], E.reps[1])) and
                _reps_valid(EquivCSheaf(E.sheaf.data[1], E.cs.data[2], E.reps[2])))
    _, excitems, tail_reps, apex_rep = E.reps
    exc_cs, tail_cs, apex_group, _up = E.cs.cone_parts()
    if not _is_rep(apex_group, apex_rep, E.sheaf.apex):
        return False
    for k, sub in dict(excitems).items():
        if not _reps_valid(EquivCSheaf(E.sheaf.copy_sheaf(k), exc_cs.get(k, tail_cs), sub)):
            return False
    return _reps_valid(EquivCSheaf(E.sheaf.tail, tail_cs, tail_reps))


def _is_rep(G: FinGroup, mats, space: VectQ) -> bool:
    if len(mats) != G.order:
        return False
    for m in mats:
        if m.source != space or m.target != space:
            return False
    if mats[G.identity] != LinMap.identity(space):
        return False
    for a in G.elements():
        for b in G.elements():
            if mats[b].then(mats[a]) != mats[G.mul(a, b)]:
                return False
    return True


def trivial_equiv(sheaf: CSheaf, cs: ComponentStructure) -> EquivCSheaf:
    """The given sheaf with every group acting trivially."""
    return make_equiv(sheaf, cs, _trivial_reps(sheaf, cs))


def _trivial_reps(sheaf, cs):
    if isinstance(sheaf.space, Finite):
        return ("fin", tuple(tuple(LinMap.identity(sheaf.data[i])
                                   for _ in range(cs.data[1][i].order))
                             for i in range(sheaf.space.n)))
    if isinstance(sheaf.space, Sum):
        return ("sum", _trivial_reps(sheaf.data[0], cs.data[1]),
                _trivial_reps(sheaf.data[1], cs.data[2]))
    exc_cs, tail_cs, apex_group, _up = cs.cone_parts()
    exc = {k: _trivial_reps(G, exc_cs.get(k, tail_cs)) for k, G in sheaf.data[1]}
    return ("cone", tuple(sorted(exc.items())),
            _trivial_reps(sheaf.tail, tail_cs),
            tuple(LinMap.identity(sheaf.apex) for _ in range(apex_group.order)))


# ---------------------------------------------------------------------------
# level bookkeeping inside tail chains


def level_group(cs: ComponentStructure, a: int) -> FinGroup:
    """The group at generic points of height a (tail chains are uniform)."""
    if cs.data[0] == "fin":
        if a != 0:
            raise GroupError("finite spaces have height-0 points only")
        return cs.data[1][0]
    if cs.data[0] == "sum":
        for part in (cs.data[1], cs.data[2]):
            if a <= cb_rank(part.space):
                return level_group(part, a)
        raise GroupError("height exceeds the rank")
    exc, tail_cs, apex_group, up = cs.cone_parts()
    if a == cb_rank(cs.space):
        return apex_group
    return level_group(tail_cs, a)


def chain_within(cs: ComponentStructure, b: int) -> GrpHom:
    """The composite structure homomorphism from level b to the top group."""
    if cs.data[0] == "fin":
        return identity_hom(cs.data[1][0])
    if cs.data[0] == "sum":
        for part in (cs.data[1], cs.data[2]):
            if b <= cb_rank(part.space):
                return chain_within(part, b)
        raise GroupError("height exceeds the rank")
    exc, tail_cs, apex_group, up = cs.cone_parts()
    if b == cb_rank(cs.space):
        return identity_hom(apex_group)
    return chain_within(tail_cs, b).compose(up)


def hom_between(cs: ComponentStructure, b: int, a: int) -> GrpHom:
    """The composite homomorphism from level b up to level a (b < a)."""
    if not b < a:
        raise GroupError("levels must increase")
    if a == cb_rank(cs.space):
        return chain_within(cs, b)
    if cs.data[0] == "sum":
        for part in (cs.data[1], cs.data[2]):
            if a <= cb_rank(part.space):
                return hom_between(part, b, a)
        raise GroupError("height exceeds the rank")
    return hom_between(cs.data[2], b, a)


def validate_structure_levels(cs: ComponentStructure) -> bool:
    """Germ components must compose along the level tower (the kernel of
    each upper map inside the image below); holds for surjective towers."""
    r = cb_rank(cs.space)
    for a in range(r, 1, -1):
        for c in range(1, a):
            for b in range(0, c):
                lhs = germ_component(hom_between(cs, b, a))
                rhs = germ_component(hom_between(cs, c, a)).then(
                    germ_component(hom_between(cs, b, c)))
                if lhs != rhs:
                    return False
    return True


# ---------------------------------------------------------------------------
# the sheaf of group rings


def group_ring_sheaf(cs: ComponentStructure) -> EquivCSheaf:
    """The sheaf of group rings of a component structure, with the
    left-regular actions and kernel-averaged germ components."""
    sheaf = _gr_sheaf(cs)
    reps = _gr_reps(cs, sheaf)
    return make_equiv(sheaf, cs, reps)


def _gr_sheaf(cs) -> CSheaf:
    space = cs.space
    if cs.data[0] == "fin":
        return make_fin_sheaf(space, [group_ring_space(g) for g in cs.data[1]])
    if cs.data[0] == "sum":
        return make_sum_sheaf(space, _gr_sheaf(cs.data[1]), _gr_sheaf(cs.data[2]))
    exc, tail_cs, apex_group, up = cs.cone_parts()
    tail = _gr_sheaf(tail_cs)
    V = group_ring_space(apex_group)
    cols = []
    for w in apex_group.elements():
        s = _gr_spread(tail_cs, up, V.basis_vec(w))
        cols.append(sec_to_coords(tail, s))
    germ = LinMap.from_cols(V, sec_space(tail), cols)
    exc_sheaves = {k: _gr_sheaf(sub) for k, sub in exc.items()}
    return make_cone_sheaf(space, exc_sheaves, tail, V, germ)


def _gr_spread(cs, hom_up: GrpHom, value) -> Section:
    """The pure-tail section spreading a group-ring element through the
    germ component of the homomorphism from this structure's top group."""
    sheaf = _gr_sheaf(cs)
    v = germ_component(hom_up).apply(value)
    if cs.data[0] == "fin":
        return Section(sheaf, tuple(v for _ in range(cs.space.n)))
    if cs.data[0] == "sum":
        return Section(sheaf, (_gr_spread(cs.data[1], hom_up, value).data,
                               _gr_spread(cs.data[2], hom_up, value).data))
    return Section(sheaf, ("sec", (), tuple(v)))


def _gr_reps(cs, sheaf):
    if cs.data[0] == "fin":
        return ("fin", tuple(tuple(regular_rep(g)) for g in cs.data[1]))
    if cs.data[0] == "sum":
        return ("sum", _gr_reps(cs.data[1], sheaf.data[0]),
                _gr_reps(cs.data[2], sheaf.data[1]))
    exc, tail_cs, apex_group, up = cs.cone_parts()
    excreps = {k: _gr_reps(sub, sheaf.copy_sheaf(k)) for k, sub in exc.items()}
    return ("cone", tuple(sorted(excreps.items())),
            _gr_reps(tail_cs, sheaf.tail), tuple(regular_rep(apex_group)))


def check_germ_equivariance(E: EquivCSheaf) -> bool:
    """Definition of an equivariant sheaf: spreading then acting equals
    acting through the structure homomorphism then spreading, at every
    stored apex against a generic tail point."""
    return _germ_eq_rec(E.sheaf, E.cs, E.reps)


def _germ_eq_rec(sheaf, cs, reps) -> bool:
    if isinstance(sheaf.space, Finite):
        return True
    if isinstance(sheaf.space, Sum):
        return (_germ_eq_rec(sheaf.data[0], cs.data[1], reps[1]) and
                _germ_eq_rec(sheaf.data[1], cs.data[2], reps[2]))
    exc_cs, tail_cs, apex_group, up = cs.cone_parts()
    _, excreps, tail_reps, apex_rep = reps
    from .space import iter_points
    probes = [p for p in iter_points(sheaf.space.base, 1)]
    for g in range(apex_group.order):
        pre = None
        for y in probes:
            k = max([kk for kk, _ in sheaf.data[1]] + [-1]) + 1
            hom = structure_hom(cs, apex_point(), copy_point(k, y))
            from .sheaf import eval_map, germ_section
            ev = eval_map(sheaf.tail, y)
            rep_y = _rep_addr(EquivCSheaf(sheaf.tail, tail_cs, tail_reps), y.addr)
            for i in range(sheaf.apex.dim):
                a = sheaf.apex.basis_vec(i)
                for h in _preimages(hom, g):
                    lhs = ev.apply(sheaf.germ.apply(apex_rep[g].apply(a)))
                    rhs = rep_y[h].apply(ev.apply(sheaf.germ.apply(a)))
                    if lhs != rhs:
                        return False
    for k, sub in dict(excreps).items():
        if not _germ_eq_rec(sheaf.copy_sheaf(k), exc_cs.get(k, tail_cs), sub):
            return False
    return _germ_eq_rec(sheaf.tail, tail_cs, tail_reps)


def _preimages(hom: GrpHom, g: int):
    return [h for h in hom.source.elements() if hom(h) == g]


def check_equivariance(f: SheafMap, src: EquivCSheaf, tgt: EquivCSheaf) -> bool:
    """Whether a sheaf map intertwines the stalk actions everywhere stored."""
    from .space import iter_points
    for x in iter_points(f.source.space, _probe_bound(f)):
        m = stalk_map(f, x)
        rs, rt = src.rep_at(x), tgt.rep_at(x)
        for g in range(len(rs)):
            if rs[g].then(m) != m.then(rt[g]):
                return False
    return True


def _probe_bound(f) -> int:
    keys = [0]
    def visit(g):
        if isinstance(g.source.space, Cone):
            keys.extend(k for k, _ in g.data[1])
            visit(g.tail_map)
            for _, m in g.data[1]:
                visit(m)
        elif isinstance(g.source.space, Sum):
            visit(g.data[0]); visit(g.data[1])
    visit(f)
    return max(keys) + 2


def average_stalk(G: FinGroup, rep_src, rep_tgt, m: LinMap) -> LinMap:
    """The averaged intertwiner (1/|G|) sum of g m g^{-1}."""
    acc = LinMap.zero(m.source, m.target)
    for g in G.elements():
        gi = G.inv(g)
        acc = acc.add(rep_src[gi].then(m).then(rep_tgt[g]))
    return acc.scale(Fraction(1, G.order))


def average(f: SheafMap, src: EquivCSheaf, tgt: EquivCSheaf) -> SheafMap:
    """Average a sheaf map stalkwise into an equivariant one; fixes maps
    that are already equivariant and is idempotent."""
    out = _avg_rec(f, src.cs, src.reps, tgt.reps)
    from .sheaf import check_sheaf_map
    if not check_sheaf_map(out):
        raise AssertionError("averaging broke an apex square")
    return out


def _avg_rec(f, cs, reps_s, reps_t):
    F, G = f.source, f.target
    if isinstance(F.space, Finite):
        groups = cs.data[1]
        maps = [average_stalk(groups[i], reps_s[1][i], reps_t[1][i], f.data[i])
                for i in range(F.space.n)]
        return make_fin_map(F, G, maps)
    if isinstance(F.space, Sum):
        return make_sum_map(F, G,
                            _avg_rec(f.data[0], cs.data[1], reps_s[1], reps_t[1]),
                            _avg_rec(f.data[1], cs.data[2], reps_s[2], reps_t[2]))
    exc_cs, tail_cs, apex_group, up = cs.cone_parts()
    _, exc_s, tail_s, apex_s = reps_s
    _, exc_t, tail_t, apex_t = reps_t
    keys = set(F.stored_keys()) | set(G.stored_keys()) | set(dict(f.data[1]))
    exc = {}
    for k in keys:
        rs = dict(exc_s).get(k, tail_s)
        rt = dict(exc_t).get(k, tail_t)
        exc[k] = _avg_rec(f.copy_map(k), exc_cs.get(k, tail_cs), rs, rt)
    tailm = _avg_rec(f.tail_map, tail_cs, tail_s, tail_t)
    apexm = average_stalk(apex_group, apex_s, apex_t, f.apex_map)
    return make_cone_map(F, G, exc, tailm, apexm, check=False)


# ---------------------------------------------------------------------------
# the equivariant splicing rings


@dataclass(frozen=True)
class EqCFun:
    """A constructible element of an equivariant splicing ring; the data
    mirrors the scalar case with group-ring leaves at the flag's bottom
    level."""

    space: SpaceExpr
    flag: Flag
    cs: ComponentStructure
    data: object


def _leaf_group(cs, flag) -> FinGroup:
    return level_group(cs, flag[-1] if flag else 0)


class GroupRingLeaves:
    """Group-ring leaves for the splicing-ring recursions of `adelic`: a leaf
    lies in the group ring of the group at the flag's lowest level, and a
    leaf of level a spreads down to level b through the germ component of
    the structure homomorphism from b up to a.  Degree -1 data is a section
    of the sheaf of group rings."""

    @staticmethod
    def add(a, b):
        return tuple(p + q for p, q in zip(a, b))

    @staticmethod
    def sub(a, b):
        return tuple(p - q for p, q in zip(a, b))

    def sum_parts(self, cs):
        return cs.data[1], cs.data[2]

    def cone_parts(self, cs):
        exc_cs, tail_cs, _g, _u = cs.cone_parts()
        return exc_cs, tail_cs

    def spread(self, cs, b, a, leaf):
        return tuple(germ_component(hom_between(cs, b, a)).apply(leaf))

    def zero(self, cs, flag):
        return (ZERO,) * self.size(cs, flag)

    def size(self, cs, flag):
        return _leaf_group(cs, flag).order

    def read(self, values, pos, size):
        return tuple(values[pos:pos + size])

    def write(self, out, leaf):
        out.extend(leaf)

    def element(self, space, flag, cs, data):
        if not flag:
            return Section(group_ring_sheaf(cs).sheaf, data)
        return EqCFun(space, flag, cs, data)

    def augment(self, space, cs, data, a):
        """The flag-(a,) component of the augmentation of group-ring section
        data (not in normal form)."""
        r = cb_rank(space)
        if a > r:
            return None
        if isinstance(space, Finite):
            return tuple(data)
        if isinstance(space, Sum):
            return (self.augment(space.left, cs.data[1], data[0], a),
                    self.augment(space.right, cs.data[2], data[1], a))
        exc_cs, tail_cs = self.cone_parts(cs)
        _, exc, apexv = data
        if a == r:
            return tuple(apexv)
        return ("cone", {k: self.augment(space.base, exc_cs.get(k, tail_cs), sub, a)
                         for k, sub in exc},
                self.spread(cs, a, r, apexv))

    def section(self, space, cs, exc, leaf):
        """Degree-0 witness data of a cone: a section of the group-ring sheaf."""
        return ("sec", tuple(sorted(exc.items())), tuple(leaf))


GROUP_RING = GroupRingLeaves()


def eq_unit(space, flag, cs) -> EqCFun:
    check_flag(space, flag)
    return EqCFun(space, flag, cs, const_data(space, flag, gr_unit(_leaf_group(cs, flag))))


def eq_zero(space, flag, cs) -> EqCFun:
    check_flag(space, flag)
    return EqCFun(space, flag, cs, const_data(space, flag, GROUP_RING.zero(cs, flag)))


def eq_add(f: EqCFun, g: EqCFun) -> EqCFun:
    return EqCFun(f.space, f.flag, f.cs,
                  _zip_data(GROUP_RING, f.space, f.flag, f.cs, f.data, g.data, GROUP_RING.add))


def eq_mul(f: EqCFun, g: EqCFun) -> EqCFun:
    """Stalkwise convolution product."""
    G = _leaf_group(f.cs, f.flag)
    op = lambda a, b: gr_mul(G, a, b)
    return EqCFun(f.space, f.flag, f.cs,
                  _zip_data(GROUP_RING, f.space, f.flag, f.cs, f.data, g.data, op))


def eq_dmap(b: int, f: EqCFun) -> EqCFun:
    new_flag = insert_height(f.flag, b)
    check_flag(f.space, new_flag)
    return EqCFun(f.space, new_flag, f.cs,
                  _dmap_data(GROUP_RING, f.space, f.flag, f.cs, b, f.data))


@dataclass(frozen=True)
class EqAdelicComplex(AdelicComplex):
    """The equivariant adelic complex: the scalar complex with group-ring
    leaves; degree -1 holds sections of the sheaf of group rings."""

    cs: ComponentStructure = field()   # no default from the scalar `cs = None`
    leaves = GROUP_RING
    # own entries: perfbench/spans.py wraps each class's methods by name from its __dict__
    differential = AdelicComplex.differential
    exactness_witness = AdelicComplex.exactness_witness

    def __post_init__(self):
        if not _uniform_levels(self.cs):
            raise GroupError("equivariant complexes need level-uniform structures")
        if not validate_structure_levels(self.cs):
            raise GroupError("germ components do not compose along the levels")


def _uniform_levels(cs) -> bool:
    if cs.data[0] == "fin":
        return all(g == cs.data[1][0] for g in cs.data[1])
    if cs.data[0] == "sum":
        return _uniform_levels(cs.data[1]) and _uniform_levels(cs.data[2])
    exc, tail_cs, _g, _u = cs.cone_parts()
    return not exc and _uniform_levels(tail_cs)


def equivariant_adelic(space: SpaceExpr, cs: ComponentStructure) -> EqAdelicComplex:
    return EqAdelicComplex(space, cs)


# ---------------------------------------------------------------------------
# degeneration to the scalar complex


def eq_to_plain(f: EqCFun) -> CFun:
    """Strip one-dimensional group-ring leaves (trivial structures only)."""
    return CFun(f.space, f.flag, _map_leaves(f.space, f.flag, f.data, lambda v: v[0]))


def plain_to_eq(f: CFun, cs: ComponentStructure) -> EqCFun:
    return EqCFun(f.space, f.flag, cs, _map_leaves(f.space, f.flag, f.data, lambda v: (v,)))


# ---------------------------------------------------------------------------
# random equivariant cochains (seeded)


def eq_random_cocycle(cx: EqAdelicComplex, degree: int, rng: random.Random,
                      exc_bound: int = 2) -> dict:
    """A random constructible equivariant cocycle via an exact kernel basis."""
    return _sample_cocycle(cx, degree, rng, exc_bound,
                           lambda r: Fraction(r.randint(-4, 4)),
                           lambda r: Fraction(r.randint(-3, 3)))


# ---------------------------------------------------------------------------
# generators


def generator_epi(E: EquivCSheaf) -> list[SheafMap]:
    """Equivariant maps from the group-ring sheaf whose images jointly cover
    every stored stalk (and one generic tail copy per cone)."""
    space = E.sheaf.space
    if cb_rank(space) > 1:
        raise ValueError("generator construction implemented for rank <= 1")
    G = group_ring_sheaf(E.cs)
    out = []
    if isinstance(space, Finite):
        for i in range(space.n):
            grp = E.cs.data[1][i]
            for j in range(E.sheaf.data[i].dim):
                x = E.sheaf.data[i].basis_vec(j)
                out.append(_point_map_fin(G.sheaf, E, i, x))
        return out
    if isinstance(space, Sum):
        lG = group_ring_sheaf(E.cs.data[1])
        for m in generator_epi(EquivCSheaf(E.sheaf.data[0], E.cs.data[1], E.reps[1])):
            out.append(make_sum_map(G.sheaf, E.sheaf, m,
                                    zero_map(_gr_sheaf(E.cs.data[2]), E.sheaf.data[1])))
        for m in generator_epi(EquivCSheaf(E.sheaf.data[1], E.cs.data[2], E.reps[2])):
            out.append(make_sum_map(G.sheaf, E.sheaf,
                                    zero_map(_gr_sheaf(E.cs.data[1]), E.sheaf.data[0]), m))
        return out
    exc_cs, tail_cs, apex_group, up = E.cs.cone_parts()
    _, excreps, tail_reps, apex_rep = E.reps
    # apex generators spread over the tail
    for j in range(E.sheaf.apex.dim):
        x = E.sheaf.apex.basis_vec(j)
        out.append(_apex_generator(G, E, x))
    # exceptional copies and one generic representative copy
    keys = sorted(set(E.sheaf.stored_keys()) | set(G.sheaf.stored_keys()))
    generic = (max(keys) + 1) if keys else 0
    for k in keys + [generic]:
        sub_sheaf = E.sheaf.copy_sheaf(k)
        sub_cs = exc_cs.get(k, tail_cs)
        sub_reps = dict(excreps).get(k, tail_reps)
        sub_gr = G.sheaf.copy_sheaf(k)
        for m in generator_epi(EquivCSheaf(sub_sheaf, sub_cs, sub_reps)):
            exc = {kk: zero_map(G.sheaf.copy_sheaf(kk), E.sheaf.copy_sheaf(kk))
                   for kk in keys}
            exc[k] = m
            out.append(make_cone_map(G.sheaf, E.sheaf, exc,
                                     zero_map(G.sheaf.tail, E.sheaf.tail),
                                     LinMap.zero(G.sheaf.apex, E.sheaf.apex)))
    return out


def _point_map_fin(GR: CSheaf, E: EquivCSheaf, i: int, x) -> SheafMap:
    maps = []
    for p in range(GR.space.n):
        if p != i:
            maps.append(LinMap.zero(GR.data[p], E.sheaf.data[p]))
        else:
            grp = E.cs.data[1][p]
            rep = E.reps[1][p]
            cols = [rep[g].apply(x) for g in grp.elements()]
            maps.append(LinMap.from_cols(GR.data[p], E.sheaf.data[p], cols))
    return make_fin_map(GR, E.sheaf, maps)


def _apex_generator(G: EquivCSheaf, E: EquivCSheaf, x) -> SheafMap:
    """The map sending the unit to an apex stalk element, spread over the
    tail by equivariant extension and zero on exceptional copies."""
    exc_cs, tail_cs, apex_group, up = E.cs.cone_parts()
    _, _excreps, tail_reps, apex_rep = E.reps
    cols = [apex_rep[g].apply(x) for g in apex_group.elements()]
    apex_map = LinMap.from_cols(G.sheaf.apex, E.sheaf.apex, cols)
    spread = germ_section(E.sheaf, x)  # section of the tail sheaf
    tail_maps = []
    base = E.sheaf.space.base
    tail_map = _spread_map(G.sheaf.tail, E.sheaf.tail, tail_cs, tail_reps, spread)
    exc = {}
    for k in set(E.sheaf.stored_keys()) | set(G.sheaf.stored_keys()):
        exc[k] = zero_map(G.sheaf.copy_sheaf(k), E.sheaf.copy_sheaf(k))
    return make_cone_map(G.sheaf, E.sheaf, exc, tail_map, apex_map)


def _spread_map(GT: CSheaf, MT: CSheaf, cs, reps, spread: Section) -> SheafMap:
    """At each tail point, send a group element to its action on the spread
    value of the generating stalk element."""
    from .sheaf import eval_map
    if isinstance(GT.space, Finite):
        maps = []
        for p in range(GT.space.n):
            grp = cs.data[1][p]
            rep = reps[1][p]
            from .space import fin_point
            xval = sec_to_coords(MT, spread)
            val = eval_map(MT, fin_point(p)).apply(xval)
            cols = [rep[g].apply(val) for g in grp.elements()]
            maps.append(LinMap.from_cols(GT.data[p], MT.data[p], cols))
        return make_fin_map(GT, MT, maps)
    if isinstance(GT.space, Sum):
        lsec = Section(MT.data[0], spread.data[0])
        rsec = Section(MT.data[1], spread.data[1])
        return make_sum_map(GT, MT,
                            _spread_map(GT.data[0], MT.data[0], cs.data[1], reps[1], lsec),
                            _spread_map(GT.data[1], MT.data[1], cs.data[2], reps[2], rsec))
    raise ValueError("generator spreading is for rank <= 1")


def generator_probe_points(E: EquivCSheaf):
    """The stored stalks of an equivariant sheaf plus one representative
    generic copy per cone (each generic copy is covered by the shifted copy
    of the same construction)."""
    space = E.sheaf.space
    if isinstance(space, Finite):
        return [fin_point(i) for i in range(space.n)]
    if isinstance(space, Sum):
        from .space import left_point, right_point
        exc_l = EquivCSheaf(E.sheaf.data[0], E.cs.data[1], E.reps[1])
        exc_r = EquivCSheaf(E.sheaf.data[1], E.cs.data[2], E.reps[2])
        return ([left_point(p) for p in generator_probe_points(exc_l)] +
                [right_point(p) for p in generator_probe_points(exc_r)])
    exc_cs, tail_cs, _g, _u = E.cs.cone_parts()
    _, excreps, tail_reps, _a = E.reps
    keys = sorted(set(E.sheaf.stored_keys()))
    generic = (max(keys) + 1) if keys else 0
    out = [apex_point()]
    for k in keys + [generic]:
        sub = EquivCSheaf(E.sheaf.copy_sheaf(k), exc_cs.get(k, tail_cs),
                          dict(excreps).get(k, tail_reps))
        out.extend(copy_point(k, q) for q in generator_probe_points(sub))
    return out


def generator_images_cover(E: EquivCSheaf, maps) -> bool:
    """Stalkwise joint surjectivity at every stored stalk and one generic
    representative copy per cone level."""
    for x in generator_probe_points(E):
        target = stalk(E.sheaf, x)
        if target.dim == 0:
            continue
        cols = []
        for m in maps:
            sm = stalk_map(m, x)
            cols.extend(sm.cols())
        src = VectQ.make(len(cols), "z")
        big = LinMap.from_cols(src, target, cols)
        if map_rank(big) != target.dim:
            return False
    return True


def standard_generator(space: SpaceExpr, cs: ComponentStructure, flag: Flag) -> EqCFun:
    """The generator of the flag vertex: the equivariant ring as a module
    over itself, represented by its unit."""
    return eq_unit(space, flag, cs)


def random_equiv_sheaf(space: SpaceExpr, cs: ComponentStructure,
                       rng: random.Random, dim_bound: int = 2) -> EquivCSheaf:
    """A random equivariant sheaf: permutation-style actions on random
    stalks with a germ map averaged into equivariance."""
    if isinstance(space, Finite):
        stalks, reps = [], []
        for i in range(space.n):
            G = cs.data[1][i]
            d = rng.randint(0, dim_bound)
            V, mats = _random_rep(G, d, rng)
            stalks.append(V)
            reps.append(tuple(mats))
        return make_equiv(make_fin_sheaf(space, stalks), cs, ("fin", tuple(reps)))
    if isinstance(space, Sum):
        L = random_equiv_sheaf(space.left, cs.data[1], rng, dim_bound)
        R = random_equiv_sheaf(space.right, cs.data[2], rng, dim_bound)
        return make_equiv(make_sum_sheaf(space, L.sheaf, R.sheaf), cs,
                          ("sum", L.reps, R.reps))
    exc_cs, tail_cs, apex_group, up = cs.cone_parts()
    tail = random_equiv_sheaf(space.base, tail_cs, rng, dim_bound)
    av, amats = _random_rep(apex_group, rng.randint(0, dim_bound), rng)
    # average a random germ candidate into Def-6.5 equivariance
    S = sec_space(tail.sheaf)
    raw = LinMap.from_rows(av, S, [[Fraction(rng.randint(-2, 2)) for _ in range(av.dim)]
                                   for _ in range(S.dim)])
    germ = _equivariant_germ(tail, up, av, amats, raw)
    sheaf = make_cone_sheaf(space, {}, tail.sheaf, av, germ)
    reps = ("cone", (), tail.reps, tuple(amats))
    return make_equiv(sheaf, cs, reps)


def sign_characters(G: FinGroup):
    """All homomorphisms into {1, -1} (the rational one-dimensional
    characters)."""
    out = []
    for bits in itertools.product((1, -1), repeat=G.order):
        if bits[G.identity] != 1:
            continue
        if all(bits[G.mul(a, b)] == bits[a] * bits[b]
               for a in G.elements() for b in G.elements()):
            out.append(bits)
    return out


def _random_rep(G: FinGroup, d: int, rng: random.Random):
    """A representation on Q^d: a direct sum of sign characters, with a
    regular block when the dimension allows."""
    V = VectQ.make(d)
    if d == 0:
        return V, [LinMap.identity(V) for _ in G.elements()]
    chars = sign_characters(G)
    use_reg = d >= G.order and G.order > 1 and rng.randint(0, 1) == 1
    reg = regular_rep(G) if use_reg else None
    head = G.order if use_reg else 0
    picks = [rng.randrange(len(chars)) for _ in range(d - head)]
    mats = []
    for g in G.elements():
        big = [[ZERO] * d for _ in range(d)]
        if use_reg:
            for i in range(G.order):
                for j in range(G.order):
                    big[i][j] = reg[g].matrix[i][j]
        for i, c in enumerate(picks):
            big[head + i][head + i] = rat(chars[c][g])
        mats.append(LinMap(V, V, tuple(tuple(r) for r in big)))
    return V, mats


def _equivariant_germ(tail: EquivCSheaf, up: GrpHom, av: VectQ, amats, raw: LinMap) -> LinMap:
    """Average a germ candidate over the tail's top group so the spreading
    is equivariant in the sense of the component-structure action."""
    Gy = up.source
    S = sec_space(tail.sheaf)
    sec_mats = [_section_action(tail, g) for g in Gy.elements()]
    acc = LinMap.zero(av, S)
    for h in Gy.elements():
        term = amats[up(Gy.inv(h))].then(raw).then(sec_mats[h])
        acc = acc.add(term)
    return acc.scale(Fraction(1, Gy.order))


def _section_action(E: EquivCSheaf, g: int) -> LinMap:
    """The action of a top-group element on finite-data sections (acting
    through the structure maps at every point)."""
    S = sec_space(E.sheaf)
    cols = []
    for i in range(S.dim):
        s = sec_from_coords(E.sheaf, S.basis_vec(i))
        cols.append(sec_to_coords(E.sheaf, _act_section(E, g, s)))
    return LinMap.from_cols(S, S, cols)


def _act_section(E: EquivCSheaf, g: int, s: Section) -> Section:
    return Section(E.sheaf, _act_rec(E.sheaf, E.cs, E.reps, g, s.data))


def _act_rec(sheaf, cs, reps, g, data):
    if isinstance(sheaf.space, Finite):
        out = []
        for i in range(sheaf.space.n):
            rep = reps[1][i]
            out.append(rep[g].apply(data[i]))
        return tuple(out)
    if isinstance(sheaf.space, Sum):
        return (_act_rec(sheaf.data[0], cs.data[1], reps[1], g, data[0]),
                _act_rec(sheaf.data[1], cs.data[2], reps[2], g, data[1]))
    raise ValueError("section actions are used on rank-0 bases only")
