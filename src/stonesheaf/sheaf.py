"""Constructible sheaves of finite-dimensional Q-vector spaces.

A sheaf over a presented space is stored recursively: stalks over a finite
space, a pair over a disjoint union, and over a cone a finite family of
exceptional copies, one tail sheaf governing all remaining copies, an apex
stalk, and a germ-spreading map from the apex stalk into the finite-data
global sections of the tail sheaf.  The germ target is the constructibility
restriction: a section through the apex is eventually one fixed section of
the tail sheaf, so all data stays finite while the examples that matter
(constants, skyscrapers, the ring cube, group-ring sheaves) are represented
faithfully.

Global sections over the whole space still form an infinite-dimensional
space, because a section may deviate from the tail on any finite set of
copies; individual sections are finite records.  The fixed-format subspace
with deviations only at the stored exceptional copies is the "finite-data"
section space `sec_space`, which is what germ maps land in.

Every map that is given stalk by stalk (zero, identity, composite, in
`homalg` the counit, the Hom parametrization and random combinations, and
in `cube` the unit maps between ring sheaves) is built by one recursion,
`_componentwise`.  It visits the components in a
fixed order: the stalks of a finite space by index, the left part of a sum
before the right, and at a cone the copies by increasing key, then the tail,
then the apex.  `apex_squares` is the one walk over the apex squares that
such a map must satisfy.

Every section record that is computed value by value (the image of a
section under a map, and the pointwise tensor of two sections) is built by
one recursion, `_sectionwise`, which walks records alongside maps.  It
visits the values in the order `_componentwise` visits components, except
that a section record has no tail: at a cone it visits, by increasing key,
every copy that any record or any map lists, then the apex.  A record that
does not list a copy is read there through the germ of its apex value, and
a map that does not list one through its tail map.  Scaling a section by a
locally constant function (`_scale_by_locconst`, which also extends
sections by zero) walks the function's data instead, and `_at` is the one
point lookup, for stalks of sheaves and stalk maps of sheaf maps alike.

A record is read against its sheaf by one walk, `_layout`, in that order,
except that at a cone it visits the copies the sheaf stores, then the apex.
It reads a copy the record does not list through its default, so a record
of one presentation is read in another as it is, and collects the record
minus its default at a copy the record lists but the sheaf does not store.
Coordinates, building from coordinates and the apex squares are its uses.
One fold, `_fold`, drops every copy entry equal to its default, except that
`sec_canonical` keeps those at stored copies, and `canonical` (for germ
records) those at copies that store a sheaf other than the tail.

Every sheaf made point by point from two sheaves, the direct sum and the
tensor product, is built by one recursion, `_pointwise`: a stalk from the
two stalks at every point, at every cone the union of the copies the two
sheaves store, and a germ column for each pair of apex vectors, combined
value by value from their two germ sections by `_sectionwise`.  The four
structure maps of a direct sum are `_componentwise` maps whose components
are the inclusions `_into` and the projections `_onto`, and `homalg`
builds an extension as a direct sum with a twisted germ.

The kernel and the cokernel of a map are built by one recursion,
`_stalkwise`, over the map and the sheaf on its other side (the source for
the kernel, the target for the cokernel): at every finite point and every
apex a stalk and its connecting map (the inclusion into the source, the
projection from the target) from the map's component there, at every cone
the copies that the map lists, and a germ column for each apex basis
vector.  The column is the germ section in the other sheaf of a lift of the
vector (its inclusion, or the basis vector at a free column of the
quotient), taken value by value by `_sectionwise` along the tail's
connecting map: by preimages for the kernel, by the projection for the
cokernel.

No operation conforms its arguments to a common set of stored copies.
`direct_sum` and `tensor` store, at every cone, the union of the copies
their two sheaves store, and `kernel` and `cokernel` the copies that their
map lists; every map they (and `homalg`) return goes between the sheaves
they were given.  `_refine` is the one place that makes a sheaf store more
copies without changing the sheaf: `canonical` stores every copy at which a
germ section deviates, and `align_pair` (which only builds the aligned
inputs that some tests pin) every copy that either sheaf stores.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    LinMap, VectQ, ZERO, direct_sum_space, kernel_basis, solve, _quotient)
from .adelic import _indicator_data, const_data
from .space import (
    Cone, Finite, SpaceExpr, Sum, Point, ClopenSet, validate_point,
    SpaceMismatch, enumerate_finite, set_is_finite, cone_member_set,
    apex_point, copy_point, fin_point, left_point, right_point)


# ---------------------------------------------------------------------------
# sheaves


@dataclass(frozen=True)
class CSheaf:
    """A constructible sheaf; `data` mirrors the space expression.

    `_localized` keeps `models.section_localize` of the sheaf by flag, and
    `_normal_form` keeps its `canonical` form."""

    space: SpaceExpr
    data: object

    @functools.cached_property
    def _localized(self) -> dict:
        """`models.section_localize(self, flag)` by flag: the vertex module
        and the localization map onto it, built together on first use and
        then kept.  It belongs to the object and is never looked up by
        equality; the localizations hold no reference back to it."""
        return {}

    @functools.cached_property
    def _normal_form(self) -> "CSheaf":
        """`canonical(self)` over a cone or a sum, computed on first use and
        then kept, like `_localized`.  The form holds no reference back to
        the sheaf, and its own `_normal_form` is not filled in."""
        return _normalize(self)

    # -- cone accessors ----------------------------------------------------
    def exc_dict(self) -> dict:
        _, exc, _tail, _apex, _germ = self.data
        return dict(exc)

    @property
    def tail(self) -> "CSheaf":
        return self.data[2]

    @property
    def apex(self) -> VectQ:
        return self.data[3]

    @property
    def germ(self) -> LinMap:
        return self.data[4]

    def copy_sheaf(self, k: int) -> "CSheaf":
        """The sheaf on copy k of a cone (stored exception or the tail)."""
        return self.exc_dict().get(k, self.tail)

    def stored_keys(self) -> tuple:
        return tuple(k for k, _ in self.data[1])


def make_cone_sheaf(space: Cone, exc: dict, tail: CSheaf, apex: VectQ, germ: LinMap) -> CSheaf:
    """Assemble a cone sheaf; stored copies may coincide with the tail (they
    then contribute finite-data section slots; `canonical` minimizes them)."""
    if germ.source != apex or germ.target != sec_space(tail):
        raise SpaceMismatch("germ map must go from the apex stalk to the tail sections")
    return CSheaf(space, ("cone", tuple(sorted(exc.items())), tail, apex, germ))


def make_fin_sheaf(space: Finite, stalks) -> CSheaf:
    stalks = tuple(stalks)
    if len(stalks) != space.n:
        raise SpaceMismatch("stalk count mismatch")
    return CSheaf(space, stalks)


def make_sum_sheaf(space: Sum, left: CSheaf, right: CSheaf) -> CSheaf:
    return CSheaf(space, (left, right))


def zero_sheaf(space: SpaceExpr) -> CSheaf:
    return constant(space, 0)


def constant(space: SpaceExpr, d: int) -> CSheaf:
    """The constant sheaf with d-dimensional stalks."""
    if d < 0:
        raise ValueError("negative dimension")
    V = VectQ.make(d)
    if isinstance(space, Finite):
        return make_fin_sheaf(space, [V] * space.n)
    if isinstance(space, Sum):
        return make_sum_sheaf(space, constant(space.left, d), constant(space.right, d))
    tail = constant(space.base, d)
    germ = LinMap.of(V, sec_space(tail), lambda v: sec_to_coords(tail, constant_section(tail, v)))
    return make_cone_sheaf(space, {}, tail, V, germ)


def constant_section(F: CSheaf, value) -> "Section":
    """The section of a constant-shaped sheaf taking the given stalk value."""
    if isinstance(F.space, Finite):
        return Section(F, tuple(tuple(value) for _ in range(F.space.n)))
    if isinstance(F.space, Sum):
        l, r = F.data
        return Section(F, (constant_section(l, value).data, constant_section(r, value).data))
    return Section(F, ("sec", (), tuple(value)))


def skyscraper(space: SpaceExpr, x: Point, d: int) -> CSheaf:
    """The sheaf with stalk Q^d at x and zero elsewhere."""
    validate_point(space, x)
    return _sky(space, x.addr, d)


def _sky(space, addr, d):
    V = VectQ.make(d)
    if isinstance(space, Finite):
        return make_fin_sheaf(space, [V if i == addr[1] else VectQ.make(0) for i in range(space.n)])
    if isinstance(space, Sum):
        if addr[0] == "L":
            return make_sum_sheaf(space, _sky(space.left, addr[1], d), zero_sheaf(space.right))
        return make_sum_sheaf(space, zero_sheaf(space.left), _sky(space.right, addr[1], d))
    tail = zero_sheaf(space.base)
    if addr[0] == "apex":
        return make_cone_sheaf(space, {}, tail, V, LinMap.zero(V, sec_space(tail)))
    exc = {addr[1]: _sky(space.base, addr[2], d)}
    return make_cone_sheaf(space, exc, tail, VectQ.make(0),
                           LinMap.zero(VectQ.make(0), sec_space(tail)))


def stalk(F: CSheaf, x: Point) -> VectQ:
    validate_point(F.space, x)
    return _at(F, x.addr)


def _at(obj, addr):
    """The stalk of a sheaf, or the stalk map of a sheaf map, at an address.
    Both store a finite space's stalks by index, a sum as a pair and a cone
    as (tag, stored copies, tail, apex, ...)."""
    kind = addr[0]
    if kind == "fin":
        return obj.data[addr[1]]
    if kind == "apex":
        return obj.data[3]
    if kind == "copy":
        return _at(dict(obj.data[1]).get(addr[1], obj.data[2]), addr[2])
    return _at(obj.data[0 if kind == "L" else 1], addr[1])


# ---------------------------------------------------------------------------
# sections


@dataclass(frozen=True)
class Section:
    """A constructible global section; may deviate from the tail pattern at
    finitely many copies of each cone, listed or not in the sheaf itself."""

    sheaf: CSheaf
    data: object


def sec_dim(F: CSheaf) -> int:
    if isinstance(F.space, Finite):
        return sum(sp.dim for sp in F.data)
    if isinstance(F.space, Sum):
        return sec_dim(F.data[0]) + sec_dim(F.data[1])
    return sum(sec_dim(G) for _, G in F.data[1]) + F.apex.dim


def sec_space(F: CSheaf) -> VectQ:
    return VectQ.make(sec_dim(F), "s")


def sec_to_coords(F: CSheaf, s: Section):
    """Coordinates in the finite-data section space; the section must not
    deviate outside the sheaf's stored exceptional copies."""
    out, deviations = [], []
    _layout(F, s.data, out.extend, deviations)
    if any(deviations):
        raise ValueError("section deviates outside the stored copies")
    return tuple(out)


def sec_from_coords(F: CSheaf, coords) -> Section:
    pos = 0
    def take(V):
        nonlocal pos
        pos += V.dim
        return tuple(coords[pos - V.dim:pos])
    data = _layout(F, None, take, None)
    if pos != len(coords):
        raise ValueError("coordinate length mismatch")
    return Section(F, data)


def _layout(F, data, leaf, deviations):
    """The record of F whose value at every finite-data slot is `leaf` of the
    value of the record `data` there, or of the slot's stalk if `data` is
    None; see the module docstring."""
    if isinstance(F.space, Finite):
        return tuple(map(leaf, F.data if data is None else data))
    if isinstance(F.space, Sum):
        left, right = data or (None, None)
        return (_layout(F.data[0], left, leaf, deviations),
                _layout(F.data[1], right, leaf, deviations))
    stored = F.data[1]
    if data is None:
        return ("sec", tuple([(k, _layout(G, None, leaf, None)) for k, G in stored]),
                leaf(F.apex))
    _, exc, apexv = data
    listed, keys, default = dict(exc), dict(stored), None
    for k, sub in exc:
        if k not in keys:
            if default is None:
                default = germ_section(F, apexv).data
            _sectionwise([F.tail, F.tail], [sub, default], [],
                         lambda a, b: deviations.extend(x - y for x, y in zip(a, b)))
    copies = []
    for k, G in stored:
        sub = listed[k] if k in listed else _copy_default(F, k, apexv)
        copies.append((k, _layout(G, sub, leaf, deviations)))
    return ("sec", tuple(copies), leaf(apexv))


def germ_section(F: CSheaf, apexv) -> Section:
    """The tail section spread from an apex value (the germ representative)."""
    coords = F.germ.apply(tuple(apexv))
    return sec_from_coords(F.tail, coords)


def sec_canonical(s: Section) -> Section:
    """The section's record with every copy entry that equals its default
    dropped, except at the copies that its sheaf stores."""
    return Section(s.sheaf, _fold(s.sheaf, s.data, lambda F, k: k in F.stored_keys()))


def _fold(F, data, keep):
    """The record `data` of F with, at every cone, every copy entry that
    equals its default (the germ of the apex value, folded alike) dropped,
    unless `keep(F, k)` holds for the copy k; entries are folded first."""
    if isinstance(F.space, Finite):
        return data
    if isinstance(F.space, Sum):
        return (_fold(F.data[0], data[0], keep), _fold(F.data[1], data[1], keep))
    _, exc, apexv = data
    cleaned, default = [], None
    for k, sub in sorted(exc):
        sub = _fold(F.copy_sheaf(k), sub, keep)
        if not keep(F, k):
            if default is None:
                default = _fold(F.tail, germ_section(F, apexv).data, keep)
            if sub == default:
                continue
        cleaned.append((k, sub))
    return ("sec", tuple(cleaned), tuple(apexv))


def _exceptional(F, k):
    """Whether copy k of F stores a sheaf that is not a presentation of the tail."""
    G = F.copy_sheaf(k)
    return G != F.tail and canonical(G) != canonical(F.tail)


def _copy_default(F, k, apexv):
    """The section value of a tail-carrying copy, spread from the apex: a record
    of the tail, read as one of the copy's sheaf (maybe another presentation)."""
    if _exceptional(F, k):
        raise ValueError("section must list genuinely exceptional copies")
    return germ_section(F, apexv).data


def sec_eval(F: CSheaf, s: Section, x: Point):
    """The value of a section at a point."""
    validate_point(F.space, x)
    return _sec_eval(F, s.data, x.addr)


def _sec_eval(F, data, addr):
    kind = addr[0]
    if kind == "fin":
        return data[addr[1]]
    if kind == "apex":
        return data[2]
    if kind == "copy":
        k = addr[1]
        sub = dict(data[1]).get(k)
        if sub is None:
            sub = _copy_default(F, k, data[2])
        return _sec_eval(F.copy_sheaf(k), sub, addr[2])
    i = 0 if kind == "L" else 1
    return _sec_eval(F.data[i], data[i], addr[1])


# ---------------------------------------------------------------------------
# sheaf maps


@dataclass(frozen=True)
class SheafMap:
    """A map of constructible sheaves.

    Components mirror the cone structure: one map per copy listed in either
    sheaf, one tail map, one apex map.  The apex square must commute: taking
    finite-data sections of the tail map and precomposing with the source
    germ equals the target germ after the apex map.
    """

    source: CSheaf
    target: CSheaf
    data: object

    def exc_dict(self) -> dict:
        return dict(self.data[1])

    @property
    def tail_map(self) -> "SheafMap":
        return self.data[2]

    @property
    def apex_map(self) -> LinMap:
        return self.data[3]

    def copy_map(self, k: int) -> "SheafMap":
        return self.exc_dict().get(k, self.tail_map)


class GermSquareError(ValueError):
    pass


def make_cone_map(F: CSheaf, G: CSheaf, exc: dict, tail: "SheafMap", apex: LinMap,
                  check: bool = True) -> SheafMap:
    keys = set(F.stored_keys()) | set(G.stored_keys()) | set(exc)
    comps = {}
    for k in sorted(keys):
        m = exc.get(k)
        if m is None:
            if k in F.stored_keys() or k in G.stored_keys():
                raise SpaceMismatch(f"missing map component at stored copy {k}")
            m = tail
        if m.source != F.copy_sheaf(k) or m.target != G.copy_sheaf(k):
            raise SpaceMismatch(f"copy {k} component has wrong endpoints")
        comps[k] = m
    if check:
        lhs, rhs = _apex_square(F, G, tail, apex)
        if lhs != rhs:
            raise GermSquareError("apex square does not commute")
    cleaned = tuple(sorted((k, m) for k, m in comps.items()
                           if not (m == tail and k not in F.stored_keys() and k not in G.stored_keys())))
    return SheafMap(F, G, ("conemap", cleaned, tail, apex))


def make_fin_map(F: CSheaf, G: CSheaf, maps) -> SheafMap:
    maps = tuple(maps)
    for i, m in enumerate(maps):
        if m.source != F.data[i] or m.target != G.data[i]:
            raise SpaceMismatch(f"stalk map {i} has wrong endpoints")
    return SheafMap(F, G, maps)


def make_sum_map(F: CSheaf, G: CSheaf, left: SheafMap, right: SheafMap) -> SheafMap:
    return SheafMap(F, G, (left, right))


def _componentwise(F: CSheaf, G: CSheaf, maps, stalk) -> SheafMap:
    """The map F -> G whose component at every finite stalk and every apex is
    `stalk(src, tgt, *components of maps there)`; see the module docstring
    for the visiting order.  Apex squares are not checked."""
    if isinstance(F.space, Finite):
        return make_fin_map(F, G, [stalk(a, b, *(m.data[i] for m in maps))
                                   for i, (a, b) in enumerate(zip(F.data, G.data))])
    if isinstance(F.space, Sum):
        left, right = (_componentwise(F.data[i], G.data[i], [m.data[i] for m in maps], stalk)
                       for i in (0, 1))
        return make_sum_map(F, G, left, right)
    keys = set(F.stored_keys()) | set(G.stored_keys())
    for m in maps:
        keys |= {k for k, _ in m.data[1]}
    exc = {k: _componentwise(F.copy_sheaf(k), G.copy_sheaf(k), [m.copy_map(k) for m in maps],
                             stalk)
           for k in sorted(keys)}
    tail = _componentwise(F.tail, G.tail, [m.tail_map for m in maps], stalk)
    apex = stalk(F.apex, G.apex, *(m.apex_map for m in maps))
    return make_cone_map(F, G, exc, tail, apex, check=False)


def zero_map(F: CSheaf, G: CSheaf) -> SheafMap:
    return _componentwise(F, G, [], LinMap.zero)


def identity_map(F: CSheaf) -> SheafMap:
    return _componentwise(F, F, [], lambda a, _b: LinMap.identity(a))


def compose(f: SheafMap, g: SheafMap) -> SheafMap:
    """f followed by g."""
    if f.target != g.source:
        raise SpaceMismatch("composition mismatch")
    return _componentwise(f.source, g.target, [f, g], lambda _a, _b, x, y: x.then(y))


def sec_functor(f: SheafMap) -> LinMap:
    """The induced map on finite-data section spaces.

    Raises `ValueError` when the image of a finite-data section deviates at
    a copy that the target does not store: no such map exists then."""
    F, G = f.source, f.target
    return LinMap.of(sec_space(F), sec_space(G),
                     lambda v: sec_to_coords(G, apply_map(f, sec_from_coords(F, v))))


def apply_map(f: SheafMap, s: Section) -> Section:
    if s.sheaf != f.source:
        raise SpaceMismatch("section does not live in the map's source")
    return Section(f.target, _sectionwise([f.source], [s.data], [f], lambda v, m: m.apply(v)))


def _sectionwise(sheaves, records, maps, leaf):
    """The section record whose value at every finite stalk and every apex is
    `leaf(*values of records there, *components of maps there)`, record i
    being a section record of `sheaves[i]`; see the module docstring for the
    visiting order."""
    space = sheaves[0].space
    if isinstance(space, Finite):
        return tuple(leaf(*(r[i] for r in records), *(m.data[i] for m in maps))
                     for i in range(space.n))
    if isinstance(space, Sum):
        return tuple(_sectionwise([F.data[i] for F in sheaves], [r[i] for r in records],
                                  [m.data[i] for m in maps], leaf)
                     for i in (0, 1))
    listed = [dict(r[1]) for r in records]
    keys = set().union(*listed, *({k for k, _ in m.data[1]} for m in maps))
    copies = tuple(
        (k, _sectionwise([F.copy_sheaf(k) for F in sheaves],
                         [exc[k] if k in exc else _copy_default(F, k, r[2])
                          for F, r, exc in zip(sheaves, records, listed)],
                         [m.copy_map(k) for m in maps], leaf))
        for k in sorted(keys))
    return ("sec", copies, leaf(*(r[2] for r in records), *(m.apex_map for m in maps)))


def stalk_map(f: SheafMap, x: Point) -> LinMap:
    validate_point(f.source.space, x)
    return _at(f, x.addr)


def _apex_square(F: CSheaf, G: CSheaf, tail: SheafMap, apex: LinMap):
    """The two sides of the apex square of a cone map F -> G with the given
    tail and apex components: the germ of F followed by the tail map, and
    the apex map followed by the germ of G, in the finite-data coordinates
    of the tail of G.  Only the germ's image is mapped, so G need not store
    the copies that the tail of F stores.  Where an image deviates at a
    copy that the tail of G does not store, the deviation is appended as
    extra coordinates, which are 0 on the other side: the square commutes
    iff the two maps are equal."""
    cols, n_extra = [], 0
    for i in range(F.apex.dim):
        col, deviations = [], []
        _layout(G.tail, apply_map(tail, germ_section(F, F.apex.basis_vec(i))).data, col.extend,
                deviations)
        cols.append(col + deviations)
        n_extra = len(deviations)  # alike for every column: the images list the same copies
    spread = apex.then(G.germ)
    V = VectQ.make(spread.target.dim + n_extra, "s")
    pad = ((ZERO,) * spread.source.dim,) * n_extra
    return LinMap.from_cols(F.apex, V, cols), LinMap(spread.source, V, spread.matrix + pad)


def apex_squares(f: SheafMap):
    """Yield the `_apex_square` (germ then the tail map, apex map then germ)
    at every cone of f: the cone itself, then its copies, then its tail."""
    F = f.source
    if isinstance(F.space, Finite):
        return
    if isinstance(F.space, Sum):
        yield from apex_squares(f.data[0])
        yield from apex_squares(f.data[1])
        return
    yield _apex_square(F, f.target, f.tail_map, f.apex_map)
    for _, m in f.data[1]:
        yield from apex_squares(m)
    yield from apex_squares(f.tail_map)


def check_sheaf_map(f: SheafMap) -> bool:
    """Validate all apex squares (used for maps assembled with check=False)."""
    return all(lhs == rhs for lhs, rhs in apex_squares(f))


def _probe_points(space, sheaves_and_maps):
    """Every stored stalk plus one generic tail copy per cone level."""
    if isinstance(space, Finite):
        return [fin_point(i) for i in range(space.n)]
    if isinstance(space, Sum):
        lefts = _probe_points(space.left, [o.data[0] for o in sheaves_and_maps])
        rights = _probe_points(space.right, [o.data[1] for o in sheaves_and_maps])
        return [left_point(p) for p in lefts] + [right_point(p) for p in rights]
    keys = set()
    for obj in sheaves_and_maps:
        if isinstance(obj, CSheaf):
            keys |= set(obj.stored_keys())
        else:
            keys |= {k for k, _ in obj.data[1]}
            keys |= set(obj.source.stored_keys()) | set(obj.target.stored_keys())
    generic = (max(keys) + 1) if keys else 0
    out = [apex_point()]
    for k in sorted(keys) + [generic]:
        subs = [obj.copy_sheaf(k) if isinstance(obj, CSheaf) else obj.copy_map(k)
                for obj in sheaves_and_maps]
        out.extend(copy_point(k, q) for q in _probe_points(space.base, subs))
    return out


# ---------------------------------------------------------------------------
# refinement


def _refine(T: CSheaf, sheaves, records) -> CSheaf:
    """T with, at every cone, every copy stored that one of `sheaves` (over
    the same space) stores or one of the section `records` lists.  Records
    constrain copies, never tails.  The sheaf is unchanged; only its stored
    copies grow, and the germ is re-coordinatized where the tail grows."""
    if isinstance(T.space, Finite):
        return T
    if isinstance(T.space, Sum):
        return CSheaf(T.space, tuple(_refine(T.data[i], [S.data[i] for S in sheaves],
                                             [r[i] for r in records]) for i in (0, 1)))
    listed = [dict(r[1]) for r in records]
    keys = set(T.stored_keys()).union(*(S.stored_keys() for S in sheaves), *listed)
    exc = tuple((k, _refine(T.copy_sheaf(k), [S.copy_sheaf(k) for S in sheaves],
                            [sub[k] for sub in listed if k in sub]))
                for k in sorted(keys))
    tail = _refine(T.tail, [S.tail for S in sheaves], [])
    return CSheaf(T.space, ("cone", exc, tail, T.apex, _reencode_germ(T, tail)))


def _reencode_germ(F: CSheaf, new_tail: CSheaf) -> LinMap:
    """Express the germ map in the (possibly enlarged) tail section space."""
    if new_tail == F.tail:
        return F.germ
    return LinMap.of(F.apex, sec_space(new_tail),
                     lambda v: sec_to_coords(new_tail, Section(new_tail, germ_section(F, v).data)))


def align_pair(F: CSheaf, G: CSheaf) -> tuple[CSheaf, CSheaf]:
    """F and G, each storing at every cone every copy that either stores.
    No operation aligns its arguments; this only builds the aligned inputs
    that some tests pin."""
    return _refine(F, [G], []), _refine(G, [F], [])


def canonical(F: CSheaf) -> CSheaf:
    """The minimal-threshold normal form, the same for every presentation of
    a sheaf: a stored copy is dropped when its canonical form is the tail's,
    and the tail stores, beyond its own canonical copies, the copies at
    which a germ section deviates.

    A sheaf over a finite space is its own normal form.  Any other sheaf
    keeps its normal form once computed (`CSheaf._normal_form`), per object,
    never by equality; the form it returns computes its own afresh."""
    return F if isinstance(F.space, Finite) else F._normal_form


def _normalize(F: CSheaf) -> CSheaf:
    """`canonical` of a sheaf over a sum or a cone, computed."""
    if isinstance(F.space, Sum):
        return CSheaf(F.space, (canonical(F.data[0]), canonical(F.data[1])))
    tail_c = canonical(F.tail)
    germ_recs = [_fold(F.tail, germ_section(F, F.apex.basis_vec(i)).data, _exceptional)
                 for i in range(F.apex.dim)]
    tail_f = _refine(tail_c, [], germ_recs)
    cols = [sec_to_coords(tail_f, Section(tail_f, rec)) for rec in germ_recs]
    germ = LinMap.from_cols(F.apex, sec_space(tail_f), cols)
    exc = {}
    for k, G in F.data[1]:
        Gc = canonical(G)
        if Gc != tail_c:
            exc[k] = Gc
    return CSheaf(F.space, ("cone", tuple(sorted(exc.items())), tail_f, F.apex, germ))


def sheaves_equal(F: CSheaf, G: CSheaf) -> bool:
    """Whether F and G present one sheaf.  Structurally identical
    presentations are equal without their normal forms; otherwise the two
    kept normal forms (`canonical`) are compared."""
    return F == G or canonical(F) == canonical(G)


# ---------------------------------------------------------------------------
# abelian-category structure


def direct_sum(F: CSheaf, G: CSheaf):
    """Returns (F⊕G, include_F, include_G, project_F, project_G)."""
    if F.space != G.space:
        raise SpaceMismatch("direct sum over different spaces")
    S = _pointwise(F, G, lambda a, b: direct_sum_space([a, b], ["l", "r"]),
                   lambda x, y: x + y, _summand_pairs)
    maps = (_componentwise(F, S, [], lambda a, s: _into(a, s, 0)),
            _componentwise(G, S, [], lambda b, s: _into(b, s, s.dim - b.dim)),
            _componentwise(S, F, [], lambda s, a: _onto(s, a, 0)),
            _componentwise(S, G, [], lambda s, b: _onto(s, b, s.dim - b.dim)))
    if not all(map(check_sheaf_map, maps)):
        raise GermSquareError("apex square does not commute")
    return (S, *maps)


def _summand_pairs(a: VectQ, b: VectQ) -> list:
    """The basis of a ⊕ b as pairs: (e_i, 0) for a, then (0, e_j) for b."""
    return ([(a.basis_vec(i), (ZERO,) * b.dim) for i in range(a.dim)] +
            [((ZERO,) * a.dim, b.basis_vec(j)) for j in range(b.dim)])


def _into(a: VectQ, s: VectQ, at: int) -> LinMap:
    """The inclusion of a into s as the coordinates from offset `at` on."""
    return LinMap.from_cols(a, s, [s.basis_vec(at + i) for i in range(a.dim)])


def _onto(s: VectQ, a: VectQ, at: int) -> LinMap:
    """The projection of s onto the coordinates that `_into(a, s, at)` includes."""
    return LinMap.from_rows(s, a, [s.basis_vec(at + i) for i in range(a.dim)])


def _pointwise(F: CSheaf, G: CSheaf, stalk, vec, pairs) -> CSheaf:
    """The sheaf whose stalk at every point is `stalk(a, b)` of the stalks a
    of F and b of G there, and which stores at every cone the copies that F
    or G stores.  Its germ column for the i-th pair (u, v) of
    `pairs(apex of F, apex of G)` is the tail section whose value at every
    point is `vec` of the values there of the germ sections of u and v."""
    if isinstance(F.space, Finite):
        return make_fin_sheaf(F.space, [stalk(a, b) for a, b in zip(F.data, G.data)])
    if isinstance(F.space, Sum):
        return make_sum_sheaf(F.space, *(_pointwise(F.data[i], G.data[i], stalk, vec, pairs)
                                         for i in (0, 1)))
    tail = _pointwise(F.tail, G.tail, stalk, vec, pairs)
    apex = stalk(F.apex, G.apex)
    cols = [sec_to_coords(tail, Section(tail, _sectionwise(
                [F.tail, G.tail], [germ_section(F, u).data, germ_section(G, v).data], [], vec)))
            for u, v in pairs(F.apex, G.apex)]
    exc = {k: _pointwise(F.copy_sheaf(k), G.copy_sheaf(k), stalk, vec, pairs)
           for k in set(F.stored_keys()) | set(G.stored_keys())}
    return make_cone_sheaf(F.space, exc, tail, apex, LinMap.from_cols(apex, sec_space(tail), cols))


def _subspace(amb: VectQ, basis, prefix="k") -> tuple[VectQ, LinMap]:
    K = VectQ.make(len(basis), prefix)
    return K, LinMap.from_cols(K, amb, [tuple(b) for b in basis])


def kernel(f: SheafMap) -> tuple[CSheaf, SheafMap]:
    """The kernel sheaf with its inclusion; stalks are kernels stalkwise."""
    return _stalkwise(f, f.source, _kernel_stalk, _preimage, lambda K, F: (K, F))


def _kernel_stalk(m: LinMap):
    K, incl = _subspace(m.source, kernel_basis(m))
    return K, incl, incl.col


def _preimage(v, incl: LinMap):
    x = solve(incl, v)
    if x is None:
        raise AssertionError("kernel germ does not factor through kernel sections")
    return x


def cokernel(f: SheafMap) -> tuple[CSheaf, SheafMap]:
    """The cokernel sheaf with its projection."""
    return _stalkwise(f, f.target, _cokernel_stalk, lambda v, pr: pr.apply(v),
                      lambda Q, G: (G, Q))


def _cokernel_stalk(m: LinMap):
    # lift by the basis vectors at the free columns: any lift gives the same
    # germ, since the projection kills the germ of the apex map's image
    Q, pr, free = _quotient(m.target, m.cols())
    return Q, pr, lambda i: m.target.basis_vec(free[i])


def _stalkwise(f: SheafMap, X: CSheaf, stalk, value, ends) -> tuple[CSheaf, SheafMap]:
    """The sheaf S whose stalk at every finite point and every apex is S_x of
    `stalk(m) = (S_x, c, lift)` for the component m of f there, and which
    stores at every cone the copies that f lists, with the map between S and
    X, from `ends(S, X)[0]` to `ends(S, X)[1]`, whose component there is c.
    S's germ sends the i-th apex basis vector to the germ section in X of
    `lift(i)`, taken value by value as `value(v, t)` of its value v and the
    component t of the tail's map."""
    if isinstance(X.space, Finite):
        parts = [stalk(m) for m in f.data]
        S = make_fin_sheaf(X.space, [p[0] for p in parts])
        return S, make_fin_map(*ends(S, X), [p[1] for p in parts])
    if isinstance(X.space, Sum):
        (left, lc), (right, rc) = (_stalkwise(f.data[i], X.data[i], stalk, value, ends)
                                   for i in (0, 1))
        S = make_sum_sheaf(X.space, left, right)
        return S, make_sum_map(*ends(S, X), lc, rc)
    tail, tc = _stalkwise(f.tail_map, X.tail, stalk, value, ends)
    exc = {k: _stalkwise(m, X.copy_sheaf(k), stalk, value, ends) for k, m in f.data[1]}
    apex, ac, lift = stalk(f.apex_map)
    cols = [sec_to_coords(tail, Section(tail, _sectionwise(
                [X.tail], [germ_section(X, lift(i)).data], [tc], value)))
            for i in range(apex.dim)]
    S = make_cone_sheaf(X.space, {k: v[0] for k, v in exc.items()}, tail, apex,
                        LinMap.from_cols(apex, sec_space(tail), cols))
    return S, make_cone_map(*ends(S, X), {k: v[1] for k, v in exc.items()}, tc, ac,
                            check=False)


def tensor(F: CSheaf, G: CSheaf) -> CSheaf:
    if F.space != G.space:
        raise SpaceMismatch("tensor over different spaces")
    return _pointwise(F, G, _tensor_space, _tensor_vec, lambda a, b: [
        (a.basis_vec(i), b.basis_vec(j)) for i in range(a.dim) for j in range(b.dim)])


def _tensor_space(a: VectQ, b: VectQ) -> VectQ:
    labels = tuple(f"{x}*{y}" for x in a.labels for y in b.labels)
    return VectQ.labelled(labels)


def _tensor_vec(a, b):
    return tuple(x * y for x in a for y in b)


# ---------------------------------------------------------------------------
# sections over clopen sets, softness


@dataclass(frozen=True)
class SectionModule:
    """Finite-exception presentation of the sections over an infinite clopen
    set: section spaces of the stored exceptional copies, the space available
    on each generic copy independently, and the apex-coupled part."""

    exceptional: dict
    generic_copy: VectQ
    coupled: VectQ


@dataclass(frozen=True)
class SumSections:
    """Sections over a clopen set of a disjoint union, one part each."""

    left: object
    right: object


def sections(F: CSheaf, U: ClopenSet):
    """Sections over a clopen set: a labelled space when U is finite, the
    finite-exception module presentation when U is infinite."""
    if set_is_finite(F.space, U):
        pts = enumerate_finite(F.space, U)
        spaces = [stalk(F, p) for p in pts]
        return direct_sum_space(spaces, [str(p) for p in pts])
    if isinstance(F.space, Sum):
        return SumSections(sections(F.data[0], U.left), sections(F.data[1], U.right))
    exc = {k: sections(G, cone_member_set(U, F.space, k)) for k, G in F.data[1]}
    gen = sec_space(F.tail) if U.apex else VectQ.make(0)
    coupled = F.apex if U.apex else VectQ.make(0)
    return SectionModule(exc, gen, coupled)


def _scale_by_locconst(F, fdata, sdata):
    """The record of the section sdata of F times the locally constant
    function with data fdata (empty flag), pointwise."""
    space = F.space
    if isinstance(space, Finite):
        return tuple(tuple(fdata[i] * c for c in v) for i, v in enumerate(sdata))
    if isinstance(space, Sum):
        return (_scale_by_locconst(F.data[0], fdata[0], sdata[0]),
                _scale_by_locconst(F.data[1], fdata[1], sdata[1]))
    _, fexc, ftail = fdata
    _, sexc, apexv = sdata
    keys = set(fexc) | set(dict(sexc))
    out = []
    for k in sorted(keys):
        sub_f = fexc.get(k, const_data(space.base, (), ftail))
        sub_s = dict(sexc).get(k)
        if sub_s is None:
            sub_s = _copy_default(F, k, apexv)
        out.append((k, _scale_by_locconst(F.copy_sheaf(k), sub_f, sub_s)))
    return ("sec", tuple(out), tuple(ftail * c for c in apexv))


def extend_section(F: CSheaf, U: ClopenSet, s: Section) -> Section:
    """Extend a section given over the clopen U by zero to a global section:
    the section times the indicator function of U.

    The input is a global-shaped record whose values outside U are ignored;
    closed sets are handled by passing a clopen representative containing
    them.  Sections over these spaces always extend (softness).
    """
    return sec_canonical(Section(F, _scale_by_locconst(F, _indicator_data(F.space, (), U),
                                                       s.data)))


# ---------------------------------------------------------------------------
# randomized constructible sheaves and sections (seeded)


def random_csheaf(space: SpaceExpr, rng: random.Random, dim_bound: int = 2,
                  exc_bound: int = 1) -> CSheaf:
    if isinstance(space, Finite):
        return make_fin_sheaf(space, [VectQ.make(rng.randint(0, dim_bound))
                                      for _ in range(space.n)])
    if isinstance(space, Sum):
        return make_sum_sheaf(space, random_csheaf(space.left, rng, dim_bound, exc_bound),
                              random_csheaf(space.right, rng, dim_bound, exc_bound))
    tail = random_csheaf(space.base, rng, dim_bound, exc_bound)
    nexc = rng.randint(0, exc_bound)
    exc = {k: random_csheaf(space.base, rng, dim_bound, exc_bound) for k in range(nexc)}
    apex = VectQ.make(rng.randint(0, dim_bound))
    st = sec_space(tail)
    germ = LinMap.from_rows(apex, st,
                            [[Fraction(rng.randint(-2, 2)) for _ in range(apex.dim)]
                             for _ in range(st.dim)])
    return make_cone_sheaf(space, exc, tail, apex, germ)


def random_section(F: CSheaf, rng: random.Random, deviate: int = 1) -> Section:
    """A random constructible section, possibly deviating beyond the stored
    copies of each cone."""
    coords = tuple(Fraction(rng.randint(-3, 3)) for _ in range(sec_dim(F)))
    s = sec_from_coords(F, coords)
    data = _sec_deviate(F, s.data, rng, deviate)
    return sec_canonical(Section(F, data))


def _sec_deviate(F, data, rng, deviate):
    if isinstance(F.space, Finite) or deviate <= 0:
        return data
    if isinstance(F.space, Sum):
        return (_sec_deviate(F.data[0], data[0], rng, deviate),
                _sec_deviate(F.data[1], data[1], rng, deviate))
    _, exc, apexv = data
    out = dict(exc)
    stored = set(F.stored_keys())
    for _ in range(rng.randint(0, deviate)):
        k = rng.randint(0, 3 + len(stored))
        if k in stored or k in out:
            continue
        coords = tuple(Fraction(rng.randint(-3, 3)) for _ in range(sec_dim(F.tail)))
        out[k] = sec_from_coords(F.tail, coords).data
    return ("sec", tuple(sorted(out.items())), apexv)
