"""Component structures, equivariant sheaves, and group-ring machinery.

A component structure assigns a finite group to each point, tail-uniformly:
one group per cone level beyond finitely many exceptional copies, with a
structure homomorphism from each tail's top group up to its cone's apex
group.  The structure maps between points are composites of these, and the
level table (`_levels`) is their one model: per height a, the group at the
generic points of height a and the homomorphism into it from each lower
height b; a sum takes height a from its first part that reaches a, but the
homomorphism from b in its own top row from its first part that reaches b.
The attached sheaf of group rings has the group ring as stalk and germ
components that restrict coefficients to the image of the structure
homomorphism and then average over its kernel; with that normalization the
components are multiplicative and the generator construction extends stalk
elements consistently.

`EqAdelicComplex` takes only a structure that its table resolves
(`validate_structure_levels`, run at every cone): every point of the tail
must reach the apex by the table's homomorphism from its height, so no
summand of a sum tail carries a chain of its own, and the germ components
must compose along the table, for the cube differentials to square to zero.

Every walk over a whole equivariant sheaf is one recursion, `_equivwise`,
which follows the component structure and reads sheaves, sheaf maps,
sections and `reps` trees alongside it.  At a cone it visits, by increasing
key, every copy that the structure makes exceptional or that one of them
lists (a sheaf or map its stored copies, a section or action the copies it
lists), then the tail, then the apex.  A copy that one of them does not list
is read through its tail, a section's through the germ of its apex value.
`make_equiv`, the actions of `trivial_equiv` and `group_ring_sheaf`, both
equivariance checks, `average`, the section action and `generator_epi`,
whose sites are the points it visits, are its uses.

The equivariant splicing rings keep the cube combinatorics of the scalar
case with group-ring leaves: they run the recursions of `adelic` (normal
forms, ring operations, cube maps, exactness witnesses, cocycle sampling)
with `GroupRingLeaves`, which follows the component structure into summands
and copies and spreads a leaf down a level through the germ component
`level_germ(...)`.  `EqCFun` is the ring element of `adelic` and
`EqAdelicComplex` the complex of `adelic` with these leaves; only their
component structure and the augmentation of group-ring sections
(`GroupRingLeaves.augment`) are their own; the sampler's differential
spreads linear forms through the same `spread` (`adelic._kernel_rref`).
With trivial groups everything collapses bitwise onto the scalar complex.

What is computed once is kept.  A `FinGroup` keeps the identity and the
inverse table its validation finds, and its sign characters once asked for.
A `ComponentStructure` object keeps its level table, its group-ring sheaf
and the germ component of each level pair once built
(`ComponentStructure.kept`).  None of it takes part in equality, hashing or
the repr, and none of it is shared between equal objects: equal structures
may name their groups differently, and the names are serialized.
`average_stalk` sums its products over integer numerators into `int`
accumulators, with one common denominator for the map, one for the source
representation's matrices and one for the target's, and builds each output
entry once.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import DimensionError, LinMap, QQ, VectQ, ZERO, ONE, block_map, rank as map_rank
from .space import (Cone, Finite, SpaceExpr, Sum, cb_rank, Point, apex_point,
                    copy_point, fin_point, left_point, right_point, validate_point)
from .adelic import (
    AdelicComplex, CFun, _map_leaves, _sample_cocycle, build_complex, random_cfun,
    random_cocycle)
from .sheaf import (
    CSheaf, Section, SheafMap, check_sheaf_map, constant_section, germ_section, make_cone_map,
    make_cone_sheaf, make_fin_map, make_fin_sheaf, make_sum_map, make_sum_sheaf,
    sec_functor, sec_space, sec_to_coords, stalk, stalk_map, _copy_default)


# ---------------------------------------------------------------------------
# finite groups


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class FinGroup:
    """A finite group as a multiplication table on indices 0..n-1.

    Validation finds the identity and every inverse, and the group keeps
    them (`identity`, `inverses`), so `inv` is a lookup; like the name they
    take no part in equality, hashing or the repr."""

    table: tuple
    name: str = field(default="G", compare=False)
    identity: int = field(init=False, compare=False, repr=False)
    inverses: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.table)
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupError("malformed multiplication table")
        e = next((e for e in range(n)
                  if all(self.table[e][g] == g == self.table[g][e] for g in range(n))), None)
        if e is None:
            raise GroupError("no identity element")
        inverses = tuple(next((b for b in range(n) if self.table[a][b] == e), None)
                         for a in range(n))
        if None in inverses:
            raise GroupError("missing inverse")
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "inverses", inverses)
        for a, b, c in itertools.product(range(n), repeat=3):
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise GroupError("multiplication is not associative")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self):
        return range(self.order)

    @functools.cached_property
    def sign_characters(self) -> tuple:
        """All homomorphisms into {1, -1} (the rational one-dimensional
        characters), found on first use and then kept."""
        return tuple(bits for bits in itertools.product((1, -1), repeat=self.order)
                     if bits[self.identity] == 1
                     and all(bits[self.mul(a, b)] == bits[a] * bits[b]
                             for a in self.elements() for b in self.elements()))


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
    group.  Deeper maps to the apex are composites, read from the level
    table; the equivariant complex refuses a structure whose table does not
    give every tail point its composite (`validate_structure_levels`).
    """

    space: SpaceExpr
    data: tuple  # Finite: ("fin", groups) | ("sum", l, r)
    #            | ("cone", exc, tail_cs, apex_group, up_hom)

    @functools.cached_property
    def kept(self) -> dict:
        """What is built from this structure object once and then kept with
        it: the level table (`_levels`), the group-ring sheaf
        (`group_ring_sheaf`) and the germ component of each level pair
        (`level_germ`).  It belongs to the object and is never looked up by
        equality, since equal structures may name their groups differently."""
        return {}

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
    """The group at the top-stratum points (tail structures are uniform),
    where the level table's homomorphism from height 0 lands."""
    return _levels(cs)[1][0].target


def _uniform(cs: ComponentStructure) -> bool:
    if cs.data[0] == "fin":
        return all(g == cs.data[1][0] for g in cs.data[1])
    if cs.data[0] == "sum":
        return (_uniform(cs.data[1]) and _uniform(cs.data[2])
                and top_group(cs.data[1]) == top_group(cs.data[2]))
    exc, tail_cs, _apex, _up = cs.cone_parts()
    return not exc and _uniform(tail_cs)


def trivial_structure(space: SpaceExpr) -> ComponentStructure:
    return constant_structure(space, trivial_group())


def constant_structure(space: SpaceExpr, G: FinGroup) -> ComponentStructure:
    if isinstance(space, Finite):
        return fin_structure(space, [G] * space.n)
    if isinstance(space, Sum):
        return sum_structure(space, constant_structure(space.left, G),
                             constant_structure(space.right, G))
    tail = constant_structure(space.base, G)
    return cone_structure(space, {}, tail, G, identity_hom(G))


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


# ---------------------------------------------------------------------------
# equivariant sheaves


@dataclass(frozen=True)
class EquivCSheaf:
    """A constructible sheaf with compatible group actions on its stalks.

    `reps` mirrors the sheaf: per point a list of matrices (one per group
    element of the component structure's group there).  At a cone it acts on
    a copy it does not list as its tail does, and it must act at every copy
    that the structure makes exceptional, which `make_equiv` checks."""

    sheaf: CSheaf
    cs: ComponentStructure
    reps: tuple  # ("fin", per-point tuples) | ("sum", l, r)
    #            | ("cone", exc dict items, tail reps, apex rep)


def make_equiv(sheaf: CSheaf, cs: ComponentStructure, reps) -> EquivCSheaf:
    verdicts = []
    _equivwise(cs, [sheaf, reps], lambda G, V, mats: verdicts.append(_is_rep(G, mats, V)))
    if not all(verdicts):
        raise GroupError("stalk representations are not multiplicative")
    return EquivCSheaf(sheaf, cs, reps)


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
    return make_equiv(sheaf, cs, _equivwise(
        cs, [sheaf], lambda G, V: tuple(LinMap.identity(V) for _ in G.elements())))


def _equivwise(cs, trees, leaf, apex=None):
    """The tree shaped like `reps` whose entry at every finite stalk and
    every apex is `leaf(group, *parts of trees there)`, the group being the
    structure's group there; at an apex, `apex(cone structure, *cone trees)`
    instead if given.  A tree is a sheaf, a sheaf map, a section or a `reps`
    tree over `cs.space`; see the module docstring for the copies visited."""
    if cs.data[0] == "fin":
        stalks = (t[1] if isinstance(t, tuple) else t.data for t in trees)
        return ("fin", tuple(leaf(G, *parts)
                             for G, *parts in zip(cs.data[1], *stalks, strict=True)))
    if cs.data[0] == "sum":
        return ("sum", *(_equivwise(cs.data[1 + i], [_side(t, i) for t in trees], leaf, apex)
                         for i in (0, 1)))
    exc_cs, tail_cs, apex_group, _up = cs.cone_parts()
    listed = [dict((t if isinstance(t, tuple) else t.data)[1]) for t in trees]
    keys = sorted(set(exc_cs).union(*listed))
    parts = [_cone_split(t, exc, keys) for t, exc in zip(trees, listed)]
    copies = tuple((k, _equivwise(exc_cs.get(k, tail_cs), [p[0][i] for p in parts], leaf, apex))
                   for i, k in enumerate(keys))
    tail = _equivwise(tail_cs, [p[1] for p in parts], leaf, apex)
    top = apex(cs, *trees) if apex else leaf(apex_group, *(p[2] for p in parts))
    return ("cone", copies, tail, top)


def _side(t, i):
    """Side i of a tree over a sum."""
    if isinstance(t, tuple):
        return t[1 + i]
    if isinstance(t, Section):
        return Section(t.sheaf.data[i], t.data[i])
    return t.data[i]


def _cone_split(t, listed, keys):
    """The parts of a tree over a cone, which lists the copies `listed`, at
    the copies `keys`, at the tail and at the apex.  A copy it does not list
    is read through its tail, or through the germ of its apex value for a
    section."""
    if isinstance(t, Section):
        F, apexv = t.sheaf, t.data[2]
        return ([Section(F.copy_sheaf(k), listed[k] if k in listed else
                         _copy_default(F, k, apexv)) for k in keys],
                germ_section(F, apexv), apexv)
    tail, apex = (t if isinstance(t, tuple) else t.data)[2:4]
    return [listed.get(k, tail) for k in keys], tail, apex


# ---------------------------------------------------------------------------
# level bookkeeping inside tail chains


def _levels(cs: ComponentStructure):
    """The level table of `cs` (see the module docstring): its rows, and the
    homomorphism from each height into the top group.  Built once per
    structure object and kept."""
    kept = cs.kept
    if "levels" not in kept:
        if cs.data[0] == "fin":
            rows, tops = [(cs.data[1][0], ())], [identity_hom(cs.data[1][0])]
        elif cs.data[0] == "sum":
            parts = [_levels(part) for part in cs.data[1:]]
            first = lambda h: next(p for p in parts if h < len(p[0]))
            heights = range(max(len(p[0]) for p in parts))
            rows, tops = [first(a)[0][a] for a in heights], [first(b)[1][b] for b in heights]
            rows[-1] = (rows[-1][0], tuple(tops[:-1]))
        else:
            _exc, tail_cs, apex_group, up = cs.cone_parts()
            tail_rows, tail_tops = _levels(tail_cs)
            tops = [h.compose(up) for h in tail_tops] + [identity_hom(apex_group)]
            rows = tail_rows + [(apex_group, tuple(tops[:-1]))]
        kept["levels"] = rows, tops
    return kept["levels"]


def _row(cs: ComponentStructure, a: int):
    """Row a of the level table: the group at height a and the homomorphisms into it."""
    rows = _levels(cs)[0]
    if not 0 <= a < len(rows):
        raise GroupError("height exceeds the rank")
    return rows[a]


def level_group(cs: ComponentStructure, a: int) -> FinGroup:
    """The group at generic points of height a (tail chains are uniform)."""
    return _row(cs, a)[0]


def hom_between(cs: ComponentStructure, b: int, a: int) -> GrpHom:
    """The composite homomorphism from level b up to level a (b < a)."""
    if not 0 <= b < a:
        raise GroupError("levels must increase")
    return _row(cs, a)[1][b]


def validate_structure_levels(cs: ComponentStructure):
    """Raise `GroupError` unless the level table of every cone in `cs`
    resolves it: every point of the tail reaches the apex by the table's
    homomorphism from its height, and the germ components compose along the
    table (the kernel of each upper map inside the image below; holds for
    surjective towers).  The cones inside the tail are checked first, so a
    point of a summand reaches the summand's top group by the summand's own
    table, which composed with `up` must then be the cone's."""
    if cs.data[0] == "sum":
        for part in cs.data[1:]:
            validate_structure_levels(part)
    if cs.data[0] != "cone":
        return
    exc, tail_cs, _g, up = cs.cone_parts()
    for sub in (*exc.values(), tail_cs):
        validate_structure_levels(sub)
    r = cb_rank(cs.space)
    nodes = [tail_cs]       # the tail and its summands, through nested sums
    for node in nodes:
        if node.data[0] == "sum":
            nodes += node.data[1:]
    if any(h.compose(up) != hom_between(cs, b, r)
           for node in nodes for b, h in enumerate(_levels(node)[1])):
        raise GroupError("a tail point does not reach the apex by the level table")
    if not all(level_germ(cs, b, a) == level_germ(cs, c, a).then(level_germ(cs, b, c))
               for a in range(2, r + 1) for c in range(1, a) for b in range(c)):
        raise GroupError("germ components do not compose along the levels")


def level_germ(cs: ComponentStructure, b: int, a: int) -> LinMap:
    """`germ_component(hom_between(cs, b, a))`, built once per structure object."""
    kept = cs.kept
    if (b, a) not in kept:
        kept[(b, a)] = germ_component(hom_between(cs, b, a))
    return kept[(b, a)]


# ---------------------------------------------------------------------------
# the sheaf of group rings


def group_ring_sheaf(cs: ComponentStructure) -> EquivCSheaf:
    """The sheaf of group rings of a component structure, with the
    left-regular actions and kernel-averaged germ components; built and
    checked once per structure object, which then keeps it."""
    kept = cs.kept
    if "ring" not in kept:
        sheaf = _gr_sheaf(cs)
        kept["ring"] = make_equiv(sheaf, cs,
                                  _equivwise(cs, [sheaf], lambda G, _V: tuple(regular_rep(G))))
    return kept["ring"]


def _gr_sheaf(cs) -> CSheaf:
    space = cs.space
    if cs.data[0] == "fin":
        return make_fin_sheaf(space, [group_ring_space(g) for g in cs.data[1]])
    if cs.data[0] == "sum":
        return make_sum_sheaf(space, _gr_sheaf(cs.data[1]), _gr_sheaf(cs.data[2]))
    exc, tail_cs, apex_group, up = cs.cone_parts()
    tail = _gr_sheaf(tail_cs)
    V = group_ring_space(apex_group)
    down = germ_component(up)
    germ = LinMap.of(V, sec_space(tail), lambda v: sec_to_coords(
        tail, constant_section(tail, down.apply(v))))
    exc_sheaves = {k: _gr_sheaf(sub) for k, sub in exc.items()}
    return make_cone_sheaf(space, exc_sheaves, tail, V, germ)


def check_germ_equivariance(E: EquivCSheaf) -> bool:
    """Definition of an equivariant sheaf: at every cone, spreading then
    acting equals acting through the structure homomorphism then spreading,
    at every point of the tail.  An apex group element g acts at a tail point
    through every element there that the structure maps to g: those where
    the germ of g in the sheaf of group rings is nonzero."""
    verdicts = []

    def at_apex(cs, sheaf, reps, ring):
        _exc, tail_cs, apex_group, _up = cs.cone_parts()
        for g, i in itertools.product(apex_group.elements(), range(sheaf.apex.dim)):
            a = sheaf.apex.basis_vec(i)
            spread = [germ_section(ring, ring.apex.basis_vec(g)), germ_section(sheaf, a),
                      germ_section(sheaf, reps[3][g].apply(a))]
            _equivwise(tail_cs, [reps[2], *spread], lambda G, mats, u, v, w: verdicts.append(
                all(mats[h].apply(v) == w for h in G.elements() if u[h])))
    _equivwise(E.cs, [E.sheaf, E.reps, group_ring_sheaf(E.cs).sheaf], lambda *_: None, at_apex)
    return all(verdicts)


def check_equivariance(f: SheafMap, src: EquivCSheaf, tgt: EquivCSheaf) -> bool:
    """Whether a sheaf map intertwines the stalk actions at every stalk that
    `_equivwise` visits."""
    verdicts = []
    _equivwise(src.cs, [f, src.reps, tgt.reps], lambda G, m, rs, rt: verdicts.append(
        all(rs[g].then(m) == m.then(rt[g]) for g in G.elements())))
    return all(verdicts)


def _denominator(mats) -> int:
    """The lcm of the entry denominators of the given matrices."""
    return math.lcm(*{x.denominator for mat in mats for row in mat.matrix for x in row})


def average_stalk(G: FinGroup, rep_src, rep_tgt, m: LinMap) -> LinMap:
    """The averaged intertwiner (1/|G|) Σ_g ρ_t(g) m ρ_s(g⁻¹).

    One pass over integer numerators: m, the ρ_s(g) and the ρ_t(g) are
    each brought to integers over one common denominator, the lcm of their
    entry denominators (d_m, d_s and d_t).  For every g, each product t·x·s
    of nonzero numerators, t in row i of ρ_t(g), x in m and s in ρ_s(g⁻¹),
    is added into the `int` accumulator of entry (i, j).  Each entry is
    built once, as acc/(|G|·d_m·d_s·d_t), and a zero entry is the shared
    `ZERO`.  The inverses come from the group's stored table."""
    if any((r.source, r.target) != (m.source, m.source) for r in rep_src) or \
            any((r.source, r.target) != (m.target, m.target) for r in rep_tgt):
        raise DimensionError("representations do not act on the map's source and target")
    dm, ds, dt = _denominator([m]), _denominator(rep_src), _denominator(rep_tgt)
    mrows = [[(l, x.numerator * (dm // x.denominator)) for l, x in enumerate(row) if x]
             for row in m.matrix]
    acc = [[0] * m.source.dim for _ in range(m.target.dim)]
    for g in G.elements():
        srows = [[(j, s.numerator * (ds // s.denominator)) for j, s in enumerate(row) if s]
                 for row in rep_src[G.inv(g)].matrix]
        for out, row in zip(acc, rep_tgt[g].matrix):
            for k, t in enumerate(row):
                if t:
                    t = t.numerator * (dt // t.denominator)
                    for l, x in mrows[k]:
                        tx = t * x
                        for j, s in srows[l]:
                            out[j] += tx * s
    d = G.order * dm * ds * dt
    return LinMap(m.source, m.target,
                  tuple(tuple(Fraction(a, d) if a else ZERO for a in out) for out in acc))


def average(f: SheafMap, src: EquivCSheaf, tgt: EquivCSheaf) -> SheafMap:
    """Average a sheaf map stalkwise into an equivariant one; fixes maps
    that are already equivariant and is idempotent."""
    out = _tree_map(f.source, f.target, _equivwise(
        src.cs, [f, src.reps, tgt.reps], lambda G, m, rs, rt: average_stalk(G, rs, rt, m)))
    if not check_sheaf_map(out):
        raise AssertionError("averaging broke an apex square")
    return out


def _tree_map(F: CSheaf, G: CSheaf, tree) -> SheafMap:
    """The sheaf map F -> G with the stalk maps of `tree`, shaped like
    `reps`; apex squares are not checked."""
    if tree[0] == "fin":
        return make_fin_map(F, G, tree[1])
    if tree[0] == "sum":
        return make_sum_map(F, G, *(_tree_map(F.data[i], G.data[i], tree[1 + i]) for i in (0, 1)))
    _, copies, tail, apex = tree
    exc = {k: _tree_map(F.copy_sheaf(k), G.copy_sheaf(k), m) for k, m in copies}
    return make_cone_map(F, G, exc, _tree_map(F.tail, G.tail, tail), apex, check=False)


# ---------------------------------------------------------------------------
# the equivariant splicing rings


class GroupRingLeaves:
    """Group-ring leaves for the splicing-ring recursions of `adelic`: a leaf
    lies in the group ring of the group at the flag's lowest level (`group`,
    read from the root's level table), and a leaf of level a spreads down to
    level b through the germ component of the structure homomorphism from b
    up to a.  Degree -1 data is a section of the sheaf of group rings.
    `add` and `sub` refuse leaves of unequal length.  The sampler decodes
    each coordinate as a linear form and spreads it (`adelic._kernel_rref`)."""

    @staticmethod
    def add(a, b):
        return tuple(p + q for p, q in zip(a, b, strict=True))

    @staticmethod
    def sub(a, b):
        return tuple(p - q for p, q in zip(a, b, strict=True))

    def sum_parts(self, cs):
        return cs.data[1], cs.data[2]

    def cone_parts(self, cs):
        exc_cs, tail_cs, _g, _u = cs.cone_parts()
        return exc_cs, tail_cs

    def spread(self, cs, b, a, leaf):
        return level_germ(cs, b, a).apply(leaf)

    @staticmethod
    def scale(c, leaf):
        return tuple(c * x for x in leaf)

    def group(self, cs, flag) -> FinGroup:
        """The group whose group ring holds the leaves over flag."""
        return level_group(cs, flag[-1] if flag else 0)

    def zero(self, cs, flag):
        return (ZERO,) * self.size(cs, flag)

    def unit(self, cs, flag):
        """The unit leaf.  Ring elements are built from it, and their leaves
        are sized by level, so it refuses a structure that is not
        level-uniform; the complex checks that once, when it is built."""
        require_uniform_levels(cs, "equivariant ring elements")
        return gr_unit(self.group(cs, flag))

    def mul(self, cs, flag):
        """The product of leaves over flag, as a binary operation."""
        return functools.partial(gr_mul, self.group(cs, flag))

    def size(self, cs, flag):
        return self.group(cs, flag).order

    def read(self, values, pos, size):
        return tuple(values[pos:pos + size])

    def write(self, out, leaf):
        out.extend(leaf)

    def element(self, space, flag, cs, data):
        if not flag:
            return Section(group_ring_sheaf(cs).sheaf, data)
        return EqCFun(space, flag, data, cs)

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


@dataclass(frozen=True)
class EqCFun(CFun):
    """A constructible element of an equivariant splicing ring: the scalar
    element with group-ring leaves, which follow the structure `cs`."""

    cs: ComponentStructure = field()   # no default from the scalar `cs = None`
    leaves = GROUP_RING


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
        require_uniform_levels(self.cs, "equivariant complexes")
        validate_structure_levels(self.cs)


def require_uniform_levels(cs: ComponentStructure, what: str):
    """Raise `GroupError` unless every level of `cs` carries one group: the
    leaves of the equivariant rings are sized by their level's group."""
    if not _uniform_levels(cs):
        raise GroupError(f"{what} need level-uniform structures")


def _uniform_levels(cs) -> bool:
    if cs.data[0] == "fin":
        return all(g == cs.data[1][0] for g in cs.data[1])
    if cs.data[0] == "sum":
        left, right = cs.data[1], cs.data[2]
        return (_uniform_levels(left) and _uniform_levels(right) and
                all(x[0] == y[0] for x, y in zip(_levels(left)[0], _levels(right)[0])))
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
    return EqCFun(f.space, f.flag, _map_leaves(f.space, f.flag, f.data, lambda v: (v,)), cs)


def degeneration_mismatch(space: SpaceExpr, rng: random.Random, samples: int):
    """Where the equivariant complex of `space` under the trivial structure
    departs from the scalar complex, over `samples` draws per degree from 0
    up: "differential" when d differs on a `random_cfun` cochain (d of a
    cocycle is zero on both sides), "witness" when the exactness witness of
    a `random_cocycle` of degree >= 1 does, None when all are bit-identical."""
    triv = trivial_structure(space)
    cx_eq, cx = equivariant_adelic(space, triv), build_complex(space)
    for deg in range(0, cx.rank + 1):
        for _ in range(samples):
            c = {A: random_cfun(space, A, rng) for A in cx.flags(deg)}
            z = random_cocycle(cx, deg, rng)
            ceq, zeq = ({A: plain_to_eq(f, triv) for A, f in x.items()} for x in (c, z))
            d1, d2 = cx.differential(c, deg), cx_eq.differential(ceq, deg)
            if any(eq_to_plain(d2[A]) != d1[A] for A in d1):
                return "differential"
            w1, w2 = cx.exactness_witness(z, deg), cx_eq.exactness_witness(zeq, deg)
            if deg >= 1 and any(eq_to_plain(w2[A]) != w1[A] for A in w1):
                return "witness"
    return None


# ---------------------------------------------------------------------------
# random equivariant cochains (seeded)


# the draws Fraction(randint(-4, 4)) and Fraction(randint(-3, 3)), indexed by
# the one _randbelow(9) or _randbelow(7) call that randint makes
_FREE_DRAWS = tuple(Fraction(n) for n in range(-4, 5))
_KERNEL_DRAWS = tuple(Fraction(n) for n in range(-3, 4))


def eq_random_cocycle(cx: EqAdelicComplex, degree: int, rng: random.Random,
                      exc_bound: int = 2) -> dict:
    """A random constructible equivariant cocycle via an exact kernel basis,
    in a degree from 0 to the rank: degree -1 holds sections of the sheaf of
    group rings, which the sampler's coordinates do not describe, so it
    raises `ValueError`.  A free coordinate draws Fraction(randint(-4, 4))
    and a kernel coordinate Fraction(randint(-3, 3)), read from tables."""
    if degree == -1:
        raise ValueError("the equivariant sampler starts at degree 0")
    return _sample_cocycle(cx, degree, rng, exc_bound,
                           lambda r: _FREE_DRAWS[r.randrange(9)],
                           lambda r: _KERNEL_DRAWS[r.randrange(7)])


# ---------------------------------------------------------------------------
# generators


def generator_epi(E: EquivCSheaf) -> list[SheafMap]:
    """Equivariant maps from the group-ring sheaf whose images jointly cover
    the stalk at every site, at any rank.

    The sites are every finite point and apex, and at a cone, after the apex
    and by increasing key, every copy that `_equivwise` visits there (the
    copies the structure makes exceptional, the sheaf stores or the action
    lists) and one generic copy past them.  Per site and basis vector v of
    its stalk, the generating section is v at the site, zero at every other
    finite point, apex and listed copy, and the germ of its apex value at
    every other copy; the generator sends a group element g at each point
    to g acting on the section's value there."""
    ring = group_ring_sheaf(E.cs).sheaf
    leaf = lambda G, R, V, mats, value: LinMap.from_cols(
        R, V, [mats[g].apply(value) for g in G.elements()])
    return [_tree_map(ring, E.sheaf,
                      _equivwise(E.cs, [ring, E.sheaf, E.reps, Section(E.sheaf, record)], leaf))
            for _x, record in _generator_sites(E)]


def _generator_sites(E: EquivCSheaf) -> list:
    """The (site, section record) pair of every generator of `generator_epi`."""
    return _sites(_equivwise(E.cs, [E.sheaf, E.reps], lambda _G, V, _mats: V))[1]


def _sites(stalks):
    """The zero section record and the (site, record) pairs over a tree of
    stalks shaped like `reps`; see `generator_epi`."""
    if stalks[0] == "fin":
        zero = tuple((ZERO,) * V.dim for V in stalks[1])
        return zero, [(fin_point(i), zero[:i] + (V.basis_vec(j),) + zero[i + 1:])
                      for i, V in enumerate(stalks[1]) for j in range(V.dim)]
    if stalks[0] == "sum":
        (zl, left), (zr, right) = _sites(stalks[1]), _sites(stalks[2])
        return (zl, zr), ([(left_point(x), (r, zr)) for x, r in left] +
                          [(right_point(x), (zl, r)) for x, r in right])
    _, copies, tail, apex = stalks
    generic = copies[-1][0] + 1 if copies else 0
    parts = [(k, *_sites(sub)) for k, sub in copies + ((generic, tail),)]
    listed, nothing = tuple((k, zero) for k, zero, _ in parts[:-1]), (ZERO,) * apex.dim
    out = [(apex_point(), ("sec", listed, apex.basis_vec(j))) for j in range(apex.dim)]
    for i, (k, _zero, sites) in enumerate(parts):
        out += [(copy_point(k, x), ("sec", listed[:i] + ((k, r),) + listed[i + 1:], nothing))
                for x, r in sites]
    return ("sec", listed, nothing), out


def generator_images_cover(E: EquivCSheaf, maps) -> bool:
    """Stalkwise joint surjectivity at every site of `generator_epi`."""
    for x in dict.fromkeys(x for x, _ in _generator_sites(E)):
        target = stalk(E.sheaf, x)
        cols = [col for m in maps for col in stalk_map(m, x).cols()]
        big = LinMap.from_cols(VectQ.make(len(cols), "z"), target, cols)
        if map_rank(big) != target.dim:
            return False
    return True


def random_equiv_sheaf(space: SpaceExpr, cs: ComponentStructure,
                       rng: random.Random, dim_bound: int = 2) -> EquivCSheaf:
    """A random equivariant sheaf over a space of rank at most 1:
    permutation-style actions on random stalks with a germ map averaged into
    equivariance.  Raises `ValueError` on higher ranks before drawing.  It
    stores no copies, so `make_equiv` refuses the draw with `GroupError` when
    the structure makes a copy exceptional."""
    if cb_rank(space) > 1:
        raise ValueError("random equivariant sheaves implemented for rank <= 1")
    E = _random_equiv(space, cs, rng, dim_bound)
    return make_equiv(E.sheaf, cs, E.reps)


def _random_equiv(space, cs, rng, dim_bound) -> EquivCSheaf:
    """The draw of `random_equiv_sheaf`, not yet checked by `make_equiv`."""
    if isinstance(space, Finite):
        stalks, reps = [], []
        for i in range(space.n):
            G = cs.data[1][i]
            d = rng.randint(0, dim_bound)
            V, mats = _random_rep(G, d, rng)
            stalks.append(V)
            reps.append(tuple(mats))
        return EquivCSheaf(make_fin_sheaf(space, stalks), cs, ("fin", tuple(reps)))
    if isinstance(space, Sum):
        L = _random_equiv(space.left, cs.data[1], rng, dim_bound)
        R = _random_equiv(space.right, cs.data[2], rng, dim_bound)
        return EquivCSheaf(make_sum_sheaf(space, L.sheaf, R.sheaf), cs, ("sum", L.reps, R.reps))
    _exc, tail_cs, apex_group, up = cs.cone_parts()
    tail = _random_equiv(space.base, tail_cs, rng, dim_bound)
    av, amats = _random_rep(apex_group, rng.randint(0, dim_bound), rng)
    # average a random germ candidate into Def-6.5 equivariance
    S = sec_space(tail.sheaf)
    raw = LinMap.from_rows(av, S, [[Fraction(rng.randint(-2, 2)) for _ in range(av.dim)]
                                   for _ in range(S.dim)])
    germ = _equivariant_germ(tail, up, amats, raw)
    sheaf = make_cone_sheaf(space, {}, tail.sheaf, av, germ)
    return EquivCSheaf(sheaf, cs, ("cone", (), tail.reps, tuple(amats)))


def _random_rep(G: FinGroup, d: int, rng: random.Random):
    """A representation on Q^d: a direct sum of sign characters, with a
    regular block when the dimension allows."""
    V = VectQ.make(d)
    chars = G.sign_characters
    use_reg = d >= G.order and G.order > 1 and rng.randint(0, 1) == 1
    head = G.order if use_reg else 0
    # band 0 holds the regular block, of width 0 when there is none
    reg = regular_rep(G) if use_reg else [LinMap.identity(VectQ.make(0))] * G.order
    picks = [rng.randrange(len(chars)) for _ in range(d - head)]
    bands = dict(enumerate([head] + [1] * len(picks)))
    signs = {1: LinMap.identity(QQ), -1: LinMap.scalar(QQ, -1)}
    return V, [block_map(V, V, bands, bands, [(0, 0, reg[g])] + [(i, i, signs[chars[c][g]])
                                                               for i, c in enumerate(picks, 1)])
               for g in G.elements()]


def _equivariant_germ(tail: EquivCSheaf, up: GrpHom, amats, raw: LinMap) -> LinMap:
    """Average a germ candidate over the tail's top group so the spreading
    is equivariant in the sense of the component-structure action: the
    apex acts through the structure homomorphism, sections act pointwise."""
    Gy = up.source
    return average_stalk(Gy, [amats[up(h)] for h in Gy.elements()],
                         [_section_action(tail, g) for g in Gy.elements()], raw)


def _section_action(E: EquivCSheaf, g: int) -> LinMap:
    """The action of a top-group element on finite-data sections (acting
    through the structure maps at every point)."""
    if cb_rank(E.sheaf.space) > 0:
        raise ValueError("section actions are used on rank-0 bases only")
    return sec_functor(_tree_map(E.sheaf, E.sheaf, _equivwise(E.cs, [E.reps],
                                                              lambda _G, mats: mats[g])))
