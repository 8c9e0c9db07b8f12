"""Example blocks: the dihedral block of O(2) and the full-subgroup blocks
of the split and non-split extensions of a two-torus by an order-2 group.

The dihedral subgroups are modelled with exact rational angles inside the
semidirect-product presentation of O(2); their Weyl groups come from an
explicit normalizer computation rather than being asserted.  The torus
blocks are driven by integer lattice arithmetic: finite subgroups
correspond to full two-dimensional sublattices (Hermite normal form),
circle subgroups to rank-one lattices fibred over the rational projective
line with a positive-integer multiplier, and the component structure is
read off from duals of mod-2 reductions of lattice inclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .space import Cone, Finite, apex_point, copy_point, fin_point
from .weyl import (
    FinGroup, GrpHom, cone_structure, constant_structure, cyclic_group,
    direct_product, trivial_group, trivial_hom)


# ---------------------------------------------------------------------------
# the dihedral block of O(2)
#
# O(2) is presented as pairs (eps, q) with eps in {1,-1} and q a rational
# angle modulo 1; (1, q) is a rotation and (-1, q) a reflection.


@dataclass(frozen=True)
class Dihedral:
    """The dihedral subgroup with n rotations and reflection offsets in
    phi + (1/n)Z (2n elements)."""

    n: int
    phi: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one rotation")

    def contains(self, g) -> bool:
        e, q = g
        if e == 1:
            return (q * self.n) % 1 == 0
        return ((q - self.phi) * self.n) % 1 == 0


def o2_conjugate(g, H: Dihedral) -> Dihedral:
    """The conjugate subgroup g H g^{-1} (stays dihedral with the same n)."""
    e, q = g
    if e == 1:
        return Dihedral(H.n, (H.phi + 2 * q) % (Fraction(1, H.n)))
    return Dihedral(H.n, (2 * q - H.phi) % (Fraction(1, H.n)))


def o2_normalizer_order_ratio(H: Dihedral) -> int:
    """|N(H)/H| computed by an explicit search: rotations normalizing H are
    those whose double lies in the rotation subgroup, and the reflections of
    the normalizer follow; the quotient order is returned."""
    candidates = [(1, Fraction(k, 2 * H.n)) for k in range(2 * H.n)]
    norm_rot = [g for g in candidates if o2_conjugate(g, H) == Dihedral(H.n, H.phi % Fraction(1, H.n))]
    in_h = [g for g in norm_rot if H.contains(g)]
    return len(norm_rot) // len(in_h) if in_h else 0


def o2_weyl_group(H: Dihedral) -> FinGroup:
    ratio = o2_normalizer_order_ratio(H)
    return cyclic_group(ratio) if ratio > 1 else trivial_group()


def o2_dihedral_block(n_max: int = 8):
    """The space of dihedral subgroups with the full group as limit point,
    its labels, and the component structure."""
    if n_max < 1:
        raise ValueError("need at least one dihedral subgroup")
    space = Cone(Finite(1))
    labels = {}
    for k in range(n_max):
        labels[copy_point(k, fin_point(0)).addr] = f"D_{2 * (k + 1)}"
    labels[apex_point().addr] = "O(2)"
    weyl_groups = [o2_weyl_group(Dihedral(k + 1, Fraction(0))) for k in range(n_max)]
    tail_group = weyl_groups[0]
    if any(g.order != tail_group.order for g in weyl_groups):
        raise AssertionError("dihedral Weyl groups are expected to be uniform")
    apex_group = trivial_group()  # N(O(2)) = O(2)
    cs = cone_structure(space, {}, constant_structure(Finite(1), tail_group),
                        apex_group, trivial_hom(tail_group, apex_group))
    return space, labels, cs


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class Lattice2:
    """A sublattice of Z^2: full rank in Hermite normal form
    [[a, b], [0, d]] (a, d >= 1, 0 <= b < a), or rank one as a primitive
    vector with a positive multiplier."""

    kind: str            # "full" | "line"
    a: int = 1
    b: int = 0
    d: int = 1
    vec: tuple = (1, 0)
    mult: int = 1

    def __post_init__(self):
        if self.kind == "full":
            if self.a < 1 or self.d < 1 or not (0 <= self.b < self.a):
                raise ValueError("matrix is not in Hermite normal form")
        elif self.kind == "line":
            x, y = self.vec
            if gcd(x, y) != 1 or self.mult < 1:
                raise ValueError("need a primitive vector and positive multiplier")
            if not (x > 0 or (x == 0 and y > 0)):
                raise ValueError("primitive vector must be sign-normalized")
        else:
            raise ValueError("unknown lattice kind")

    def index(self) -> int:
        if self.kind != "full":
            raise ValueError("only full-rank lattices have finite index")
        return self.a * self.d

    def basis(self):
        """Generators: (a, 0) and (b, d) for full rank (column convention)."""
        if self.kind == "full":
            return ((self.a, 0), (self.b, self.d))
        x, y = self.vec
        return ((self.mult * x, self.mult * y),)


def line_lattice(x: int, y: int) -> Lattice2:
    g = gcd(x, y)
    if g == 0:
        raise ValueError("zero vector")
    x, y = x // g, y // g
    if not (x > 0 or (x == 0 and y > 0)):
        x, y = -x, -y
    return Lattice2("line", vec=(x, y), mult=g)


def hnf_of(gens) -> Lattice2:
    """Hermite normal form of the lattice spanned by two integer vectors:
    the unique generators (a, 0), (b, d) with a, d >= 1 and 0 <= b < a."""
    (x1, y1), (x2, y2) = gens
    det = x1 * y2 - y1 * x2
    if det == 0:
        raise ValueError("vectors do not span a full sublattice")
    g, s, t = _xgcd(y1, y2)
    if g < 0:
        g, s, t = -g, -s, -t
    d = g
    wx = s * x1 + t * x2          # an element with second coordinate d
    a = abs(det) // d             # elements with second coordinate zero
    b = wx % a
    return Lattice2("full", a=a, b=b, d=d)


def sublattices(n: int) -> list[Lattice2]:
    """All full sublattices of Z^2 of index n, by Hermite enumeration.

    The count is the divisor sum:

    >>> [len(sublattices(n)) for n in (1, 2, 4, 6)]
    [1, 3, 7, 12]
    """
    if n < 1:
        raise ValueError("index must be positive")
    out = []
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        for b in range(a):
            out.append(Lattice2("full", a=a, b=b, d=d))
    return out


def lattice_contains(big: Lattice2, small: Lattice2) -> bool:
    """Whether every generator of the small lattice lies in the big one."""
    if big.kind != "full":
        if small.kind == "line":
            if small.vec != big.vec:
                return False
            return small.mult % big.mult == 0
        return False
    a, b, d = big.a, big.b, big.d
    for (x, y) in small.basis():
        if y % d:
            return False
        t = y // d
        if (x - t * b) % a:
            return False
    return True


def divisor_sigma(n: int) -> int:
    return sum(a for a in range(1, n + 1) if n % a == 0)


# ---------------------------------------------------------------------------
# subgroup labels and Weyl groups for the torus blocks


@dataclass(frozen=True)
class SubgroupLabel:
    kind: str                 # "finite" | "circle" | "full"
    lattice: Lattice2 | None = None

    def __post_init__(self):
        if self.kind == "finite" and (self.lattice is None or self.lattice.kind != "full"):
            raise ValueError("finite subgroups carry full-rank lattices")
        if self.kind == "circle" and (self.lattice is None or self.lattice.kind != "line"):
            raise ValueError("circle subgroups carry rank-one lattices")
        if self.kind == "full" and self.lattice is not None:
            raise ValueError("the full group carries no lattice")


def weyl_of_subgroup(s: SubgroupLabel) -> FinGroup:
    """The dual of the mod-2 reduction of the subgroup's lattice."""
    if s.kind == "finite":
        return direct_product(cyclic_group(2), cyclic_group(2))
    if s.kind == "circle":
        return cyclic_group(2)
    return trivial_group()


def _mod2_coords(F: Lattice2, v) -> tuple:
    """Coordinates mod 2 of an integer vector in the basis of a full
    lattice containing it."""
    a, b, d = F.a, F.b, F.d
    x, y = v
    t = y // d
    s = (x - t * b) // a
    if s * a + t * b != x or t * d != y:
        raise ValueError("vector is not in the lattice")
    return (s % 2, t % 2)


def component_map(F: SubgroupLabel, S: SubgroupLabel) -> GrpHom:
    """The component-structure homomorphism from the Weyl group of a finite
    subgroup to the Weyl group of an enclosing circle subgroup: the dual of
    the mod-2 reduction of the lattice inclusion."""
    if F.kind != "finite" or S.kind != "circle":
        raise ValueError("expected a finite subgroup inside a circle subgroup")
    if not lattice_contains(F.lattice, S.lattice):
        raise ValueError("lattice containment fails")
    v = S.lattice.basis()[0]
    cls = _mod2_coords(F.lattice, v)
    WF = weyl_of_subgroup(F)   # characters (u1, u2) of F/2F, index u1 + 2*u2
    WS = weyl_of_subgroup(S)   # characters of S/2S, index in {0, 1}
    values = []
    for idx in range(4):
        u1, u2 = idx % 2, idx // 2
        # the dual map evaluates a character on the image of the generator
        values.append((u1 * cls[0] + u2 * cls[1]) % 2)
    return GrpHom(WF, WS, tuple(values))


def circle_component_map(S: SubgroupLabel, T: SubgroupLabel) -> GrpHom:
    """The dual homomorphism for nested circle lattices on one line."""
    if S.kind != "circle" or T.kind != "circle":
        raise ValueError("expected circle subgroups")
    if not lattice_contains(S.lattice, T.lattice):
        raise ValueError("lattice containment fails")
    ratio = T.lattice.mult // S.lattice.mult
    WS = weyl_of_subgroup(S)
    # generator of T's lattice = ratio * generator of S's lattice
    values = tuple((u * ratio) % 2 for u in range(2))
    return GrpHom(WS, WS, values)


def nonsplit_filter(ls: list[Lattice2], e: Lattice2) -> list[Lattice2]:
    """Sublattices lying inside a fixed index-2 lattice (the non-split
    block's constraint)."""
    if e.kind != "full" or e.index() != 2:
        raise ValueError("the distinguished lattice must have index 2")
    return [L for L in ls if lattice_contains(e, L)]


# ---------------------------------------------------------------------------
# block assembly for the torus examples


def primitive_vectors(count: int):
    """A deterministic enumeration of sign-normalized primitive vectors."""
    out = []
    bound = 1
    while len(out) < count:
        for x in range(0, bound + 1):
            for y in range(-bound, bound + 1):
                if max(abs(x), abs(y)) != bound:
                    continue
                if x == 0 and y <= 0:
                    continue
                if x < 0:
                    continue
                if gcd(x, y) == 1:
                    out.append((x, y))
                    if len(out) == count:
                        return out
        bound += 1
    return out


def complement_vector(v):
    """An integer vector completing a primitive vector to a basis of Z^2."""
    x, y = v
    # solve x*t - y*s = 1
    g, s, t = _xgcd(x, y)
    assert g == 1
    return (-t, s)


def _xgcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, s, t = _xgcd(b, a % b)
    return (g, t, s - (a // b) * t)


def t2_block(split: bool = True, n_circles: int = 6):
    """The full-subgroup block of the (non-)split torus extension as a
    presented rank-2 space with labels and its component structure.

    Circle subgroups are enumerated over the projective line with
    multipliers; finite subgroups converge to a circle along the
    divisibility tower inside its line.  In the non-split case only
    lattices inside the distinguished index-2 lattice occur.
    """
    space = Cone(Cone(Finite(1)))
    e = Lattice2("full", a=1, b=0, d=2)  # the distinguished index-2 lattice
    circles = []
    for (x, y) in primitive_vectors(3 * n_circles):
        for mult in (1, 2, 3):
            L = line_lattice(mult * x, mult * y)
            if split or lattice_contains(e, L):
                circles.append(SubgroupLabel("circle", L))
            if len(circles) >= n_circles:
                break
        if len(circles) >= n_circles:
            break
    labels = {apex_point().addr: "G (full group)"}
    towers = {}
    for k, S in enumerate(circles):
        v = S.lattice.vec
        m = S.lattice.mult
        w = complement_vector(v)
        labels[copy_point(k, apex_point()).addr] = f"S[{v[0]}:{v[1]}]x{m}"
        tower = []
        j = 1
        while len(tower) < 4:
            rows = ((m * v[0], m * v[1]), (j * w[0], j * w[1]))
            F = hnf_of(rows)
            if split or lattice_contains(e, F):
                tower.append(SubgroupLabel("finite", F))
            j += 1
        towers[k] = tower
        for i, Fl in enumerate(tower):
            lab = f"F(a={Fl.lattice.a},b={Fl.lattice.b},d={Fl.lattice.d})"
            labels[copy_point(k, copy_point(i, fin_point(0))).addr] = lab
    # component structure: C2xC2 at finite subgroups, C2 at circles, 1 at G
    K4 = direct_product(cyclic_group(2), cyclic_group(2))
    C2 = cyclic_group(2)
    one = trivial_group()
    # the stable dual map along each tower is projection to the first factor
    up0 = GrpHom(K4, C2, tuple((idx % 2) for idx in range(4)))
    inner = cone_structure(Cone(Finite(1)), {}, constant_structure(Finite(1), K4),
                           C2, GrpHom(K4, C2, up0.values))
    cs = cone_structure(space, {}, inner, one, trivial_hom(C2, one))
    return space, labels, cs, {"circles": circles, "towers": towers,
                               "distinguished": e if not split else None}
