"""Splicing rings, the cube maps, and the augmented adelic complex.

For a height flag A = (a_0 > a_1 > ... > a_s) over a presented space the
splicing ring mixes the strata of those heights: a product over the a_0
stratum of localizations of products over the a_1 stratum, and so on down to
rational values over the a_s stratum.  We implement the constructible
subring generated by the idempotents of clopen sets and the rational
scalars.  Over the Finite/Sum/Cone grammar this subring has a finite normal
form:

  * flag () : locally constant functions (finitely many exceptional copies
    per cone, a constant on the tail copies and the apex);
  * a_0 equal to the rank of a cone: a single rational (the germ of a
    constructible family at the apex is its eventual uniform value);
  * a_0 below the rank of a cone: finitely many exceptional copies carrying
    nested data, all remaining copies carrying one uniform scalar.

Every operation canonicalizes, so equality of ring elements is syntactic.
The augmented complex places the ring of locally constant functions in
degree -1 and the product of flag-size-(i+1) rings in degree i; its
exactness is witnessed constructively by `exactness_witness`, which peels
one cone level at a time.  The equivariant rings of `weyl` run the same
recursions with group-ring leaves in place of rationals, and
`weyl.EqAdelicComplex` is this complex with those leaves: `AdelicComplex`
reads its leaf algebra and component structure from class attributes.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .linalg import LinMap, Rat, VectQ, ZERO, ONE, kernel_basis, rat
from .space import Finite, SpaceExpr, Sum, cb_rank, ClopenSet, SpaceMismatch

Flag = tuple[int, ...]


class FlagError(ValueError):
    pass


def check_flag(space: SpaceExpr, flag: Flag):
    if any(flag[i] <= flag[i + 1] for i in range(len(flag) - 1)):
        raise FlagError(f"flag {flag} is not strictly decreasing")
    if flag and (flag[0] > cb_rank(space) or flag[-1] < 0):
        raise FlagError(f"flag {flag} does not fit a rank-{cb_rank(space)} space")


def insert_height(flag: Flag, b: int) -> Flag:
    if b in flag:
        raise FlagError(f"height {b} already in flag {flag}")
    return tuple(sorted(flag + (b,), reverse=True))


def sign_pos(flag: Flag, b: int) -> int:
    """Position of b relative to the flag: the number of entries above it.

    >>> sign_pos((3, 1), 4), sign_pos((3, 1), 2), sign_pos((3, 1), 0)
    (0, 1, 2)
    """
    if b in flag:
        raise FlagError(f"height {b} lies in flag {flag}")
    return sum(1 for a in flag if a > b)


def all_flags(rank: int) -> list[Flag]:
    """All nonempty flags on heights [0..rank], by size then lexicographically."""
    out = []
    for size in range(1, rank + 2):
        for comb in itertools.combinations(range(rank, -1, -1), size):
            out.append(tuple(comb))
    return out


def flags_of_size(rank: int, size: int) -> list[Flag]:
    return [tuple(c) for c in itertools.combinations(range(rank, -1, -1), size)]


# ---------------------------------------------------------------------------
# constructible data
#
# data(space, flag):
#   Finite(n), flag () or (0,): tuple of n leaves
#   Sum(l, r): pair (left data, right data); a side whose rank is below the
#       top of the flag holds the zero-ring marker None
#   Cone(Y), flag whose top is the rank: a single leaf
#   Cone(Y), otherwise: ("cone", {copy: data}, tail leaf)
#
# A leaf is a rational in the scalar rings (`CFun`) and a group-ring vector
# in the equivariant ones (`weyl.EqCFun`).  The recursions below serve both.
# Where they need more than the shape of the data they take a leaf algebra
# `L` and the component structure `cs` it follows: `RationalLeaves` with
# cs None here, `weyl.GroupRingLeaves` for group-ring leaves.


class RationalLeaves:
    """Rational leaves: no structure to follow and no germ spreading."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)

    def sum_parts(self, cs):
        """The structures of the two summands."""
        return None, None

    def cone_parts(self, cs):
        """The structures of the exceptional copies, and of the tail."""
        return _NO_COPIES, None

    def spread(self, cs, b, a, leaf):
        """A leaf of level a carried down to level b < a."""
        return leaf

    def zero(self, cs, flag):
        return ZERO

    def size(self, cs, flag):
        """The number of rational coordinates of a leaf."""
        return 1

    def read(self, values, pos, size):
        return values[pos]

    def write(self, out, leaf):
        out.append(leaf)

    def element(self, space, flag, cs, data):
        return CFun(space, flag, data)

    def augment(self, space, cs, data, a):
        """The flag-(a,) component of the augmentation of degree -1 data
        (not in normal form)."""
        return _dmap_leaves(self, space, (), cs, a, data)

    def section(self, space, cs, exc, leaf):
        """Degree-0 witness data of a cone: a locally constant function."""
        return _canon(self, space, (), cs, ("cone", exc, leaf))


_NO_COPIES = MappingProxyType({})
RATIONAL = RationalLeaves()


def _is_zero_ring(space, flag) -> bool:
    return bool(flag) and flag[0] > cb_rank(space)


def const_data(space: SpaceExpr, flag: Flag, c):
    """The element with every leaf equal to c (c times the unit)."""
    if _is_zero_ring(space, flag):
        return None
    if isinstance(space, Finite):
        return (c,) * space.n
    if isinstance(space, Sum):
        return (const_data(space.left, flag, c), const_data(space.right, flag, c))
    if flag and flag[0] == cb_rank(space):
        return c
    return ("cone", {}, c)


def _canon(L, space, flag, cs, data):
    """The normal form: an exceptional copy equal to the tail is dropped,
    unless its structure differs from the tail's."""
    if data is None:
        return None
    if isinstance(space, Finite):
        return tuple(data)
    if isinstance(space, Sum):
        lcs, rcs = L.sum_parts(cs)
        return (_canon(L, space.left, flag, lcs, data[0]),
                _canon(L, space.right, flag, rcs, data[1]))
    if flag and flag[0] == cb_rank(space):
        return data
    _, exc, tail = data
    exc_cs, tail_cs = L.cone_parts(cs)
    default = const_data(space.base, flag, tail)
    cleaned = {}
    for k, v in exc.items():
        sub_cs = exc_cs.get(k, tail_cs)
        vc = _canon(L, space.base, flag, sub_cs, v)
        if vc != default or sub_cs != tail_cs:
            cleaned[k] = vc
    return ("cone", cleaned, tail)


def _zip_leaves(space, flag, x, y, op):
    """op on matching leaves of x and y (not in normal form)."""
    if x is None:
        return None
    if isinstance(space, Finite):
        return tuple(op(a, b) for a, b in zip(x, y, strict=True))
    if isinstance(space, Sum):
        return (_zip_leaves(space.left, flag, x[0], y[0], op),
                _zip_leaves(space.right, flag, x[1], y[1], op))
    if flag and flag[0] == cb_rank(space):
        return op(x, y)
    _, ex, tx = x
    _, ey, ty = y
    exc = {}
    for k in set(ex) | set(ey):
        xv = ex[k] if k in ex else const_data(space.base, flag, tx)
        yv = ey[k] if k in ey else const_data(space.base, flag, ty)
        exc[k] = _zip_leaves(space.base, flag, xv, yv, op)
    return ("cone", exc, op(tx, ty))


def _map_leaves(space, flag, x, op):
    """op on every leaf of x (not in normal form)."""
    if x is None:
        return None
    if isinstance(space, Finite):
        return tuple(op(a) for a in x)
    if isinstance(space, Sum):
        return (_map_leaves(space.left, flag, x[0], op), _map_leaves(space.right, flag, x[1], op))
    if flag and flag[0] == cb_rank(space):
        return op(x)
    _, exc, tail = x
    return ("cone", {k: _map_leaves(space.base, flag, v, op) for k, v in exc.items()}, op(tail))


def _zip_data(L, space, flag, cs, x, y, op):
    return _canon(L, space, flag, cs, _zip_leaves(space, flag, x, y, op))


def _map_data(L, space, flag, cs, x, op):
    return _canon(L, space, flag, cs, _map_leaves(space, flag, x, op))


@dataclass(frozen=True)
class CFun:
    """A constructible element of the splicing ring for (space, flag)."""

    space: SpaceExpr
    flag: Flag
    data: object

    @staticmethod
    def unit(space: SpaceExpr, flag: Flag) -> "CFun":
        check_flag(space, flag)
        return CFun(space, flag, const_data(space, flag, ONE))

    @staticmethod
    def zero(space: SpaceExpr, flag: Flag) -> "CFun":
        check_flag(space, flag)
        return CFun(space, flag, const_data(space, flag, ZERO))

    @staticmethod
    def scalar(space: SpaceExpr, flag: Flag, c) -> "CFun":
        check_flag(space, flag)
        return CFun(space, flag, const_data(space, flag, rat(c)))

    def _check_same(self, other: "CFun"):
        if self.space != other.space or self.flag != other.flag:
            raise SpaceMismatch("ring elements live over different (space, flag)")

    def add(self, other: "CFun") -> "CFun":
        self._check_same(other)
        return self._zip(other, operator.add)

    def sub(self, other: "CFun") -> "CFun":
        self._check_same(other)
        return self._zip(other, operator.sub)

    def mul(self, other: "CFun") -> "CFun":
        self._check_same(other)
        return self._zip(other, operator.mul)

    def _zip(self, other: "CFun", op) -> "CFun":
        return CFun(self.space, self.flag,
                    _zip_data(RATIONAL, self.space, self.flag, None, self.data, other.data, op))

    def scale(self, c) -> "CFun":
        c = rat(c)
        return CFun(self.space, self.flag,
                    _map_data(RATIONAL, self.space, self.flag, None, self.data, lambda a: c * a))

    def is_zero(self) -> bool:
        return self == CFun.zero(self.space, self.flag)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __mul__(self, other):
        return self.mul(other)


def indicator(space: SpaceExpr, flag: Flag, u: ClopenSet) -> CFun:
    """The idempotent supported on the clopen set u, as a ring element."""
    check_flag(space, flag)
    return CFun(space, flag, _canon(RATIONAL, space, flag, None, _indicator_data(space, flag, u)))


def _indicator_data(space, flag, u):
    if _is_zero_ring(space, flag):
        return None
    if isinstance(space, Finite):
        return tuple(ONE if i in u.members else ZERO for i in range(space.n))
    if isinstance(space, Sum):
        return (_indicator_data(space.left, flag, u.left),
                _indicator_data(space.right, flag, u.right))
    if flag and flag[0] == cb_rank(space):
        return ONE if u.apex else ZERO
    exc = {k: _indicator_data(space.base, flag, w) for k, w in u.exc}
    return ("cone", exc, ONE if u.apex else ZERO)


# ---------------------------------------------------------------------------
# cube maps


def dmap(b: int, f: CFun) -> CFun:
    """The cube map inserting height b into the flag of f.

    Inserting below the flag spreads values diagonally onto the new stratum
    (a pure uniform tail); inserting the top height of a cone extracts the
    germ at its apex, which for constructible data is the eventual value.
    """
    new_flag = insert_height(f.flag, b)
    check_flag(f.space, new_flag)
    return CFun(f.space, new_flag, _dmap_data(RATIONAL, f.space, f.flag, None, b, f.data))


def _dmap_data(L, space, flag, cs, b, data):
    return _canon(L, space, insert_height(flag, b), cs, _dmap_leaves(L, space, flag, cs, b, data))


def _dmap_leaves(L, space, flag, cs, b, data):
    if data is None or _is_zero_ring(space, insert_height(flag, b)):
        return None
    if isinstance(space, Finite):
        return tuple(data)
    if isinstance(space, Sum):
        lcs, rcs = L.sum_parts(cs)
        return (_dmap_leaves(L, space.left, flag, lcs, b, data[0]),
                _dmap_leaves(L, space.right, flag, rcs, b, data[1]))
    r = cb_rank(space)
    if b == r:
        # germ at the apex of a constructible family: the tail value
        return data[2]
    lower = bool(flag) and b < flag[-1]
    if flag and flag[0] == r:
        # germ data: inserting a lower height spreads the germ down to it
        return L.spread(cs, b, flag[-1], data) if lower else data
    _, exc, tail = data
    exc_cs, tail_cs = L.cone_parts(cs)
    return ("cone", {k: _dmap_leaves(L, space.base, flag, exc_cs.get(k, tail_cs), b, v)
                     for k, v in exc.items()},
            L.spread(cs, b, flag[-1], tail) if lower else tail)


# ---------------------------------------------------------------------------
# the augmented complex


def _differential(L, space, cs, degree, data):
    """d on raw cochain data (flag -> data) from the given degree; degree -1
    is the augmentation.  Each target flag is canonicalized once."""
    out = {}
    for B in flags_of_size(cb_rank(space), degree + 2):
        if degree == -1:
            out[B] = _canon(L, space, B, cs, L.augment(space, cs, data[()], B[0]))
            continue
        acc = None
        for b in B:
            A = tuple(a for a in B if a != b)
            term = _dmap_leaves(L, space, A, cs, b, data[A])
            op = L.sub if sign_pos(A, b) % 2 == 1 else L.add
            acc = term if acc is None else _zip_leaves(space, B, acc, term, op)
        out[B] = _canon(L, space, B, cs, acc)
    return out


@dataclass(frozen=True)
class AdelicComplex:
    """The augmented adelic cochain complex of a presented space.

    Degree -1 holds the locally constant functions; degree i holds one
    constructible splicing ring per flag with i+1 heights.  Cochains are
    dictionaries mapping flags to ring elements ('()' in degree -1).  The
    class attributes `leaves` and `cs` name the leaf algebra and the
    component structure it follows; `weyl.EqAdelicComplex` replaces them.
    """

    space: SpaceExpr
    cs = None
    leaves = RATIONAL

    @property
    def rank(self) -> int:
        return cb_rank(self.space)

    def degrees(self) -> list[int]:
        return list(range(-1, self.rank + 1))

    def flags(self, degree: int) -> list[Flag]:
        if degree == -1:
            return [()]
        return flags_of_size(self.rank, degree + 1)

    def zero_cochain(self, degree: int) -> dict:
        """The zero cochain (of a degree >= 0 when the leaves are group rings)."""
        L, space, cs = self.leaves, self.space, self.cs
        return {A: L.element(space, A, cs, const_data(space, A, L.zero(cs, A)))
                for A in self.flags(degree)}

    def differential(self, cochain: dict, degree: int) -> dict:
        """Apply d from the given degree; degree -1 is the augmentation."""
        L = self.leaves
        image = _differential(L, self.space, self.cs, degree, _raw(cochain))
        return {B: L.element(self.space, B, self.cs, d) for B, d in image.items()}

    def is_cocycle(self, cochain: dict, degree: int) -> bool:
        L, space, cs = self.leaves, self.space, self.cs
        return all(d == const_data(space, B, L.zero(cs, B))
                   for B, d in _differential(L, space, cs, degree, _raw(cochain)).items())

    def exactness_witness(self, cochain: dict, degree: int) -> dict:
        """A preimage of a cocycle under d (degree -1 data when degree is 0).
        Raises ValueError when the input is not a cocycle."""
        if not self.is_cocycle(cochain, degree):
            raise ValueError("input cochain is not a cocycle")
        L, space, cs = self.leaves, self.space, self.cs
        data = _raw(cochain)
        wdata = _witness(L, space, cs, degree, data)
        check = _differential(L, space, cs, degree - 1, wdata)
        if any(check[A] != data[A] for A in self.flags(degree)):
            raise AssertionError("witness construction failed to hit the cocycle")
        return {A: L.element(space, A, cs, w) for A, w in wdata.items()}


def _raw(cochain: dict) -> dict:
    return {A: f.data for A, f in cochain.items()}


def _witness(L, space, cs, degree, data):
    """Witness recursion on raw data dictionaries (flag -> data).

    The complex of a cone is assembled from the per-copy complexes of the
    base together with an apex part holding the scalar germ coordinates, so
    a cocycle is hit by: recursive witnesses on the exceptional copies, the
    apex cochain reused as the uniform tail of one degree lower, and zero in
    the apex coordinates of the witness itself.
    """
    r = cb_rank(space)
    if isinstance(space, Finite):
        if degree != 0:
            return {}
        return {(): tuple(data[(0,)])}
    if isinstance(space, Sum):
        parts = tuple(zip((space.left, space.right), L.sum_parts(cs)))
        halves = []
        for side, (part, pcs) in enumerate(parts):
            pdata = {A: data[A][side] for A in data if not _is_zero_ring(part, A)}
            halves.append(_witness(L, part, pcs, degree, pdata) if (degree == 0 or pdata) else {})
        out = {}
        for A in (flags_of_size(r, degree) if degree >= 1 else [()]):
            pair = []
            for (part, pcs), half in zip(parts, halves):
                if _is_zero_ring(part, A):
                    pair.append(None)
                elif A in half:
                    pair.append(half[A])
                else:
                    # a summand without cochains of this degree: zero witness
                    pair.append(const_data(part, A, L.zero(pcs, A)))
            out[A] = tuple(pair)
        return out
    exc_cs, tail_cs = L.cone_parts(cs)
    base = space.base
    copies_flags = [A for A in data if A and A[0] != r]
    exc_keys = set()
    for A in copies_flags:
        exc_keys |= set(data[A][1])
    witness_exc = {}
    for k in sorted(exc_keys):
        sub = {A: _cone_slice(base, A, data[A], k) for A in copies_flags}
        witness_exc[k] = _witness(L, base, exc_cs.get(k, tail_cs), degree, sub)
    if degree == 0:
        return {(): L.section(space, cs, {k: w[()] for k, w in witness_exc.items()}, data[(r,)])}
    out = {}
    for A in flags_of_size(r, degree):
        if A[0] == r:
            out[A] = L.zero(cs, A)
        else:
            exc = {k: w[A] for k, w in witness_exc.items()}
            out[A] = _canon(L, space, A, cs, ("cone", exc, data[(r,) + A]))
    return out


def _cone_slice(base, flag, data, k):
    """The copy-k component of cone data over a flag not containing the rank."""
    _, exc, tail = data
    return exc[k] if k in exc else const_data(base, flag, tail)


# ---------------------------------------------------------------------------
# randomized constructible elements (seeded; used by tests and the CLI)


def random_rat(rng: random.Random) -> Rat:
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def random_cfun(space: SpaceExpr, flag: Flag, rng: random.Random, exc_bound: int = 2) -> CFun:
    check_flag(space, flag)
    data = _random_data(space, flag, rng, exc_bound)
    return CFun(space, flag, _canon(RATIONAL, space, flag, None, data))


def _random_data(space, flag, rng, exc_bound):
    if _is_zero_ring(space, flag):
        return None
    if isinstance(space, Finite):
        return tuple(random_rat(rng) for _ in range(space.n))
    if isinstance(space, Sum):
        return (_random_data(space.left, flag, rng, exc_bound),
                _random_data(space.right, flag, rng, exc_bound))
    if flag and flag[0] == cb_rank(space):
        return random_rat(rng)
    nexc = rng.randint(0, exc_bound)
    exc = {k: _random_data(space.base, flag, rng, exc_bound) for k in range(nexc)}
    return ("cone", exc, random_rat(rng))


# ---------------------------------------------------------------------------
# sampling cocycles through the coordinates of bounded-exception cochains
#
# The coordinates of data with at most exc_bound exceptional copies per cone:
# a leaf's coordinates in order, and for a cone the tail leaf followed by the
# copies 0 .. exc_bound-1 (each a tail copy's data).


def _slots(L, space, flag, cs, exc_bound) -> int:
    """The number of coordinates of the bounded-exception data."""
    if _is_zero_ring(space, flag):
        return 0
    if isinstance(space, Finite):
        return space.n * L.size(cs, flag)
    if isinstance(space, Sum):
        lcs, rcs = L.sum_parts(cs)
        return (_slots(L, space.left, flag, lcs, exc_bound)
                + _slots(L, space.right, flag, rcs, exc_bound))
    if flag and flag[0] == cb_rank(space):
        return L.size(cs, flag)
    _exc_cs, tail_cs = L.cone_parts(cs)
    return L.size(cs, flag) + exc_bound * _slots(L, space.base, flag, tail_cs, exc_bound)


def _data_from_coords(L, space, flag, cs, exc_bound, values, pos):
    """Data (not in normal form) read from values at pos, and the next pos."""
    if _is_zero_ring(space, flag):
        return None, pos
    if isinstance(space, Sum):
        lcs, rcs = L.sum_parts(cs)
        left, pos = _data_from_coords(L, space.left, flag, lcs, exc_bound, values, pos)
        right, pos = _data_from_coords(L, space.right, flag, rcs, exc_bound, values, pos)
        return (left, right), pos
    size = L.size(cs, flag)
    if isinstance(space, Finite):
        out = tuple(L.read(values, pos + i * size, size) for i in range(space.n))
        return out, pos + space.n * size
    if flag and flag[0] == cb_rank(space):
        return L.read(values, pos, size), pos + size
    tail = L.read(values, pos, size)
    pos += size
    _exc_cs, tail_cs = L.cone_parts(cs)
    exc = {}
    for k in range(exc_bound):
        exc[k], pos = _data_from_coords(L, space.base, flag, tail_cs, exc_bound, values, pos)
    return ("cone", exc, tail), pos


def _coords_from_data(L, space, flag, exc_bound, data, out):
    if data is None:
        return
    if isinstance(space, Finite):
        for leaf in data:
            L.write(out, leaf)
        return
    if isinstance(space, Sum):
        _coords_from_data(L, space.left, flag, exc_bound, data[0], out)
        _coords_from_data(L, space.right, flag, exc_bound, data[1], out)
        return
    if flag and flag[0] == cb_rank(space):
        L.write(out, data)
        return
    _, exc, tail = data
    if any(k >= exc_bound for k in exc):
        raise ValueError("exception support exceeds the chosen bound")
    L.write(out, tail)
    for k in range(exc_bound):
        _coords_from_data(L, space.base, flag, exc_bound,
                          exc[k] if k in exc else const_data(space.base, flag, tail), out)


def _sample_cocycle(cx, degree, rng, exc_bound, free_draw, kernel_draw) -> dict:
    """A random cocycle of cx with at most exc_bound exceptions per cone.

    The differential on the bounded-exception cochains is probed on their
    coordinate basis and its kernel computed exactly; the sample combines
    the kernel basis with one kernel_draw(rng) per basis vector.  In the top
    degree every cochain is a cocycle, with one free_draw(rng) per
    coordinate.
    """
    L, cs, space, flags = cx.leaves, cx.cs, cx.space, cx.flags(degree)

    def decode(values):
        out, pos = {}, 0
        for A in flags:
            out[A], pos = _data_from_coords(L, space, A, cs, exc_bound, values, pos)
        return out

    n = sum(_slots(L, space, A, cs, exc_bound) for A in flags)
    if degree < cx.rank:
        targets = cx.flags(degree + 1)
        cols = []
        for i in range(n):
            image = _differential(L, space, cs, degree,
                                  decode(tuple(ONE if j == i else ZERO for j in range(n))))
            flat = []
            for B in targets:
                # dmap never enlarges exception support
                _coords_from_data(L, space, B, exc_bound, image[B], flat)
            cols.append(tuple(flat))
        m = sum(_slots(L, space, B, cs, exc_bound) for B in targets)
        basis = kernel_basis(LinMap.from_cols(VectQ.make(n, "c"), VectQ.make(m, "d"), cols))
        values = [ZERO] * n
        for b in basis:
            c = kernel_draw(rng)
            values = [v + c * x for v, x in zip(values, b)]
    else:
        values = [free_draw(rng) for _ in range(n)]
    return {A: L.element(space, A, cs, _canon(L, space, A, cs, data))
            for A, data in decode(tuple(values)).items()}


def random_cocycle(cx: AdelicComplex, degree: int, rng: random.Random, exc_bound: int = 2) -> dict:
    """A uniform-ish random constructible cocycle with bounded exceptions.

    The kernel of the differential restricted to the bounded-exception
    subspace is computed exactly; a random rational combination of its basis
    is returned.  This samples cocycles independently of the witness search.
    """
    return _sample_cocycle(cx, degree, rng, exc_bound, random_rat, random_rat)


def build_complex(space: SpaceExpr) -> AdelicComplex:
    return AdelicComplex(space)
