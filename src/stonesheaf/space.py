"""Finitely presented scattered Stone spaces.

A space expression is built from three constructors:

    Finite(n)   -- n isolated points
    Sum(l, r)   -- disjoint union
    Cone(base)  -- one-point compactification of countably many copies of base

`Cone(Finite(1))` is the one-point compactification of a countable discrete
set.  Every expression denotes a compact, Hausdorff, totally disconnected
space whose Cantor-Bendixson process terminates after finitely many steps;
each node stores its rank, computed structurally when the node is built.
Points are identified by address paths, and clopen sets are kept in a
canonical normal form (finitely many exceptional copies plus an
all-or-nothing tail governed by apex membership) so that set equality is
syntactic equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MalformedPoint(ValueError):
    pass


class SpaceMismatch(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message, pos):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


# ---------------------------------------------------------------------------
# space expressions


@dataclass(frozen=True)
class Finite:
    n: int
    rank: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("Finite requires a positive number of points")
        object.__setattr__(self, "rank", 0)

    def __str__(self):
        return f"Finite({self.n})"


@dataclass(frozen=True)
class Sum:
    left: "SpaceExpr"
    right: "SpaceExpr"
    rank: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", max(self.left.rank, self.right.rank))

    def __str__(self):
        return f"Sum({self.left},{self.right})"


@dataclass(frozen=True)
class Cone:
    base: "SpaceExpr"
    rank: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", self.base.rank + 1)

    def __str__(self):
        return f"Cone({self.base})"


SpaceExpr = Finite | Sum | Cone


def cb_rank(s: SpaceExpr) -> int:
    """Cantor-Bendixson rank: steps of deleting isolated points to empty.

    Each node stores its rank when it is built, from its children's ranks.

    >>> cb_rank(Finite(5))
    0
    >>> cb_rank(Cone(Finite(1)))
    1
    >>> cb_rank(Cone(Cone(Finite(1))))
    2
    """
    return s.rank


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def parse_space(text: str) -> SpaceExpr:
    """Parse expressions like ``Cone(Sum(Finite(2),Finite(1)))``.

    >>> str(parse_space("Cone(Sum(Finite(2),Finite(1)))"))
    'Cone(Sum(Finite(2),Finite(1)))'
    >>> parse_space("Cone(")
    Traceback (most recent call last):
        ...
    stonesheaf.space.ParseError: expected Finite, Sum or Cone (at position 5)
    """
    pos = 0

    def expect(ch):
        nonlocal pos
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ch:
            raise ParseError(f"expected {ch!r}", pos)
        pos += 1

    def parse_expr() -> SpaceExpr:
        nonlocal pos
        pos = _skip_ws(text, pos)
        for name in ("Finite", "Sum", "Cone"):
            if text.startswith(name, pos):
                pos += len(name)
                expect("(")
                if name == "Finite":
                    pos = start = _skip_ws(text, pos)
                    while pos < len(text) and text[pos].isdigit():
                        pos += 1
                    if start == pos:
                        raise ParseError("expected an integer", pos)
                    n = int(text[start:pos])
                    if n < 1:
                        raise ParseError("expected a positive integer", start)
                    expect(")")
                    return Finite(n)
                if name == "Cone":
                    inner = parse_expr()
                    expect(")")
                    return Cone(inner)
                left = parse_expr()
                expect(",")
                right = parse_expr()
                expect(")")
                return Sum(left, right)
        raise ParseError("expected Finite, Sum or Cone", pos)

    out = parse_expr()
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing input", pos)
    return out


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class Point:
    """A point given by its address path; the label is display-only."""

    addr: tuple
    label: str | None = field(default=None, compare=False)

    def labelled(self, label: str) -> "Point":
        return Point(self.addr, label)

    def __str__(self):
        return addr_str(self.addr) if self.label is None else self.label


def addr_str(addr) -> str:
    kind = addr[0]
    if kind == "fin":
        return str(addr[1])
    if kind == "apex":
        return "Apex"
    if kind == "copy":
        return f"({addr[1]},{addr_str(addr[2])})"
    if kind == "L":
        return f"L.{addr_str(addr[1])}"
    return f"R.{addr_str(addr[1])}"


def fin_point(i: int, label=None) -> Point:
    return Point(("fin", i), label)


def apex_point(label=None) -> Point:
    return Point(("apex",), label)


def copy_point(k: int, sub: Point, label=None) -> Point:
    return Point(("copy", k, sub.addr), label)


def left_point(sub: Point) -> Point:
    return Point(("L", sub.addr), sub.label)


def right_point(sub: Point) -> Point:
    return Point(("R", sub.addr), sub.label)


def validate_point(s: SpaceExpr, p: Point):
    _validate_addr(s, p.addr)


def _validate_addr(s, addr):
    if not isinstance(addr, tuple) or not addr:
        raise MalformedPoint(f"bad address {addr!r}")
    kind = addr[0]
    if isinstance(s, Finite):
        if kind != "fin" or not (0 <= addr[1] < s.n):
            raise MalformedPoint(f"{addr!r} is not a point of {s}")
    elif isinstance(s, Sum):
        if kind == "L":
            _validate_addr(s.left, addr[1])
        elif kind == "R":
            _validate_addr(s.right, addr[1])
        else:
            raise MalformedPoint(f"{addr!r} is not a point of {s}")
    else:
        if kind == "apex":
            if len(addr) != 1:
                raise MalformedPoint(f"bad apex address {addr!r}")
        elif kind == "copy":
            if addr[1] < 0:
                raise MalformedPoint("negative copy index")
            _validate_addr(s.base, addr[2])
        else:
            raise MalformedPoint(f"{addr!r} is not a point of {s}")


def height(s: SpaceExpr, p: Point) -> int:
    """Index of the pure stratum containing p (0 = isolated)."""
    validate_point(s, p)
    return _height_addr(s, p.addr)


def _height_addr(s, addr):
    if isinstance(s, Finite):
        return 0
    if isinstance(s, Sum):
        return _height_addr(s.left if addr[0] == "L" else s.right, addr[1])
    if addr[0] == "apex":
        return cb_rank(s)
    return _height_addr(s.base, addr[2])


def top_stratum(s: SpaceExpr) -> list[Point]:
    """The finite set of points of maximal height."""
    if isinstance(s, Finite):
        return [fin_point(i) for i in range(s.n)]
    if isinstance(s, Sum):
        r = cb_rank(s)
        out = []
        if cb_rank(s.left) == r:
            out.extend(left_point(p) for p in top_stratum(s.left))
        if cb_rank(s.right) == r:
            out.extend(right_point(p) for p in top_stratum(s.right))
        return out
    return [apex_point()]


def iter_points(s: SpaceExpr, copy_bound: int = 3):
    """Finitely many representative points: all addresses with copy index < bound."""
    if isinstance(s, Finite):
        for i in range(s.n):
            yield fin_point(i)
    elif isinstance(s, Sum):
        for p in iter_points(s.left, copy_bound):
            yield left_point(p)
        for p in iter_points(s.right, copy_bound):
            yield right_point(p)
    else:
        yield apex_point()
        for k in range(copy_bound):
            for p in iter_points(s.base, copy_bound):
                yield copy_point(k, p)


# ---------------------------------------------------------------------------
# clopen sets


@dataclass(frozen=True)
class FinSet:
    members: frozenset


@dataclass(frozen=True)
class SumSet:
    left: "ClopenSet"
    right: "ClopenSet"


@dataclass(frozen=True)
class ConeSet:
    """Exceptional copies (index, subset) below a minimal threshold; beyond
    the threshold copies are full when the apex is in, empty when it is out."""

    exc: tuple
    apex: bool


ClopenSet = FinSet | SumSet | ConeSet


def empty_set(s: SpaceExpr) -> ClopenSet:
    if isinstance(s, Finite):
        return FinSet(frozenset())
    if isinstance(s, Sum):
        return SumSet(empty_set(s.left), empty_set(s.right))
    return ConeSet((), False)


def full_set(s: SpaceExpr) -> ClopenSet:
    if isinstance(s, Finite):
        return FinSet(frozenset(range(s.n)))
    if isinstance(s, Sum):
        return SumSet(full_set(s.left), full_set(s.right))
    return ConeSet((), True)


def _cone_default(s: Cone, apex: bool) -> ClopenSet:
    return full_set(s.base) if apex else empty_set(s.base)


def make_cone_set(s: Cone, exc: dict, apex: bool) -> ConeSet:
    """Canonicalize: drop exceptional copies equal to the tail default."""
    default = _cone_default(s, apex)
    cleaned = tuple(sorted((k, u) for k, u in exc.items() if u != default))
    return ConeSet(cleaned, apex)


def cone_member_set(cs: ConeSet, s: Cone, k: int) -> ClopenSet:
    for idx, u in cs.exc:
        if idx == k:
            return u
    return _cone_default(s, cs.apex)


def singleton(s: SpaceExpr, p: Point) -> ClopenSet:
    """The clopen {p} of a point of height 0: its first basic neighbourhood."""
    validate_point(s, p)
    if _height_addr(s, p.addr):
        raise MalformedPoint("an apex has no singleton clopen neighbourhood")
    return _nbhd_addr(s, p.addr, 0)


def nbhd_basis(s: SpaceExpr, x: Point, n: int) -> ClopenSet:
    """The n-th member of the canonical decreasing clopen basis at x.

    Isolated points get their singleton for every n; the apex of a cone gets
    the apex together with all copies of index >= n.
    """
    validate_point(s, x)
    return _nbhd_addr(s, x.addr, n)


def _nbhd_addr(s, addr, n):
    if isinstance(s, Finite):
        return FinSet(frozenset({addr[1]}))
    if isinstance(s, Sum):
        if addr[0] == "L":
            return SumSet(_nbhd_addr(s.left, addr[1], n), empty_set(s.right))
        return SumSet(empty_set(s.left), _nbhd_addr(s.right, addr[1], n))
    if addr[0] == "apex":
        exc = {k: empty_set(s.base) for k in range(n)}
        return make_cone_set(s, exc, True)
    return make_cone_set(s, {addr[1]: _nbhd_addr(s.base, addr[2], n)}, False)


def member(s: SpaceExpr, x: Point, u: ClopenSet) -> bool:
    validate_point(s, x)
    return _member_addr(s, x.addr, u)


def _member_addr(s, addr, u):
    if isinstance(s, Finite):
        return addr[1] in u.members
    if isinstance(s, Sum):
        if addr[0] == "L":
            return _member_addr(s.left, addr[1], u.left)
        return _member_addr(s.right, addr[1], u.right)
    if addr[0] == "apex":
        return u.apex
    return _member_addr(s.base, addr[2], cone_member_set(u, s, addr[1]))


def meet(s: SpaceExpr, u: ClopenSet, v: ClopenSet) -> ClopenSet:
    if isinstance(s, Finite):
        return FinSet(u.members & v.members)
    if isinstance(s, Sum):
        return SumSet(meet(s.left, u.left, v.left), meet(s.right, u.right, v.right))
    keys = {k for k, _ in u.exc} | {k for k, _ in v.exc}
    exc = {k: meet(s.base, cone_member_set(u, s, k), cone_member_set(v, s, k)) for k in keys}
    return make_cone_set(s, exc, u.apex and v.apex)


def complement(s: SpaceExpr, u: ClopenSet) -> ClopenSet:
    if isinstance(s, Finite):
        return FinSet(frozenset(range(s.n)) - u.members)
    if isinstance(s, Sum):
        return SumSet(complement(s.left, u.left), complement(s.right, u.right))
    exc = {k: complement(s.base, w) for k, w in u.exc}
    return make_cone_set(s, exc, not u.apex)


def join(s: SpaceExpr, u: ClopenSet, v: ClopenSet) -> ClopenSet:
    return complement(s, meet(s, complement(s, u), complement(s, v)))


def set_is_finite(s: SpaceExpr, u: ClopenSet) -> bool:
    if isinstance(s, Finite):
        return True
    if isinstance(s, Sum):
        return set_is_finite(s.left, u.left) and set_is_finite(s.right, u.right)
    if u.apex:
        return False
    return all(set_is_finite(s.base, w) for _, w in u.exc)


def enumerate_finite(s: SpaceExpr, u: ClopenSet) -> list[Point]:
    """All points of a finite clopen set."""
    if not set_is_finite(s, u):
        raise ValueError("set is infinite")
    if isinstance(s, Finite):
        return [fin_point(i) for i in sorted(u.members)]
    if isinstance(s, Sum):
        return [left_point(p) for p in enumerate_finite(s.left, u.left)] + [
            right_point(p) for p in enumerate_finite(s.right, u.right)]
    out = []
    for k, w in u.exc:
        out.extend(copy_point(k, p) for p in enumerate_finite(s.base, w))
    return out


def find_isolated(s: SpaceExpr, u: ClopenSet) -> Point | None:
    """A height-0 point of u; exists whenever u is nonempty (density)."""
    if isinstance(s, Finite):
        for i in sorted(u.members):
            return fin_point(i)
        return None
    if isinstance(s, Sum):
        p = find_isolated(s.left, u.left)
        if p is not None:
            return left_point(p)
        p = find_isolated(s.right, u.right)
        return right_point(p) if p is not None else None
    for k, w in u.exc:
        p = find_isolated(s.base, w)
        if p is not None:
            return copy_point(k, p)
    if u.apex:
        k = (max(k for k, _ in u.exc) + 1) if u.exc else 0
        p = find_isolated(s.base, full_set(s.base))
        return copy_point(k, p)
    return None


def parse_point(s: SpaceExpr, text: str) -> Point:
    """Parse the textual address form produced by printing a point:
    ``Apex``, ``3``, ``(2,Apex)``, ``L.0``, ``(1,(0,R.2))`` and so on, with
    whitespace allowed before every token, as in a space expression."""
    addr, pos = _parse_addr(s, text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing input in point address", pos)
    p = Point(addr)
    validate_point(s, p)
    return p


def _parse_addr(s, text, pos):
    pos = _skip_ws(text, pos)
    if pos >= len(text):
        raise ParseError("empty point address", pos)
    if isinstance(s, Sum):
        if text.startswith("L.", pos):
            sub, pos = _parse_addr(s.left, text, pos + 2)
            return ("L", sub), pos
        if text.startswith("R.", pos):
            sub, pos = _parse_addr(s.right, text, pos + 2)
            return ("R", sub), pos
        raise ParseError("expected L. or R. for a disjoint union", pos)
    if isinstance(s, Finite):
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise ParseError("expected a point index", pos)
        return ("fin", int(text[start:pos])), pos
    if text.startswith("Apex", pos):
        return ("apex",), pos + 4
    if text[pos] != "(":
        raise ParseError("expected Apex or (copy,...) for a cone", pos)
    pos = start = _skip_ws(text, pos + 1)
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if start == pos:
        raise ParseError("expected a copy index", pos)
    k = int(text[start:pos])
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ",":
        raise ParseError("expected ',' after the copy index", pos)
    sub, pos = _parse_addr(s.base, text, pos + 1)
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ")":
        raise ParseError("expected ')'", pos)
    return ("copy", k, sub), pos + 1
