"""JSON-style serialization for the public types.

One textual format for everything, with a schema version field on
top-level documents; round trips are exact (rationals travel as "p/q"
strings).  Every deserialization failure raises `SerializeError` carrying
the path to the offending component (`_reading`).

Sheaves, sheaf maps, sections, component structures and equivariant stalk
actions mirror the space grammar and share one codec, `_tree_to_json` and
`_tree_from_json`, with one `_Tree` spec each.  Outside it stay ring-element
data (`_data_*`: bare pairs at sums, bare leaves at the germ flag) and, not
read against a space, module payloads, clopen sets and point addresses.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from operator import attrgetter

from .linalg import LinMap, VectQ
from .space import (
    ClopenSet, ConeSet, FinSet, Finite, ParseError, Point, SpaceExpr, Sum, SumSet, cb_rank,
    parse_space)
from .adelic import RATIONAL, CFun
from .sheaf import (
    CSheaf, Section, SheafMap, make_cone_map, make_cone_sheaf, make_fin_map, make_fin_sheaf,
    make_sum_map, make_sum_sheaf)
from .homalg import make_ses
from .models import CMod, DiagMod
from .weyl import (
    GROUP_RING, ComponentStructure, EqCFun, FinGroup, GrpHom, cone_structure, fin_structure,
    make_equiv, require_uniform_levels, sum_structure)
from .catalog import Lattice2, SubgroupLabel

SCHEMA = "stonesheaf/1"


class SerializeError(ValueError):
    def __init__(self, message, path="$"):
        self.path = path
        super().__init__(f"{message} (at {path})")


class _reading:
    """Turn a malformed document into a `SerializeError` at `path`; a nested one passes as is."""
    __slots__ = ("what", "path")

    def __init__(self, what, path):
        self.what, self.path = what, path

    def __enter__(self):
        pass

    def __exit__(self, _kind, exc, _tb):
        if isinstance(exc, (KeyError, TypeError, IndexError, ValueError)) and \
                not isinstance(exc, SerializeError):
            raise SerializeError(f"malformed {self.what}: {exc}", self.path)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def rat_to_json(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rat_from_json(s, path="$") -> Fraction:
    try:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    except Exception as exc:
        raise SerializeError(f"malformed rational {s!r}: {exc}", path)


def vec_to_json(v):
    return [rat_to_json(x) for x in v]


def vec_from_json(v, path="$"):
    return tuple(rat_from_json(x, f"{path}[{i}]") for i, x in enumerate(v))


def space_to_json(s: SpaceExpr) -> str:
    return str(s)


def space_from_json(text, path="$") -> SpaceExpr:
    try:
        return parse_space(text)
    except ParseError as exc:
        raise SerializeError(str(exc), path)


def point_to_json(p: Point):
    return {"addr": _addr_to_json(p.addr), "label": p.label}


def _addr_to_json(addr):
    kind = addr[0]
    if kind == "fin":
        return ["fin", addr[1]]
    if kind == "apex":
        return ["apex"]
    if kind == "copy":
        return ["copy", addr[1], _addr_to_json(addr[2])]
    return [kind, _addr_to_json(addr[1])]


def point_from_json(d, path="$") -> Point:
    with _reading("point", path):
        return Point(_addr_from_json(d["addr"]), d.get("label"))


def _addr_from_json(a):
    kind = a[0]
    if kind == "fin":
        return ("fin", int(a[1]))
    if kind == "apex":
        return ("apex",)
    if kind == "copy":
        return ("copy", int(a[1]), _addr_from_json(a[2]))
    return (kind, _addr_from_json(a[1]))


def clopen_to_json(u: ClopenSet):
    if isinstance(u, FinSet):
        return {"fin": sorted(u.members)}
    if isinstance(u, SumSet):
        return {"left": clopen_to_json(u.left), "right": clopen_to_json(u.right)}
    return {"apex": u.apex, "exc": [[k, clopen_to_json(w)] for k, w in u.exc]}


def clopen_from_json(d, path="$") -> ClopenSet:
    with _reading("clopen set", path):
        if "fin" in d:
            return FinSet(frozenset(d["fin"]))
        if "left" in d:
            return SumSet(clopen_from_json(d["left"], path + ".left"),
                          clopen_from_json(d["right"], path + ".right"))
        return ConeSet(tuple((int(k), clopen_from_json(w, f"{path}.exc[{k}]"))
                             for k, w in d["exc"]), bool(d["apex"]))


def cfun_to_json(f: CFun):
    return {"schema": SCHEMA, "space": space_to_json(f.space),
            "flag": list(f.flag), "data": _data_to_json(f.space, f.flag, f.data, rat_to_json)}


def cfun_from_json(d, path="$") -> CFun:
    with _reading("ring element", path):
        space = space_from_json(d["space"], path + ".space")
        flag = tuple(d["flag"])
        return CFun(space, flag, _data_from_json(space, flag, d["data"], path + ".data",
                                                 _rational_leaf, RATIONAL, None))


def _data_to_json(space, flag, data, leaf):
    """Ring-element data with each leaf written by `leaf` (`rat_to_json` for
    rational leaves, `vec_to_json` for group-ring ones)."""
    if data is None:
        return None
    if isinstance(space, Finite):
        return [leaf(x) for x in data]
    if isinstance(space, Sum):
        return [_data_to_json(space.left, flag, data[0], leaf),
                _data_to_json(space.right, flag, data[1], leaf)]
    if flag and flag[0] == cb_rank(space):
        return leaf(data)
    _, exc, tail = data
    return {"tail": leaf(tail),
            "exc": [[k, _data_to_json(space.base, flag, v, leaf)] for k, v in sorted(exc.items())]}


def _data_from_json(space, flag, data, path, leaf, L, cs):
    """The inverse of `_data_to_json`, given the matching leaf reader
    `leaf(x, path, size)` and the leaf type `L` of the engine over the
    structure `cs` at this position, which gives each leaf's `size`."""
    if data is None:
        return None
    if isinstance(space, Finite):
        if len(data) != space.n:
            raise ValueError(f"{len(data)} leaves over {space}")
        size = L.size(cs, flag)
        return tuple(leaf(x, f"{path}[{i}]", size) for i, x in enumerate(data))
    if isinstance(space, Sum):
        left, right = data
        lcs, rcs = L.sum_parts(cs)
        return (_data_from_json(space.left, flag, left, path + "[0]", leaf, L, lcs),
                _data_from_json(space.right, flag, right, path + "[1]", leaf, L, rcs))
    if flag and flag[0] == cb_rank(space):
        return leaf(data, path, L.size(cs, flag))
    exc_cs, tail_cs = L.cone_parts(cs)
    exc = {}
    for k, v in data["exc"]:
        key = int(k)
        exc[key] = _data_from_json(space.base, flag, v, f"{path}.exc[{k}]", leaf, L,
                                   exc_cs.get(key, tail_cs))
    return ("cone", exc, leaf(data["tail"], path + ".tail", L.size(cs, flag)))


def _rational_leaf(x, path, _size):
    return rat_from_json(x, path)


def _group_ring_leaf(x, path, order):
    v = vec_from_json(x, path)
    if len(v) != order:
        raise SerializeError(f"group-ring leaf of length {len(v)} in a group of order {order}",
                             path)
    return v


def vectq_to_json(v: VectQ):
    return {"dim": v.dim, "labels": list(v.labels)}


def vectq_from_json(d, path="$") -> VectQ:
    with _reading("space", path):
        labels = tuple(d["labels"])
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise SerializeError(f"label {label!r} is not a string", f"{path}.labels[{i}]")
        return VectQ(int(d["dim"]), labels)


def linmap_to_json(m: LinMap):
    return {"source": vectq_to_json(m.source), "target": vectq_to_json(m.target),
            "matrix": [vec_to_json(r) for r in m.matrix]}


def linmap_from_json(d, path="$") -> LinMap:
    with _reading("linear map", path):
        return LinMap(vectq_from_json(d["source"], path + ".source"),
                      vectq_from_json(d["target"], path + ".target"),
                      tuple(vec_from_json(r, f"{path}.matrix[{i}]")
                            for i, r in enumerate(d["matrix"])))


def group_to_json(G: FinGroup):
    return {"name": G.name, "table": [list(r) for r in G.table]}


def group_from_json(d, path="$") -> FinGroup:
    with _reading("group", path):
        name = d.get("name", "G")
        if not isinstance(name, str):
            raise SerializeError(f"group name {name!r} is not a string", f"{path}.name")
        return FinGroup(tuple(tuple(r) for r in d["table"]), name)


def hom_to_json(h: GrpHom):
    return {"source": group_to_json(h.source), "target": group_to_json(h.target),
            "values": list(h.values)}


def hom_from_json(d, path="$") -> GrpHom:
    with _reading("homomorphism", path):
        return GrpHom(group_from_json(d["source"], path + ".source"),
                      group_from_json(d["target"], path + ".target"),
                      tuple(d["values"]))


# ---------------------------------------------------------------------------
# one codec for every type whose data mirrors the space grammar


# The spec of one such type; the codec branches on nothing else.  `data(node)`
# holds a finite node's items or a sum's halves (after a tag if `tagged`), or a
# cone's `(tag, exc pairs, tail, *fields)`; `fin` and `fields` are (key, write,
# read) of the item list (key None: a bare list) and of each other cone field.
# A node is read against `ctx` (a space, a section's sheaf, or a map's source
# and target) with grammar node `space(ctx)`, children read against
# `halves(ctx)`, `copy(ctx, k)` and `tail(ctx)` (None: no tail), and builders
# `make_*(ctx, ...)`.
_Tree = namedtuple("_Tree", "data tagged fin fields space halves copy tail "
                            "make_fin make_sum make_cone")


def _tree_to_json(t, space, node):
    data = t.data(node)
    if isinstance(space, Finite):
        key, write, _read = t.fin
        items = [write(x) for x in (data[1] if t.tagged else data)]
        return items if key is None else {key: items}
    if isinstance(space, Sum):
        return {"left": _tree_to_json(t, space.left, data[t.tagged]),
                "right": _tree_to_json(t, space.right, data[t.tagged + 1])}
    out = {"exc": [[k, _tree_to_json(t, space.base, sub)] for k, sub in data[1]]}
    if t.tail is not None:
        out["tail"] = _tree_to_json(t, space.base, data[2])
    for (key, write, _read), value in zip(t.fields, data[len(data) - len(t.fields):]):
        out[key] = write(value)
    return out


def _tree_from_json(t, ctx, d, path):
    space = t.space(ctx)
    if isinstance(space, Finite):
        key, _write, read = t.fin
        if key is not None:
            d, path = d[key], f"{path}.{key}"
        return t.make_fin(ctx, [read(x, f"{path}[{i}]") for i, x in enumerate(d)])
    if isinstance(space, Sum):
        left, right = t.halves(ctx)
        return t.make_sum(ctx, _tree_from_json(t, left, d["left"], path + ".left"),
                          _tree_from_json(t, right, d["right"], path + ".right"))
    exc = tuple((int(k), _tree_from_json(t, t.copy(ctx, int(k)), sub, f"{path}.exc[{k}]"))
                for k, sub in d["exc"])
    tail = None if t.tail is None else _tree_from_json(t, t.tail(ctx), d["tail"], path + ".tail")
    return t.make_cone(ctx, exc, tail,
                       [read(d[key], f"{path}.{key}") for key, _write, read in t.fields])


def _sized(vecs, stalks) -> tuple:
    lengths, dims = [len(v) for v in vecs], [V.dim for V in stalks]
    if lengths != dims:
        raise ValueError(f"vectors of lengths {lengths} in stalks of dimensions {dims}")
    return tuple(vecs)


_DATA = attrgetter("data")
_LINMAPS = (lambda maps: [linmap_to_json(m) for m in maps],
            lambda d, path: tuple(linmap_from_json(m, f"{path}[{i}]") for i, m in enumerate(d)))
_BY_SPACE = (lambda s: s, lambda s: (s.left, s.right), lambda s, _k: s.base, lambda s: s.base)
_SHEAF = _Tree(
    _DATA, 0, ("stalks", vectq_to_json, vectq_from_json),
    (("apex", vectq_to_json, vectq_from_json), ("germ", linmap_to_json, linmap_from_json)),
    *_BY_SPACE, make_fin_sheaf, make_sum_sheaf,
    lambda space, exc, tail, f: make_cone_sheaf(space, dict(exc), tail, *f))
_MAP = _Tree(
    _DATA, 0, ("stalk_maps", linmap_to_json, linmap_from_json),
    (("apex", linmap_to_json, linmap_from_json),),
    lambda st: st[0].space, lambda st: tuple(zip(st[0].data, st[1].data)),
    lambda st, k: (st[0].copy_sheaf(k), st[1].copy_sheaf(k)), lambda st: (st[0].tail, st[1].tail),
    lambda st, maps: make_fin_map(*st, maps), lambda st, l, r: make_sum_map(*st, l, r),
    lambda st, exc, tail, f: make_cone_map(*st, dict(exc), tail, *f, check=False))
_STRUCTURE = _Tree(
    _DATA, 1, ("groups", group_to_json, group_from_json),
    (("apex_group", group_to_json, group_from_json), ("up", hom_to_json, hom_from_json)),
    *_BY_SPACE, fin_structure, sum_structure,
    lambda space, exc, tail, f: cone_structure(space, dict(exc), tail, *f))
_REPS = _Tree(
    lambda reps: reps, 1, ("fin", *_LINMAPS), (("apex", *_LINMAPS),), *_BY_SPACE,
    lambda _s, mats: ("fin", tuple(mats)), lambda _s, l, r: ("sum", l, r),
    lambda _s, exc, tail, f: ("cone", exc, tail, *f))
_SECTION = _Tree(
    lambda data: data, 0, (None, vec_to_json, vec_from_json),
    (("apex", vec_to_json, vec_from_json),),
    lambda F: F.space, lambda F: F.data, CSheaf.copy_sheaf, None,
    lambda F, vecs: _sized(vecs, F.data), lambda _F, l, r: (l, r),
    lambda F, exc, _tail, f: ("sec", exc, *_sized(f, [F.apex])))


def csheaf_to_json(F: CSheaf):
    return {"schema": SCHEMA, "space": space_to_json(F.space),
            "data": _tree_to_json(_SHEAF, F.space, F)}


def csheaf_from_json(d, path="$") -> CSheaf:
    with _reading("sheaf", path):
        space = space_from_json(d["space"], path + ".space")
        return _tree_from_json(_SHEAF, space, d["data"], path + ".data")


def structure_to_json(cs: ComponentStructure):
    return {"schema": SCHEMA, "space": space_to_json(cs.space),
            "data": _tree_to_json(_STRUCTURE, cs.space, cs)}


def structure_from_json(d, path="$") -> ComponentStructure:
    with _reading("component structure", path):
        space = space_from_json(d["space"], path + ".space")
        return _tree_from_json(_STRUCTURE, space, d["data"], path + ".data")


def lattice_to_json(L: Lattice2):
    if L.kind == "full":
        return {"kind": "full", "a": L.a, "b": L.b, "d": L.d}
    return {"kind": "line", "vec": list(L.vec), "mult": L.mult}


def lattice_from_json(d, path="$") -> Lattice2:
    with _reading("lattice", path):
        if d["kind"] == "full":
            return Lattice2("full", a=d["a"], b=d["b"], d=d["d"])
        return Lattice2("line", vec=tuple(d["vec"]), mult=d["mult"])


def label_to_json(s: SubgroupLabel):
    return {"kind": s.kind,
            "lattice": None if s.lattice is None else lattice_to_json(s.lattice)}


def label_from_json(d, path="$") -> SubgroupLabel:
    with _reading("subgroup label", path):
        lat = d.get("lattice")
        return SubgroupLabel(d["kind"], None if lat is None else
                             lattice_from_json(lat, path + ".lattice"))


def loads_document(text: str, path="$"):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializeError(f"invalid JSON at position {exc.pos}: {exc.msg}", path)
    if isinstance(d, dict) and "schema" in d and d["schema"] != SCHEMA:
        raise SerializeError(f"unsupported schema {d['schema']!r}", path + ".schema")
    return d


def sheafmap_to_json(f: SheafMap):
    return {"schema": SCHEMA,
            "source": csheaf_to_json(f.source)["data"],
            "target": csheaf_to_json(f.target)["data"],
            "space": space_to_json(f.source.space),
            "data": _tree_to_json(_MAP, f.source.space, f)}


def sheafmap_from_json(d, path="$") -> SheafMap:
    with _reading("sheaf map", path):
        space = space_from_json(d["space"], path + ".space")
        src = _tree_from_json(_SHEAF, space, d["source"], path + ".source")
        tgt = _tree_from_json(_SHEAF, space, d["target"], path + ".target")
        return _tree_from_json(_MAP, (src, tgt), d["data"], path + ".data")


def ses_to_json(s) -> dict:
    return {"schema": SCHEMA,
            "incl": sheafmap_to_json(s.incl),
            "proj": sheafmap_to_json(s.proj)}


def ses_from_json(d, path="$"):
    with _reading("exact sequence", path):
        return make_ses(sheafmap_from_json(d["incl"], path + ".incl"),
                        sheafmap_from_json(d["proj"], path + ".proj"))


def equiv_to_json(E) -> dict:
    """Equivariant sheaf: underlying sheaf, structure, and stalk actions as
    matrix lists, one matrix per group element."""
    return {"schema": SCHEMA,
            "sheaf": csheaf_to_json(E.sheaf),
            "structure": structure_to_json(E.cs),
            "reps": _tree_to_json(_REPS, E.sheaf.space, E.reps)}


def equiv_from_json(d, path="$"):
    with _reading("equivariant sheaf", path):
        F = csheaf_from_json(d["sheaf"], path + ".sheaf")
        cs = structure_from_json(d["structure"], path + ".structure")
        return make_equiv(F, cs, _tree_from_json(_REPS, F.space, d["reps"], path + ".reps"))


def section_to_json(s) -> dict:
    return {"schema": SCHEMA, "sheaf": csheaf_to_json(s.sheaf),
            "data": _tree_to_json(_SECTION, s.sheaf.space, s.data)}


def section_from_json(d, path="$"):
    with _reading("section", path):
        F = csheaf_from_json(d["sheaf"], path + ".sheaf")
        return Section(F, _tree_from_json(_SECTION, F, d["data"], path + ".data"))


def eqcfun_to_json(f) -> dict:
    return {"schema": SCHEMA, "space": space_to_json(f.space),
            "flag": list(f.flag), "structure": structure_to_json(f.cs),
            "data": _data_to_json(f.space, f.flag, f.data, vec_to_json)}


def eqcfun_from_json(d, path="$"):
    with _reading("equivariant ring element", path):
        space = space_from_json(d["space"], path + ".space")
        flag = tuple(d["flag"])
        cs = structure_from_json(d["structure"], path + ".structure")
        require_uniform_levels(cs, "equivariant ring elements")
        return EqCFun(space, flag, _data_from_json(space, flag, d["data"], path + ".data",
                                                   _group_ring_leaf, GROUP_RING, cs), cs)


def cmod_to_json(M) -> dict:
    return {"schema": SCHEMA, "space": space_to_json(M.space),
            "flag": list(M.flag), "payload": _cmod_payload_to_json(M.payload)}


def _cmod_payload_to_json(p):
    kind = p[0]
    if kind == "zero":
        return {"kind": "zero"}
    if kind == "fin":
        return {"kind": "fin", "stalks": [vectq_to_json(v) for v in p[1]]}
    if kind == "sum":
        return {"kind": "sum", "left": cmod_to_json(p[1]), "right": cmod_to_json(p[2])}
    if kind == "apex":
        V, ambient, emb = p[1], p[2], p[3]
        if isinstance(ambient, tuple) and ambient[0] == "sec":
            amb = {"kind": "sections", "sheaf": csheaf_to_json(ambient[1])}
        else:
            amb = {"kind": "module", "module": cmod_to_json(ambient)}
        return {"kind": "apex", "vertex": vectq_to_json(V), "ambient": amb,
                "emb": linmap_to_json(emb)}
    _, exc, generic, W, iota = p
    return {"kind": "low", "exc": [[k, cmod_to_json(m)] for k, m in exc],
            "generic": cmod_to_json(generic), "uniform": vectq_to_json(W),
            "iota": linmap_to_json(iota)}


def cmod_from_json(d, path="$"):
    with _reading("module", path):
        space = space_from_json(d["space"], path + ".space")
        flag = tuple(d["flag"])
        return CMod(space, flag, _cmod_payload_from_json(d["payload"], path + ".payload"))


def _cmod_payload_from_json(d, path):
    kind = d["kind"]
    if kind == "zero":
        return ("zero",)
    if kind == "fin":
        return ("fin", tuple(vectq_from_json(v, f"{path}.stalks[{i}]")
                             for i, v in enumerate(d["stalks"])))
    if kind == "sum":
        return ("sum", cmod_from_json(d["left"], path + ".left"),
                cmod_from_json(d["right"], path + ".right"))
    if kind == "apex":
        amb = d["ambient"]
        if amb["kind"] == "sections":
            ambient = ("sec", csheaf_from_json(amb["sheaf"], path + ".ambient"))
        else:
            ambient = cmod_from_json(amb["module"], path + ".ambient")
        return ("apex", vectq_from_json(d["vertex"], path + ".vertex"), ambient,
                linmap_from_json(d["emb"], path + ".emb"))
    exc = tuple((int(k), cmod_from_json(m, f"{path}.exc[{k}]")) for k, m in d["exc"])
    return ("low", exc, cmod_from_json(d["generic"], path + ".generic"),
            vectq_from_json(d["uniform"], path + ".uniform"),
            linmap_from_json(d["iota"], path + ".iota"))


def diagmod_to_json(D) -> dict:
    return {"schema": SCHEMA, "space": space_to_json(D.space),
            "vertices": [[list(A), cmod_to_json(M)] for A, M in sorted(D.vertices.items())],
            "edges": [[list(A), b, linmap_to_json(e)]
                      for (A, b), e in sorted(D.edges.items())]}


def diagmod_from_json(d, path="$"):
    with _reading("diagram", path):
        space = space_from_json(d["space"], path + ".space")
        vertices = {tuple(A): cmod_from_json(M, f"{path}.vertices[{A}]")
                    for A, M in d["vertices"]}
        edges = {(tuple(A), b): linmap_from_json(e, f"{path}.edges[{A},{b}]")
                 for A, b, e in d["edges"]}
        return DiagMod(space, vertices, edges)
