"""JSON-style serialization for the public types.

One textual format for everything, with a schema version field on
top-level documents; round trips are exact (rationals travel as "p/q"
strings).  Deserialization failures raise `SerializeError` carrying the
path to the offending component.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import LinMap, VectQ
from .space import (
    ClopenSet, ConeSet, FinSet, Finite, Point, SpaceExpr, Sum, SumSet, cb_rank,
    parse_space)
from .adelic import CFun
from .sheaf import CSheaf, SheafMap, make_cone_sheaf, make_fin_sheaf, make_sum_sheaf
from .weyl import (
    ComponentStructure, FinGroup, GrpHom, cone_structure, fin_structure,
    sum_structure)
from .catalog import Lattice2, SubgroupLabel

SCHEMA = "stonesheaf/1"


class SerializeError(ValueError):
    def __init__(self, message, path="$"):
        self.path = path
        super().__init__(f"{message} (at {path})")


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
    from .space import ParseError
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
    try:
        return Point(_addr_from_json(d["addr"]), d.get("label"))
    except (KeyError, TypeError, IndexError) as exc:
        raise SerializeError(f"malformed point: {exc}", path)


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
    try:
        if "fin" in d:
            return FinSet(frozenset(d["fin"]))
        if "left" in d:
            return SumSet(clopen_from_json(d["left"], path + ".left"),
                          clopen_from_json(d["right"], path + ".right"))
        return ConeSet(tuple((int(k), clopen_from_json(w, f"{path}.exc[{k}]"))
                             for k, w in d["exc"]), bool(d["apex"]))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed clopen set: {exc}", path)


def cfun_to_json(f: CFun):
    return {"schema": SCHEMA, "space": space_to_json(f.space),
            "flag": list(f.flag), "data": _data_to_json(f.space, f.flag, f.data, rat_to_json)}


def cfun_from_json(d, path="$") -> CFun:
    try:
        space = space_from_json(d["space"], path + ".space")
        flag = tuple(d["flag"])
        return CFun(space, flag, _data_from_json(space, flag, d["data"], path + ".data",
                                                 rat_from_json))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed ring element: {exc}", path)


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


def _data_from_json(space, flag, data, path, leaf):
    """The inverse of `_data_to_json`, given the matching `*_from_json` leaf
    reader."""
    if data is None:
        return None
    if isinstance(space, Finite):
        return tuple(leaf(x, f"{path}[{i}]") for i, x in enumerate(data))
    if isinstance(space, Sum):
        return (_data_from_json(space.left, flag, data[0], path + "[0]", leaf),
                _data_from_json(space.right, flag, data[1], path + "[1]", leaf))
    if flag and flag[0] == cb_rank(space):
        return leaf(data, path)
    exc = {int(k): _data_from_json(space.base, flag, v, f"{path}.exc[{k}]", leaf)
           for k, v in data["exc"]}
    return ("cone", exc, leaf(data["tail"], path + ".tail"))


def vectq_to_json(v: VectQ):
    return {"dim": v.dim, "labels": list(v.labels)}


def vectq_from_json(d, path="$") -> VectQ:
    try:
        return VectQ(int(d["dim"]), tuple(d["labels"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializeError(f"malformed space: {exc}", path)


def linmap_to_json(m: LinMap):
    return {"source": vectq_to_json(m.source), "target": vectq_to_json(m.target),
            "matrix": [vec_to_json(r) for r in m.matrix]}


def linmap_from_json(d, path="$") -> LinMap:
    try:
        return LinMap(vectq_from_json(d["source"], path + ".source"),
                      vectq_from_json(d["target"], path + ".target"),
                      tuple(vec_from_json(r, f"{path}.matrix[{i}]")
                            for i, r in enumerate(d["matrix"])))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed linear map: {exc}", path)


def csheaf_to_json(F: CSheaf):
    return {"schema": SCHEMA, "space": space_to_json(F.space),
            "data": _sheaf_data_to_json(F)}


def _sheaf_data_to_json(F: CSheaf):
    if isinstance(F.space, Finite):
        return {"stalks": [vectq_to_json(v) for v in F.data]}
    if isinstance(F.space, Sum):
        return {"left": _sheaf_data_to_json(F.data[0]),
                "right": _sheaf_data_to_json(F.data[1])}
    return {"exc": [[k, _sheaf_data_to_json(G)] for k, G in F.data[1]],
            "tail": _sheaf_data_to_json(F.tail),
            "apex": vectq_to_json(F.apex),
            "germ": linmap_to_json(F.germ)}


def csheaf_from_json(d, path="$") -> CSheaf:
    try:
        space = space_from_json(d["space"], path + ".space")
        return _sheaf_data_from_json(space, d["data"], path + ".data")
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed sheaf: {exc}", path)


def _sheaf_data_from_json(space, d, path):
    if isinstance(space, Finite):
        return make_fin_sheaf(space, [vectq_from_json(v, f"{path}.stalks[{i}]")
                                      for i, v in enumerate(d["stalks"])])
    if isinstance(space, Sum):
        return make_sum_sheaf(space,
                              _sheaf_data_from_json(space.left, d["left"], path + ".left"),
                              _sheaf_data_from_json(space.right, d["right"], path + ".right"))
    exc = {int(k): _sheaf_data_from_json(space.base, g, f"{path}.exc[{k}]")
           for k, g in d["exc"]}
    tail = _sheaf_data_from_json(space.base, d["tail"], path + ".tail")
    apex = vectq_from_json(d["apex"], path + ".apex")
    germ = linmap_from_json(d["germ"], path + ".germ")
    return make_cone_sheaf(space, exc, tail, apex, germ)


def group_to_json(G: FinGroup):
    return {"name": G.name, "table": [list(r) for r in G.table]}


def group_from_json(d, path="$") -> FinGroup:
    try:
        return FinGroup(tuple(tuple(r) for r in d["table"]), d.get("name", "G"))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed group: {exc}", path)


def hom_to_json(h: GrpHom):
    return {"source": group_to_json(h.source), "target": group_to_json(h.target),
            "values": list(h.values)}


def hom_from_json(d, path="$") -> GrpHom:
    try:
        return GrpHom(group_from_json(d["source"], path + ".source"),
                      group_from_json(d["target"], path + ".target"),
                      tuple(d["values"]))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed homomorphism: {exc}", path)


def structure_to_json(cs: ComponentStructure):
    return {"schema": SCHEMA, "space": space_to_json(cs.space),
            "data": _cs_data_to_json(cs)}


def _cs_data_to_json(cs):
    if cs.data[0] == "fin":
        return {"groups": [group_to_json(g) for g in cs.data[1]]}
    if cs.data[0] == "sum":
        return {"left": _cs_data_to_json(cs.data[1]), "right": _cs_data_to_json(cs.data[2])}
    exc, tail, apexg, up = cs.cone_parts()
    return {"exc": [[k, _cs_data_to_json(v)] for k, v in sorted(exc.items())],
            "tail": _cs_data_to_json(tail), "apex_group": group_to_json(apexg),
            "up": hom_to_json(up)}


def structure_from_json(d, path="$") -> ComponentStructure:
    try:
        space = space_from_json(d["space"], path + ".space")
        return _cs_data_from_json(space, d["data"], path + ".data")
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed component structure: {exc}", path)


def _cs_data_from_json(space, d, path):
    if isinstance(space, Finite):
        return fin_structure(space, [group_from_json(g, f"{path}.groups[{i}]")
                                     for i, g in enumerate(d["groups"])])
    if isinstance(space, Sum):
        return sum_structure(space,
                             _cs_data_from_json(space.left, d["left"], path + ".left"),
                             _cs_data_from_json(space.right, d["right"], path + ".right"))
    exc = {int(k): _cs_data_from_json(space.base, v, f"{path}.exc[{k}]")
           for k, v in d["exc"]}
    tail = _cs_data_from_json(space.base, d["tail"], path + ".tail")
    apexg = group_from_json(d["apex_group"], path + ".apex_group")
    up = hom_from_json(d["up"], path + ".up")
    return cone_structure(space, exc, tail, apexg, up)


def lattice_to_json(L: Lattice2):
    if L.kind == "full":
        return {"kind": "full", "a": L.a, "b": L.b, "d": L.d}
    return {"kind": "line", "vec": list(L.vec), "mult": L.mult}


def lattice_from_json(d, path="$") -> Lattice2:
    try:
        if d["kind"] == "full":
            return Lattice2("full", a=d["a"], b=d["b"], d=d["d"])
        return Lattice2("line", vec=tuple(d["vec"]), mult=d["mult"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializeError(f"malformed lattice: {exc}", path)


def label_to_json(s: SubgroupLabel):
    return {"kind": s.kind,
            "lattice": None if s.lattice is None else lattice_to_json(s.lattice)}


def label_from_json(d, path="$") -> SubgroupLabel:
    try:
        lat = d.get("lattice")
        return SubgroupLabel(d["kind"], None if lat is None else
                             lattice_from_json(lat, path + ".lattice"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializeError(f"malformed subgroup label: {exc}", path)


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
            "data": _map_data_to_json(f)}


def _map_data_to_json(f: SheafMap):
    if isinstance(f.source.space, Finite):
        return {"stalk_maps": [linmap_to_json(m) for m in f.data]}
    if isinstance(f.source.space, Sum):
        return {"left": _map_data_to_json(f.data[0]),
                "right": _map_data_to_json(f.data[1])}
    return {"exc": [[k, _map_data_to_json(m)] for k, m in f.data[1]],
            "tail": _map_data_to_json(f.tail_map),
            "apex": linmap_to_json(f.apex_map)}


def sheafmap_from_json(d, path="$") -> SheafMap:
    try:
        space = space_from_json(d["space"], path + ".space")
        src = _sheaf_data_from_json(space, d["source"], path + ".source")
        tgt = _sheaf_data_from_json(space, d["target"], path + ".target")
        return _map_data_from_json(src, tgt, d["data"], path + ".data")
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed sheaf map: {exc}", path)


def _map_data_from_json(src, tgt, d, path):
    from .sheaf import make_cone_map, make_fin_map, make_sum_map
    if isinstance(src.space, Finite):
        return make_fin_map(src, tgt, [linmap_from_json(m, f"{path}[{i}]")
                                       for i, m in enumerate(d["stalk_maps"])])
    if isinstance(src.space, Sum):
        return make_sum_map(src, tgt,
                            _map_data_from_json(src.data[0], tgt.data[0], d["left"], path + ".left"),
                            _map_data_from_json(src.data[1], tgt.data[1], d["right"], path + ".right"))
    exc = {int(k): _map_data_from_json(src.copy_sheaf(int(k)), tgt.copy_sheaf(int(k)),
                                       m, f"{path}.exc[{k}]")
           for k, m in d["exc"]}
    tail = _map_data_from_json(src.tail, tgt.tail, d["tail"], path + ".tail")
    apex = linmap_from_json(d["apex"], path + ".apex")
    return make_cone_map(src, tgt, exc, tail, apex, check=False)


def ses_to_json(s) -> dict:
    return {"schema": SCHEMA,
            "incl": sheafmap_to_json(s.incl),
            "proj": sheafmap_to_json(s.proj)}


def ses_from_json(d, path="$"):
    from .homalg import make_ses
    try:
        return make_ses(sheafmap_from_json(d["incl"], path + ".incl"),
                        sheafmap_from_json(d["proj"], path + ".proj"))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed exact sequence: {exc}", path)


def equiv_to_json(E) -> dict:
    """Equivariant sheaf: underlying sheaf, structure, and stalk actions as
    matrix lists, one matrix per group element."""
    return {"schema": SCHEMA,
            "sheaf": csheaf_to_json(E.sheaf),
            "structure": structure_to_json(E.cs),
            "reps": _reps_to_json(E.reps)}


def _reps_to_json(reps):
    if reps[0] == "fin":
        return {"fin": [[linmap_to_json(m) for m in mats] for mats in reps[1]]}
    if reps[0] == "sum":
        return {"left": _reps_to_json(reps[1]), "right": _reps_to_json(reps[2])}
    return {"exc": [[k, _reps_to_json(r)] for k, r in reps[1]],
            "tail": _reps_to_json(reps[2]),
            "apex": [linmap_to_json(m) for m in reps[3]]}


def equiv_from_json(d, path="$"):
    from .weyl import make_equiv
    try:
        sheaf = csheaf_from_json(d["sheaf"], path + ".sheaf")
        cs = structure_from_json(d["structure"], path + ".structure")
        return make_equiv(sheaf, cs, _reps_from_json(d["reps"], path + ".reps"))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed equivariant sheaf: {exc}", path)


def _reps_from_json(d, path):
    if "fin" in d:
        return ("fin", tuple(tuple(linmap_from_json(m, f"{path}[{i}][{j}]")
                                   for j, m in enumerate(mats))
                             for i, mats in enumerate(d["fin"])))
    if "left" in d:
        return ("sum", _reps_from_json(d["left"], path + ".left"),
                _reps_from_json(d["right"], path + ".right"))
    exc = tuple((int(k), _reps_from_json(r, f"{path}.exc[{k}]")) for k, r in d["exc"])
    tail = _reps_from_json(d["tail"], path + ".tail")
    apex = tuple(linmap_from_json(m, f"{path}.apex[{i}]") for i, m in enumerate(d["apex"]))
    return ("cone", exc, tail, apex)


def section_to_json(s) -> dict:
    return {"schema": SCHEMA, "sheaf": csheaf_to_json(s.sheaf),
            "data": _section_data_to_json(s.sheaf, s.data)}


def _section_data_to_json(F, data):
    if isinstance(F.space, Finite):
        return [vec_to_json(v) for v in data]
    if isinstance(F.space, Sum):
        return {"left": _section_data_to_json(F.data[0], data[0]),
                "right": _section_data_to_json(F.data[1], data[1])}
    _, exc, apexv = data
    return {"exc": [[k, _section_data_to_json(F.copy_sheaf(k), sub)] for k, sub in exc],
            "apex": vec_to_json(apexv)}


def section_from_json(d, path="$"):
    from .sheaf import Section
    try:
        F = csheaf_from_json(d["sheaf"], path + ".sheaf")
        return Section(F, _section_data_from_json(F, d["data"], path + ".data"))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed section: {exc}", path)


def _section_data_from_json(F, d, path):
    if isinstance(F.space, Finite):
        return tuple(vec_from_json(v, f"{path}[{i}]") for i, v in enumerate(d))
    if isinstance(F.space, Sum):
        return (_section_data_from_json(F.data[0], d["left"], path + ".left"),
                _section_data_from_json(F.data[1], d["right"], path + ".right"))
    exc = tuple((int(k), _section_data_from_json(F.copy_sheaf(int(k)), sub, f"{path}.exc[{k}]"))
                for k, sub in d["exc"])
    return ("sec", exc, vec_from_json(d["apex"], path + ".apex"))


def eqcfun_to_json(f) -> dict:
    return {"schema": SCHEMA, "space": space_to_json(f.space),
            "flag": list(f.flag), "structure": structure_to_json(f.cs),
            "data": _data_to_json(f.space, f.flag, f.data, vec_to_json)}


def eqcfun_from_json(d, path="$"):
    from .weyl import EqCFun
    try:
        space = space_from_json(d["space"], path + ".space")
        flag = tuple(d["flag"])
        cs = structure_from_json(d["structure"], path + ".structure")
        return EqCFun(space, flag, cs,
                      _data_from_json(space, flag, d["data"], path + ".data", vec_from_json))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed equivariant ring element: {exc}", path)


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
    from .models import CMod
    try:
        space = space_from_json(d["space"], path + ".space")
        flag = tuple(d["flag"])
        return CMod(space, flag, _cmod_payload_from_json(d["payload"], path + ".payload"))
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed module: {exc}", path)


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
    from .models import DiagMod
    try:
        space = space_from_json(d["space"], path + ".space")
        vertices = {tuple(A): cmod_from_json(M, f"{path}.vertices[{A}]")
                    for A, M in d["vertices"]}
        edges = {(tuple(A), b): linmap_from_json(e, f"{path}.edges[{A},{b}]")
                 for A, b, e in d["edges"]}
        return DiagMod(space, vertices, edges)
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"malformed diagram: {exc}", path)
