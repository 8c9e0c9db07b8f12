"""Diagram modules over the cube of splicing rings.

A constructible module over one flag mirrors the sheaf records: stalk
tuples over finite spaces, pairs over sums, and over a cone either

  * a germ-level module (flag touching the cone's rank): a space together
    with an ambient localized module of the tail and an embedding, which
    remembers how the germ spreads; or
  * a stratum-level module: finitely many exceptional copy modules, one
    generic-copy module, and a uniform part embedded in it.

`loc_extend` computes extension of scalars along one added height on these
records: adding the top height extracts the uniform part (exceptions are
invisible to the germ), adding a lower height localizes the ambient data and
pushes the uniform part forward onto its image (`linalg.image`).  A sheaf's
diagram has these localizations, read into the vertices, as edges, so it is
cocartesian (every comparison map, which `is_cocartesian` tests by ranks, is
an isomorphism) and `from_standard` inverts `to_standard` on it.

Two memos keep built data with the object it was built from, never looked
up by equality: a module keeps its element space and its extensions by
height (`CMod._extended`), and a sheaf keeps its section localizations by
flag (`CSheaf._localized`, filled by `section_localize`).  So the vertices
of one diagram and the extensions between them localize each tail at each
flag once.

In rank one, the standard and completed presentations share one record; the
completion stores the idempotent slices (the image of the germ map), while
the standard object keeps the vertex coupled through the germ.  The two
directions of the equivalence re-derive one from the other, the standard
object being rebuilt through an explicit pullback square.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .linalg import (
    DimensionError, LinMap, VectQ, block_map, direct_sum_space, image, is_iso, kernel_basis,
    pullback, rank, solve, invert)
from .space import Finite, SpaceExpr, Sum, cb_rank
from .adelic import Flag, _is_zero_ring, check_flag, insert_height, all_flags, flags_of_size
from .sheaf import (
    CSheaf, canonical, germ_section, make_cone_sheaf, make_fin_sheaf,
    make_sum_sheaf, sec_from_coords, sec_space, _copy_default, _onto, _subspace)
from .homalg import _require_rank1, gamma, recon_e


@dataclass(frozen=True)
class CMod:
    """A constructible module over the splicing ring of one flag."""

    space: SpaceExpr
    flag: Flag
    payload: tuple  # ("zero",) | ("fin", stalks) | ("sum", l, r)
    #               | ("apex", V, ambient, emb) | ("low", exc, generic, W, iota)

    @functools.cached_property
    def _extended(self) -> dict:
        """`loc_extend(self, b)` by height b, computed on first use and then
        kept.  It belongs to the object and is never looked up by equality;
        the extensions hold no reference back to it."""
        return {}

    @functools.cached_property
    def _el_space(self) -> VectQ:
        """`el_space(self)`, built on first use and then kept.  Like
        `_extended` it belongs to the object and is never looked up by
        equality."""
        kind = self.payload[0]
        if kind == "zero":
            return VectQ.make(0)
        if kind == "fin":
            stalks = self.payload[1]
            return direct_sum_space(stalks, [str(i) for i in range(len(stalks))])
        if kind == "sum":
            return direct_sum_space([el_space(m) for m in self.payload[1:]], ["l", "r"])
        if kind == "apex":
            return self.payload[1]
        _, exc, _generic, W, _iota = self.payload
        parts = [el_space(m) for _, m in exc] + [W]
        return direct_sum_space(parts, [str(k) for k, _ in exc] + ["tail"])


def el_space(M: CMod) -> VectQ:
    """The underlying space of finite-record elements."""
    return M._el_space


def _sec_ambient(T: CSheaf):
    return ("sec", T)


def zero_mod(space: SpaceExpr, flag: Flag) -> CMod:
    return CMod(space, flag, ("zero",))


# ---------------------------------------------------------------------------
# localization of section spaces and modules


def section_localize(T: CSheaf, flag: Flag):
    """The localized module of a sheaf's sections at a flag, with the
    canonical map from the finite-data section space.

    Returns (module: CMod over (T.space, flag), pi: LinMap sections -> El).
    The result is kept with the sheaf object, per flag, so the vertices of
    `to_standard` and the extensions of `loc_extend` that localize one tail
    at one flag share a single localization."""
    memo = T._localized
    if flag not in memo:
        memo[flag] = _section_localize(T, flag)
    return memo[flag]


def _section_localize(T, flag):
    M = mod_of_sheaf(T, flag)
    return M, LinMap.of(sec_space(T), el_space(M),
                        lambda v: _localize_section(T, flag, M, sec_from_coords(T, v).data))


def _localize_section(T, flag, M, data):
    """Coordinates of a section's image in the flag-localized module."""
    kind = M.payload[0]
    if kind == "zero":
        return ()
    if kind == "fin":
        out = []
        for v in data:
            out.extend(v)
        return tuple(out)
    if kind == "sum":
        l = _localize_section(T.data[0], flag, M.payload[1], data[0])
        r = _localize_section(T.data[1], flag, M.payload[2], data[1])
        return tuple(l) + tuple(r)
    _, exc, apexv = data
    if kind == "apex":
        # germ class of the section at this cone's apex
        ambient, emb = M.payload[2], M.payload[3]
        if isinstance(ambient, tuple) and ambient[0] == "sec":
            return tuple(apexv)
        w = solve(emb, _apply_pi_sigma(T, M.flag[1:], ambient, apexv))
        if w is None:
            raise AssertionError("germ class left the stored germ image")
        return tuple(w)
    _, mexc, generic, W, iota = M.payload
    out = []
    excd = dict(exc)
    for k, mk in mexc:
        sub = excd.get(k)
        if sub is None:
            sub = _copy_default(T, k, apexv)
        out.extend(_localize_section(T.copy_sheaf(k), flag, mk, sub))
    # uniform part: image of the apex value in the generic-copy module
    w = solve(iota, _apply_pi_sigma(T, flag, generic, apexv))
    if w is None:
        raise AssertionError("uniform image left the stored uniform part")
    out.extend(w)
    return tuple(out)


def _apply_pi_sigma(T, flag, generic, apexv):
    """pi_flag(sigma(v)) in the generic-copy module of the tail."""
    s = germ_section(T, apexv)
    return _localize_section(T.tail, flag, generic, s.data)


# ---------------------------------------------------------------------------
# modules of sheaves


def mod_of_sheaf(F: CSheaf, flag: Flag) -> CMod:
    """The flag-vertex of the standard-model diagram of a sheaf."""
    space = F.space
    if _is_zero_ring(space, flag):
        return zero_mod(space, flag)
    check_flag(space, flag)
    if isinstance(space, Finite):
        return CMod(space, flag, ("fin", tuple(F.data)))
    if isinstance(space, Sum):
        return CMod(space, flag, ("sum", mod_of_sheaf(F.data[0], flag),
                                  mod_of_sheaf(F.data[1], flag)))
    r = cb_rank(space)
    if flag[0] == r:
        rest = flag[1:]
        if not rest:
            return CMod(space, flag, ("apex", F.apex, _sec_ambient(F.tail), F.germ))
        ambient, pi = section_localize(F.tail, rest)
        V, emb, _ = image(F.germ.then(pi), "g")
        return CMod(space, flag, ("apex", V, ambient, emb))
    generic, pi = section_localize(F.tail, flag)
    W, iota, _ = image(F.germ.then(pi), "w")
    exc = tuple((k, mod_of_sheaf(G, flag)) for k, G in F.data[1])
    return CMod(space, flag, ("low", exc, generic, W, iota))


# ---------------------------------------------------------------------------
# extension of scalars along one height


def loc_extend(M: CMod, b: int) -> tuple[CMod, LinMap]:
    """The localized extension of a module along one added height, together
    with the structural map of element spaces (always surjective).

    The result is kept with the module object, per height, so `to_standard`,
    `is_cocartesian` and `from_standard` extend each vertex of one diagram
    once between them; only the extension is kept, never a verdict on an
    edge."""
    memo = M._extended
    if b not in memo:
        memo[b] = _loc_extend(M, b)
    return memo[b]


def _loc_extend(M, b):
    new_flag = insert_height(M.flag, b)
    kind = M.payload[0]
    if kind == "zero" or _is_zero_ring(M.space, new_flag):
        N = zero_mod(M.space, new_flag)
        return N, LinMap.zero(el_space(M), el_space(N))
    check_flag(M.space, new_flag)
    if kind == "apex":
        _, V, ambient, emb = M.payload
        if isinstance(ambient, tuple) and ambient[0] == "sec":
            amb2, pi = section_localize(ambient[1], (b,))
        else:
            amb2, pi = loc_extend(ambient, b)
        V2, emb2, struct = image(emb.then(pi), "g")
        return CMod(M.space, new_flag, ("apex", V2, amb2, emb2)), struct
    if kind == "sum":
        parts = [loc_extend(m, b) for m in M.payload[1:]]
        N = CMod(M.space, new_flag, ("sum", *(n for n, _ in parts)))
        maps = [m for _, m in parts]
    else:
        _, exc, generic, W, iota = M.payload
        if b == cb_rank(M.space):
            N, E = CMod(M.space, new_flag, ("apex", W, generic, iota)), el_space(M)
            return N, _onto(E, W, E.dim - W.dim)
        parts = [loc_extend(m, b) for _, m in exc]
        gen2, pi = loc_extend(generic, b)
        W2, iota2, wmap = image(iota.then(pi), "w")
        N = CMod(M.space, new_flag,
                 ("low", tuple((k, p[0]) for (k, _), p in zip(exc, parts)), gen2, W2, iota2))
        maps = [p[1] for p in parts] + [wmap]
    blocks = [(i, i, m) for i, m in enumerate(maps)]
    return N, block_map(el_space(M), el_space(N), {i: m.target.dim for i, _, m in blocks},
                        {i: m.source.dim for i, _, m in blocks}, blocks)


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class DiagMod:
    """A punctured-cube diagram of constructible modules with edge maps on
    element spaces (one per covering pair of flags)."""

    space: SpaceExpr
    vertices: dict
    edges: dict

    def rank(self):
        return cb_rank(self.space)


def to_standard(F: CSheaf) -> DiagMod:
    """The cocartesian diagram of a sheaf."""
    F = canonical(F)
    r = cb_rank(F.space)
    vertices = {}
    for A in all_flags(r):
        vertices[A] = mod_of_sheaf(F, A)
    edges = {}
    for A in all_flags(r):
        for b in range(r + 1):
            if b in A or len(A) == r + 1:
                continue
            edges[(A, b)] = _sheaf_edge(b, vertices[A], vertices[insert_height(A, b)])
    return DiagMod(F.space, vertices, edges)


def _sheaf_edge(b, MA, MB) -> LinMap:
    """The edge of a sheaf diagram: the localization read into the vertex."""
    N, struct = loc_extend(MA, b)
    if el_space(N).dim != el_space(MB).dim:
        raise AssertionError("canonical chain mismatch: element spaces differ")
    return LinMap(struct.source, el_space(MB), struct.matrix)


def is_cocartesian(D: DiagMod) -> bool:
    """Whether every edge's comparison map is an isomorphism, by ranks: with
    struct the localization onto N, dim N, dim of the target vertex,
    rank(struct), rank(edge) and the rank of both stacked are equal (struct
    is onto, the edge kills its kernel, and the induced map is onto a space
    of N's dimension).  An edge that does not fit its vertices raises."""
    for (A, b), edge in D.edges.items():
        N, struct = loc_extend(D.vertices[A], b)
        target = el_space(D.vertices[insert_height(A, b)])
        if (edge.source.dim, edge.target.dim) != (struct.source.dim, target.dim):
            raise DimensionError("edge does not fit its vertices")
        stacked = LinMap(struct.source, VectQ.make(struct.target.dim + target.dim),
                         struct.matrix + edge.matrix)
        if len({el_space(N).dim, target.dim, rank(struct), rank(edge), rank(stacked)}) != 1:
            return False
    return True


def from_standard(D: DiagMod) -> CSheaf:
    """Rebuild the sheaf from a cocartesian diagram (errors otherwise)."""
    if not is_cocartesian(D):
        raise ValueError("diagram is not cocartesian")
    return _rebuild_sheaf(D.space, D.vertices)


def _rebuild_sheaf(space, vertices):
    if isinstance(space, Finite):
        M = vertices[(0,)]
        return make_fin_sheaf(space, M.payload[1])
    if isinstance(space, Sum):
        lv = {A: M.payload[1] for A, M in vertices.items() if M.payload[0] == "sum"}
        rv = {A: M.payload[2] for A, M in vertices.items() if M.payload[0] == "sum"}
        return make_sum_sheaf(space, _rebuild_sheaf(space.left, lv),
                              _rebuild_sheaf(space.right, rv))
    r = cb_rank(space)
    top = vertices[(r,)]
    if top.payload[0] != "apex" or not (isinstance(top.payload[2], tuple)
                                        and top.payload[2][0] == "sec"):
        raise ValueError("top vertex must carry its section coupling")
    V, (_tag, T), sigma = top.payload[1], top.payload[2], top.payload[3]
    sub_flags = [A for A in vertices if A and A[0] < r]
    keys = set()
    for A in sub_flags:
        M = vertices[A]
        if M.payload[0] == "low":
            keys |= {k for k, _ in M.payload[1]}
    exc = {}
    for k in sorted(keys):
        sub = {A: dict(vertices[A].payload[1])[k] for A in sub_flags
               if vertices[A].payload[0] == "low" and k in dict(vertices[A].payload[1])}
        exc[k] = _rebuild_sheaf(space.base, sub)
    return make_cone_sheaf(space, exc, T, V, sigma)


def coreflect(D: DiagMod) -> tuple[DiagMod, dict]:
    """The cocartesian coreflection: rebuilt from the singleton vertices,
    with the counit identifications on the singletons."""
    r = cb_rank(D.space)
    singles = {A: D.vertices[A] for A in flags_of_size(r, 1)}
    sub = dict(singles)
    F = _rebuild_sheaf(D.space, sub)
    Q = to_standard(F)
    counit = {A: LinMap.identity(el_space(Q.vertices[A])) for A in singles}
    return Q, counit


# ---------------------------------------------------------------------------
# support detection (rank 1, flag (0,))


def support_detect(M: CMod) -> bool:
    """True when all point slices and the germ slice vanish; equivalent to
    the module being zero."""
    if M.flag != (0,):
        raise ValueError("support detection reads a module over the bottom flag")
    return _support_zero(M)


def _support_zero(M) -> bool:
    kind = M.payload[0]
    if kind == "zero":
        return True
    if kind == "fin":
        return all(v.dim == 0 for v in M.payload[1])
    if kind == "sum":
        return _support_zero(M.payload[1]) and _support_zero(M.payload[2])
    _, exc, generic, W, iota = M.payload
    if W.dim != 0:
        return False  # the germ slice survives
    # point slices: stored exceptional copies and the generic copies alike
    return _support_zero(generic) and all(_support_zero(m) for _, m in exc)


# ---------------------------------------------------------------------------
# dimension 1: the standard/complete pair


@dataclass(frozen=True)
class StandardObj:
    """A rank-1 standard object: the nub coupled to the vertex by the germ."""

    record: CSheaf


@dataclass(frozen=True)
class CompleteObj:
    """A rank-1 complete object: idempotent slices of the nub plus the
    vertex mapping into the localized slice space.

    `data` mirrors the space: plain stalks over finite pieces, pairs over
    sums, and over a cone the exceptional copies, the tail sheaf, a basis
    of the germ image inside the tail sections, the vertex, and the
    corestricted spreading map."""

    space: SpaceExpr
    data: tuple


def kappa(X: StandardObj) -> CompleteObj:
    """Complete the nub: store the germ image as idempotent-slice data."""
    _require_rank1(X.record)
    return CompleteObj(X.record.space, _kappa_data(X.record))


def _kappa_data(F: CSheaf):
    space = F.space
    if isinstance(space, Finite):
        return ("fin", tuple(F.data))
    if isinstance(space, Sum):
        return ("sum", _kappa_data(F.data[0]), _kappa_data(F.data[1]))
    _, incl, sigma_bar = image(F.germ, "p")
    return ("cone", F.data[1], F.tail, tuple(incl.cols()), F.apex, sigma_bar)


def tau(C: CompleteObj) -> StandardObj:
    """Rebuild the standard object through the defining pullback square."""
    return StandardObj(_tau_data(C.space, C.data))


def _tau_data(space, data) -> CSheaf:
    if isinstance(space, Finite):
        return make_fin_sheaf(space, data[1])
    if isinstance(space, Sum):
        return make_sum_sheaf(space, _tau_data(space.left, data[1]),
                              _tau_data(space.right, data[2]))
    _, exc, tail, slice_basis, vertex, sigma_bar = data
    Wp, incl = _subspace(sec_space(tail), slice_basis, "p")
    P, pV, pW = pullback(sigma_bar, LinMap.identity(Wp))
    if P.dim != vertex.dim or not is_iso(pV):
        raise AssertionError("pullback nub does not match the vertex")
    sigma_w = invert(pV).then(pW)  # vertex -> slice coordinates (= sigma_bar)
    return make_cone_sheaf(space, dict(exc), tail, vertex, sigma_w.then(incl))


def standard_of_sheaf(F: CSheaf) -> StandardObj:
    _require_rank1(F)
    return StandardObj(canonical(F))


def five_model_roundtrip(F: CSheaf) -> CSheaf:
    """Sheaf -> section module -> standard -> complete -> complete-in-
    sheaves -> sheaf; the composite is the identity on constructible data."""
    M = gamma(F)                    # module over the locally constant functions
    X = standard_of_sheaf(recon_e(M))  # standard model object
    C = kappa(X)                    # complete model
    # complete model in sheaves: same slice data read as a sheaf presentation
    Y = tau(C)                      # back through the pullback square
    return Y.record


def limit_vertex(D: DiagMod):
    """The initial-vertex module of a punctured diagram: the finite limit of
    the element spaces over all edges, with its projections.

    For the diagram `to_standard(F)` of a sheaf F this is the finite-data
    global sections of the canonical presentation, of dimension
    `sec_dim(canonical(F))`, since `to_standard` canonicalizes first; a
    presentation that stores copies equal to the tail has more finite-data
    sections than that.
    """
    spaces = {A: el_space(D.vertices[A]) for A in sorted(D.vertices, key=len)}
    dims = {A: S.dim for A, S in spaces.items()}
    big = VectQ.make(sum(dims.values()), "l")
    rows = {edge: e.target.dim for edge, e in D.edges.items()}
    blocks = []
    for (A, b), e in D.edges.items():
        blocks += [((A, b), A, e), ((A, b), insert_height(A, b), LinMap.scalar(e.target, -1))]
    basis = kernel_basis(block_map(big, VectQ.make(sum(rows.values()), "r"), rows, dims, blocks))
    L = VectQ.make(len(basis), "lim")
    incl = LinMap.from_cols(L, big, basis)
    return L, {A: incl.then(block_map(big, S, {A: S.dim}, dims, [(A, A, LinMap.identity(S))]))
               for A, S in spaces.items()}
