"""Reconstruction between sheaves and modules, and rank-1 homological algebra.

`gamma` regards a constructible sheaf as a constructible module over the
ring of locally constant functions (the module structure is the pointwise
action), and `recon_e` rebuilds the sheaf from a module by idempotent
slicing: isolated stalks are the slices at singleton clopens and each apex
stalk is the stabilized slice over the shrinking neighbourhood basis.  The
module and the sheaf share one record (`gamma` stores the canonical form),
so `recon_e` returns the module's record, and both round trips are
canonical isomorphisms on constructible data.

For spaces of rank at most one the category is completely explicit: `Hom`
spaces between sheaves are computed by solving the germ-compatibility
equations, short exact sequences are checked stalkwise, splitness is a
linear solvability question, and the first extension group is classified by
germ-twist data modulo coboundaries; the extension of a twist is the direct
sum with the twist added to its germ.  Injective dimension one is certified
through a constructible two-step resolution whose middle and end terms have
vanishing first extension groups against everything: the middle term is one
cone sheaf, a skyscraper at the apex beside the wall of tail sections (see
`injective_hull_step`), and the end term is a skyscraper at the apex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    DimensionError, LinMap, VectQ, ZERO, band_starts, direct_sum_space, kernel_basis,
    rank as map_rank, solve, is_iso, _quotient)
from .space import Cone, SpaceMismatch, Sum, cb_rank, iter_points, Point
from .adelic import CFun
from .sheaf import (
    CSheaf, GermSquareError, Section, SheafMap, apex_squares, canonical,
    check_sheaf_map, compose, direct_sum, cokernel, identity_map,
    make_cone_map, make_cone_sheaf, make_sum_map,
    make_sum_sheaf, sec_canonical, sec_functor, sec_space, stalk, stalk_map,
    _at, _componentwise, _into, _onto, _probe_points, _scale_by_locconst)


# ---------------------------------------------------------------------------
# sheaf <-> module reconstruction


@dataclass(frozen=True)
class GammaModule:
    """A constructible module over the locally constant functions, stored by
    the same finite record as the sheaf it reconstructs to."""

    record: CSheaf

    @property
    def space(self):
        return self.record.space

    def act(self, f: CFun, s: Section) -> Section:
        """The module structure: multiply a section by a locally constant
        function, pointwise."""
        if f.flag != ():
            raise ValueError("scalars are locally constant functions (empty flag)")
        if f.space != self.space:
            raise ValueError("scalar lives over a different space")
        return sec_canonical(Section(self.record,
                                     _scale_by_locconst(self.record, f.data, s.data)))

    def isolated_stalk(self, x: Point) -> VectQ:
        return stalk(self.record, x)

    def germ_stalk_dim(self, x: Point) -> int:
        """Dimension of the stabilized slice colim over the neighbourhood
        basis at x: once the stored copies are excluded, what remains at an
        apex is the apex-coupled part, so it is the stalk's dimension."""
        return stalk(self.record, x).dim


def gamma(F: CSheaf) -> GammaModule:
    """Global sections of a sheaf as a constructible module."""
    return GammaModule(canonical(F))


def recon_e(M: GammaModule) -> CSheaf:
    """Rebuild the sheaf from a constructible module by idempotent slicing.

    The module and the sheaf share one record, so the slices are the
    record's stalks and germs as they stand, and the record is returned."""
    return M.record


def counit_map(F: CSheaf) -> SheafMap:
    """The canonical comparison recon_e(gamma(F)) -> F; an isomorphism."""
    G = recon_e(gamma(F))
    f = _componentwise(G, F, [], lambda _a, b: LinMap.identity(b))
    if not check_sheaf_map(f):
        raise GermSquareError("apex square does not commute")
    return f


def unit_iso(M: GammaModule) -> bool:
    """Whether the canonical map M -> gamma(recon_e(M)) is an isomorphism."""
    return gamma(recon_e(M)).record == M.record


def is_isomorphism(f: SheafMap) -> bool:
    """Whether a sheaf map is invertible: its stalk map at every probe point
    (every stored stalk and one generic copy per cone level) is."""
    return all(is_iso(_at(f, x.addr)) for x in _probe_points(f.source.space, [f]))


# ---------------------------------------------------------------------------
# Hom spaces on rank <= 1 spaces


def _require_rank1(F: CSheaf, *others: CSheaf):
    """Refuse sheaves over different spaces, and a space of rank above 1."""
    if any(G.space != F.space for G in others):
        raise SpaceMismatch("operation on sheaves over different spaces")
    if cb_rank(F.space) > 1:
        raise ValueError("operation implemented for spaces of rank at most 1")


def _hom_parametrization(F: CSheaf, G: CSheaf):
    """Free matrix entries of a candidate map F -> G plus a builder from
    parameter vectors to sheaf maps (apex squares not yet imposed); the
    builder reads each stalk's matrix row by row, in the componentwise
    visiting order."""
    def build(vec):
        it = iter(vec)
        return _componentwise(F, G, [], lambda a, b: LinMap.from_rows(
            a, b, [[next(it) for _ in range(a.dim)] for _ in range(b.dim)]))

    sizes = []

    def size(a, b):
        sizes.append(a.dim * b.dim)
        return LinMap.zero(a, b)
    _componentwise(F, G, [], size)
    return sum(sizes), build


def _germ_residual(f: SheafMap):
    """Flattened apex-square defects of a candidate map (linear in f)."""
    return tuple(x for lhs, rhs in apex_squares(f) for row in lhs.sub(rhs).matrix for x in row)


def hom_basis(F: CSheaf, G: CSheaf) -> list[SheafMap]:
    """A basis of the sheaf maps F -> G that are uniform off the copies the
    pair stores (rank <= 1 spaces).

    The basis is relative to the presentation: a map may act freely at any
    finite set of copies, so the full Hom over a cone is not
    finite-dimensional, and storing more copies (`canonical`, `align_pair`)
    can change the length.  No length is an invariant of the sheaves; Ext
    dimensions and `is_split` are."""
    _require_rank1(F, G)
    params, build = _hom_parametrization(F, G)
    nres = len(_germ_residual(build((ZERO,) * params)))
    residual = LinMap.of(VectQ.make(params, "h"), VectQ.make(nres, "c"),
                         lambda v: _germ_residual(build(v)))
    return [build(v) for v in kernel_basis(residual)]


def random_hom(F: CSheaf, G: CSheaf, rng: random.Random) -> SheafMap:
    """A random sheaf map (a rational combination of a Hom basis)."""
    basis = hom_basis(F, G)
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]

    def combine(a, b, *ms):
        out = LinMap.zero(a, b)
        for c, m in zip(coeffs, ms):
            out = out.add(m.scale(c))
        return out
    return _componentwise(F, G, basis, combine)


# ---------------------------------------------------------------------------
# short exact sequences and splitness (rank <= 1)


@dataclass(frozen=True)
class SES:
    """0 -> sub -> mid -> quo -> 0 of constructible sheaves."""

    incl: SheafMap
    proj: SheafMap

    @property
    def sub(self):
        return self.incl.source

    @property
    def mid(self):
        return self.incl.target

    @property
    def quo(self):
        return self.proj.target


def ses_is_exact(s: SES) -> bool:
    """Stalkwise exactness at every stored stalk and a generic tail copy."""
    f, g = s.incl, s.proj
    if f.target != g.source:
        return False
    for x in _probe_points(s.mid.space, [s.sub, s.mid, s.quo, f, g]):
        mf, mg = stalk_map(f, x), stalk_map(g, x)
        if not mf.then(mg).is_zero():
            return False
        if map_rank(mf) != mf.source.dim or map_rank(mg) != mg.target.dim:
            return False
        if len(kernel_basis(mg)) != map_rank(mf):
            return False
    return True


def make_ses(incl: SheafMap, proj: SheafMap) -> SES:
    s = SES(incl, proj)
    if not ses_is_exact(s):
        raise ValueError("sequence is not stalkwise exact")
    return s


def is_split(s: SES):
    """Whether the sequence admits a retraction of its projection; returns
    (bool, section-of-proj or None).  Exact linear algebra on the record."""
    _require_rank1(s.mid)
    C, B, proj = s.quo, s.mid, s.proj
    params, build = _hom_parametrization(C, B)
    probe = _probe_points(C.space, [C, B, proj])

    def equations(vec):
        r = build(vec)
        rows = list(_germ_residual(r))
        comp = compose(r, proj)
        for x in probe:
            m = stalk_map(comp, x)
            for row in m.matrix:
                rows.extend(row)
        return rows

    target = [ZERO] * len(_germ_residual(build((ZERO,) * params)))
    for x in probe:
        m = LinMap.identity(stalk(C, x))
        for row in m.matrix:
            target.extend(row)
    eqs = LinMap.of(VectQ.make(params, "r"), VectQ.make(len(target), "e"), equations)
    x = solve(eqs, tuple(target))
    if x is None:
        return False, None
    return True, build(x)


# ---------------------------------------------------------------------------
# Ext on rank-1 cones


def _cone_rank1(space):
    if not (isinstance(space, Cone) and cb_rank(space) == 1):
        raise ValueError("expected a cone over a rank-0 base")


def split_ses(A: CSheaf, B: CSheaf) -> SES:
    """The split extension of A by B."""
    S, iB, iA, pB, pA = direct_sum(B, A)
    return make_ses(iB, pA)


def _sum_ses(space, left: SES, right: SES) -> SES:
    B = make_sum_sheaf(space, left.sub, right.sub)
    E = make_sum_sheaf(space, left.mid, right.mid)
    A = make_sum_sheaf(space, left.quo, right.quo)
    return make_ses(make_sum_map(B, E, left.incl, right.incl),
                    make_sum_map(E, A, left.proj, right.proj))


def ext1(A: CSheaf, B: CSheaf):
    """The extension group Ext^1(A, B) on a rank <= 1 space.

    Returns (classes: VectQ, reps: list of SES) where reps realize a basis.
    Extensions are classified by germ twists t: apex(A) -> sections(tail(B))
    modulo the coboundaries coming from re-choosing stalkwise splittings;
    disjoint unions contribute componentwise.
    """
    space = A.space
    _require_rank1(A, B)
    if cb_rank(space) == 0:
        return VectQ.make(0, "x"), []
    if isinstance(space, Sum):
        cl, rl = ext1(A.data[0], B.data[0])
        cr, rr = ext1(A.data[1], B.data[1])
        reps = []
        for s in rl:
            reps.append(_sum_ses(space, s, split_ses(A.data[1], B.data[1])))
        for s in rr:
            reps.append(_sum_ses(space, split_ses(A.data[0], B.data[0]), s))
        return VectQ.make(cl.dim + cr.dim, "x"), reps
    classes, proj = _twist_classes(A, B)
    reps = [extension_from_twist(A, B, _twist_matrix(A, B, solve(proj, classes.basis_vec(i))))
            for i in range(classes.dim)]
    return classes, reps


def _twist_classes(A: CSheaf, B: CSheaf) -> tuple[VectQ, LinMap]:
    """Ext^1(A, B) on a rank-1 cone: the germ twists apex(A) ->
    sections(tail(B)), flattened row by row, modulo the coboundaries of
    re-chosen stalkwise splittings.  Returns (classes, the projection of
    the twists onto them)."""
    SB = sec_space(B.tail)
    amb = VectQ.make(A.apex.dim * SB.dim, "t")
    if amb.dim == 0:
        return _quotient(amb, [], "x")[:2]
    cob_cols = []
    # coboundary from u: apex(A) -> apex(B): twist sigma_B ∘ u
    for i in range(A.apex.dim):
        for j in range(B.apex.dim):
            twist = [[ZERO] * A.apex.dim for _ in range(SB.dim)]
            col = B.germ.apply(B.apex.basis_vec(j))
            for r_ in range(SB.dim):
                twist[r_][i] = col[r_]
            cob_cols.append(tuple(x for row in twist for x in row))
    # coboundary from h: tail(A) -> tail(B): twist sections(h) ∘ sigma_A.
    # The tails live over a rank-0 base, so their sections are their stalks
    # in order, stalk p starting at offA[p] and offB[p]; the unit h at
    # (stalk p, row r, column c), in the order of `_hom_parametrization`,
    # gives the twist whose row offB[p] + r is row offA[p] + c of sigma_A
    # and which is zero elsewhere.
    n, sigma_A = A.apex.dim, A.germ.matrix
    zeros = (ZERO,) * amb.dim
    a, b = ({p: stalk(F.tail, p).dim for p in iter_points(A.space.base)} for F in (A, B))
    offA, offB = band_starts(a), band_starts(b)
    for p in a:
        for r_ in range(offB[p] * n, (offB[p] + b[p]) * n, n):
            for c in range(offA[p], offA[p] + a[p]):
                cob_cols.append(zeros[:r_] + sigma_A[c] + zeros[r_ + n:])
    return _quotient(amb, cob_cols, "x")[:2]


def _twist_matrix(A, B, flat):
    SB = sec_space(B.tail)
    rows = [tuple(flat[r_ * A.apex.dim + j] for j in range(A.apex.dim))
            for r_ in range(SB.dim)]
    return LinMap.from_rows(A.apex, SB, rows)


def extension_from_twist(A: CSheaf, B: CSheaf, twist: LinMap) -> SES:
    """The extension of A by B with the given germ twist
    apex(A) -> sections(tail(B)).

    The middle sheaf is the direct sum B ⊕ A with its apex tagged b and a
    and germ matrix [[sigma_B, twist], [0, sigma_A]]; the maps are those of
    the direct sum at the copies and the tail.
    """
    _cone_rank1(A.space)
    SB = sec_space(B.tail)
    if twist.source != A.apex or twist.target != SB:
        raise DimensionError(f"the twist must go from apex(A) = {A.apex} to "
                             f"sec_space(tail(B)) = {SB}, not from {twist.source} "
                             f"to {twist.target}")
    S, iB, _iA, _pB, pA = direct_sum(B, A)
    apex = direct_sum_space([B.apex, A.apex], ["b", "a"])
    onto_A = _onto(apex, A.apex, B.apex.dim)
    twisted = onto_A.then(twist).then(sec_functor(iB.tail_map))
    germ = LinMap(apex, sec_space(S.tail), S.germ.matrix).add(twisted)
    E = make_cone_sheaf(A.space, S.exc_dict(), S.tail, apex, germ)
    incl = make_cone_map(B, E, iB.exc_dict(), iB.tail_map, _into(B.apex, apex, 0))
    proj = make_cone_map(E, A, pA.exc_dict(), pA.tail_map, onto_A, check=False)
    return make_ses(incl, proj)


def ext1_dim(A: CSheaf, B: CSheaf) -> int:
    """dim Ext^1(A, B) on a rank <= 1 space: the dimension of the twist
    quotient, summed over the cone parts of a disjoint union, without
    realizing any extension."""
    _require_rank1(A, B)
    return sum(_twist_classes(a, b)[0].dim for a, b in zip(_cone_parts(A), _cone_parts(B)))


def injective_hull_step(B: CSheaf):
    """A monomorphism from B into an Ext-acyclic sheaf I0, and the projection
    onto its skyscraper cokernel.  I0 is one cone sheaf: the copies and tail
    of B, apex stalk apex(B) ⊕ sections(tail(B)) and germ [0 | id], the
    identity on the wall part.  B embeds by identities and, at the apex, by
    v -> (v, sigma_B(v))."""
    space = B.space
    _cone_rank1(space)
    B = canonical(B)
    SB = sec_space(B.tail)
    apex = direct_sum_space([B.apex, SB], ["l", "r"])
    I0 = make_cone_sheaf(space, B.exc_dict(), B.tail, apex, _onto(apex, SB, B.apex.dim))
    emb = make_cone_map(B, I0, {k: identity_map(G) for k, G in B.data[1]},
                        identity_map(B.tail),
                        LinMap(B.apex, apex, LinMap.identity(B.apex).matrix + B.germ.matrix),
                        check=False)
    if not check_sheaf_map(emb):
        raise AssertionError("hull embedding fails the apex square")
    return emb, cokernel(emb)[1]


def ext2_dim(A: CSheaf, B: CSheaf) -> int:
    """dim Ext^2(A, B) on a rank <= 1 space, by dimension shifting along
    the two-step resolution: equals dim Ext^1(A, Q) minus the image from
    Ext^1(A, I0), summed over the cone parts of a disjoint union; both
    vanish here, certifying injective dimension one."""
    _require_rank1(A, B)
    total = 0
    for a, b in zip(_cone_parts(A), _cone_parts(B)):
        emb, proj = injective_hull_step(b)
        if ext1_dim(a, emb.target) != 0:
            raise AssertionError("middle resolution term is not Ext-acyclic")
        total += ext1_dim(a, proj.target)
    return total


def _cone_parts(F: CSheaf) -> list:
    """The restrictions of F to the cones of its space, left to right."""
    if isinstance(F.space, Sum):
        return _cone_parts(F.data[0]) + _cone_parts(F.data[1])
    return [F] if isinstance(F.space, Cone) else []


def injective_resolution_display(F: CSheaf) -> dict:
    """The classical two-step injective resolution, for display only.

    Its middle term is the product of skyscrapers over every point, whose
    limit-point stalks are infinite dimensional; the record is therefore
    symbolic and flagged non-constructible.  Computations use the
    constructible Ext machinery instead.  On a union the limit and generic
    stalk dimensions are lists, one entry per cone part, left to right.
    """
    _require_rank1(F)
    parts = _cone_parts(F)
    apex_dim = [G.apex.dim for G in parts] or None
    tail_dims = [[stalk(G.tail, p).dim for p in iter_points(G.space.base)] for G in parts] or None
    if isinstance(F.space, Cone):
        apex_dim, tail_dims = apex_dim[0], tail_dims[0]
    return {
        "non_constructible": True,
        "shape": "0 -> G -> sky(limit stalk) + prod_x sky(G_x) -> Q -> 0",
        "limit_stalk_dim": apex_dim,
        "generic_point_stalk_dims": tail_dims,
        "middle_term_note": "the product runs over infinitely many points; "
                            "its limit stalk is an infinite product of germs",
        "cokernel_note": "concentrated at the limit point, hence injective",
    }
