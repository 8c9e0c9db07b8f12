"""The acceptance battery: every headline abelian-level claim, checked in
exact arithmetic with seeded randomness.

Each criterion is one function returning (passed, details); `run_all`
prints one line per criterion and reports overall success.  A count below 1
raises ValueError, so an error is never read as a passed or failed check.
A sampled cochain that is not a cocycle is a failed check: criteria 1 and
6, like the `adelic` and `equiv` commands, witness through one loop,
`_witness_samples`, which counts it instead of raising, and criterion 8
reads it from `degeneration_mismatch`.  The checks are deliberately
cross-route: witnesses are searched for cocycles sampled from exact
kernels, section rings are compared against independently built splicing
rings, extension groups are confirmed against a splitness oracle, and the
equivariant machinery is compared bit-for-bit against the scalar one under
trivial groups.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from fractions import Fraction

from .linalg import LinMap, VectQ
from .space import Finite, parse_space, cb_rank, iter_points, apex_point
from .adelic import build_complex, random_cocycle, all_flags, random_cfun
from .sheaf import (
    constant, skyscraper, random_csheaf, make_cone_sheaf, make_fin_sheaf,
    sec_space, make_cone_map, zero_map, identity_map, sheaves_equal)
from .cube import (
    section_to_cfun, cfun_to_section, ring_section_mul, stalkwise_cube_check)
from .homalg import (
    make_ses, is_split, ext1_dim, ext2_dim, extension_from_twist, gamma,
    counit_map, unit_iso, is_isomorphism)
from .models import (
    kappa, tau, standard_of_sheaf, five_model_roundtrip, mod_of_sheaf,
    support_detect)
from .weyl import (
    average_stalk, check_equivariance, cyclic_group, direct_product,
    trivial_group, fin_structure, degeneration_mismatch, equivariant_adelic,
    eq_random_cocycle, generator_epi,
    generator_images_cover, group_ring_sheaf, random_equiv_sheaf, make_equiv,
    _random_rep, FinGroup)
from .catalog import (Dihedral, Lattice2, SubgroupLabel, divisor_sigma,
                      hnf_of, lattice_contains, line_lattice,
                      o2_dihedral_block, sublattices, nonsplit_filter,
                      weyl_of_subgroup, component_map, circle_component_map,
                      complement_vector, o2_normalizer_order_ratio)


ACCEPTANCE_SPACES = ["Finite(3)", "Cone(Finite(1))", "Cone(Cone(Finite(1)))",
                     "Cone(Cone(Cone(Finite(1))))"]
RANK2_SPACES = ["Cone(Finite(1))", "Cone(Cone(Finite(1)))",
                "Cone(Sum(Finite(2),Finite(1)))"]


def _require_counts(**counts):
    """Raise ValueError for a count below 1: a criterion that samples
    nothing checks nothing, and must not report a pass."""
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")


def _witness_samples(cx, sample, samples: int) -> tuple[int, bool]:
    """Witness `samples` cocycles sample(degree) in each degree of cx: the
    number witnessed, and whether every sample was a cocycle."""
    witnessed, ok = 0, True
    for deg in range(0, cx.rank + 1):
        for _ in range(samples):
            z = sample(deg)
            try:
                cx.exactness_witness(z, deg)
            except ValueError:
                ok = False
                continue
            witnessed += 1
    return witnessed, ok


def check_adelic_exactness(seed: int = 1, samples: int = 200):
    """Criterion 1: d∘d = 0 and witnessed exactness on ranks 0..3."""
    _require_counts(samples=samples)
    rng = random.Random(seed)
    total = 0
    for expr in ACCEPTANCE_SPACES:
        space = parse_space(expr)
        cx = build_complex(space)
        for deg in range(-1, cx.rank):
            coch = {A: random_cfun(space, A, rng) for A in cx.flags(deg)}
            once = cx.differential(coch, deg)
            if deg + 1 < cx.rank:
                twice = cx.differential(once, deg + 1)
                if not all(v.is_zero() for v in twice.values()):
                    return False, f"d∘d != 0 on {expr} at degree {deg}"
        witnessed, ok = _witness_samples(cx, lambda deg: random_cocycle(cx, deg, rng), samples)
        if not ok:
            return False, f"a sampled cochain is not a cocycle on {expr}"
        total += witnessed
    return True, f"{total} witnessed cocycles across ranks 0..3"


def check_ring_sections(seed: int = 2, samples: int = 10):
    """Criterion 2: constructible sections of every cube sheaf equal the
    splicing ring, as rings, on rank <= 2 spaces."""
    _require_counts(samples=samples)
    rng = random.Random(seed)
    checked = 0
    for expr in RANK2_SPACES:
        space = parse_space(expr)
        for A in all_flags(cb_rank(space)):
            for _ in range(samples):
                f = random_cfun(space, A, rng)
                g = random_cfun(space, A, rng)
                sf, sg = cfun_to_section(f), cfun_to_section(g)
                if section_to_cfun(space, A, sf) != f:
                    return False, f"round trip failed on {expr} flag {A}"
                prod = ring_section_mul(space, A, sf, sg)
                if section_to_cfun(space, A, prod) != f * g:
                    return False, f"section product mismatch on {expr} flag {A}"
                if cfun_to_section(f * g) != prod:
                    return False, f"section of the product mismatch on {expr} flag {A}"
                checked += 1
    return True, f"{checked} ring/section comparisons, exact equality"


def check_stalkwise_acyclicity(seed: int = 3, points_per_space: int = 50):
    """Criterion 3: degeneracy pattern and exact stalk complexes."""
    _require_counts(points_per_space=points_per_space)
    rng = random.Random(seed)
    for expr in RANK2_SPACES:
        space = parse_space(expr)
        pool = list(iter_points(space, 7))
        pts = [rng.choice(pool) for _ in range(points_per_space)]
        for x in pts:
            rep = stalkwise_cube_check(space, x)
            if not rep["degeneracy_ok"]:
                return False, f"degeneracy failed at {x} on {expr}"
            if not rep["exact"]:
                return False, f"stalk complex not exact at {x} on {expr}"
    return True, f"{points_per_space} stalk reports per space, all exact"


def check_reconstruction(seed: int = 4, samples: int = 100):
    """Criterion 4: unit and counit of the sections/rebuild adjunction are
    isomorphisms on random constructible data."""
    _require_counts(samples=samples)
    rng = random.Random(seed)
    for expr in RANK2_SPACES:
        space = parse_space(expr)
        for _ in range(samples):
            F = random_csheaf(space, rng, dim_bound=2, exc_bound=1)
            M = gamma(F)
            if not is_isomorphism(counit_map(F)):
                return False, f"counit not iso over {expr}"
            if not unit_iso(M):
                return False, f"unit not iso over {expr}"
    return True, f"{samples} round trips per space, all isomorphisms"


def _floor_sheaf(space):
    tail = constant(space.base, 1)
    apex = VectQ.make(0)
    return make_cone_sheaf(space, {}, tail, apex, LinMap.zero(apex, sec_space(tail)))


def _nonsplit_ses(space):
    floor = _floor_sheaf(space)
    const = constant(space, 1)
    sky = skyscraper(space, apex_point(), 1)
    incl = make_cone_map(floor, const, {}, identity_map(floor.tail),
                         LinMap.zero(floor.apex, const.apex))
    proj = make_cone_map(const, sky, {}, zero_map(const.tail, sky.tail),
                         LinMap.identity(const.apex), check=False)
    return make_ses(incl, proj)


def check_dimension_one(seed: int = 5, samples: int = 100):
    """Criterion 5: the rank-1 suite."""
    _require_counts(samples=samples)
    rng = random.Random(seed)
    space = parse_space("Cone(Finite(1))")
    # completion/pullback equivalence on random objects
    for _ in range(samples):
        F = random_csheaf(space, rng, 2, 2)
        X = standard_of_sheaf(F)
        C = kappa(X)
        Y = tau(C)
        if not sheaves_equal(Y.record, F):
            return False, "pullback did not invert the completion"
        if kappa(Y) != C:
            return False, "completion did not invert the pullback"
        if not sheaves_equal(five_model_roundtrip(F), F):
            return False, "five-model round trip moved an object"
    # support detection, exhaustively on shapes with dimensions <= 3: the
    # module over the bottom flag vanishes exactly when the copy and the
    # tail stalks do, since the germ slice lies in the tail's sections
    for exc0 in range(0, 4):
        for tail_dim in range(0, 4):
            for apex_dim in range(0, 4):
                for gseed in range(2):
                    F = _shaped_sheaf(space, [exc0], tail_dim, apex_dim,
                                      random.Random(gseed))
                    detected = support_detect(mod_of_sheaf(F, (0,)))
                    if detected != (exc0 == 0 and tail_dim == 0):
                        return False, "support detection disagreed with vanishing"
    # the non-split sequence
    ses = _nonsplit_ses(space)
    split, _w = is_split(ses)
    if split:
        return False, "the non-split sequence reported a splitting"
    # Ext^1(skyscraper at apex, floor) is one-dimensional, with oracle
    sky = skyscraper(space, apex_point(), 1)
    floor = _floor_sheaf(space)
    dim = ext1_dim(sky, floor)
    if dim != 1:
        return False, f"dim Ext^1(sky, floor) = {dim}"
    oracle = _yoneda_oracle_dim(sky, floor)
    if oracle != 1:
        return False, f"splitness oracle found dimension {oracle}"
    if ext1_dim(sky, sky) != 0:
        return False, "Ext^1(sky, sky) should vanish"
    # injective dimension one: Ext^2 vanishes on all small shapes
    for ta in range(0, 3):
        for aa in range(0, 3):
            for tb in range(0, 3):
                for ab in range(0, 3):
                    A = _shaped_sheaf(space, [], ta, aa, random.Random(7))
                    B = _shaped_sheaf(space, [], tb, ab, random.Random(8))
                    if ext2_dim(A, B) != 0:
                        return False, "nonzero Ext^2 on a small pair"
    for _ in range(25):
        A = random_csheaf(space, rng, 2, 1)
        B = random_csheaf(space, rng, 2, 1)
        if ext2_dim(A, B) != 0:
            return False, "nonzero Ext^2 on a random pair"
    return True, "pullback/completion, support, splitness, Ext checks passed"


def _shaped_sheaf(space, exc_dims, tail_dim, apex_dim, rng):
    tail = constant(space.base, tail_dim)
    apex = VectQ.make(apex_dim)
    S = sec_space(tail)
    germ = LinMap.from_rows(apex, S, [[Fraction(rng.randint(-1, 1))
                                       for _ in range(apex_dim)] for _ in range(S.dim)])
    exc = {k: constant(space.base, d) for k, d in enumerate(exc_dims) if d}
    return make_cone_sheaf(space, exc, tail, apex, germ)


def _yoneda_oracle_dim(A, B) -> int:
    """Independent check of the extension-group dimension through the
    splitness decision procedure: the twist line is one-dimensional here, so
    the dimension is 0 or 1 according to whether a unit twist splits."""
    SB = sec_space(B.tail)
    if A.apex.dim * SB.dim == 0:
        return 0
    twist = LinMap.from_rows(A.apex, SB, [[1] for _ in range(SB.dim)])
    ses = extension_from_twist(A, B, twist)
    split, _ = is_split(ses)
    zero_t = LinMap.zero(A.apex, SB)
    ses0 = extension_from_twist(A, B, zero_t)
    split0, _ = is_split(ses0)
    if not split0:
        raise AssertionError("the zero twist must split")
    return 0 if split else 1


def _s3_group() -> FinGroup:
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            row.append(idx[comp])
        table.append(tuple(row))
    return FinGroup(tuple(table), "S3")


def check_equivariance_suite(seed: int = 6, stalk_samples: int = 1000,
                             sheaf_samples: int = 100, cocycles: int = 100):
    """Criterion 6: averaging, equivariant exactness, generators."""
    _require_counts(stalk_samples=stalk_samples, sheaf_samples=sheaf_samples,
                    cocycles=cocycles)
    rng = random.Random(seed)
    groups = [trivial_group(), cyclic_group(2), cyclic_group(3),
              cyclic_group(4), cyclic_group(5), cyclic_group(6),
              direct_product(cyclic_group(2), cyclic_group(2)), _s3_group()]
    for _ in range(stalk_samples):
        G = rng.choice(groups)
        V, rs = _random_rep(G, rng.randint(1, 3), rng)
        W, rt = _random_rep(G, rng.randint(1, 3), rng)
        f = LinMap.from_rows(V, W, [[Fraction(rng.randint(-3, 3))
                                     for _ in range(V.dim)] for _ in range(W.dim)])
        a1 = average_stalk(G, rs, rt, f)
        for g in G.elements():
            if rs[g].then(a1) != a1.then(rt[g]):
                return False, "averaged stalk map is not equivariant"
        if average_stalk(G, rs, rt, a1) != a1:
            return False, "averaging is not idempotent"
    # identity on equivariant maps
    for _ in range(50):
        G = rng.choice(groups)
        V, rs = _random_rep(G, rng.randint(1, 3), rng)
        W, rt = _random_rep(G, rng.randint(1, 3), rng)
        f = LinMap.from_rows(V, W, [[Fraction(rng.randint(-3, 3))
                                     for _ in range(V.dim)] for _ in range(W.dim)])
        a1 = average_stalk(G, rs, rt, f)
        if average_stalk(G, rs, rt, a1) != a1:
            return False, "averaging moved an equivariant map"
    # the dihedral block: equivariant exactness with witnesses
    space, _labels, cs = o2_dihedral_block(6)
    cx = equivariant_adelic(space, cs)
    if not _witness_samples(cx, lambda deg: eq_random_cocycle(cx, deg, rng), cocycles)[1]:
        return False, f"a sampled cochain is not a cocycle on the dihedral block {space}"
    # generators
    GR = group_ring_sheaf(cs)
    for _ in range(sheaf_samples):
        E = random_equiv_sheaf(space, cs, rng, 2)
        gens = generator_epi(E)
        if not generator_images_cover(E, gens):
            return False, "generator images do not cover the stored stalks"
        for g in gens:
            if not check_equivariance(g, GR, E):
                return False, "a generator map is not equivariant"
    # the trivial two-dimensional representation needs exactly two generators
    pt = Finite(1)
    C2 = cyclic_group(2)
    cs_pt = fin_structure(pt, [C2])
    V2 = VectQ.make(2)
    E2 = make_equiv(make_fin_sheaf(pt, [V2]), cs_pt,
                    ("fin", ((LinMap.identity(V2), LinMap.identity(V2)),)))
    gens2 = generator_epi(E2)
    if len(gens2) != 2 or not generator_images_cover(E2, gens2):
        return False, "trivial 2-dim module needs two generators"
    if generator_images_cover(E2, gens2[:1]):
        return False, "one generator should not cover the trivial 2-dim module"
    return True, "averaging, dihedral-block witnesses and generators passed"


def check_catalog(seed: int = 7, chains: int = 100):
    """Criterion 7: lattice counts, Weyl orders, functoriality, filters."""
    _require_counts(chains=chains)
    rng = random.Random(seed)
    for n in range(1, 51):
        subs = sublattices(n)
        if len(subs) != divisor_sigma(n):
            return False, f"count at index {n}"
        if len(set((L.a, L.b, L.d) for L in subs)) != len(subs):
            return False, f"duplicate lattice at index {n}"
    # independent enumeration oracle for small indices
    for n in range(1, 11):
        if _bruteforce_lattice_count(n) != divisor_sigma(n):
            return False, f"oracle count differs at index {n}"
    F = SubgroupLabel("finite", Lattice2("full", a=1, b=0, d=1))
    if (weyl_of_subgroup(F).order, weyl_of_subgroup(SubgroupLabel("circle", line_lattice(1, 0))).order,
            weyl_of_subgroup(SubgroupLabel("full")).order) != (4, 2, 1):
        return False, "Weyl orders are not 4/2/1"
    count = trials = 0
    while count < chains and trials < 100 * chains:
        trials += 1
        x, y = rng.randint(-4, 4), rng.randint(-4, 4)
        if x == 0 and y == 0:
            continue
        S = SubgroupLabel("circle", line_lattice(x, y))
        m2 = rng.randint(2, 4)
        T = SubgroupLabel("circle", line_lattice(
            m2 * S.lattice.mult * S.lattice.vec[0],
            m2 * S.lattice.mult * S.lattice.vec[1]))
        w = complement_vector(S.lattice.vec)
        j = rng.randint(1, 5)
        Fl = SubgroupLabel("finite", hnf_of((
            (S.lattice.mult * S.lattice.vec[0], S.lattice.mult * S.lattice.vec[1]),
            (j * w[0], j * w[1]))))
        if not lattice_contains(Fl.lattice, T.lattice):
            continue
        lhs = component_map(Fl, S).compose(circle_component_map(S, T))
        if lhs.values != component_map(Fl, T).values:
            return False, "component maps are not functorial"
        count += 1
    if count < chains:
        return False, "could not assemble enough containment chains"
    e = Lattice2("full", a=1, b=0, d=2)
    for n in range(1, 21):
        if len(nonsplit_filter(sublattices(2 * n), e)) != divisor_sigma(n):
            return False, f"index multiplicativity fails at {n}"
    for n in range(1, 8):
        if o2_normalizer_order_ratio(Dihedral(n, Fraction(0))) != 2:
            return False, f"dihedral normalizer ratio at {n}"
    return True, f"counts to 50, orders 4/2/1, {chains} functorial chains"


def _bruteforce_lattice_count(n: int) -> int:
    """Count index-n sublattices by enumerating generator pairs in a box
    and canonicalizing (independent of the divisor enumeration)."""
    seen = set()
    for x1 in range(-n, n + 1):
        for y1 in range(-n, n + 1):
            for x2 in range(0, n + 1):
                for y2 in range(-n, n + 1):
                    if x1 * y2 - y1 * x2 == n:
                        L = hnf_of(((x1, y1), (x2, y2)))
                        seen.add((L.a, L.b, L.d))
    return len(seen)


def check_degeneration(seed: int = 8, samples: int = 25):
    """Criterion 8: trivial groups reproduce the scalar complex bitwise."""
    _require_counts(samples=samples)
    rng = random.Random(seed)
    for expr in ["Cone(Finite(1))", "Cone(Cone(Finite(1)))"]:
        differs = degeneration_mismatch(parse_space(expr), rng, samples)
        if differs == "cocycle":
            return False, f"a sampled cochain is not a cocycle on {expr}"
        if differs:
            return False, f"{differs} differs on {expr}"
    return True, "equivariant pathway with trivial groups is bit-identical"


CRITERIA = [
    ("1 adelic exactness (ranks 0-3, witnessed)", check_adelic_exactness),
    ("2 sheaf/ring section comparison (rank <= 2)", check_ring_sections),
    ("3 stalkwise acyclicity and degeneracy", check_stalkwise_acyclicity),
    ("4 reconstruction unit/counit isomorphisms", check_reconstruction),
    ("5 dimension-one suite (models, splitness, Ext)", check_dimension_one),
    ("6 equivariance (averaging, witnesses, generators)", check_equivariance_suite),
    ("7 catalog (lattices, Weyl orders, functoriality)", check_catalog),
    ("8 trivial-group degeneration, bit-for-bit", check_degeneration),
]


# reduced sample counts for `run_all(fast=True)`
FAST = {
    check_adelic_exactness: {"samples": 20},
    check_reconstruction: {"samples": 15},
    check_dimension_one: {"samples": 15},
    check_equivariance_suite: {"stalk_samples": 100, "sheaf_samples": 10, "cocycles": 10},
    check_degeneration: {"samples": 5},
}


def run_all(seed: int = 1, fast: bool = False, seconds: list | None = None) -> str:
    """Run every acceptance criterion; prints one line per criterion.  A
    criterion that raises gets an `[ERROR]` line, its traceback goes to
    stderr, and the later ones still run.  Returns "ERROR" when one raised,
    else "FAIL" when one failed, else "PASS".  Given a list `seconds`, each
    criterion appends its (name, wall seconds) to it."""
    statuses = set()
    for name, fn in CRITERIA:
        kwargs = FAST.get(fn, {}) if fast else {}
        start = time.perf_counter()
        try:
            passed, details = fn(seed, **kwargs)
            status = "PASS" if passed else "FAIL"
        except Exception as exc:
            sys.excepthook(type(exc), exc, exc.__traceback__)  # the traceback, on stderr
            status, details = "ERROR", f"{type(exc).__name__}: {exc}"
        if seconds is not None:
            seconds.append((name, time.perf_counter() - start))
        print(f"[{status}] {name}: {details}")
        statuses.add(status)
    return "ERROR" if "ERROR" in statuses else "FAIL" if "FAIL" in statuses else "PASS"
