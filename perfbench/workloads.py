"""The four benchmark workloads.

A workload has three parts, kept apart so that only engine work is timed:

* ``setup(eng)`` builds the engine-side inputs (parsed spaces, complexes,
  the dihedral block).  It is what ``setup_s`` times.
* ``rounds(ctx, rng)`` yields the seeded schedule, one round at a time.  A
  round holds every kind of op of the workload in a fixed proportion, in a
  seeded order, so a run measures the same mix whatever its seed or length.
* ``prepare(ctx, op)`` builds an op's random inputs from its seed and returns
  the timed call.  The call returns ``(ok, result)``: ``ok`` is the op's own
  check, and ``material(result)`` is the op's output as JSON for the digest.

Each op carries a ``key``: the seed-independent part of its input, which is
what a cache of seed-independent work would be keyed on.  ``repeat_share``
is computed from it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace


@dataclass(frozen=True)
class Op:
    key: tuple
    rank: int | None
    seed: int


def _op_seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _shuffled(rng: random.Random, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _cochain_json(eng, cochain) -> list:
    """A cochain (flag -> ring element, or a section in equivariant degree
    -1) in the SCHEMA.md format."""
    ser = eng.serialize
    out = []
    for flag, value in sorted(cochain.items()):
        if isinstance(value, eng.sheaf.Section):
            out.append([list(flag), ser.section_to_json(value)])
        elif isinstance(value, eng.weyl.EqCFun):
            out.append([list(flag), ser.eqcfun_to_json(value)])
        else:
            out.append([list(flag), ser.cfun_to_json(value)])
    return out


# ---------------------------------------------------------------------------
# adelic-shared: criterion 1's spaces, every (space, degree) pair once a round
#
# The costliest pair, rank-3 degree-0 sampling, runs twice a round.  With
# twelve equal shares the median would sit exactly on the edge between two
# pairs of different cost, and move with the tails of both.

ADELIC_SPACES = ("Finite(3)", "Cone(Finite(1))", "Cone(Cone(Finite(1)))",
                 "Cone(Cone(Cone(Finite(1))))", "Cone(Sum(Finite(2),Finite(1)))")
EXC_BOUND = 2


class AdelicShared:
    name = "adelic-shared"

    def setup(self, eng):
        cxs = {e: eng.adelic.build_complex(eng.space.parse_space(e)) for e in ADELIC_SPACES}
        return SimpleNamespace(eng=eng, cxs=cxs, ranks={e: cx.rank for e, cx in cxs.items()})

    def rounds(self, ctx, rng):
        pairs = [(e, d) for e in ADELIC_SPACES for d in range(ctx.ranks[e] + 1)]
        pairs.append(max(pairs, key=lambda p: (ctx.ranks[p[0]], -p[1])))
        while True:
            yield [Op((e, d), ctx.ranks[e], _op_seed(rng)) for e, d in _shuffled(rng, pairs)]

    def prepare(self, ctx, op):
        expr, degree = op.key
        cx = ctx.cxs[expr]
        adelic = ctx.eng.adelic
        rng = random.Random(op.seed)

        def call():
            z = adelic.random_cocycle(cx, degree, rng, exc_bound=EXC_BOUND)
            # raises ValueError on a non-cocycle, AssertionError on a wrong witness
            w = cx.exactness_witness(z, degree)
            return True, (z, w)
        return call

    def material(self, ctx, result):
        z, w = result
        return {"cocycle": _cochain_json(ctx.eng, z), "witness": _cochain_json(ctx.eng, w)}


# ---------------------------------------------------------------------------
# adelic-distinct: the CLI on a new grammar expression every op

# A round runs one expression of each rank, and a second of rank 0: small
# spaces, where the CLI's own cost dominates, are what a user tries most, and
# five ops a round put the median inside the rank-1 band and the p90 inside
# the rank-3 band instead of on the edges between ranks.
ROUND_RANKS = (0, 0, 1, 2, 3)

# Expressions are drawn without replacement from every expression of the
# rank with at most this many Finite(n) leaves, n <= MAX_POINTS.  The bounds
# keep each rank's costs in a narrow band (rank 3 stays below about 0.2 s an
# op) while leaving hundreds of distinct expressions per rank.
MAX_LEAVES = {0: 4, 1: 3, 2: 3, 3: 2}
MAX_POINTS = 5
SIZE_STRATA = 8


@functools.cache
def _expressions(rank: int, leaves: int) -> frozenset:
    """(size, text) of every grammar expression of exactly this rank and
    number of leaves.  The size is the number of coordinates of a locally
    constant function with at most EXC_BOUND exceptional copies per cone:
    n for Finite(n), the sum for Sum, one tail value plus EXC_BOUND copies of
    the base for Cone.  An op's cost grows with it."""
    if leaves == 1:
        if rank == 0:
            return frozenset((n, f"Finite({n})") for n in range(1, MAX_POINTS + 1))
        return frozenset((1 + EXC_BOUND * n, f"Cone({e})") for n, e in _expressions(rank - 1, 1))
    out = set()
    if rank > 0:
        out |= {(1 + EXC_BOUND * n, f"Cone({e})") for n, e in _expressions(rank - 1, leaves)}
    for k in range(1, leaves):
        for ra in range(rank + 1):
            for rb in range(rank + 1):
                if max(ra, rb) == rank:
                    out |= {(na + nb, f"Sum({a},{b})") for na, a in _expressions(ra, k)
                            for nb, b in _expressions(rb, leaves - k)}
    return frozenset(out)


def expression_pool(rank: int) -> list[tuple[int, str]]:
    """(size, text) of the rank's expressions, smallest first."""
    return sorted(set().union(*(_expressions(rank, n) for n in range(1, MAX_LEAVES[rank] + 1))))


def size_balanced(rng: random.Random, pool: list) -> list[str]:
    """The pool in a seeded order in which every SIZE_STRATA consecutive
    draws take one expression from each size stratum, so a short run sees
    the same spread of sizes, and costs, as a long one."""
    k = len(pool)
    strata = [_shuffled(rng, pool[i * k // SIZE_STRATA:(i + 1) * k // SIZE_STRATA])
              for i in range(SIZE_STRATA)]
    out = []
    for i in range(max(map(len, strata))):
        out.extend(_shuffled(rng, [s[i][1] for s in strata if i < len(s)]))
    return out


class AdelicDistinct:
    name = "adelic-distinct"

    def setup(self, eng):
        return SimpleNamespace(eng=eng)

    def rounds(self, ctx, rng):
        # each rank's pool in a seeded order, taken in turn: no expression can
        # repeat, and the run ends once a pool is used up
        pools = {r: iter(size_balanced(rng, expression_pool(r))) for r in MAX_LEAVES}
        counts = Counter(ROUND_RANKS)
        for _ in range(min(len(expression_pool(r)) // n for r, n in counts.items())):
            yield [Op((next(pools[r]),), r, _op_seed(rng)) for r in _shuffled(rng, ROUND_RANKS)]

    def prepare(self, ctx, op):
        argv = ["adelic", "--space", op.key[0], "--check-exactness",
                "--samples", "1", "--seed", str(op.seed)]
        cli = ctx.eng.cli

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            text = out.getvalue()
            doc = json.loads(text)
            ok = (code == 0 and doc["status"] == "pass"
                  and doc["witnessed_cocycles"] == op.rank + 1)
            return ok, text
        return call

    def material(self, ctx, result):
        return result


# ---------------------------------------------------------------------------
# equivariant: criterion 6's groups and the dihedral block o2_dihedral_block(6)

class Equivariant:
    name = "equivariant"

    def setup(self, eng):
        t0 = perf_counter()
        space, _labels, cs = eng.catalog.o2_dihedral_block(6)
        block_s = perf_counter() - t0
        w = eng.weyl
        groups = [w.trivial_group(), w.cyclic_group(2), w.cyclic_group(3),
                  w.cyclic_group(4), w.cyclic_group(5), w.cyclic_group(6),
                  w.direct_product(w.cyclic_group(2), w.cyclic_group(2)),
                  eng.verify._s3_group()]
        cx = w.equivariant_adelic(space, cs)
        return SimpleNamespace(eng=eng, space=space, cs=cs, cx=cx, groups=groups,
                               rank=cx.rank, block_s=block_s)

    def rounds(self, ctx, rng):
        # one averaging per group to each cocycle degree and generator op:
        # criterion 6 also runs mostly averagings
        kinds = ([("average", i) for i in range(len(ctx.groups))]
                 + [("cocycle", d) for d in range(ctx.rank + 1)] + [("generators",)])
        while True:
            yield [Op(k, None if k[0] == "average" else ctx.rank, _op_seed(rng))
                   for k in _shuffled(rng, kinds)]

    def prepare(self, ctx, op):
        w = ctx.eng.weyl
        rng = random.Random(op.seed)
        kind = op.key[0]
        if kind == "average":
            G = ctx.groups[op.key[1]]
            V, rs = w._random_rep(G, rng.randint(1, 3), rng)
            W, rt = w._random_rep(G, rng.randint(1, 3), rng)
            f = ctx.eng.linalg.LinMap.from_rows(
                V, W, [[Fraction(rng.randint(-3, 3)) for _ in range(V.dim)]
                       for _ in range(W.dim)])

            def call():
                a = w.average_stalk(G, rs, rt, f)
                ok = (all(rs[g].then(a) == a.then(rt[g]) for g in G.elements())
                      and w.average_stalk(G, rs, rt, a) == a)
                return ok, ("average", a)
            return call
        if kind == "cocycle":
            degree = op.key[1]

            def call():
                z = w.eq_random_cocycle(ctx.cx, degree, rng)
                return True, ("cocycle", z, ctx.cx.exactness_witness(z, degree))
            return call

        def call():
            E = w.random_equiv_sheaf(ctx.space, ctx.cs, rng, 2)
            gens = w.generator_epi(E)
            GR = w.group_ring_sheaf(ctx.cs)
            ok = (w.generator_images_cover(E, gens)
                  and all(w.check_equivariance(g, GR, E) for g in gens))
            return ok, ("generators", E, gens)
        return call

    def material(self, ctx, result):
        ser = ctx.eng.serialize
        if result[0] == "average":
            return ser.linmap_to_json(result[1])
        if result[0] == "cocycle":
            return {"cocycle": _cochain_json(ctx.eng, result[1]),
                    "witness": _cochain_json(ctx.eng, result[2])}
        _, E, gens = result
        return {"sheaf": ser.equiv_to_json(E),
                "generators": [ser.sheafmap_to_json(g) for g in gens]}


# ---------------------------------------------------------------------------
# sheaf-models: criteria 3-5 and the serializer over the rank <= 2 spaces

SHEAF_SPACES = ("Cone(Finite(1))", "Cone(Cone(Finite(1)))", "Cone(Sum(Finite(2),Finite(1)))")
SHEAF_KINDS = ("reconstruction", "standard", "cube", "completion", "json")
CUBE_COPY_BOUND = 7


class SheafModels:
    name = "sheaf-models"

    def setup(self, eng):
        spaces = {e: eng.space.parse_space(e) for e in SHEAF_SPACES}
        ranks = {e: eng.space.cb_rank(s) for e, s in spaces.items()}
        points = {e: list(eng.space.iter_points(s, CUBE_COPY_BOUND)) for e, s in spaces.items()}
        return SimpleNamespace(eng=eng, spaces=spaces, ranks=ranks, points=points)

    def rounds(self, ctx, rng):
        # the completion and the Ext groups exist on rank-1 spaces only
        pairs = [(k, e) for e in SHEAF_SPACES for k in SHEAF_KINDS
                 if k != "completion" or ctx.ranks[e] == 1]
        while True:
            yield [Op(p, ctx.ranks[p[1]], _op_seed(rng)) for p in _shuffled(rng, pairs)]

    def prepare(self, ctx, op):
        eng = ctx.eng
        kind, expr = op.key
        s = ctx.spaces[expr]
        rng = random.Random(op.seed)
        csheaf = eng.sheaf.random_csheaf
        ser = eng.serialize
        if kind == "reconstruction":
            def call():
                F = csheaf(s, rng, dim_bound=2, exc_bound=1)
                M = eng.homalg.gamma(F)
                ok = eng.homalg.is_isomorphism(eng.homalg.counit_map(F)) and eng.homalg.unit_iso(M)
                return ok, ("sheaf", F)
        elif kind == "standard":
            def call():
                F = csheaf(s, rng, dim_bound=2 if op.rank <= 1 else 1, exc_bound=1)
                D = eng.models.to_standard(F)
                ok = eng.models.is_cocartesian(D)
                G = eng.models.from_standard(D)
                return ok and eng.sheaf.sheaves_equal(F, G), ("sheaf", G)
        elif kind == "cube":
            x = rng.choice(ctx.points[expr])

            def call():
                rep = eng.cube.stalkwise_cube_check(s, x)
                return rep["exact"] and rep["degeneracy_ok"], ("cube", rep)
        elif kind == "completion":
            def call():
                m = eng.models
                F = csheaf(s, rng, 2, 2)
                C = m.kappa(m.standard_of_sheaf(F))
                Y = m.tau(C)
                A, B = csheaf(s, rng, 2, 1), csheaf(s, rng, 2, 1)
                e1, e2 = eng.homalg.ext1_dim(A, B), eng.homalg.ext2_dim(A, B)
                ok = (eng.sheaf.sheaves_equal(Y.record, F) and m.kappa(Y) == C
                      and eng.sheaf.sheaves_equal(m.five_model_roundtrip(F), F) and e2 == 0)
                return ok, ("completion", Y.record, e1, e2)
        else:
            def call():
                F = csheaf(s, rng, 2, 1)
                text = json.dumps(ser.csheaf_to_json(F), sort_keys=True)
                G = ser.csheaf_from_json(json.loads(text))
                return eng.sheaf.sheaves_equal(F, G), ("json", text)
        return call

    def material(self, ctx, result):
        ser = ctx.eng.serialize
        kind = result[0]
        if kind == "sheaf":
            return ser.csheaf_to_json(result[1])
        if kind == "cube":
            rep = result[1]
            return {"point": rep["point"], "height": rep["height"],
                    "stalk_dims": sorted([list(A), d] for A, d in rep["stalk_dims"].items()),
                    "homology": sorted([i, d] for i, d in rep["homology"].items())}
        if kind == "completion":
            return {"record": ser.csheaf_to_json(result[1]), "ext1": result[2], "ext2": result[3]}
        return result[1]


WORKLOADS = {w.name: w for w in (AdelicShared(), AdelicDistinct(), Equivariant(), SheafModels())}
