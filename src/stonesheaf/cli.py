"""Command-line surface.

Every command prints one JSON document (sorted keys, schema-tagged) so
reports are diffable; randomized commands take a seed (flag or the
STONESHEAF_SEED variable) and are reproducible from it.  Exit status is
zero exactly when all requested checks pass, one when a check fails, and
two when the input is malformed (a space or point that does not parse, or a
count that is out of range).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import serialize as ser
from .adelic import build_complex, random_cocycle
from .catalog import divisor_sigma, o2_dihedral_block, sublattices, t2_block
from .cube import sheaf_cube, stalkwise_cube_check
from .models import to_standard, from_standard, is_cocartesian
from .sheaf import constant, random_csheaf, sec_dim, stalk, sheaves_equal
from .space import cb_rank, iter_points, parse_space, Point, ParseError
from .verify import run_all
from .weyl import (equivariant_adelic, eq_random_cocycle, trivial_structure,
                   plain_to_eq, eq_to_plain)
from .serialize import SCHEMA


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("STONESHEAF_SEED", "1"))


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return n


def _non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return n


def _emit(doc, status=0):
    doc = dict(doc)
    doc["schema"] = SCHEMA
    print(json.dumps(doc, sort_keys=True, indent=1))
    return status


def cmd_space(args):
    s = parse_space(args.expr)
    from .space import top_stratum, height, parse_point
    doc = {"expr": str(s), "rank": cb_rank(s),
           "top_stratum": [str(p) for p in top_stratum(s)],
           "sample_points": [str(p) for p in list(iter_points(s, 2))[:12]]}
    if args.point is not None:
        p = parse_point(s, args.point)
        doc["point"] = {"address": str(p), "height": height(s, p)}
    return _emit(doc)


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


def cmd_adelic(args):
    s = parse_space(args.space)
    cx = build_complex(s)
    rng = random.Random(_seed(args))
    doc = {"space": str(s), "rank": cx.rank, "seed": _seed(args),
           "flags_by_degree": {str(d): [list(A) for A in cx.flags(d)]
                               for d in cx.degrees()}}
    ok = True
    if args.check_exactness:
        doc["witnessed_cocycles"], ok = _witness_samples(
            cx, lambda deg: random_cocycle(cx, deg, rng, exc_bound=args.exc_bound), args.samples)
        doc["status"] = "pass" if ok else "fail"
    return _emit(doc, 0 if ok else 1)


def cube_report(expr: str) -> dict:
    """The byte-stable cube report used by the golden tests."""
    s = parse_space(expr)
    cube = sheaf_cube(s)
    report = {"space": str(s), "rank": cb_rank(s), "schema": SCHEMA, "flags": {}}
    for A, F in sorted(cube["sheaves"].items()):
        pts = list(iter_points(s, 2))[:8]
        report["flags"][",".join(map(str, A)) or "()"] = {
            "stalk_dims": {str(p): stalk(F, p).dim for p in pts},
            "finite_data_sections": sec_dim(F),
        }
    checks = []
    for p in list(iter_points(s, 2))[:6]:
        rep = stalkwise_cube_check(s, p)
        checks.append({"point": rep["point"], "exact": rep["exact"],
                       "degeneracy_ok": rep["degeneracy_ok"]})
    report["stalk_checks"] = checks
    return report


def cmd_sheaf(args):
    report = cube_report(args.space)
    ok = all(c["exact"] and c["degeneracy_ok"] for c in report["stalk_checks"])
    report["status"] = "pass" if ok else "fail"
    if args.resolution:
        from .homalg import injective_resolution_display
        s = parse_space(args.space)
        if cb_rank(s) == 1:
            report["injective_resolution"] = injective_resolution_display(
                constant(s, args.const_dim))
    print(json.dumps(report, sort_keys=True, indent=1))
    return 0 if ok else 1


def cmd_model(args):
    s = parse_space(args.space)
    rng = random.Random(_seed(args))
    ok = True
    trips = 0
    for _ in range(args.roundtrips):
        F = random_csheaf(s, rng, dim_bound=2 if cb_rank(s) <= 1 else 1, exc_bound=1)
        D = to_standard(F)
        if not is_cocartesian(D):
            ok = False
            break
        G = from_standard(D)
        if not sheaves_equal(F, G):
            ok = False
            break
        trips += 1
    doc = {"space": str(s), "seed": _seed(args), "roundtrips": trips,
           "status": "pass" if ok else "fail"}
    return _emit(doc, 0 if ok else 1)


def cmd_equiv(args):
    from .catalog import o2_dihedral_block
    space, labels, cs = o2_dihedral_block(args.nmax)
    rng = random.Random(_seed(args))
    cx = equivariant_adelic(space, cs)
    witnessed, ok = _witness_samples(cx, lambda deg: eq_random_cocycle(cx, deg, rng),
                                     args.samples)
    doc = {"block": "dihedral O(2)", "seed": _seed(args),
           "witnessed_cocycles": witnessed, "status": "pass" if ok else "fail"}
    if args.trivial_check:
        from .adelic import build_complex
        triv = trivial_structure(space)
        cx_t = equivariant_adelic(space, triv)
        plain = build_complex(space)
        match = True
        for deg in range(0, plain.rank + 1):
            z = random_cocycle(plain, deg, rng)
            zeq = {A: plain_to_eq(f, triv) for A, f in z.items()}
            w1 = plain.exactness_witness(z, deg)
            w2 = cx_t.exactness_witness(zeq, deg)
            if deg >= 1 and any(eq_to_plain(w2[A]) != w1[A] for A in w1):
                match = False
        doc["trivial_degeneration"] = "bit-identical" if match else "mismatch"
        ok = ok and match
    return _emit(doc, 0 if ok else 1)


def o2_catalog_report(nmax: int) -> dict:
    space, labels, cs = o2_dihedral_block(nmax)
    return {"schema": SCHEMA, "space": str(space),
            "labels": {str(Point(a)): l for a, l in labels.items()},
            "weyl_orders": {"dihedral": 2, "limit": 1},
            "structure": ser.structure_to_json(cs)}


def cmd_catalog(args):
    if args.what == "o2":
        doc = o2_catalog_report(args.nmax)
        print(json.dumps(doc, sort_keys=True, indent=1))
        return 0
    if args.what == "sublattices":
        subs = sublattices(args.n)
        doc = {"index": args.n, "count": len(subs),
               "sigma": divisor_sigma(args.n),
               "lattices": [ser.lattice_to_json(L) for L in subs]}
        return _emit(doc, 0 if len(subs) == divisor_sigma(args.n) else 1)
    if args.what == "t2":
        space, labels, cs, data = t2_block(split=not args.nonsplit,
                                           n_circles=args.ncircles)
        doc = {"space": str(space), "split": not args.nonsplit,
               "labels": {str(Point(a)): v for a, v in sorted(labels.items(), key=lambda kv: str(kv[0]))},
               "structure": ser.structure_to_json(cs)}
        return _emit(doc)
    return 2


def cmd_verify_all(args):
    ok = run_all(seed=_seed(args), fast=args.fast)
    print("verify-all:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="stonesheaf",
                                 description="constructible sheaves over scattered Stone spaces")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("space", help="inspect a space expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--point", default=None,
                   help="a point address such as Apex, 3, (2,Apex) or L.0")
    p.set_defaults(fn=cmd_space)

    p = sub.add_parser("adelic", help="the adelic complex and its exactness")
    p.add_argument("--space", required=True)
    p.add_argument("--check-exactness", action="store_true")
    p.add_argument("--samples", type=_positive, default=100)
    p.add_argument("--exc-bound", type=_non_negative, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_adelic)

    p = sub.add_parser("sheaf", help="the cube of ring sheaves with stalk checks")
    p.add_argument("--space", required=True)
    p.add_argument("--resolution", action="store_true",
                   help="include the symbolic (non-constructible) injective resolution")
    p.add_argument("--const-dim", type=_non_negative, default=1)
    p.set_defaults(fn=cmd_sheaf)

    p = sub.add_parser("model", help="standard-model round trips")
    p.add_argument("--space", required=True)
    p.add_argument("--roundtrips", type=_positive, default=25)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("equiv", help="equivariant checks on the dihedral block")
    p.add_argument("--nmax", type=_positive, default=6)
    p.add_argument("--samples", type=_positive, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trivial-check", action="store_true")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("catalog", help="example blocks and lattice tables")
    p.add_argument("what", choices=["o2", "sublattices", "t2"])
    p.add_argument("--nmax", type=_positive, default=8)
    p.add_argument("--n", type=_positive, default=6)
    p.add_argument("--ncircles", type=_positive, default=5)
    p.add_argument("--nonsplit", action="store_true")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("verify-all", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(fn=cmd_verify_all)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
