"""Command-line surface.

Every command prints one JSON document (sorted keys, schema-tagged) so
reports are diffable; randomized commands take a seed (flag or the
STONESHEAF_SEED variable) and are reproducible from it.  Exit status is
zero exactly when all requested checks pass, one when a check fails, two
when the input is malformed (a space or point that does not parse or
names no point of its space, `sheaf --resolution` on a space whose rank is
not 1, `sheaf --const-dim` without `--resolution`, or a count that is out
of range), and three when a command raises an unexpected error, as
`verify-all` does when a criterion raises.  Malformed input prints the
document `{"error": message, "schema": ...}` with an `error:` line on
stderr, or, for arguments that argparse refuses (a count out of range among
them), with usage and argparse's error line on stderr.  An unexpected error
prints the document `{"error": "<type>: <message>", "schema": ...}` with
its traceback on stderr, so it is never read as a failed check.
`verify-all --stats` prints each criterion's seconds after the transcript.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import serialize as ser
from .adelic import build_complex, random_cocycle
from .catalog import divisor_sigma, o2_dihedral_block, sublattices, t2_block
from .cube import stalkwise_cube_check, _shared_cube
from .homalg import injective_resolution_display
from .models import from_standard, to_standard
from .sheaf import constant, random_csheaf, sec_dim, stalk, sheaves_equal
from .space import (cb_rank, height, iter_points, parse_point, parse_space, top_stratum, Point,
                    MalformedPoint, ParseError, SpaceExpr)
from .verify import run_all, _witness_samples
from .weyl import degeneration_mismatch, equivariant_adelic, eq_random_cocycle
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


def _malformed(message: str) -> int:
    """Refuse malformed input: the `error:` line, the error document, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    return _emit({"error": message}, 2)


def _crashed(exc: Exception) -> int:
    """Report an unexpected error: the traceback on stderr, the error
    document, exit 3."""
    sys.excepthook(type(exc), exc, exc.__traceback__)
    return _emit({"error": f"{type(exc).__name__}: {exc}"}, 3)


def cmd_space(args):
    s = parse_space(args.expr)
    doc = {"expr": str(s), "rank": cb_rank(s),
           "top_stratum": [str(p) for p in top_stratum(s)],
           "sample_points": [str(p) for p in list(iter_points(s, 2))[:12]]}
    if args.point is not None:
        p = parse_point(s, args.point)
        doc["point"] = {"address": str(p), "height": height(s, p)}
    return _emit(doc)


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


def cube_report(s: SpaceExpr) -> dict:
    """The byte-stable cube report of a parsed space, used by the golden tests."""
    cube = _shared_cube(s)
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
    s = parse_space(args.space)
    if args.const_dim is not None and not args.resolution:
        return _malformed("--const-dim needs --resolution")
    if args.resolution and cb_rank(s) != 1:
        return _malformed(f"--resolution needs a space of rank 1, not rank {cb_rank(s)}")
    report = cube_report(s)
    ok = all(c["exact"] and c["degeneracy_ok"] for c in report["stalk_checks"])
    report["status"] = "pass" if ok else "fail"
    if args.resolution:
        dim = 1 if args.const_dim is None else args.const_dim
        report["injective_resolution"] = injective_resolution_display(constant(s, dim))
    return _emit(report, 0 if ok else 1)


def cmd_model(args):
    s = parse_space(args.space)
    rng = random.Random(_seed(args))
    ok = True
    trips = 0
    for _ in range(args.roundtrips):
        F = random_csheaf(s, rng, dim_bound=2 if cb_rank(s) <= 1 else 1, exc_bound=1)
        D = to_standard(F)
        try:
            G = from_standard(D)
        except ValueError:
            ok = False
            break
        if not sheaves_equal(F, G):
            ok = False
            break
        trips += 1
    doc = {"space": str(s), "seed": _seed(args), "roundtrips": trips,
           "status": "pass" if ok else "fail"}
    return _emit(doc, 0 if ok else 1)


def cmd_equiv(args):
    space, labels, cs = o2_dihedral_block(args.nmax)
    rng = random.Random(_seed(args))
    cx = equivariant_adelic(space, cs)
    witnessed, ok = _witness_samples(cx, lambda deg: eq_random_cocycle(cx, deg, rng),
                                     args.samples)
    doc = {"block": "dihedral O(2)", "seed": _seed(args), "witnessed_cocycles": witnessed}
    if args.trivial_check:
        match = degeneration_mismatch(space, rng, 1) is None
        doc["trivial_degeneration"] = "bit-identical" if match else "mismatch"
        ok = ok and match
    doc["status"] = "pass" if ok else "fail"
    return _emit(doc, 0 if ok else 1)


def o2_catalog_report(nmax: int) -> dict:
    space, labels, cs = o2_dihedral_block(nmax)
    return {"schema": SCHEMA, "space": str(space),
            "labels": {str(Point(a)): l for a, l in labels.items()},
            "weyl_orders": {"dihedral": 2, "limit": 1},
            "structure": ser.structure_to_json(cs)}


def cmd_catalog(args):
    if args.what == "o2":
        return _emit(o2_catalog_report(args.nmax))
    if args.what == "sublattices":
        subs = sublattices(args.n)
        doc = {"index": args.n, "count": len(subs),
               "sigma": divisor_sigma(args.n),
               "lattices": [ser.lattice_to_json(L) for L in subs]}
        return _emit(doc, 0 if len(subs) == divisor_sigma(args.n) else 1)
    # argparse's choices leave only "t2"
    space, labels, cs, data = t2_block(split=not args.nonsplit, n_circles=args.ncircles)
    doc = {"space": str(space), "split": not args.nonsplit,
           "labels": {str(Point(a)): v for a, v in sorted(labels.items(), key=lambda kv: str(kv[0]))},
           "structure": ser.structure_to_json(cs)}
    return _emit(doc)


def cmd_verify_all(args):
    seconds = [] if args.stats else None
    status = run_all(seed=_seed(args), fast=args.fast, seconds=seconds)
    print("verify-all:", status)
    for name, s in seconds or ():
        print(f"[seconds] {name}: {s:.3f}")
    return {"PASS": 0, "FAIL": 1, "ERROR": 3}[status]


class _Parser(argparse.ArgumentParser):
    """An argument parser that prints the error document before argparse's
    usage and exit 2; its subcommand parsers are of this class too."""

    def error(self, message):
        _emit({"error": message})
        super().error(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    ap = _Parser(prog="stonesheaf",
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
    p.add_argument("--const-dim", type=_non_negative, default=None,
                   help="the constant sheaf's stalk dimension for --resolution (default 1)")
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
    p.add_argument("--stats", action="store_true",
                   help="print each criterion's seconds after the transcript")
    p.set_defaults(fn=cmd_verify_all)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, MalformedPoint) as exc:
        return _malformed(str(exc))
    except Exception as exc:
        return _crashed(exc)


if __name__ == "__main__":
    sys.exit(main())
