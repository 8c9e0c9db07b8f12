"""Run one stonesheaf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adelic-shared --seed 1 --seconds 10 --trace 0

The engine is imported from ``src/`` of the checkout holding this file, and
nowhere else; without it the run exits with status 2.  One process, one
thread, a closed loop of one client: each op starts when the previous one
has finished.  Ops run in whole rounds (see workloads.py) until ``--seconds``
of wall time have passed and at least ``MIN_OPS`` ops have run.  A fixed
calibration unit is timed before every round, and op times are reported
divided by it, because the host's speed drifts (see README.md).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the ops
for half the time untraced, then replays the same ops with spans around the
engine's public functions (spans.py), and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a readable summary with the digest, ``fail_frac``, sample counts and the
workload's properties.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

DEFAULT_SEED = 1
MIN_OPS = 100        # p90 needs ten samples beyond it
DIGEST_OPS = 100     # the digest covers the first ops, so it is fixed per seed
SETUP_REPS = 5
CALIBRATION_SHAPE = (7, 9)
ZERO = Fraction(0)
REFERENCE_S = 1e-3   # the calibration unit's time on the reference core
ENGINE_MODULES = ("linalg", "space", "adelic", "sheaf", "cube", "homalg", "models",
                  "weyl", "catalog", "serialize", "verify", "cli")
BASELINE = HERE / "baseline.json"

END_TO_END = {"ops_per_s": "op/ref_s", "cpu_ms_per_op": "ref_ms", "op_ms_p50": "ref_ms",
              "op_ms_p90": "ref_ms", "setup_s": "s", "peak_rss_mb": "MB"}


def load_engine() -> SimpleNamespace:
    """Import stonesheaf afresh from this checkout's src/."""
    if not (SRC / "stonesheaf" / "__init__.py").is_file():
        raise ImportError(f"no stonesheaf package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "stonesheaf" or n.startswith("stonesheaf.")]:
        del sys.modules[name]
    eng = SimpleNamespace(**{m: importlib.import_module(f"stonesheaf.{m}") for m in ENGINE_MODULES})
    if Path(eng.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"stonesheaf was imported from {eng.cli.__file__}, not {SRC}")
    return eng


def setup(workload):
    """Import plus input building, SETUP_REPS times; returns the last context
    and the median times."""
    times, block = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        ctx = workload.setup(load_engine())
        times.append(perf_counter() - t0)
        block.append(getattr(ctx, "block_s", 0.0))
    return ctx, statistics.median(times), statistics.median(block)


def op_record(op, ok, material) -> bytes:
    return json.dumps({"op": [list(op.key), op.seed], "ok": ok, "out": material},
                      sort_keys=True, separators=(",", ":")).encode()


def calibration_unit() -> list:
    """Fixed work of the engine's kind, independent of the engine: exact
    Gaussian elimination on a 7 x 9 rational matrix; about a millisecond
    on one core of a 2.1 GHz x86 server."""
    n, m = CALIBRATION_SHAPE
    rows = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 3) if (i * j + i + j) % 3 else ZERO
             for j in range(m)] for i in range(n)]
    r = 0
    for c in range(m):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def calibrate() -> tuple[float, float]:
    w0, c0 = perf_counter(), process_time()
    calibration_unit()
    return perf_counter() - w0, process_time() - c0


@dataclass
class Phase:
    rounds: list = field(default_factory=list)
    wall: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    calibration: list = field(default_factory=list)
    digest: str = ""

    @property
    def ops(self) -> list:
        return [op for rnd in self.rounds for op in rnd]

    @property
    def completed(self) -> int:
        return sum(self.ok)

    def reference(self) -> tuple[float, float]:
        """Mean wall and CPU seconds of the calibration unit in this phase.

        The mean, not the median: an op is slowed by the host's average state
        over the run, and so is the mean of units spread evenly through it."""
        walls, cpus = zip(*self.calibration)
        return statistics.fmean(walls), statistics.fmean(cpus)


def run_rounds(workload, ctx, rounds, tracer=None) -> Phase:
    """Run the rounds in order, with a calibration unit before each round
    and after the last."""
    phase = Phase()
    digest = hashlib.sha256()
    for rnd in rounds:
        phase.rounds.append(rnd)
        phase.calibration.append(calibrate())
        for op in rnd:
            call = workload.prepare(ctx, op)
            result = None
            if tracer is not None:
                tracer.active = True
            w0, c0 = perf_counter(), process_time()
            try:
                ok, result = call()
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            finally:
                c1, w1 = process_time(), perf_counter()
                if tracer is not None:
                    tracer.active = False
                    tracer.end_op()
            phase.wall.append(w1 - w0)
            phase.cpu.append(c1 - c0)
            phase.ok.append(bool(ok))
            if len(phase.wall) <= DIGEST_OPS:
                digest.update(op_record(op, bool(ok), workload.material(ctx, result) if ok else None))
    phase.calibration.append(calibrate())
    phase.digest = digest.hexdigest()
    return phase


def timed_rounds(rounds, seconds: float):
    """Whole rounds, until `seconds` have passed and MIN_OPS ops ran."""
    t0 = perf_counter()
    n = 0
    for rnd in rounds:
        if n >= MIN_OPS and perf_counter() - t0 >= seconds:
            return
        yield rnd
        n += len(rnd)


def schedule(workload, ctx, seed: int):
    return workload.rounds(ctx, random.Random(f"{workload.name}/{seed}"))


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, dict]:
    """The metrics in reference units, and the same as measured.

    Sums are divided by the phase's mean calibration.  Each op's wall time is
    divided by the mean of the two calibrations around its round before the
    percentiles are taken: they fall inside one kind of op, whose times
    follow the host's speed from moment to moment."""
    done = [w for w, ok in zip(phase.wall, phase.ok) if ok]
    if not done:
        return {}, {}
    raw = {"ops_per_s": len(done) / sum(phase.wall),
           "cpu_ms_per_op": 1e3 * sum(phase.cpu) / len(done),
           "op_ms_p50": 1e3 * statistics.median(done),
           "op_ms_p90": 1e3 * statistics.quantiles(done, n=10)[8],
           "setup_s": setup_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    cal_wall, cal_cpu = phase.reference()
    around = [(a[0] + b[0]) / 2 for a, b in zip(phase.calibration, phase.calibration[1:])]
    local = [c for rnd, c in zip(phase.rounds, around) for _ in rnd]
    ref_ms = [1e3 * REFERENCE_S * w / c for w, c, ok in zip(phase.wall, local, phase.ok) if ok]
    return {**raw,
            "ops_per_s": raw["ops_per_s"] * cal_wall / REFERENCE_S,
            "cpu_ms_per_op": raw["cpu_ms_per_op"] * REFERENCE_S / cal_cpu,
            "op_ms_p50": statistics.median(ref_ms),
            "op_ms_p90": statistics.quantiles(ref_ms, n=10)[8]}, raw


def properties(ops) -> dict:
    """repeat_share: ops whose key occurred earlier in the run; rank mix over
    the ops that have a space."""
    seen, repeats = set(), 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    ranked = [op.rank for op in ops if op.rank is not None]
    mix = {f"workload.rank{r}_share": (sum(1 for x in ranked if x == r) / len(ranked)
                                        if ranked else 0.0) for r in range(4)}
    return {"workload.repeat_share": repeats / len(ops), **mix}


# (name, unit) of every per-layer metric; calls and self times are per op
PER_LAYER = [
    *[(f"{n}.{k}", u) for n in ("linalg.rref", "linalg.kernel_basis", "linalg.solve",
                                "linalg.then", "linalg.apply", "space.parse_space",
                                "adelic.random_cocycle", "adelic.differential",
                                "adelic.exactness_witness", "adelic.dmap", "adelic.ring_ops",
                                "weyl.average_stalk", "weyl.eq_random_cocycle",
                                "weyl.eq_differential", "weyl.eq_exactness_witness",
                                "weyl.generator_epi", "sheaf.sheaves_equal",
                                "cube.stalkwise_cube_check", "cli.main")
      for k, u in (("calls", "count/op"), ("self_s", "s/op"))],
    *[(f"{n}.self_s", "s/op") for n in ("sheaf.random_csheaf", "homalg.gamma",
                                         "homalg.is_isomorphism", "homalg.unit_iso",
                                         "homalg.ext_dims", "models.to_standard",
                                         "models.from_standard", "models.is_cocartesian",
                                         "models.completion", "serialize.to_json",
                                         "serialize.from_json")],
    ("linalg.rref.cells", "count/op"),
    ("linalg.rref.nonzero_frac", "1"),
    ("linalg.then.useful_mult_frac", "1"),
    ("space.cb_rank.calls", "count/op"),
    ("adelic.differential.calls_per_cocycle", "1"),
    ("adelic.kernel_basis_per_cocycle", "1"),
    ("catalog.o2_dihedral_block.s", "s"),
    ("trace.overhead_frac", "1"),
    ("workload.repeat_share", "1"),
    *[(f"workload.rank{r}_share", "1") for r in range(4)],
]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(tracer, n_ops: int, overhead: float, block_s: float, props: dict) -> dict:
    values = {}
    for name, _unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tracer.calls[base] / n_ops
        elif kind == "self_s":
            values[name] = tracer.self_s[base] / n_ops
    x = tracer.extra
    cocycles = tracer.calls["adelic.random_cocycle"]
    values.update({
        "linalg.rref.cells": x["linalg.rref.cells"] / n_ops,
        "linalg.rref.nonzero_frac": _ratio(x["linalg.rref.nonzero"], x["linalg.rref.cells"]),
        "linalg.then.useful_mult_frac": _ratio(x["linalg.then.useful"], x["linalg.then.dense"]),
        "adelic.differential.calls_per_cocycle":
            _ratio(tracer.in_scope["adelic.differential"], cocycles),
        "adelic.kernel_basis_per_cocycle":
            _ratio(tracer.in_scope["linalg.kernel_basis"],
                   x["adelic.random_cocycle.below_rank"]),
        "catalog.o2_dihedral_block.s": block_s,
        "trace.overhead_frac": overhead,
        **props,
    })
    return values


def expected_digest(workload: str, seed: int):
    return json.loads(BASELINE.read_text())["digests"].get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        ctx, setup_s, block_s = setup(workload)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    budget = args.seconds / 2 if args.trace else args.seconds
    phase = run_rounds(workload, ctx, timed_rounds(schedule(workload, ctx, args.seed), budget))
    digests = [phase.digest]
    attempted = len(phase.ops)
    failed = attempted - phase.completed
    if args.trace:
        tracer = spans.Tracer()
        with spans.traced(tracer):
            replay = run_rounds(workload, ctx, phase.rounds, tracer)
        digests.append(replay.digest)
        failed = max(failed, attempted - replay.completed)
    expected = expected_digest(workload.name, args.seed)
    digest_ok = len(set(digests)) == 1 and expected in (None, phase.digest)
    if not digest_ok:
        failed = attempted
    props = properties(phase.ops)
    e2e, as_measured = end_to_end(phase, setup_s)
    correct = failed == 0 and bool(e2e)
    if args.trace:
        overhead = ((sum(replay.wall) / replay.reference()[0])
                    / (sum(phase.wall) / phase.reference()[0]) - 1)
        values = per_layer(tracer, attempted, overhead, block_s, props)
        units = dict(PER_LAYER)
    else:
        values, units = e2e, END_TO_END
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}

    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "digest": phase.digest, "expected_digest": expected, "digest_ok": digest_ok,
               "fail_frac": {"value": failed / attempted, "unit": "1"},
               "samples": attempted, "completed": phase.completed,
               "calibration_ms": [1e3 * x for x in phase.reference()],
               "as_measured": as_measured, **props}
    if not args.trace:
        summary.update(metrics)
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
