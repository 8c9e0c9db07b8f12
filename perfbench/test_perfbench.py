"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Op, expression_pool  # noqa: E402


@pytest.fixture(scope="module")
def contexts():
    # one import for all: each load_engine() replaces the modules tracing patches
    eng = run.load_engine()
    return {name: w.setup(eng) for name, w in WORKLOADS.items()}


def first_ops(workload, ctx, seed, n=60):
    return list(itertools.islice(itertools.chain.from_iterable(
        run.schedule(workload, ctx, seed)), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(contexts, name):
    w, ctx = WORKLOADS[name], contexts[name]
    ops = first_ops(w, ctx, 1)
    assert ops == first_ops(w, ctx, 1)
    assert ops != first_ops(w, ctx, 2)


def test_adelic_distinct_never_repeats_an_expression(contexts):
    w, ctx = WORKLOADS["adelic-distinct"], contexts["adelic-distinct"]
    ops = list(itertools.chain.from_iterable(run.schedule(w, ctx, 7)))
    assert len(ops) == 5 * (len(expression_pool(3)))
    assert len({op.key for op in ops}) == len(ops)
    assert run.properties(ops)["workload.repeat_share"] == 0.0


def test_properties_count_repeats_and_ranks():
    ops = [Op(("a", 0), 1, 5), Op(("b", 0), 2, 6), Op(("a", 0), 1, 7), Op(("c",), None, 8)]
    props = run.properties(ops)
    assert props["workload.repeat_share"] == 0.25
    assert props["workload.rank1_share"] == 2 / 3
    assert props["workload.rank2_share"] == 1 / 3


def test_one_changed_output_value_changes_the_record():
    op = Op(("Cone(Finite(1))", 0), 1, 3)
    out = {"cocycle": [[[1], {"data": "1/2"}]], "witness": [[[], {"data": "1/2"}]]}
    changed = json.loads(json.dumps(out))
    changed["witness"][0][1]["data"] = "1/3"
    assert run.op_record(op, True, out) != run.op_record(op, True, changed)
    assert run.op_record(op, True, out) == run.op_record(op, True, json.loads(json.dumps(out)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digest_depends_on_every_output(contexts, name, monkeypatch):
    w, ctx = WORKLOADS[name], contexts[name]
    ops = first_ops(w, ctx, 1, n=6)
    base = run.run_rounds(w, ctx, [ops]).digest
    assert base == run.run_rounds(w, ctx, [ops]).digest
    material = w.material
    calls = []

    def perturbed(ctx, result):
        out = material(ctx, result)
        calls.append(None)
        return [out, "x"] if len(calls) == 4 else out
    monkeypatch.setattr(w, "material", perturbed)
    assert run.run_rounds(w, ctx, [ops]).digest != base


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_replay_gives_the_same_digest(contexts, name):
    w, ctx = WORKLOADS[name], contexts[name]
    ops = first_ops(w, ctx, 3, n=8)
    plain = run.run_rounds(w, ctx, [ops])
    tracer = spans.Tracer()
    with spans.traced(tracer):
        replay = run.run_rounds(w, ctx, [ops], tracer)
    assert plain.completed == replay.completed == len(ops)
    assert plain.digest == replay.digest
    assert sum(tracer.calls.values()) > 0
    assert not tracer.spans and not tracer.stack


def test_self_time_subtracts_the_union_of_child_intervals():
    spans_ = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),     # overlaps a: the children cover [1, 6]
        ("c", 2.0, 3.0, 1),     # grandchild: counts against a, not root
        ("d", 9.0, 12.0, 0),    # runs past the parent: only [9, 10] counts
        ("e", 6.5, 6.5, 0),     # empty
    ]
    assert spans.self_times(spans_) == [10 - 5 - 1, 3 - 1, 3, 1, 3, 0]


def test_end_op_folds_calls_self_time_and_scope():
    tracer = spans.Tracer()
    tracer.spans = [
        ["adelic.random_cocycle", 0.0, 5.0, None],
        ["adelic.differential", 1.0, 2.0, 0],
        ["adelic.dmap", 1.5, 1.75, 1],
        ["adelic.differential", 6.0, 7.0, None],
    ]
    tracer.end_op()
    assert tracer.calls["adelic.differential"] == 2
    assert tracer.self_s["adelic.differential"] == 1.75
    assert tracer.self_s["adelic.random_cocycle"] == 4.0
    assert tracer.in_scope == {"adelic.differential": 1, "adelic.dmap": 1}
    assert tracer.spans == []


def _namespaces():
    """Every stonesheaf module namespace and patched class dictionary."""
    out = {}
    for mod in spans.engine_modules():
        out[mod.__name__] = dict(vars(mod))
    for module, attr, _name, _measure in spans.WRAPS:
        if "." in attr:
            cls = getattr(sys.modules[f"stonesheaf.{module}"], attr.split(".")[0])
            out[cls.__qualname__] = dict(vars(cls))
    return out


def test_traced_restores_every_patched_attribute(contexts):
    eng = contexts["adelic-shared"].eng
    before = _namespaces()
    with spans.traced(spans.Tracer()):
        # bound names in other modules are wrapped too, with the same wrapper
        assert eng.space.cb_rank is eng.adelic.cb_rank
        assert eng.space.cb_rank is not before["stonesheaf.space"]["cb_rank"]
        assert eng.linalg.LinMap.then is not before["LinMap"]["then"]
        assert eng.cli.parse_space is eng.space.parse_space
        during = _namespaces()
    after = _namespaces()
    changed = {(ns, k) for ns in before for k in before[ns] if during[ns][k] is not before[ns][k]}
    assert len(changed) > len(spans.WRAPS)
    for ns, names in before.items():
        assert after[ns].keys() == names.keys()
        for k, v in names.items():
            assert after[ns][k] is v, (ns, k)


def test_metric_names_match_the_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
