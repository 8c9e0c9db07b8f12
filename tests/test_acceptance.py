"""The acceptance gate: every criterion at full scale, one test each.

Each test prints its own pass/fail line; `stonesheaf verify-all` runs the
same battery from the command line.  Tolerances are zero everywhere: the
arithmetic is exact rational arithmetic.
"""

import inspect
import json

import pytest

from stonesheaf import models, verify, weyl
from stonesheaf.adelic import CFun, _map_leaves
from stonesheaf.cli import main
from stonesheaf.verify import (CRITERIA, check_adelic_exactness, check_catalog,
                               check_degeneration, check_dimension_one,
                               check_equivariance_suite, check_reconstruction,
                               check_ring_sections, check_stalkwise_acyclicity)


def _report(name, fn, **kwargs):
    passed, details = fn(**kwargs)
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {details}")
    assert passed, details


def test_criterion_1_adelic_exactness():
    _report("adelic exactness, ranks 0-3, 200 cocycles per degree",
            check_adelic_exactness, seed=1, samples=200)


def test_criterion_2_ring_section_agreement():
    _report("sections of the ring sheaves equal the splicing rings",
            check_ring_sections, seed=2)


def test_criterion_3_stalkwise_acyclicity():
    _report("stalk degeneracy pattern and exact stalk complexes",
            check_stalkwise_acyclicity, seed=3, points_per_space=50)


def test_criterion_4_reconstruction():
    _report("reconstruction unit/counit isomorphisms, 100 per space",
            check_reconstruction, seed=4, samples=100)


def test_criterion_5_dimension_one():
    _report("dimension-one suite: pullback/completion, support, splitness, Ext",
            check_dimension_one, seed=5, samples=100)


def test_criterion_5_catches_support_detection_that_ignores_the_generic_copies(monkeypatch):
    """Criterion 5 compares support detection with the shape of the sheaf,
    not with a copy of the detector: a detector blind to the tail fails it."""
    def blind(M):
        kind = M.payload[0]
        if kind == "zero":
            return True
        if kind == "fin":
            return all(v.dim == 0 for v in M.payload[1])
        if kind == "sum":
            return blind(M.payload[1]) and blind(M.payload[2])
        _, exc, _generic, W, _iota = M.payload
        return W.dim == 0 and all(blind(m) for _, m in exc)
    monkeypatch.setattr(models, "_support_zero", blind)
    assert check_dimension_one(seed=5, samples=1) == (
        False, "support detection disagreed with vanishing")


def test_criterion_6_equivariance():
    _report("averaging (1000 stalk maps), dihedral-block witnesses, generators",
            check_equivariance_suite, seed=6, stalk_samples=1000,
            sheaf_samples=100, cocycles=100)


def non_cocycle(cx, degree, _rng):
    """The unit at the first flag of degree and zero at every other: no
    cocycle below the top degree of a space of rank at least 1."""
    z = cx.zero_cochain(degree)
    A = next(iter(z))
    return {**z, A: type(z[A]).unit(cx.space, A, cx.cs)}


def test_criterion_1_fails_on_a_sampled_cochain_that_is_not_a_cocycle(monkeypatch):
    monkeypatch.setattr(verify, "random_cocycle", non_cocycle)
    assert check_adelic_exactness(seed=1, samples=1) == (
        False, "a sampled cochain is not a cocycle on Cone(Finite(1))")


def test_criterion_6_fails_on_a_sampled_cochain_that_is_not_a_cocycle(monkeypatch):
    monkeypatch.setattr(verify, "eq_random_cocycle", non_cocycle)
    assert check_equivariance_suite(seed=6, stalk_samples=1, sheaf_samples=1, cocycles=1) == (
        False, "a sampled cochain is not a cocycle on the dihedral block Cone(Finite(1))")


def test_criterion_7_catalog():
    _report("lattice counts to 50, Weyl orders, 100 functorial chains",
            check_catalog, seed=7, chains=100)


def test_criterion_8_degeneration():
    _report("trivial-group degeneration is bit-for-bit",
            check_degeneration, seed=8, samples=25)


def test_criterion_8_and_the_cli_catch_a_degeneration_that_negates_its_leaves(
        monkeypatch, capsys):
    """Criterion 8 and `equiv --trivial-check` compare the two complexes
    through one function: an `eq_to_plain` that negates its leaves fails
    both."""
    def negated(f):
        return CFun(f.space, f.flag, _map_leaves(f.space, f.flag, f.data, lambda v: -v[0]))
    monkeypatch.setattr(weyl, "eq_to_plain", negated)
    assert check_degeneration(seed=8, samples=1) == (
        False, "differential differs on Cone(Finite(1))")
    code = main(["equiv", "--samples", "4", "--seed", "2", "--trivial-check"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["trivial_degeneration"] == "mismatch" and doc["status"] == "fail"


def test_criterion_8_and_the_cli_fail_on_a_sampled_cochain_that_is_not_a_cocycle(
        monkeypatch, capsys):
    """A scalar sample that is not a cocycle is a failed check, as in
    criteria 1 and 6, and `equiv --trivial-check` reports a mismatch."""
    monkeypatch.setattr(weyl, "random_cocycle", non_cocycle)
    assert check_degeneration(seed=8, samples=1) == (
        False, "a sampled cochain is not a cocycle on Cone(Finite(1))")
    code = main(["equiv", "--samples", "4", "--seed", "2", "--trivial-check"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["trivial_degeneration"] == "mismatch" and doc["status"] == "fail"


def test_criterion_8_catches_a_differential_that_returns_zero(monkeypatch):
    """d of a cocycle is zero on both sides, so criterion 8 compares d on
    random cochains: a differential that returns the zero cochain fails."""
    monkeypatch.setattr(weyl.EqAdelicComplex, "differential",
                        lambda self, cochain, degree: self.zero_cochain(degree + 1))
    assert check_degeneration(seed=8, samples=1) == (
        False, "differential differs on Cone(Finite(1))")


def test_criterion_8_catches_a_negated_exactness_witness(monkeypatch):
    witness = weyl.EqAdelicComplex.exactness_witness

    def negated(self, cochain, degree):
        w = witness(self, cochain, degree)
        return {A: f.scale(-1) for A, f in w.items()} if degree >= 1 else w
    monkeypatch.setattr(weyl.EqAdelicComplex, "exactness_witness", negated)
    assert check_degeneration(seed=8, samples=1) == (False, "witness differs on Cone(Finite(1))")


# every parameter of a criterion other than its seed is a count
COUNTS = {
    check_adelic_exactness: ["samples"],
    check_ring_sections: ["samples"],
    check_stalkwise_acyclicity: ["points_per_space"],
    check_reconstruction: ["samples"],
    check_dimension_one: ["samples"],
    check_equivariance_suite: ["stalk_samples", "sheaf_samples", "cocycles"],
    check_catalog: ["chains"],
    check_degeneration: ["samples"],
}


def test_the_count_table_names_every_count_of_every_criterion():
    assert list(COUNTS) == [fn for _name, fn in CRITERIA]
    for fn, names in COUNTS.items():
        assert list(inspect.signature(fn).parameters) == ["seed"] + names, fn.__name__


@pytest.mark.parametrize("fn,count", [(fn, c) for fn, names in COUNTS.items() for c in names],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
@pytest.mark.parametrize("value", [0, -3])
def test_a_count_below_one_is_an_error_not_a_pass(fn, count, value):
    with pytest.raises(ValueError, match=count):
        fn(**{count: value})
