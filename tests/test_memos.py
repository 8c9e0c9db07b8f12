"""The memos keep built data, never a verdict.

`models.loc_extend` and `models.el_space` keep each extension and the
element space with its module object, `models.section_localize` keeps each
localization and `sheaf.canonical` the normal form with its sheaf object,
and the stalk checks of `cube` share one cube per space through a bounded
memo.  None may change an answer: a diagram whose vertices were extended
before is judged on its edges as they are now, a sheaf whose localizations
are kept gives the diagram of one that was never localized, a normal form
computes its own normal form rather than being taken for it, a check reads
the same from a warm memo as from a cleared one, and the cube memo stays
within its bound.
"""

import copy
import gc
import random
import weakref

import pytest

import stonesheaf.models as models
from stonesheaf.adelic import all_flags
from stonesheaf.cube import _shared_cube, sheaf_cube, stalkwise_cube_check
from stonesheaf.linalg import LinMap
from stonesheaf.models import (
    CMod, DiagMod, el_space, is_cocartesian, loc_extend, mod_of_sheaf, section_localize,
    to_standard)
from stonesheaf.sheaf import CSheaf, canonical, constant, random_csheaf
from stonesheaf.space import Cone, Finite, Sum, cb_rank, iter_points, parse_space
from test_cube_golden import SPACES as CUBE_SPACES

MODEL_SPACES = ["Cone(Finite(1))", "Cone(Cone(Finite(1)))", "Cone(Sum(Finite(2),Finite(1)))"]


def _diagrams():
    for expr in MODEL_SPACES:
        space = parse_space(expr)
        yield expr, constant(space, 1)
        rng = random.Random(3)
        for _ in range(4):
            yield expr, random_csheaf(space, rng, 1, 1)


def test_warm_extensions_still_reject_a_zeroed_edge():
    zeroed = 0
    for expr, F in _diagrams():
        D = to_standard(F)
        assert is_cocartesian(D), expr
        for key, e in sorted(D.edges.items()):
            if e.is_zero():
                continue
            edges = dict(D.edges)
            edges[key] = LinMap.zero(e.source, e.target)
            # the same vertex objects, whose extensions are all kept by now
            assert not is_cocartesian(DiagMod(D.space, D.vertices, edges)), (expr, key)
            zeroed += 1
    assert zeroed > 0


def test_extensions_are_kept_per_object_not_per_value():
    M = mod_of_sheaf(constant(parse_space("Cone(Cone(Finite(1)))"), 1), (1,))
    twin = CMod(M.space, M.flag, M.payload)
    assert twin == M
    assert loc_extend(M, 0) is loc_extend(M, 0)
    assert loc_extend(twin, 0) == loc_extend(M, 0)
    assert loc_extend(twin, 0) is not loc_extend(M, 0)


def test_element_spaces_are_kept_per_object_not_per_value():
    M = mod_of_sheaf(constant(parse_space("Cone(Cone(Finite(1)))"), 1), (1,))
    assert M.payload[0] == "low"  # a space built from the parts, not one the payload holds
    twin = CMod(M.space, M.flag, M.payload)
    assert twin == M and hash(twin) == hash(M)
    assert el_space(M) is el_space(M)
    assert el_space(twin) == el_space(M)
    assert el_space(twin) is not el_space(M)


def test_kept_extensions_make_no_reference_cycle():
    M = mod_of_sheaf(constant(parse_space("Cone(Cone(Finite(1)))"), 1), (1,))
    N, _struct = loc_extend(M, 0)
    loc_extend(N, 2)
    ref = weakref.ref(M)
    gc.disable()
    try:
        del M
        assert ref() is None  # freed by reference counting alone
    finally:
        gc.enable()


def test_localizations_are_kept_per_object_not_per_value():
    T = canonical(constant(parse_space("Cone(Cone(Finite(1)))"), 1)).tail
    twin = CSheaf(T.space, T.data)
    assert twin == T and hash(twin) == hash(T)
    for flag in all_flags(cb_rank(T.space)):
        assert section_localize(T, flag) is section_localize(T, flag)
        assert section_localize(twin, flag) == section_localize(T, flag)
        assert section_localize(twin, flag) is not section_localize(T, flag)


def _subsheaves(F):
    """F and every sheaf its record holds: parts, copies and tails."""
    yield F
    if isinstance(F.space, Sum):
        for G in F.data:
            yield from _subsheaves(G)
    elif isinstance(F.space, Cone):
        for _, G in F.data[1]:
            yield from _subsheaves(G)
        yield from _subsheaves(F.tail)


def _warm(F):
    """Localize F and every sheaf it holds at every flag that fits."""
    for G in _subsheaves(F):
        for flag in all_flags(cb_rank(G.space)):
            section_localize(G, flag)


def test_to_standard_of_a_warm_sheaf_equals_a_cold_one(monkeypatch):
    warmed = 0
    for expr, F in _diagrams():
        cold = copy.deepcopy(F)  # taken before F keeps any localization
        _warm(F)
        warm_diagram = to_standard(F)
        assert to_standard(F) == warm_diagram, expr
        assert to_standard(cold) == warm_diagram, expr
        warmed += sum(len(G._localized) for G in _subsheaves(canonical(F)))
        with monkeypatch.context() as m:
            # nothing kept anywhere: every call localizes afresh
            m.setattr(models, "section_localize", models._section_localize)
            assert to_standard(cold) == warm_diagram, expr
    assert warmed > 0  # canonical(F) shares its finite sheaves with F


def test_kept_localizations_make_no_reference_cycle():
    F = random_csheaf(parse_space("Cone(Sum(Finite(2),Cone(Finite(1))))"), random.Random(5), 2, 1)
    refs = [weakref.ref(G) for G in _subsheaves(F)]
    _warm(F)
    to_standard(F)
    assert all(len(ref()._localized) > 0 for ref in refs)
    gc.disable()
    try:
        del F
        assert all(ref() is None for ref in refs)  # freed by reference counting alone
    finally:
        gc.enable()


def test_normal_forms_are_kept_per_object_not_per_value():
    F = random_csheaf(parse_space("Cone(Sum(Finite(2),Cone(Finite(1))))"), random.Random(2), 2, 2)
    twin = CSheaf(F.space, F.data)
    assert twin == F and hash(twin) == hash(F)
    assert canonical(F) is canonical(F)
    assert canonical(twin) == canonical(F)
    assert canonical(twin) is not canonical(F)
    fin = constant(Finite(2), 1)
    assert canonical(fin) is fin
    assert "_normal_form" not in vars(fin)  # a finite sheaf is its own normal form


def test_kept_normal_forms_make_no_reference_cycle():
    F = random_csheaf(parse_space("Cone(Sum(Finite(2),Cone(Finite(1))))"), random.Random(5), 2, 2)
    refs = [weakref.ref(G) for G in _subsheaves(F)]
    canonical(F)
    assert all("_normal_form" in vars(ref()) for ref in refs
               if not isinstance(ref().space, Finite))
    gc.disable()
    try:
        del F
        assert all(ref() is None for ref in refs)  # freed by reference counting alone
    finally:
        gc.enable()


def test_a_normal_form_computes_its_own():
    for expr, F in _diagrams():
        C = canonical(F)
        assert "_normal_form" not in vars(C), expr
        assert canonical(C) == C, expr
        assert canonical(C) is not C, expr


def _reports(cold: bool):
    out = []
    for expr in CUBE_SPACES:
        space = parse_space(expr)
        for x in iter_points(space, 2):
            if cold:
                _shared_cube.cache_clear()
            out.append(stalkwise_cube_check(space, x))
    return out


def test_cube_checks_read_the_same_from_a_cleared_and_a_warm_memo():
    cold = _reports(cold=True)
    assert _reports(cold=False) == cold
    assert _shared_cube.cache_info().hits > 0


def test_shared_cube_is_the_cube_of_its_space():
    for expr in CUBE_SPACES:
        space = parse_space(expr)
        shared = _shared_cube(space)
        assert {k: dict(v) for k, v in shared.items()} == sheaf_cube(space)
        with pytest.raises(TypeError):
            shared["sheaves"][()] = None
        assert sheaf_cube(space) is not sheaf_cube(space)


def test_cube_memo_stays_within_its_bound():
    bound = _shared_cube.cache_info().maxsize
    for n in range(1, bound + 6):
        _shared_cube(Finite(n))
        assert _shared_cube.cache_info().currsize <= bound
    assert _shared_cube.cache_info().currsize == bound
