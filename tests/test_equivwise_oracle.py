"""The equivariant-data walks of `weyl` against references that each walk
the sheaf, component structure and `reps` trees their own way.

The references below are the recursions that once lived in `weyl`, one per
job: the point lookup of an action, the validity check of `make_equiv`, the
stalk actions of `trivial_equiv` and `group_ring_sheaf`, the apex check of
`check_germ_equivariance`, the averaging of `average`, and the section
action that `random_equiv_sheaf` averages germs against.  Equivariance of
maps is referenced by the old probe: every point with copy indices up to
one past the largest copy a map lists, at every level.

The public functions must agree with them on the trivial structure, the
dihedral block `o2_dihedral_block(6)`, constant C2 on `Cone(Finite(2))`,
constant C3 on `Sum(Cone(Finite(1)),Finite(2))` and the rank-1 tail of
`t2_block()`: on seeded `random_equiv_sheaf` draws over each (as drawn,
with a sign-twisted apex action and with a broken action), on random
`homalg.random_hom` maps between two draws and their averages, and on the
generator maps.  The group-ring sheaves of these structures, of the whole
`t2_block()` and of a structure with an exceptional copy are compared too.
None of these stores an action at a copy the structure makes exceptional
without storing the copy's structure, so the references and the walk agree
on them.
"""

import random

import pytest

from stonesheaf import weyl
from stonesheaf.catalog import o2_dihedral_block, t2_block
from stonesheaf.homalg import random_hom
from stonesheaf.linalg import LinMap
from stonesheaf.sheaf import (
    Section, germ_section, identity_map, make_cone_map, make_fin_map, make_sum_map, sec_eval,
    sec_from_coords, sec_space, sec_to_coords, stalk_map)
from stonesheaf.space import (
    Cone, Finite, Sum, copy_point, iter_points, parse_space)
from stonesheaf.weyl import (
    EquivCSheaf, GroupError, cone_structure, constant_structure, cyclic_group,
    direct_product, generator_epi, group_ring_sheaf, make_equiv, random_equiv_sheaf,
    trivial_equiv, trivial_group, trivial_hom, trivial_structure)
from test_level_oracle import chain_to_top


# ---------------------------------------------------------------------------
# references: one recursion per job, each choosing a copy's parts itself


def ref_rep_addr(sheaf, cs, reps, addr):
    if reps[0] == "fin":
        return list(reps[1][addr[1]])
    if reps[0] == "sum":
        i = 0 if addr[0] == "L" else 1
        return ref_rep_addr(sheaf.data[i], cs.data[1 + i], reps[1 + i], addr[1])
    _, excitems, tail_reps, apex_rep = reps
    if addr[0] == "apex":
        return list(apex_rep)
    k = addr[1]
    exc_cs, tail_cs, _g, _u = cs.cone_parts()
    return ref_rep_addr(sheaf.copy_sheaf(k), exc_cs.get(k, tail_cs),
                        dict(excitems).get(k, tail_reps), addr[2])


def ref_reps_valid(sheaf, cs, reps) -> bool:
    if reps[0] == "fin":
        return all(weyl._is_rep(cs.data[1][i], mats, sheaf.data[i])
                   for i, mats in enumerate(reps[1]))
    if reps[0] == "sum":
        return (ref_reps_valid(sheaf.data[0], cs.data[1], reps[1]) and
                ref_reps_valid(sheaf.data[1], cs.data[2], reps[2]))
    _, excitems, tail_reps, apex_rep = reps
    exc_cs, tail_cs, apex_group, _up = cs.cone_parts()
    if not weyl._is_rep(apex_group, apex_rep, sheaf.apex):
        return False
    for k, sub in excitems:
        if not ref_reps_valid(sheaf.copy_sheaf(k), exc_cs.get(k, tail_cs), sub):
            return False
    return ref_reps_valid(sheaf.tail, tail_cs, tail_reps)


def ref_stalk_reps(sheaf, cs, rep):
    if isinstance(sheaf.space, Finite):
        return ("fin", tuple(rep(G, V) for G, V in zip(cs.data[1], sheaf.data, strict=True)))
    if isinstance(sheaf.space, Sum):
        return ("sum", ref_stalk_reps(sheaf.data[0], cs.data[1], rep),
                ref_stalk_reps(sheaf.data[1], cs.data[2], rep))
    exc_cs, tail_cs, apex_group, _up = cs.cone_parts()
    exc = tuple((k, ref_stalk_reps(G, exc_cs.get(k, tail_cs), rep)) for k, G in sheaf.data[1])
    return ("cone", exc, ref_stalk_reps(sheaf.tail, tail_cs, rep), rep(apex_group, sheaf.apex))


def ref_germ_eq(sheaf, cs, reps) -> bool:
    if isinstance(sheaf.space, Finite):
        return True
    if isinstance(sheaf.space, Sum):
        return (ref_germ_eq(sheaf.data[0], cs.data[1], reps[1]) and
                ref_germ_eq(sheaf.data[1], cs.data[2], reps[2]))
    exc_cs, tail_cs, apex_group, _up = cs.cone_parts()
    _, excreps, tail_reps, apex_rep = reps
    k = max([kk for kk, _ in sheaf.data[1]] + [-1]) + 1
    for y in iter_points(sheaf.space.base, 1):
        hom = chain_to_top(cs, copy_point(k, y).addr)
        rep_y = ref_rep_addr(sheaf.tail, tail_cs, tail_reps, y.addr)
        for i in range(sheaf.apex.dim):
            a = sheaf.apex.basis_vec(i)
            val = sec_eval(sheaf.tail, germ_section(sheaf, a), y)
            for g in range(apex_group.order):
                lhs = sec_eval(sheaf.tail, germ_section(sheaf, apex_rep[g].apply(a)), y)
                pre = [h for h in hom.source.elements() if hom(h) == g]
                if any(rep_y[h].apply(val) != lhs for h in pre):
                    return False
    for k, sub in excreps:
        if not ref_germ_eq(sheaf.copy_sheaf(k), exc_cs.get(k, tail_cs), sub):
            return False
    return ref_germ_eq(sheaf.tail, tail_cs, tail_reps)


def ref_probe_bound(f) -> int:
    keys = [0]

    def visit(g):
        if isinstance(g.source.space, Cone):
            keys.extend(k for k, _ in g.data[1])
            visit(g.tail_map)
            for _, m in g.data[1]:
                visit(m)
        elif isinstance(g.source.space, Sum):
            visit(g.data[0])
            visit(g.data[1])
    visit(f)
    return max(keys) + 2


def ref_check_equivariance(f, src, tgt) -> bool:
    for x in iter_points(f.source.space, ref_probe_bound(f)):
        m = stalk_map(f, x)
        rs = ref_rep_addr(src.sheaf, src.cs, src.reps, x.addr)
        rt = ref_rep_addr(tgt.sheaf, tgt.cs, tgt.reps, x.addr)
        if any(rs[g].then(m) != m.then(rt[g]) for g in range(len(rs))):
            return False
    return True


def ref_average(f, cs, reps_s, reps_t):
    F, G = f.source, f.target
    if isinstance(F.space, Finite):
        return make_fin_map(F, G, [
            weyl.average_stalk(cs.data[1][i], reps_s[1][i], reps_t[1][i], f.data[i])
            for i in range(F.space.n)])
    if isinstance(F.space, Sum):
        return make_sum_map(F, G, ref_average(f.data[0], cs.data[1], reps_s[1], reps_t[1]),
                                 ref_average(f.data[1], cs.data[2], reps_s[2], reps_t[2]))
    exc_cs, tail_cs, apex_group, _up = cs.cone_parts()
    _, exc_s, tail_s, apex_s = reps_s
    _, exc_t, tail_t, apex_t = reps_t
    keys = set(F.stored_keys()) | set(G.stored_keys()) | set(dict(f.data[1]))
    exc = {k: ref_average(f.copy_map(k), exc_cs.get(k, tail_cs), dict(exc_s).get(k, tail_s),
                          dict(exc_t).get(k, tail_t))
           for k in keys}
    tailm = ref_average(f.tail_map, tail_cs, tail_s, tail_t)
    apexm = weyl.average_stalk(apex_group, apex_s, apex_t, f.apex_map)
    return make_cone_map(F, G, exc, tailm, apexm, check=False)


def ref_act(sheaf, reps, g, data):
    if isinstance(sheaf.space, Finite):
        return tuple(reps[1][i][g].apply(data[i]) for i in range(sheaf.space.n))
    if isinstance(sheaf.space, Sum):
        return (ref_act(sheaf.data[0], reps[1], g, data[0]),
                ref_act(sheaf.data[1], reps[2], g, data[1]))
    raise ValueError("section actions are used on rank-0 bases only")


def ref_section_action(E, g) -> LinMap:
    S = sec_space(E.sheaf)
    cols = [sec_to_coords(E.sheaf, Section(E.sheaf, ref_act(
                E.sheaf, E.reps, g, sec_from_coords(E.sheaf, S.basis_vec(i)).data)))
            for i in range(S.dim)]
    return LinMap.from_cols(S, S, cols)


# ---------------------------------------------------------------------------
# inputs


C2, C3 = cyclic_group(2), cyclic_group(3)


def _k4_copy():
    X1 = Cone(Finite(1))
    return cone_structure(X1, {0: constant_structure(Finite(1), direct_product(C2, C2))},
                          constant_structure(Finite(1), C2), trivial_group(),
                          trivial_hom(C2, trivial_group()))


STRUCTURES = {
    "trivial": lambda: trivial_structure(parse_space("Cone(Finite(2))")),
    "o2_dihedral_block(6)": lambda: o2_dihedral_block(6)[2],
    "C2 on Cone(Finite(2))": lambda: constant_structure(parse_space("Cone(Finite(2))"), C2),
    "C3 on Sum(Cone(Finite(1)),Finite(2))":
        lambda: constant_structure(parse_space("Sum(Cone(Finite(1)),Finite(2))"), C3),
    "t2_block() tail": lambda: t2_block()[2].data[2],
}
RING_ONLY = {"t2_block()": lambda: t2_block()[2], "K4 at copy 0": _k4_copy}


def _edit_apexes(reps, cs, edit):
    """`reps` with `edit(group, matrices)` applied at every top-level apex."""
    if reps[0] == "fin":
        return reps
    if reps[0] == "sum":
        return ("sum", _edit_apexes(reps[1], cs.data[1], edit),
                _edit_apexes(reps[2], cs.data[2], edit))
    return ("cone", reps[1], reps[2], edit(cs.data[3], reps[3]))


def _edit_stalks(reps, cs, edit):
    """`reps` with `edit(group, matrices)` applied at every finite stalk of a tail."""
    if reps[0] == "fin":
        return ("fin", tuple(edit(G, mats) for G, mats in zip(cs.data[1], reps[1])))
    if reps[0] == "sum":
        return ("sum", _edit_stalks(reps[1], cs.data[1], edit),
                _edit_stalks(reps[2], cs.data[2], edit))
    return ("cone", reps[1], _edit_stalks(reps[2], cs.data[2], edit), reps[3])


def _sign_twist(G, mats):
    chars = [c for c in G.sign_characters if -1 in c]
    return tuple(m.scale(chars[0][g]) for g, m in enumerate(mats)) if chars else mats


def _break(G, mats):
    if G.order == 1 or mats[0].source.dim == 0:
        return mats
    return mats[:-1] + (mats[-1].scale(2),)


def _draws(name, n, seed):
    cs = STRUCTURES[name]()
    rng = random.Random(seed)
    return cs, [random_equiv_sheaf(cs.space, cs, rng, 2) for _ in range(n)]


def _accepts(sheaf, cs, reps) -> bool:
    try:
        make_equiv(sheaf, cs, reps)
    except GroupError:
        return False
    return True


# ---------------------------------------------------------------------------
# comparisons


@pytest.mark.parametrize("name", sorted(STRUCTURES) + sorted(RING_ONLY))
def test_group_ring_sheaf_matches_the_references(name):
    cs = {**STRUCTURES, **RING_ONLY}[name]()
    E = group_ring_sheaf(cs)
    regular = ref_stalk_reps(E.sheaf, cs, lambda G, _V: tuple(weyl.regular_rep(G)))
    assert repr(E.reps) == repr(regular)
    assert ref_reps_valid(E.sheaf, cs, E.reps)
    assert weyl.check_germ_equivariance(E) == ref_germ_eq(E.sheaf, cs, E.reps) is True
    ident = identity_map(E.sheaf)
    assert weyl.check_equivariance(ident, E, E) == ref_check_equivariance(ident, E, E) is True


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_actions_and_their_checks_match_the_references(name):
    cs, draws = _draws(name, 6, 23)
    verdicts = []
    for E in draws:
        trivial = ref_stalk_reps(E.sheaf, cs, lambda G, V: tuple(
            LinMap.identity(V) for _ in range(G.order)))
        assert repr(trivial_equiv(E.sheaf, cs).reps) == repr(trivial)
        for reps in (E.reps, _edit_apexes(E.reps, cs, _sign_twist),
                     _edit_stalks(E.reps, cs, _break), _edit_apexes(E.reps, cs, _break)):
            valid = ref_reps_valid(E.sheaf, cs, reps)
            assert _accepts(E.sheaf, cs, reps) == valid
            verdicts.append(valid)
            if valid:
                got = weyl.check_germ_equivariance(EquivCSheaf(E.sheaf, cs, reps))
                assert got == ref_germ_eq(E.sheaf, cs, reps)
                verdicts.append(got)
    assert True in verdicts
    if name != "trivial":
        assert False in verdicts


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_maps_and_averages_match_the_references(name):
    cs, draws = _draws(name, 6, 29)
    rng = random.Random(31)
    ring = group_ring_sheaf(cs)
    verdicts = []
    for E1, E2 in zip(draws, draws[1:]):
        f = random_hom(E1.sheaf, E2.sheaf, rng)
        got = weyl.check_equivariance(f, E1, E2)
        assert got == ref_check_equivariance(f, E1, E2)
        verdicts.append(got)
        avg = weyl.average(f, E1, E2)
        assert repr(avg) == repr(ref_average(f, cs, E1.reps, E2.reps))
        assert weyl.check_equivariance(avg, E1, E2) == ref_check_equivariance(avg, E1, E2) is True
        for g in generator_epi(E2):
            assert weyl.check_equivariance(g, ring, E2) == ref_check_equivariance(g, ring, E2)
    # C3 has no sign character, so its draws act mostly trivially
    if name not in ("trivial", "C3 on Sum(Cone(Finite(1)),Finite(2))"):
        assert False in verdicts


def _rank0_tails(sheaf, cs, reps):
    """The (sheaf, structure, reps) of every top-level cone's tail."""
    if reps[0] == "fin":
        return []
    if reps[0] == "sum":
        return (_rank0_tails(sheaf.data[0], cs.data[1], reps[1]) +
                _rank0_tails(sheaf.data[1], cs.data[2], reps[2]))
    return [EquivCSheaf(sheaf.tail, cs.data[2], reps[2])]


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_section_action_matches_the_reference(name):
    cs, draws = _draws(name, 6, 37)
    for E in draws:
        for tail in _rank0_tails(E.sheaf, cs, E.reps):
            for g in weyl.top_group(tail.cs).elements():
                assert repr(weyl._section_action(tail, g)) == repr(ref_section_action(tail, g))
