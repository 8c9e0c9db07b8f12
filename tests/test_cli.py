import json
import pathlib
import random

import pytest

import stonesheaf.serialize as ser
from stonesheaf.cli import cube_report, main, o2_catalog_report
from stonesheaf.space import parse_space, ParseError, apex_point, copy_point
from stonesheaf.adelic import random_cfun
from stonesheaf.sheaf import canonical, random_csheaf
from stonesheaf.catalog import Lattice2, SubgroupLabel, line_lattice, o2_dihedral_block

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_space_command(capsys):
    code, out = run_cli(capsys, ["space", "--expr", "Cone(Finite(1))"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 1 and doc["schema"] == ser.SCHEMA


def test_space_command_rejects_garbage(capsys):
    code = main(["space", "--expr", "Cone(Finite(1)"])
    assert code == 2


def test_adelic_command_witnesses(capsys):
    code, out = run_cli(capsys, ["adelic", "--space", "Cone(Finite(1))",
                                 "--check-exactness", "--samples", "5",
                                 "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["witnessed_cocycles"] == 10


@pytest.mark.parametrize("argv", [
    ["adelic", "--space", "Cone(", "--check-exactness"],
    ["adelic", "--space", "Finite(0)"],
    ["sheaf", "--space", "Finite(0)"],
    ["sheaf", "--space", "Cone(Finite(1)"],
    ["model", "--space", "Sum(Finite(1))"],
    ["space", "--expr", "Cone(Finite(1))", "--point", "(x,Apex)"],
])
def test_malformed_space_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "position" in captured.err


@pytest.mark.parametrize("argv", [
    ["adelic", "--space", "Cone(Finite(1))", "--check-exactness", "--samples", "-1"],
    ["adelic", "--space", "Cone(Finite(1))", "--check-exactness", "--samples", "0"],
    ["adelic", "--space", "Cone(Finite(1))", "--check-exactness", "--exc-bound", "-1"],
    ["model", "--space", "Cone(Finite(1))", "--roundtrips", "-1"],
    ["model", "--space", "Cone(Finite(1))", "--roundtrips", "0"],
    ["equiv", "--samples", "0"],
    ["equiv", "--nmax", "0"],
    ["catalog", "sublattices", "--n", "0"],
    ["catalog", "o2", "--nmax", "-3"],
    ["catalog", "t2", "--ncircles", "0"],
    ["sheaf", "--space", "Cone(Finite(1))", "--resolution", "--const-dim", "-1"],
])
def test_out_of_range_counts_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "integer" in captured.err


def test_adelic_exc_bound_zero_still_witnesses(capsys):
    code, out = run_cli(capsys, ["adelic", "--space", "Cone(Cone(Finite(1)))",
                                 "--check-exactness", "--samples", "2",
                                 "--exc-bound", "0", "--seed", "4"])
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["witnessed_cocycles"] == 6


def test_adelic_reproducible_from_seed(capsys):
    _c, out1 = run_cli(capsys, ["adelic", "--space", "Cone(Finite(1))",
                                "--check-exactness", "--samples", "4", "--seed", "3"])
    _c, out2 = run_cli(capsys, ["adelic", "--space", "Cone(Finite(1))",
                                "--check-exactness", "--samples", "4", "--seed", "3"])
    assert out1 == out2


def test_sheaf_command(capsys):
    code, out = run_cli(capsys, ["sheaf", "--space", "Cone(Finite(1))"])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_model_command(capsys):
    code, out = run_cli(capsys, ["model", "--space", "Cone(Finite(1))",
                                 "--roundtrips", "4", "--seed", "5"])
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_equiv_command(capsys):
    code, out = run_cli(capsys, ["equiv", "--samples", "4", "--seed", "2",
                                 "--trivial-check"])
    assert code == 0
    doc = json.loads(out)
    assert doc["trivial_degeneration"] == "bit-identical"


def test_catalog_commands(capsys):
    code, out = run_cli(capsys, ["catalog", "sublattices", "--n", "6"])
    assert code == 0 and json.loads(out)["count"] == 12
    code, out = run_cli(capsys, ["catalog", "o2", "--nmax", "3"])
    assert code == 0
    code, out = run_cli(capsys, ["catalog", "t2", "--ncircles", "3"])
    assert code == 0


# -- golden reports -----------------------------------------------------------

def _stable(doc):
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_golden_rank1_cube():
    assert _stable(cube_report("Cone(Finite(1))")) == (GOLDEN / "cube_rank1.json").read_text()


def test_golden_rank2_cube():
    assert _stable(cube_report("Cone(Cone(Finite(1)))")) == (GOLDEN / "cube_rank2.json").read_text()


def test_golden_o2_catalog():
    assert _stable(o2_catalog_report(6)) == (GOLDEN / "o2_catalog.json").read_text()


# -- serialization ------------------------------------------------------------

def test_cfun_round_trip():
    rng = random.Random(3)
    space = parse_space("Cone(Cone(Finite(1)))")
    for flag in [(), (0,), (1, 0), (2, 1, 0)]:
        f = random_cfun(space, flag, rng)
        doc = ser.cfun_to_json(f)
        assert ser.cfun_from_json(json.loads(ser.dumps(doc))) == f


def test_serialize_annotations_resolve():
    import inspect
    import typing
    for _name, fn in inspect.getmembers(ser, inspect.isfunction):
        if fn.__module__ == ser.__name__:
            typing.get_type_hints(fn)


def test_csheaf_round_trip():
    rng = random.Random(5)
    for expr in ["Cone(Finite(1))", "Cone(Cone(Finite(1)))"]:
        F = canonical(random_csheaf(parse_space(expr), rng, 2, 1))
        doc = ser.csheaf_to_json(F)
        assert ser.csheaf_from_json(json.loads(ser.dumps(doc))) == F


def test_structure_round_trip():
    _s, _l, cs = o2_dihedral_block(4)
    doc = ser.structure_to_json(cs)
    assert ser.structure_from_json(json.loads(ser.dumps(doc))) == cs


def test_clopen_round_trip():
    from stonesheaf.space import complement, empty_set, full_set, iter_points, join, nbhd_basis
    for expr in ["Finite(3)", "Cone(Finite(2))", "Cone(Sum(Finite(2),Cone(Finite(1))))",
                 "Sum(Cone(Cone(Finite(1))),Finite(1))"]:
        s = parse_space(expr)
        sets = [empty_set(s), full_set(s)]
        for p in iter_points(s, 2):
            u = nbhd_basis(s, p, 1)
            sets += [u, complement(s, u), join(s, u, complement(s, sets[-1]))]
        for u in sets:
            assert ser.clopen_from_json(json.loads(ser.dumps(ser.clopen_to_json(u)))) == u


def test_lattice_and_label_round_trip():
    L = Lattice2("full", a=3, b=2, d=4)
    assert ser.lattice_from_json(ser.lattice_to_json(L)) == L
    S = SubgroupLabel("circle", line_lattice(2, 4))
    assert ser.label_from_json(ser.label_to_json(S)) == S


def test_point_round_trip():
    p = copy_point(3, apex_point(), label="S")
    q = ser.point_from_json(ser.point_to_json(p))
    assert q == p and q.label == "S"


def test_truncated_document_reports_position():
    with pytest.raises(ser.SerializeError) as err:
        ser.loads_document('{"schema": "stonesheaf/1", "data": [1, 2')
    assert "position" in str(err.value)


def test_space_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_space("Sum(Finite(2)")
    assert err.value.pos == 13


def test_malformed_sheaf_reports_path():
    with pytest.raises(ser.SerializeError) as err:
        ser.csheaf_from_json({"space": "Cone(Finite(1))", "data": {"exc": []}})
    assert "$" in str(err.value)


def test_verify_all_fast(capsys):
    code = main(["verify-all", "--seed", "1", "--fast"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 8


def test_space_point_flag(capsys):
    code, out = run_cli(capsys, ["space", "--expr", "Cone(Cone(Finite(1)))",
                                 "--point", "(3,Apex)"])
    assert code == 0
    assert json.loads(out)["point"]["height"] == 1
    assert main(["space", "--expr", "Cone(Finite(1))", "--point", "(3,0"]) == 2


def test_sheafmap_round_trip():
    from stonesheaf.homalg import random_hom
    from stonesheaf.sheaf import stalk_map
    from stonesheaf.space import apex_point
    rng = random.Random(7)
    F = random_csheaf(parse_space("Cone(Finite(1))"), rng, 2, 1)
    G = random_csheaf(parse_space("Cone(Finite(1))"), rng, 2, 1)
    h = random_hom(F, G, rng)
    doc = json.loads(ser.dumps(ser.sheafmap_to_json(h)))
    h2 = ser.sheafmap_from_json(doc)
    assert stalk_map(h2, apex_point()) == stalk_map(h, apex_point())


def test_ses_round_trip():
    from stonesheaf.homalg import split_ses
    rng = random.Random(9)
    A = random_csheaf(parse_space("Cone(Finite(1))"), rng, 1, 1)
    B = random_csheaf(parse_space("Cone(Finite(1))"), rng, 1, 1)
    s = split_ses(A, B)
    doc = json.loads(ser.dumps(ser.ses_to_json(s)))
    s2 = ser.ses_from_json(doc)
    assert s2.mid == s.mid


def test_equivariant_round_trip():
    from stonesheaf.weyl import group_ring_sheaf
    _s, _l, cs = o2_dihedral_block(3)
    E = group_ring_sheaf(cs)
    doc = json.loads(ser.dumps(ser.equiv_to_json(E)))
    E2 = ser.equiv_from_json(doc)
    assert E2.sheaf == E.sheaf and E2.reps == E.reps


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("STONESHEAF_SEED", "9")
    _c, out1 = run_cli(capsys, ["adelic", "--space", "Cone(Finite(1))",
                                "--check-exactness", "--samples", "3"])
    _c, out2 = run_cli(capsys, ["adelic", "--space", "Cone(Finite(1))",
                                "--check-exactness", "--samples", "3", "--seed", "9"])
    assert out1 == out2


def test_section_round_trip():
    from stonesheaf.sheaf import random_section, sec_canonical
    rng = random.Random(11)
    F = random_csheaf(parse_space("Cone(Finite(2))"), rng, 2, 1)
    s = random_section(F, rng)
    doc = json.loads(ser.dumps(ser.section_to_json(s)))
    assert ser.section_from_json(doc) == s


def test_eqcfun_round_trip():
    from stonesheaf.weyl import eq_random_cocycle, equivariant_adelic
    _s, _l, cs = o2_dihedral_block(3)
    cx = equivariant_adelic(parse_space("Cone(Finite(1))"), cs)
    z = eq_random_cocycle(cx, 0, random.Random(13))
    for A, f in z.items():
        doc = json.loads(ser.dumps(ser.eqcfun_to_json(f)))
        assert ser.eqcfun_from_json(doc) == f


def test_diagram_round_trip():
    from stonesheaf.models import to_standard, is_cocartesian
    from stonesheaf.sheaf import constant
    D = to_standard(constant(parse_space("Cone(Finite(1))"), 1))
    doc = json.loads(ser.dumps(ser.diagmod_to_json(D)))
    D2 = ser.diagmod_from_json(doc)
    assert D2.vertices == D.vertices and D2.edges == D.edges
    assert is_cocartesian(D2)
