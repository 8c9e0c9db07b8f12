import json
import os
import pathlib
import random
import shlex
import subprocess
import sys

import pytest

import stonesheaf.serialize as ser
import stonesheaf.verify as verify
from stonesheaf.cli import cube_report, main, o2_catalog_report
from stonesheaf.space import parse_space, ParseError, apex_point, copy_point
from stonesheaf.adelic import random_cfun
from stonesheaf.sheaf import canonical, random_csheaf
from stonesheaf.catalog import Lattice2, SubgroupLabel, line_lattice, o2_dihedral_block

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parents[1] / "README.md"


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
    ["space", "--expr", "Finite(2)", "--point", "5"],
    ["space", "--expr", "Cone(Finite(1))", "--point", "(2,1)"],
    ["sheaf", "--space", "Cone(Cone(Finite(1)))", "--resolution"],
    ["sheaf", "--space", "Finite(3)", "--resolution"],
    ["sheaf", "--space", "Cone(Finite(1))", "--const-dim", "3"],
])
def test_malformed_space_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    # a parse error gives its position; an address that parses but names no
    # point of the space is named as such; a resolution asked of a space
    # whose rank is not 1 names the rank, and a stalk dimension given without
    # a resolution names the missing flag, instead of dropping either flag
    assert ("position" in captured.err or "is not a point of" in captured.err
            or "--resolution needs a space of rank 1, not rank " in captured.err
            or "--const-dim needs --resolution" in captured.err)
    doc = json.loads(captured.out)
    assert doc == {"error": captured.err[len("error: "):].rstrip("\n"), "schema": ser.SCHEMA}


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
    doc = json.loads(captured.out)
    assert doc["schema"] == ser.SCHEMA and set(doc) == {"error", "schema"}
    assert "integer" in doc["error"]
    assert captured.err.startswith("usage: ")
    assert captured.err.rstrip("\n").splitlines()[-1].endswith(": error: " + doc["error"])


def test_sheaf_resolution_over_a_cone_on_a_sum(capsys):
    """The generic stalks of the displayed resolution are read at the
    points of the cone's base, a union here, in the base's point order."""
    for expr, dims in [("Cone(Sum(Finite(2),Finite(1)))", [2, 2, 2]), ("Cone(Finite(3))", [2, 2, 2])]:
        code, out = run_cli(capsys, ["sheaf", "--space", expr, "--resolution", "--const-dim", "2"])
        assert code == 0
        doc = json.loads(out)["injective_resolution"]
        assert doc["generic_point_stalk_dims"] == dims and doc["limit_stalk_dim"] == 2


def test_sheaf_resolution_over_a_union(capsys):
    """On a union the displayed resolution lists one entry per cone part,
    left to right; a plain cone keeps its single entry."""
    for expr, apex, generic in [
            ("Sum(Cone(Finite(1)),Finite(1))", [2], [[2]]),
            ("Sum(Finite(2),Cone(Finite(3)))", [2], [[2, 2, 2]]),
            ("Sum(Cone(Finite(2)),Sum(Finite(1),Cone(Sum(Finite(1),Finite(1)))))",
             [2, 2], [[2, 2], [2, 2]]),
            ("Cone(Finite(2))", 2, [2, 2])]:
        code, out = run_cli(capsys, ["sheaf", "--space", expr, "--resolution", "--const-dim", "2"])
        assert code == 0
        doc = json.loads(out)["injective_resolution"]
        assert doc["limit_stalk_dim"] == apex and doc["generic_point_stalk_dims"] == generic


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


def test_model_command_checks_each_diagram_once(capsys, monkeypatch):
    from stonesheaf import models
    checked = []
    check = models.is_cocartesian

    def counted(D):
        checked.append(D)
        return check(D)
    monkeypatch.setattr(models, "is_cocartesian", counted)
    code, out = run_cli(capsys, ["model", "--space", "Cone(Cone(Finite(1)))",
                                 "--roundtrips", "6", "--seed", "3"])
    assert code == 0
    assert out == ('{\n "roundtrips": 6,\n "schema": "stonesheaf/1",\n "seed": 3,\n'
                   ' "space": "Cone(Cone(Finite(1)))",\n "status": "pass"\n}\n')
    assert len(checked) == 6


EQUIV_TRIVIAL_CHECK = """{
 "block": "dihedral O(2)",
 "schema": "stonesheaf/1",
 "seed": 2,
 "status": "pass",
 "trivial_degeneration": "bit-identical",
 "witnessed_cocycles": 8
}
"""


def test_equiv_command(capsys):
    code, out = run_cli(capsys, ["equiv", "--samples", "4", "--seed", "2",
                                 "--trivial-check"])
    assert code == 0
    assert out == EQUIV_TRIVIAL_CHECK


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
    report = cube_report(parse_space("Cone(Finite(1))"))
    assert _stable(report) == (GOLDEN / "cube_rank1.json").read_text()


def test_golden_rank2_cube():
    report = cube_report(parse_space("Cone(Cone(Finite(1)))"))
    assert _stable(report) == (GOLDEN / "cube_rank2.json").read_text()


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
    """The whole `verify-all --seed 1 --fast` transcript, byte for byte;
    `tests/golden/verify_all_fast.txt` is that command's stdout
    (`PYTHONPATH=src python -m stonesheaf.cli verify-all --seed 1 --fast`)."""
    code = main(["verify-all", "--seed", "1", "--fast"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "verify_all_fast.txt").read_text()


def test_verify_all_reports_a_raising_criterion_and_runs_the_rest(capsys, monkeypatch):
    """A criterion that raises prints an `[ERROR]` line and its traceback on
    stderr, the later criteria still run, and `verify-all` exits 3; a failure
    alone still exits 1."""
    def passing(seed):
        return True, f"seed {seed}"

    def failing(seed):
        return False, "no"

    def raising(seed):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(verify, "CRITERIA", [("a", passing), ("b", raising), ("c", failing),
                                             ("d", passing)])
    assert main(["verify-all", "--seed", "4"]) == 3
    out, err = capsys.readouterr()
    assert "Traceback" in err and err.endswith("ZeroDivisionError: planted\n")
    assert out == ("[PASS] a: seed 4\n"
                   "[ERROR] b: ZeroDivisionError: planted\n"
                   "[FAIL] c: no\n"
                   "[PASS] d: seed 4\n"
                   "verify-all: ERROR\n")
    monkeypatch.setattr(verify, "CRITERIA", [("a", passing), ("c", failing)])
    assert main(["verify-all", "--seed", "4"]) == 1
    assert capsys.readouterr().out.endswith("[FAIL] c: no\nverify-all: FAIL\n")


def test_verify_all_stats_follows_the_unchanged_transcript(capsys):
    """`verify-all --stats` prints the `--fast` golden byte for byte, then
    one `[seconds] <name>: <seconds>` line per criterion, in order."""
    code = main(["verify-all", "--seed", "1", "--fast", "--stats"])
    out = capsys.readouterr().out
    golden = (GOLDEN / "verify_all_fast.txt").read_text()
    assert code == 0 and out.startswith(golden)
    lines = out[len(golden):].splitlines()
    assert [line.rsplit(": ", 1)[0] for line in lines] == [
        f"[seconds] {name}" for name, _fn in verify.CRITERIA]
    assert all(float(line.rsplit(": ", 1)[1]) >= 0 for line in lines)


def test_an_unexpected_error_exits_3_with_the_error_document(capsys, monkeypatch):
    """A command that raises something other than a parse error exits 3,
    not 1 (a failed check): the error document on stdout and the traceback
    on stderr."""
    import stonesheaf.cli as cli

    def raising(*_args, **_kwargs):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(cli, "random_cocycle", raising)
    code = main(["adelic", "--space", "Cone(Finite(1))", "--check-exactness", "--samples", "1"])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out) == {"error": "ZeroDivisionError: planted", "schema": ser.SCHEMA}
    assert "Traceback" in err and err.endswith("ZeroDivisionError: planted\n")


def test_package_runs_as_a_module():
    """`python -m stonesheaf` runs the command line from a source checkout."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "stonesheaf", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify-all" in done.stdout


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


def test_readme_cli_examples_run(capsys):
    """Every command line in the code block under the README's `## CLI`
    heading, split as a shell would, runs and exits 0."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```", 2)[1]
    examples = [words for line in block.splitlines()[1:]
                if (words := shlex.split(line, comments=True))]
    assert len(examples) == 9
    for words in examples:
        assert words[0] == "stonesheaf"
        assert main(words[1:]) == 0, words
        json.loads(capsys.readouterr().out)
