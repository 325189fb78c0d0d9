from fractions import Fraction
import json
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import pytest

from hopfcyclic.scenario import (
    DimensionMismatch, ParseError, ReferenceError, ReportDocument, emit,
    parse_scenario, parse_scenario_text, run,
)
from hopfcyclic.cli import main
from hopfcyclic.exactlin import FieldSpec, LinMap, QQ, Space, solve
from hopfcyclic.scenario import _jsonable

HERE = os.path.dirname(__file__)
SCEN = os.path.join(HERE, "..", "src", "hopfcyclic", "scenarios")
GOLD = os.path.join(HERE, "golden")


def _scen(name):
    return os.path.join(SCEN, name + ".json")


def test_parse_trivial():
    doc = parse_scenario(_scen("trivial"))
    assert doc.field_name == "Q"
    assert len([c for c, _ in doc.objects.values()
                if c == "hopf_algebroids"]) == 1
    assert len(doc.tasks) == 2


def test_parse_pair():
    doc = parse_scenario(_scen("pair_e2"))
    assert sorted(doc.objects) == ["A", "H", "m"]
    assert sorted(doc.elements) == ["g", "x"]
    assert len(doc.tasks) == 5


def test_dangling_reference_named():
    text = json.dumps({"field": "Q",
                       "tasks": [{"kind": "validate", "object": "nope"}]})
    with pytest.raises(ReferenceError) as ei:
        parse_scenario_text(text)
    assert "nope" in str(ei.value)


def test_element_dimension_mismatch():
    with open(_scen("pair_e2")) as fh:
        data = json.load(fh)
    data["elements"]["x"] = ["0", "1", "0"]
    with pytest.raises(DimensionMismatch):
        parse_scenario_text(json.dumps(data))


def test_bad_field_and_bad_json():
    with pytest.raises(ParseError):
        parse_scenario_text("{not json")
    with pytest.raises(ParseError):
        parse_scenario_text(json.dumps({"field": "R"}))


def test_duplicate_name_rejected():
    text = json.dumps({
        "field": "Q",
        "algebras": {"H": {"preset": "scalar"}},
        "hopf_algebroids": {"H": {"preset": "trivial"}},
    })
    with pytest.raises(ParseError):
        parse_scenario_text(text)


def test_run_trivial_homology():
    doc = parse_scenario(_scen("trivial"))
    rep = run(doc)
    assert rep.ok
    hc = rep.tasks[1]
    assert hc["theory"] == "HC"
    assert [r["dim"] for r in hc["table"]] == [1, 0, 1, 0]


def test_run_pair_all_pass():
    doc = parse_scenario(_scen("pair_e2"))
    rep = run(doc)
    assert rep.ok, [t for t in rep.tasks if t["status"] != "pass"]
    assert [t["status"] for t in rep.tasks] == ["pass"] * 5


def test_char5_error_recorded_others_run():
    doc = parse_scenario(_scen("trivial"), field_override="F5")
    rep = run(doc)
    statuses = {t["kind"]: t["status"] for t in rep.tasks}
    assert statuses["validate"] == "pass"
    hc = [t for t in rep.tasks if t["kind"] == "homology"][0]
    assert hc["status"] == "error"
    assert hc["error"] == "CharNotZero"
    assert not rep.ok


def test_emit_empty_report():
    assert emit(ReportDocument()) == '{"version":1,"tasks":[]}'


def test_scenario_round_trip():
    for name in ("trivial", "pair_e2"):
        doc = parse_scenario(_scen(name))
        doc2 = parse_scenario_text(doc.to_json(), name=doc.name)
        assert doc2.data == doc.data
        assert emit(run(doc2)) == emit(run(doc))


def test_reports_match_goldens():
    # pair_e2_broken pins a failing report: its measuring is not one;
    # pair_e2_coeff pins the maps of comodule measurings; yd_c2 pins the
    # checks of a Yetter-Drinfeld operad and comp module
    for path in (_scen("trivial"), _scen("pair_e2"),
                 os.path.join(HERE, "scenarios", "pair_e2_broken.json"),
                 os.path.join(HERE, "scenarios", "pair_e2_coeff.json"),
                 os.path.join(HERE, "scenarios", "yd_c2.json")):
        name = os.path.basename(path)[:-len(".json")]
        doc = parse_scenario(path)
        out = emit(run(doc)) + "\n"
        with open(os.path.join(GOLD, name + ".report.json")) as fh:
            assert out == fh.read(), name


def test_validate_runs_the_bialgebroid_checks_once(monkeypatch):
    """A hopf_algebroids validate reports the bialgebroid checks twice,
    bare and under hopf:, and computes them once."""
    import hopfcyclic.hopfalgebroid as hopfalgebroid
    import hopfcyclic.scenario as scenario
    calls = []
    checker = hopfalgebroid.check_left_bialgebroid

    def counted(h):
        calls.append(h)
        return checker(h)

    monkeypatch.setattr(hopfalgebroid, "check_left_bialgebroid", counted)
    monkeypatch.setattr(scenario, "check_left_bialgebroid", counted)
    doc = parse_scenario(_scen("pair_e2"))
    rec = run(doc, kinds=("validate",)).tasks[0]
    assert len(calls) == 1
    names = [c["name"] for c in rec["checks"]]
    bare = [n for n in names if ":" not in n]
    assert bare == [r.name for r in checker(calls[0]).results]
    assert [n for n in names if n.startswith("hopf:")][:len(bare)] == \
        ["hopf:" + n for n in bare]


def test_deterministic_across_runs():
    a = emit(run(parse_scenario(_scen("pair_e2"))))
    b = emit(run(parse_scenario(_scen("pair_e2"))))
    assert a == b


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["report", _scen("pair_e2")]) == 0
    capsys.readouterr()
    assert main(["homology", _scen("trivial"), "--field", "F5"]) == 1
    capsys.readouterr()
    assert main(["report", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "Q", "tasks": [{"kind": "validate", '
                   '"object": "ghost"}]}')
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "ghost" in err


def test_cli_output_file_and_text(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["report", _scen("trivial"), "-o", str(out)]) == 0
    with open(os.path.join(GOLD, "trivial.report.json")) as fh:
        assert out.read_text() == fh.read()
    assert main(["validate", _scen("trivial"), "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "total: 1 passed, 0 failed, 0 errors" in text


def test_verbs_filter_tasks():
    doc = parse_scenario(_scen("pair_e2"))
    rep = run(doc, kinds=("induced", "hopf_galois"))
    assert [t["kind"] for t in rep.tasks] == \
        ["induced", "hopf_galois", "hopf_galois"]


def test_explicit_scalar_tuple_and_string_forms():
    base = {
        "field": "Q",
        "algebras": {"A": {"dim": 2, "unit": ["1", "0"],
                           "mul": [[0, 0, 0, "1"], [0, 1, 1, "1/1"],
                                   [1, 0, 1, 1, 1]]}},
        "hopf_algebroids": {"H": {"pair_of": "A"}},
        "tasks": [{"kind": "validate", "object": "H"}],
    }
    rep = run(parse_scenario_text(json.dumps(base)))
    assert rep.ok


def _task_degree(v):
    return {"hopf_algebroids": {"H": {"preset": "trivial"}},
            "tasks": [{"kind": "homology", "object": "H", "max_degree": v}]}


def _operad_arity(v, preset="one_dimensional"):
    return {"hopf_algebroids": {"H": {"preset": "group_c2"}},
            "yd_algebras": {"Z": {"hopf": "H", "preset": "scalar"}},
            "operads": {"O": {"preset": preset, "hopf": "H",
                              "yd_algebra": "Z", "max_arity": v}}}


def _comp_degree(v):
    return {"operads": {"O": {"preset": "one_dimensional"}},
            "comp_modules": {"L": {"preset": "one_dimensional",
                                   "operad": "O", "max_degree": v}}}


def _homology_task(**opts):
    return {"hopf_algebroids": {"H": {"preset": "trivial"}},
            "tasks": [dict({"kind": "homology", "object": "H"}, **opts)]}


def _pair_e2(edit):
    """pair_e2 as edit(doc) leaves it."""
    with open(_scen("pair_e2")) as fh:
        doc = json.load(fh)
    edit(doc)
    return doc


def _induced_task(variant):
    return _pair_e2(lambda doc: doc.update(tasks=[
        {"kind": "induced", "object": "m", "element": "x",
         "variant": variant, "max_degree": 1}]))


def _with_mul(rows):
    return _pair_e2(lambda doc: doc["algebras"]["A"].update(mul=rows))


def _with_unit(unit):
    return _pair_e2(lambda doc: doc["algebras"]["A"].update(unit=unit))


def _with_derivation(rows):
    return _pair_e2(
        lambda doc: doc["measurings"]["m"].update(derivation=rows))


def _with_task(i, **changes):
    return _pair_e2(lambda doc: doc["tasks"][i].update(changes))


def _unknown_preset(category, **sections):
    """A definition of `category` with an unknown preset, after the
    definitions in `sections` over the trivial algebroid H."""
    doc = {"hopf_algebroids": {"H": {"preset": "trivial"}}}
    doc.update(sections)
    doc.setdefault(category, {}).setdefault("X", {}).update(preset="nope",
                                                            hopf="H")
    return doc


_ROW = "must be 3 integer indices and a scalar or an integer " \
    "numerator/denominator pair"


def _case(tag, doc, named):
    """A malformed-input case with the explicit id `tag-named`, so that
    inserting a case renames no other.  The first cases keep as tags the
    docN of the positional ids they were first collected under; a new
    case takes a tag of its own, naming what it breaks."""
    return pytest.param(doc, named, id="%s-%s" % (tag, named))


@pytest.mark.parametrize("doc, named", [
    _case("doc0", _task_degree("x"), "max_degree in task 0"),
    _case("doc1", _task_degree(-3), "max_degree in task 0"),
    _case("doc2", _task_degree(True), "max_degree in task 0"),
    _case("doc3", _task_degree(2.0), "max_degree in task 0"),
    _case("doc4", _operad_arity("x"), "max_arity of operad 'O'"),
    _case("doc5", _operad_arity(-3), "max_arity of operad 'O'"),
    _case("doc6", _operad_arity(True), "max_arity of operad 'O'"),
    _case("doc7", _operad_arity(1, "yd"), "max_arity of operad 'O'"),
    _case("doc8", _comp_degree("x"), "max_degree of comp_module 'L'"),
    _case("doc9", _comp_degree(-3), "max_degree of comp_module 'L'"),
    _case("doc10", _comp_degree(True), "max_degree of comp_module 'L'"),
    _case("doc11", {"algebras": [1, 2]}, "algebras must be a JSON object"),
    _case("doc12", {"operads": "O"}, "operads must be a JSON object"),
    _case("doc13",
          {"algebras": {"A": [1]}}, "algebras 'A' must be a JSON object"),
    _case("doc14", {"elements": [1]}, "elements must be a JSON object"),
    _case("doc15", {"algebras": {"A": {"preset": "group", "order": "x"}}},
          "order of algebra 'A'"),
    _case("doc16", {"lie_rinehart": {"L": {"preset": "abelian", "dim": -1}}},
          "dim of lie_rinehart 'L'"),
    _case("doc17", {"field": "F4"}, "not a prime field: 'F4'"),
    _case("doc18", {"field": "F1"}, "not a prime field: 'F1'"),
    _case("doc19", {"field": "F0"}, "not a prime field: 'F0'"),
    _case("doc20", {"field": "F²"}, "not a prime field: 'F²'"),
    _case("doc21", {"operads": {"O": {"preset": "one_dimensional"}},
           "comp_modules": {"L": {"preset": "one_dimensional", "operad": "O"}},
           "tasks": [{"kind": "homology", "object": "L"}]},
          "homology task on 'L' in task 0: it is a comp_modules"),
    _case("doc22", {"hopf_algebroids": {"H": {"preset": "trivial"}},
           "elements": {"x": ["1"]},
           "tasks": [{"kind": "induced", "object": "H", "element": "x"}]},
          "induced task on 'H' in task 0: it is a hopf_algebroids"),
    _case("doc23", {"hopf_algebroids": {"H": {"preset": "trivial"}},
           "tasks": [{"kind": "measure", "object": "H"}]},
          "measure task on 'H' in task 0: it is a hopf_algebroids"),
    _case("doc24", _homology_task(variant="sideways"),
          "variant in task 0 must be one of cyclic/cocyclic, got 'sideways'"),
    _case("doc25", _induced_task("sideways"),
          "variant in task 0 must be one of cyclic/cocyclic, got 'sideways'"),
    _case("doc26", _induced_task(None), "variant in task 0"),
    _case("doc27", _homology_task(theory="XX"),
          "theory in task 0 must be one of HH/HC, got 'XX'"),
    _case("doc28", _homology_task(theory="hh"), "theory in task 0"),
    _case("doc29", _homology_task(theory="HH", normalized="yes"),
          "normalized in task 0 must be true or false, got 'yes'"),
    _case("doc30", _homology_task(theory="HH", normalized=1),
          "normalized in task 0 must be true or false, got 1"),
    _case("doc31",
          _homology_task(theory="HH", variant="cocyclic", normalized=True),
          "normalized in task 0 needs a homology task with theory HH"),
    _case("doc32", _homology_task(normalized=True),
          "normalized in task 0 needs a homology task with theory HH"),
    _case("doc33", [1], "scenario must be a JSON object"),
    _case("doc34",
          _with_mul([[0, 0, 1]]), "a row of mul in algebra A " + _ROW),
    _case("doc35",
          _with_mul([[0, "a", 0, 1]]), "a row of mul in algebra A " + _ROW),
    _case("doc36", _with_mul([5]), "got 5"),
    _case("doc37", _with_mul(5), "mul in algebra A must be a list of rows"),
    _case("doc38", _with_mul([[True, 1, 0, 1, 1]]), "got [True, 1, 0, 1, 1]"),
    _case("doc39",
          _with_mul([[0, 0, 0, 1, 1, 1]]), "a row of mul in algebra A"),
    _case("doc40",
          _with_mul([[0, 0, 0, "1", 2]]), "bad scalar ['1', 2] in algebra A"),
    _case("doc41",
          _with_mul([[0, 0, 0, 1, 0]]), "bad scalar [1, 0] in algebra A"),
    _case("doc42", _with_mul([[0, 0, 0, 1.5]]), "bad scalar 1.5 in algebra A"),
    _case("doc43",
          _with_mul([[0, 0, 2, 1]]), "mul index out of range in algebra A"),
    _case("doc44",
          _with_mul([[0, -1, 0, 1]]), "mul index out of range in algebra A"),
    _case("doc45", _with_unit([True, False]), "bad scalar True in algebra A"),
    _case("doc46", _with_unit(["1/0", "0"]), "bad scalar '1/0' in algebra A"),
    _case("doc47", _with_unit(["1"]), "unit of A must have 2 coordinates"),
    _case("doc48", _with_derivation([[1, 1]]),
          "a row of derivation in measuring m must be 2 integer indices"),
    _case("doc49", _with_derivation([[1, 2, 1]]),
          "derivation index out of range in measuring m"),
    _case("doc50",
          _with_derivation({}), "derivation in measuring m must be a list"),
    _case("doc51", {"algebras": {"A": {"unit": ["1"]}}},
          "dim of algebra 'A' must be an integer >= 1, got None"),
    _case("doc52", {"algebras": {"A": {"dim": True, "unit": ["1"]}}},
          "dim of algebra 'A' must be an integer >= 1, got True"),
    _case("doc53",
          _with_task(0, object=["H"]), "unknown reference ['H'] in task 0"),
    _case("doc54", _with_task(2, element={"x": 1}),
          "unknown element {'x': 1} in task 2"),
    _case("doc55",
          _with_task(2, element="y"), "unknown element 'y' in task 2"),
    _case("doc56",
          _with_task(2, kind="prove"), "unknown task kind 'prove' in task 2"),
    _case("doc57", {"tasks": {"kind": "validate"}}, "tasks must be a list"),
    _case("doc58", {"tasks": [1]}, "task 0 must be an object"),
    _case("doc59",
          {"elements": {"x": 1}}, "element 'x' must be a coordinate list"),
    _case("doc60",
          {"elements": {"x": [False]}}, "bad scalar False in element x"),
    _case("doc61", {"hopf_algebroids": {"H": {"pair_of": "B"}}},
          "unknown reference 'B' in hopf_algebroid H"),
    _case("doc62", {"hopf_algebroids": {"T": {"preset": "trivial"},
                               "H": {"pair_of": "T"}}},
          "'T' referenced in hopf_algebroid H is a hopf_algebroids, expected "
          "one of algebras"),
    _case("doc63", {"algebras": {"A": {"preset": "nope"}}},
          "unknown algebra preset 'nope'"),
    _case("doc64",
          _unknown_preset("coalgebras"), "unknown coalgebra preset 'nope'"),
    _case("doc65", _unknown_preset("hopf_algebroids"),
          "unknown hopf_algebroid preset 'nope'"),
    _case("doc66",
          _unknown_preset("sayd_modules"), "unknown sayd preset 'nope'"),
    _case("doc67",
          _unknown_preset("yd_algebras"), "unknown yd_algebra preset 'nope'"),
    _case("doc68",
          _unknown_preset("measurings"), "unknown measuring preset 'nope'"),
    _case("doc69", _unknown_preset(
        "comodule_measurings",
        sayd_modules={"P": {"preset": "scalar", "hopf": "H"}},
        measurings={"m": {"preset": "identity", "hopf": "H"}},
        comodule_measurings={"X": {"measuring": "m", "sayd": "P"}}),
          "unknown comodule_measuring preset 'nope'"),
    _case("doc70", _unknown_preset("lie_rinehart"),
          "unknown lie_rinehart preset 'nope'"),
    _case("doc71", _unknown_preset("operads"), "unknown operad preset 'nope'"),
    _case("doc72", _unknown_preset("comp_modules",
                          operads={"O": {"preset": "one_dimensional"}},
                          comp_modules={"X": {"operad": "O"}}),
          "unknown comp_module preset 'nope'"),
    _case("doc73", {"lie_rinehart": {"L": {"preset": "abelian", "dim": 2}},
           "tasks": [{"kind": "homology", "object": "L", "theory": "HH",
                      "variant": "cocyclic"}]},
          "homology task on 'L' in task 0 does not read 'theory', 'variant'"),
    _case("doc74", _with_task(2, coefficients="nope", theory="nope"),
          "induced task on 'm' in task 2 does not read 'coefficients', "
          "'theory'"),
    _case("doc75", _with_task(0, variant="nope", max_degree=2),
          "validate task on 'H' in task 0 does not read 'max_degree', "
          "'variant'"),
    _case("doc76", _homology_task(max_degre=1),
          "homology task on 'H' in task 0 does not read 'max_degre'"),
    _case("doc77", _with_task(1, normalized=False),
          "measure task on 'm' in task 1 does not read 'normalized'"),
    _case("doc78", _with_task(3, variant="cyclic"),
          "hopf_galois task on 'm' in task 3 does not read 'variant'"),
])
def test_cli_rejects_malformed_input(tmp_path, capsys, doc, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def _run_cli(*args, optimize=False):
    """The command line tool in a fresh interpreter (under -O if asked)."""
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable] + flags + ["-m", "hopfcyclic.cli"] + list(args),
        env=env, capture_output=True, text=True, timeout=120)


def test_cli_rejects_normalized_cocyclic_homology_without_traceback(
        tmp_path):
    doc = tmp_path / "norm.json"
    doc.write_text(json.dumps(
        _homology_task(theory="HH", variant="cocyclic", normalized=True)))
    proc = _run_cli("report", str(doc))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "normalized in task 0" in proc.stderr


def test_cli_rejects_an_unread_task_key_under_optimize(tmp_path):
    doc = tmp_path / "unread.json"
    doc.write_text(json.dumps(_homology_task(theory="HH", max_degre=1)))
    proc = _run_cli("report", str(doc), optimize=True)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "homology task on 'H' in task 0 does not read 'max_degre'" \
        in proc.stderr


def _scalar_on_pair(category, name, tasks):
    return {"algebras": {"A": {"preset": "dual_numbers"}},
            "hopf_algebroids": {"H": {"pair_of": "A"}},
            category: {name: {"preset": "scalar", "hopf": "H"}},
            "tasks": tasks}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("doc, named", [
    (_scalar_on_pair("sayd_modules", "L",
                     [{"kind": "validate", "object": "L"}]),
     "sayd 'L': the scalar SAYD module needs a one-dimensional base"),
    (_scalar_on_pair("yd_algebras", "Z", []),
     "yd_algebra 'Z': the scalar YD algebra needs a one-dimensional base"),
], ids=["sayd", "yd_algebra"])
def test_cli_rejects_scalar_presets_on_a_larger_base(tmp_path, doc, named,
                                                     optimize):
    # the base check must not be an assert, which python -O strips
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(doc))
    proc = _run_cli("validate", str(path), optimize=optimize)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr


def test_valid_homology_options_are_accepted():
    for opts in ({"theory": "HH", "variant": "cyclic", "normalized": True},
                 {"theory": "HH", "normalized": False},
                 {"theory": "HC", "variant": "cocyclic"}, {}):
        doc = parse_scenario_text(json.dumps(_homology_task(**opts)))
        assert run(doc).ok


def test_zero_degrees_and_arities_are_accepted():
    for doc in (_task_degree(0), _operad_arity(0), _comp_degree(0),
                _operad_arity(2, "yd")):
        parse_scenario_text(json.dumps(doc))


@pytest.mark.parametrize("value", ["-3", "x"])
def test_cli_rejects_bad_max_degree_flag(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["homology", _scen("trivial"), "--max-degree", value])
    assert exc.value.code == 2
    assert "--max-degree" in capsys.readouterr().err


def test_rational_witnesses_serialize_as_strings():
    # e0 e1 = e1 + 3/2 e0 breaks associativity and the unit law; every
    # scalar of a witness vector is a string, integral or not, while its
    # column index stays an int
    doc = {"field": "Q",
           "algebras": {"A": {"dim": 2, "unit": ["1", "0"],
                              "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"],
                                      [1, 0, 1, "1"], [1, 1, 0, "1/2"],
                                      [0, 1, 0, "3/2"]]}},
           "tasks": [{"kind": "validate", "object": "A"}]}
    rep = run(parse_scenario_text(json.dumps(doc)))
    failing = [c for c in rep.tasks[0]["checks"] if not c["passed"]]
    assert json.dumps(failing, separators=(",", ":")) == (
        '[{"name":"associativity","passed":false,"witness":[1,["-3/2","0"]]},'
        '{"name":"left_unit","passed":false,"witness":[1,["3/2","0"]]}]')


def test_witness_scalars_render_by_field_wherever_they_come_from():
    # the vectors solve and basis_vector build are scalars like a column's,
    # and a bare Fraction can only be a scalar
    def witness(f):
        m = LinMap.from_rows(Space(2), Space(2), f, [[2, 0], [0, 1]])
        return (3, solve(m, (f.one, f.zero)), Space(2).basis_vector(1, f))

    assert _jsonable(witness(QQ) + (Fraction(3, 2),), QQ) == \
        [3, ["1/2", "0"], ["0", "1"], "3/2"]
    assert _jsonable(witness(FieldSpec(5)), FieldSpec(5)) == \
        [3, [3, 0], [0, 1]]


def test_cli_rejects_a_composite_field_under_optimization(tmp_path):
    # the prime check must not be an assert, which python -O strips
    doc = tmp_path / "f4.json"
    doc.write_text(json.dumps({
        "field": "F4", "hopf_algebroids": {"H": {"preset": "group_c2"}},
        "tasks": [{"kind": "homology", "object": "H", "theory": "HH"}]}))
    proc = _run_cli("report", str(doc), optimize=True)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "not a prime field: 'F4'" in proc.stderr


def _base_pair(hopf, algebra):
    return {"algebras": {"E": {"preset": "dual_numbers"},
                         "S": {"preset": "split_pair"}},
            "hopf_algebroids": {"G": {"preset": "group_c2"},
                                "H": {"pair_of": "E"}},
            "sayd_modules": {"P": {"preset": "base_pair", "hopf": hopf,
                                   "algebra": algebra}},
            "tasks": [{"kind": "validate", "object": "P"}]}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("doc, named", [
    (_base_pair("G", "E"),
     "sayd 'P': the algebra k[e]/(e2) is not the base algebra of k[C2]"),
    (_base_pair("H", "S"),
     "sayd 'P': the algebra kxk is not the base algebra of H"),
], ids=["group_c2", "pair"])
def test_cli_rejects_base_pair_off_the_base(tmp_path, doc, named, optimize):
    # neither an assert, which python -O strips, nor a wrong module
    path = tmp_path / "base.json"
    path.write_text(json.dumps(doc))
    proc = _run_cli("validate", str(path), optimize=optimize)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr


def _foreign_sayd(tasks, **sections):
    """P is the base of H = pair(k[e]); K = pair_split is another
    algebroid."""
    doc = {"algebras": {"E": {"preset": "dual_numbers"}},
           "hopf_algebroids": {"H": {"pair_of": "E"},
                               "K": {"preset": "pair_split"}},
           "sayd_modules": {"P": {"preset": "base_pair", "hopf": "H",
                                  "algebra": "E"}},
           "elements": {"g": ["1"]},
           "tasks": tasks}
    doc.update(sections)
    return doc


def _yd_over(hopf, z, sayd=None):
    """A yd operad (and, given a sayd, a yd comp module) over `hopf`, with
    coefficients over the group algebroids G2 and G3."""
    doc = {"hopf_algebroids": {"G2": {"preset": "group_c2"},
                               "G3": {"preset": "group_c3"}},
           "sayd_modules": {"L2": {"preset": "scalar", "hopf": "G2"}},
           "yd_algebras": {"Z2": {"preset": "scalar", "hopf": "G2"},
                           "Z3": {"preset": "scalar", "hopf": "G3"}},
           "operads": {"O": {"preset": "yd", "hopf": hopf, "yd_algebra": z,
                             "max_arity": 2}}}
    if sayd is not None:
        doc["comp_modules"] = {"M": {"preset": "yd", "operad": "O",
                                     "hopf": hopf, "sayd": sayd,
                                     "yd_algebra": z, "max_degree": 1}}
    return doc


_HH_OF_H_WITH_P = {"kind": "homology", "object": "H", "coefficients": "P",
                   "theory": "HH", "max_degree": 2}


@pytest.mark.parametrize("doc, named", [
    (_foreign_sayd([{"kind": "homology", "object": "K", "coefficients": "P",
                     "theory": "HH"}, _HH_OF_H_WITH_P]),
     "coefficients 'P' in task 0 is over 'H', not over 'K'"),
    (_foreign_sayd([{"kind": "induced", "object": "c", "element": "g"},
                    _HH_OF_H_WITH_P], comodule_measurings={
        "c": {"preset": "identity", "hopf": "K", "sayd": "P"}}),
     "the sayd of comodule_measuring c is over 'H', not over 'K'"),
    (_foreign_sayd([], measurings={
        "m": {"preset": "zero_primitive", "hopf": "K"}},
        comodule_measurings={
        "c": {"preset": "zero_primitive", "measuring": "m", "sayd": "P"}}),
     "the sayd of comodule_measuring c is over 'H', not over 'K'"),
    (_foreign_sayd([{"kind": "homology", "object": "H",
                     "coefficients": "Q"}]),
     "coefficients 'Q' in task 0 name no sayd module"),
    (_foreign_sayd([{"kind": "homology", "object": "H",
                     "coefficients": "K"}]),
     "coefficients 'K' in task 0 name no sayd module"),
    (_yd_over("G3", "Z2"),
     "the yd_algebra of operad O is over 'G2', not over 'G3'"),
    (_yd_over("G3", "Z3", "L2"),
     "the sayd of comp_module M is over 'G2', not over 'G3'"),
], ids=["homology", "identity", "zero_primitive", "unknown", "not_sayd",
        "operad", "comp_module"])
def test_cli_rejects_coefficients_over_another_algebroid(tmp_path, capsys,
                                                         doc, named):
    bad = tmp_path / "foreign.json"
    bad.write_text(json.dumps(doc))
    assert main(["report", str(bad)]) == 2
    assert named in capsys.readouterr().err


def test_coefficient_homology_over_its_own_algebroid():
    rep = run(parse_scenario_text(json.dumps(
        _foreign_sayd([_HH_OF_H_WITH_P]))))
    assert rep.ok
    assert [r["dim"] for r in rep.tasks[0]["table"]] == [2, 1, 1]


@pytest.mark.parametrize("variant", ["cyclic", "cocyclic"])
@pytest.mark.parametrize("doc", [
    _induced_task,
    lambda variant: _foreign_sayd(
        [{"kind": "induced", "object": "c", "element": "g",
          "variant": variant, "max_degree": 2}],
        comodule_measurings={"c": {"preset": "identity", "hopf": "H",
                                   "sayd": "P"}}),
], ids=["measuring", "comodule_measuring"])
def test_induced_task_builds_a_self_measured_module_once(monkeypatch, doc,
                                                          variant):
    import hopfcyclic.scenario as scenario
    built = []
    for name in ("build_cyclic_CU", "build_cocyclic_CU",
                 "build_cyclic_with_coeffs", "build_cocyclic_with_coeffs"):
        def counted(*args, _build=getattr(scenario, name)):
            built.append(args)
            return _build(*args)
        monkeypatch.setattr(scenario, name, counted)
    rep = run(parse_scenario_text(json.dumps(doc(variant))))
    assert rep.ok
    assert len(built) == 1
    names = [c["name"] for c in rep.tasks[0]["certificate"]]
    src = [n[4:] for n in names if n.startswith("src:")]
    assert src and src == [n[4:] for n in names if n.startswith("dst:")]


@pytest.mark.parametrize("doc", [
    {"coalgebras": {"C": {"preset": "point"},
                    "D": {"preset": "primitive_pair"}},
     "tasks": [{"kind": "validate", "object": "C"},
               {"kind": "validate", "object": "D"}]},
    {"algebras": {"S": {"preset": "split_pair"},
                  "G": {"preset": "group", "order": 3},
                  "B": {"dim": 1, "unit": [1], "mul": [[0, 0, 0, 1]]}},
     "tasks": [{"kind": "validate", "object": o} for o in "SGB"]},
    {"hopf_algebroids": {"H": {"preset": "pair_dual"}},
     "measurings": {"m": {"preset": "identity", "hopf": "H"}},
     "elements": {"e": ["1"]},
     "tasks": [{"kind": "validate", "object": "H"},
               {"kind": "measure", "object": "m"},
               {"kind": "induced", "object": "m", "element": "e",
                "variant": "cocyclic", "max_degree": 2},
               {"kind": "hopf_galois", "object": "m", "element": "e",
                "max_degree": 2}]},
    {"lie_rinehart": {"N": {"preset": "nonabelian_2d"},
                      "L": {"preset": "abelian", "dim": 2}},
     "tasks": [{"kind": kind, "object": o} for o in "NL"
               for kind in ("validate", "homology")]},
    dict(_yd_over("G2", "Z2", "L2"),
         tasks=[{"kind": "validate", "object": "M"}]),
], ids=["coalgebras", "algebras", "pair_dual", "lie_rinehart",
        "yd_comp_module"])
def test_every_preset_runs(doc):
    rep = run(parse_scenario_text(json.dumps(doc)))
    assert rep.ok, [t for t in rep.tasks if t["status"] != "pass"]
    lr = [t for t in rep.tasks if t.get("theory") == "LR"]
    assert [[r["dim"] for r in t["table"]] for t in lr] == \
        [[1, 1, 0, 0], [1, 2, 1, 0]][:len(lr)]


@pytest.mark.parametrize("section, integer, string", [
    (_with_mul, [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]],
     [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]),
    (_with_derivation, [[1, 1, 1]], [[1, 1, "1"]]),
    # the scalars of a repeated index tuple add up
    (_with_mul, [[0, 0, 0, 1], [0, 1, 1, 3], [0, 1, 1, -2], [1, 0, 1, 1]],
     [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]),
    (_with_derivation, [[1, 1, 1, 2], [1, 1, "1/2"], [0, 1, 0]],
     [[1, 1, "1"]]),
], ids=["mul", "derivation", "mul_repeated", "derivation_repeated"])
def test_an_integer_scalar_reads_as_its_string_form(section, integer,
                                                    string):
    a, b = (parse_scenario_text(json.dumps(section(rows))).objects
            for rows in (integer, string))
    assert a["A"][1].mul == b["A"][1].mul
    assert a["m"][1].psi == b["m"][1].psi


def test_text_report_lines():
    def text(path, **kw):
        return emit(run(parse_scenario(path, **kw)), "text").splitlines()

    assert text(_scen("trivial")) == [
        "scenario trivial over Q", "[0] validate H: PASS",
        "[1] homology H: PASS", "    HC dims: 1 0 1 0",
        "total: 2 passed, 0 failed, 0 errors"]
    assert text(_scen("trivial"), field_override="F5")[2] == (
        "[1] homology H: ERROR (CharNotZero: lambda-complex needs "
        "characteristic zero)")
    broken = text(os.path.join(HERE, "scenarios", "pair_e2_broken.json"))
    assert broken[1:3] == [
        "[0] measure m: FAIL",
        "    FAIL total.multiplicativity witness=[21, ['0', '-2', '0', "
        "'0']]"]
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit(ReportDocument(), "xml")


def _bundled_documents():
    out = []
    for path in (_scen("trivial"), _scen("pair_e2"),
                 os.path.join(HERE, "scenarios", "pair_e2_broken.json")):
        with open(path) as fh:
            out.append(json.load(fh))
    return out


def _value_paths(v, path=()):
    """The path of every value in a JSON document, the document's own
    included."""
    yield path
    items = v.items() if isinstance(v, dict) else \
        enumerate(v) if isinstance(v, list) else ()
    for k, x in items:
        yield from _value_paths(x, path + (k,))


_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.sampled_from(["", "0", "1/2", "1/0", "x", "A", "H", "m", "g",
                       "Q", "F5", "cyclic", "HH", "scalar", "trivial"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["preset", "dim", "kind", "x"]),
                      inner, max_size=2),
    max_leaves=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_one_changed_value_parses_or_raises_a_parse_error(data):
    """A bundled scenario with one value replaced by a small JSON value is
    rejected by a ParseError or parsed; a parsed one runs and emits."""
    doc = data.draw(st.sampled_from(_bundled_documents()))
    path = data.draw(st.sampled_from(list(_value_paths(doc))))
    value = data.draw(_SMALL_JSON)
    if path:
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        parsed = parse_scenario_text(json.dumps(doc))
    except ParseError:
        return
    report = run(parsed, max_degree=1)
    emit(report)
    emit(report, "text")
