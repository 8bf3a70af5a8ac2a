import json

import pytest
from click.testing import CliRunner

from trigrade import (TriFilteredTable, builtin_templates, family_tables,
                      parse_family, parse_grid, tables_from_json_obj,
                      tables_to_json_obj)
from trigrade.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


# -- generate ---------------------------------------------------------------

def test_generate_json_round_trip(runner):
    res = invoke(runner, ["generate", "k3-elliptic:r=2"])
    assert res.exit_code == 0
    obj = json.loads(res.stdout)
    assert obj["family"] == "k3-elliptic:r=2"
    assert [t["space"] for t in obj["tables"]] == ["Y", "Z:1", "U", "Uc"]
    assert tables_from_json_obj(obj) == family_tables(parse_family("k3-elliptic:r=2"))


def test_generate_grid_round_trip(runner):
    res = invoke(runner, ["generate", "k3-finite:g=3", "--format", "grid"])
    assert res.exit_code == 0
    assert res.stdout.startswith("# table Y n=2 m=2\n")
    assert parse_grid(res.stdout) == family_tables(parse_family("k3-finite:g=3"))


def test_generate_drops_zero_cells(runner):
    # at r=1 the reduced component classes vanish; no zero dims are emitted
    res = invoke(runner, ["generate", "k3-elliptic:r=1"])
    assert res.exit_code == 0
    assert '"dim": 0' not in res.stdout


def test_generate_bad_spec(runner):
    res = invoke(runner, ["generate", "k3-elliptic:r=zero"])
    assert res.exit_code == 2
    assert "error:" in res.stderr


def test_generate_out_file(runner, tmp_path):
    out = tmp_path / "tables.json"
    res = invoke(runner, ["generate", "k3-typeII:r=2", "--out", str(out)])
    assert res.exit_code == 0
    assert res.stdout == ""
    obj = json.loads(out.read_text())
    assert obj["family"] == "k3-typeII:r=2"


# -- check ------------------------------------------------------------------

def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_check_sequence_pass(runner, tmp_path):
    path = _write(tmp_path, "in.json",
                  {"template": "cs", "tables": ["k3-typeII:r=2"]})
    res = invoke(runner, ["check", path])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["pass"] is True and rep["violations"] == []


def test_check_sequence_violation(runner, tmp_path):
    tables = family_tables(parse_family("k3-typeII:r=2"))
    x = tables["Xlim"]
    entries = dict(x.entries)
    entries[(2, 2, 2, 1)] = 17
    tables["Xlim"] = TriFilteredTable(x.space, entries)
    path = _write(tmp_path, "in.json", {
        "template": "cs",
        "tables": [tables_to_json_obj(tables)],
    })
    res = invoke(runner, ["check", path])
    assert res.exit_code == 1
    rep = json.loads(res.stdout)
    assert rep["pass"] is False
    assert any("lane" in v["relation"] for v in rep["violations"])


def test_check_with_pins(runner, tmp_path):
    base = {"template": "cs", "tables": ["k3-typeII:r=3"]}
    good = dict(base, pins=[{"between": [1, 2], "rank": 2, "k": 2}])
    bad = dict(base, pins=[{"between": [1, 2], "rank": 4, "k": 2}])
    assert invoke(runner, ["check", _write(tmp_path, "g.json", good)]).exit_code == 0
    res = invoke(runner, ["check", _write(tmp_path, "b.json", bad)])
    assert res.exit_code == 1
    assert "pinned rank" in res.stdout


@pytest.mark.parametrize("pin", [
    {"between": [1, 2], "rank": "2", "k": 2},
    {"between": [1, 2], "rank": True, "k": 2},
    {"between": [1, 2], "rank": 2, "k": "2"},
    {"between": [1, 2], "rank": 2, "k": True},
    {"between": [1, 2], "rank": 2.0},
])
def test_check_rejects_mistyped_pins(runner, tmp_path, pin):
    obj = {"template": "cs", "tables": ["k3-typeII:r=3"], "pins": [pin]}
    res = invoke(runner, ["check", _write(tmp_path, "pin.json", obj)])
    assert res.exit_code == 2, pin
    assert "error:" in res.stderr and "pin" in res.stderr


def _loc1_with(**changes):
    obj = builtin_templates()["loc1"].to_json_obj()
    term = changes.pop("term", None)
    if term is not None:
        obj["terms"][2].update(term)
    obj.update(changes)
    return obj


@pytest.mark.parametrize("template", [
    _loc1_with(period=True),
    _loc1_with(period=1.0),
    _loc1_with(term={"k_offset": -1.0}),
    _loc1_with(term={"shift": True}),
    _loc1_with(term={"twist": "-1"}),
    _loc1_with(term={"space": 1}),
], ids=["period-bool", "period-float", "k_offset-float", "shift-bool", "twist-str",
        "space-int"])
def test_check_rejects_mistyped_template_fields(runner, tmp_path, template):
    obj = {"template": template, "tables": ["k3-elliptic:r=2"]}
    res = invoke(runner, ["check", _write(tmp_path, "tmpl.json", obj)])
    assert res.exit_code == 2, template
    assert "error:" in res.stderr and "template" in res.stderr


def _retagged(table, **fields):
    obj = table.to_json_obj()
    obj.update(fields)
    return obj


def _cs_with_xlim_at_n3():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    return [_retagged(tables["Xlim"], n=3),
            _retagged(tables["Total"]), _retagged(tables["Supported"])]


def _loc1_with_u_at_m2():
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    return [_retagged(tables["Y"]), _retagged(tables["Z:1"]), _retagged(tables["U"], m=2)]


@pytest.mark.parametrize("command, obj, field", [
    ("check", {"template": "cs", "tables": _cs_with_xlim_at_n3()}, "n"),
    ("solve", {"template": "cs", "tables": _cs_with_xlim_at_n3(),
               "unknown": "Supported"}, "n"),
    ("check", {"template": "loc1", "tables": _loc1_with_u_at_m2()}, "m"),
    ("solve", {"template": "loc1", "tables": _loc1_with_u_at_m2(),
               "unknown": {"space": "Y", "k": 2}}, "m"),
], ids=["check-cs-n", "solve-cs-n", "check-loc1-m", "solve-loc1-m"])
def test_instance_tables_must_agree_on_n_and_m(runner, tmp_path, command, obj, field):
    res = invoke(runner, [command, _write(tmp_path, "in.json", obj)])
    assert res.exit_code == 2
    assert f"disagree on {field}" in res.stderr


@pytest.mark.parametrize("field", ["k", "dim"])
def test_check_rejects_boolean_table_fields(runner, tmp_path, field):
    entry = {"k": 0, "l": 0, "q": 0, "p": 0, "dim": 1}
    entry[field] = True
    obj = {"space": "Y", "n": 2, "m": 1, "entries": [entry]}
    res = invoke(runner, ["check", _write(tmp_path, "t.json", obj)])
    assert res.exit_code == 2
    assert "error:" in res.stderr


def test_check_table_set(runner, tmp_path):
    gen = invoke(runner, ["generate", "k3-finite:g=2"])
    path = tmp_path / "set.json"
    path.write_text(gen.stdout)
    res = invoke(runner, ["check", str(path)])
    assert res.exit_code == 0


def test_check_single_table(runner, tmp_path):
    y = family_tables(parse_family("k3-elliptic:r=2"))["Y"]
    path = _write(tmp_path, "y.json", y.to_json_obj())
    assert invoke(runner, ["check", path]).exit_code == 0
    entries = dict(y.entries)
    entries[(2, 0, 2, 1)] = 1  # below the perverse window
    bad = TriFilteredTable(y.space, entries)
    path = _write(tmp_path, "bad.json", bad.to_json_obj())
    res = invoke(runner, ["check", path])
    assert res.exit_code == 1
    assert "lane window" in res.stdout


def test_check_stdin(runner):
    payload = json.dumps({"template": "loc2", "tables": ["k3-elliptic:r=3"]})
    res = invoke(runner, ["check", "-"], input=payload)
    assert res.exit_code == 0


@pytest.mark.parametrize("payload", [
    "{not json",
    "[1, 2]",
    '{"neither": 1}',
    '{"template": "cs", "tables": ["k3-typeII:r=2", "k3-typeII:r=3"]}',
    '{"template": "nope", "tables": []}',
])
def test_check_bad_inputs(runner, tmp_path, payload):
    path = tmp_path / "in.json"
    path.write_text(payload)
    res = invoke(runner, ["check", str(path)])
    assert res.exit_code == 2, payload
    assert "error:" in res.stderr


def test_check_missing_file(runner, tmp_path):
    res = invoke(runner, ["check", str(tmp_path / "absent.json")])
    assert res.exit_code == 2


# -- solve ------------------------------------------------------------------

def _tables_without(spec, tag):
    tables = family_tables(parse_family(spec))
    del tables[tag]
    return tables_to_json_obj(tables)


def test_solve_recovers_table(runner, tmp_path):
    path = _write(tmp_path, "in.json", {
        "template": "cs",
        "tables": [_tables_without("k3-typeII:r=2", "Xlim")],
        "unknown": "Xlim",
    })
    res = invoke(runner, ["solve", path])
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert out["determined"] is True
    assert out["underdetermined"] == []
    assert out["report"]["pass"] is True
    got = TriFilteredTable.from_json_obj(out["table"])
    assert got == family_tables(parse_family("k3-typeII:r=2"))["Xlim"]


def test_solve_single_degree(runner, tmp_path):
    path = _write(tmp_path, "in.json", {
        "template": "cs",
        "tables": ["k3-typeIII:k=2"],
        "unknown": {"space": "Xlim", "k": 2},
    })
    res = invoke(runner, ["solve", path])
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert out["determined"] is True
    got = TriFilteredTable.from_json_obj(out["table"])
    assert got == family_tables(parse_family("k3-typeIII:k=2"))["Xlim"]


def test_solve_underdetermined_reports_intervals(runner, tmp_path):
    path = _write(tmp_path, "in.json", {
        "template": "loc1",
        "tables": [_tables_without("k3-finite:g=3", "U")],
        "unknown": "U",
    })
    res = invoke(runner, ["solve", path])
    assert res.exit_code == 0  # no violation, just not fully pinned down
    out = json.loads(res.stdout)
    assert out["determined"] is False
    cells = {tuple(v["entry"][x] for x in "klqp"): (v["lo"], v["hi"])
             for v in out["underdetermined"]}
    assert cells == {(1, 2, 2, 1): (0, 1), (2, 2, 2, 1): (19, 20)}


def test_solve_contradiction(runner, tmp_path):
    tables = family_tables(parse_family("k3-typeII:r=2"))
    total = tables["Total"]
    entries = dict(total.entries)
    entries[(0, 1, 0, 0)] = 2
    tables["Total"] = TriFilteredTable(total.space, entries)
    del tables["Xlim"]
    path = _write(tmp_path, "in.json", {
        "template": "cs",
        "tables": [tables_to_json_obj(tables)],
        "unknown": "Xlim",
    })
    res = invoke(runner, ["solve", path])
    assert res.exit_code == 1
    out = json.loads(res.stdout)
    assert out["table"] is None
    assert "solve contradiction" in res.stdout


def test_solve_nonconvergence_is_an_input_error(runner, tmp_path):
    # loc1 with a second read of Z:1 never reaches a fixpoint on these tables
    template = builtin_templates()["loc1"].to_json_obj()
    template["terms"].append(template["terms"][2])
    path = _write(tmp_path, "in.json", {
        "template": template, "tables": ["k3-elliptic:r=2"], "unknown": "Z:1"})
    res = invoke(runner, ["solve", path])
    assert res.exit_code == 2
    assert res.stderr.startswith("error:") and "converge" in res.stderr
    assert res.stderr.count("\n") == 1


def test_solve_requires_unknown(runner, tmp_path):
    path = _write(tmp_path, "in.json",
                  {"template": "cs", "tables": ["k3-typeII:r=2"]})
    res = invoke(runner, ["solve", path])
    assert res.exit_code == 2
    assert "no unknown marked" in res.stderr


def test_solve_out_file(runner, tmp_path):
    out = tmp_path / "res.json"
    path = _write(tmp_path, "in.json", {
        "template": "cs",
        "tables": [_tables_without("k3-typeII:r=1", "Supported")],
        "unknown": "Supported",
    })
    res = invoke(runner, ["solve", path, "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["determined"] is True


# -- mirror -----------------------------------------------------------------

def test_mirror_pass_and_fail(runner):
    ok = invoke(runner, ["mirror", "--fibration", "k3-elliptic:r=3",
                         "--degeneration", "k3-typeII:r=3"])
    assert ok.exit_code == 0
    assert json.loads(ok.stdout)["pass"] is True
    bad = invoke(runner, ["mirror", "--fibration", "k3-finite:g=4",
                          "--degeneration", "k3-typeIII:k=2"])
    assert bad.exit_code == 1
    assert "mirror entry mismatch" in bad.stdout


def test_mirror_stability_flag(runner):
    res = invoke(runner, ["mirror", "--fibration", "k3-finite:g=2",
                          "--degeneration", "k3-typeIII:k=1", "--mu", "2"])
    assert res.exit_code == 0
    bad = invoke(runner, ["mirror", "--fibration", "k3-elliptic:r=2",
                          "--degeneration", "k3-typeII:r=2", "--mu", "0"])
    assert bad.exit_code == 2


def test_mirror_sides_must_match_kinds(runner):
    res = invoke(runner, ["mirror", "--fibration", "k3-typeII:r=2",
                          "--degeneration", "k3-elliptic:r=2"])
    assert res.exit_code == 2
    assert "--fibration needs a fibration family" in res.stderr


# -- basechange -------------------------------------------------------------

def test_basechange_chain(runner):
    res = invoke(runner, ["basechange", "--topology", "chain",
                          "--components", "3", "--mu", "2"])
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {
        "components": 5, "double_curves": 4, "triple_points": 0,
        "topology": "chain"}


def test_basechange_sphere(runner):
    res = invoke(runner, ["basechange", "--topology", "sphere",
                          "--triple-points", "2", "--mu", "2"])
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {
        "components": 6, "double_curves": 12, "triple_points": 8,
        "topology": "sphere"}


@pytest.mark.parametrize("args", [
    ["--topology", "chain", "--triple-points", "2", "--mu", "2"],
    ["--topology", "chain", "--mu", "2"],
    ["--topology", "sphere", "--components", "3", "--mu", "2"],
    ["--topology", "sphere", "--triple-points", "3", "--mu", "2"],
    ["--topology", "chain", "--components", "3", "--mu", "0"],
])
def test_basechange_bad_flags(runner, args):
    res = invoke(runner, ["basechange"] + args)
    assert res.exit_code == 2


def test_missing_required_option_is_exit_two(runner):
    res = invoke(runner, ["basechange", "--topology", "chain", "--components", "3"])
    assert res.exit_code == 2
    res = invoke(runner, ["mirror", "--fibration", "k3-elliptic:r=1"])
    assert res.exit_code == 2
