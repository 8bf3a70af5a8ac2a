import io
import json
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trigrade import (SpaceDescriptor, TriFilteredTable, builtin_templates,
                      family_tables, parse_family, parse_grid,
                      tables_from_json_obj, tables_to_json_obj)
from trigrade.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str


def invoke(args, input=""):
    """Run the CLI in this process on ``args``, with ``input`` as standard
    input; capture standard output, standard error and the exit code."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(input)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(args)
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        sys.stdin = stdin
    res = Result(code, out.getvalue(), err.getvalue())
    if res.stdout.startswith("{"):
        # every JSON payload is byte for byte what the standard library writes
        assert res.stdout == json_oracle(json.loads(res.stdout))
    return res


def json_oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- generate ---------------------------------------------------------------

def test_generate_json_round_trip():
    res = invoke(["generate", "k3-elliptic:r=2"])
    assert res.exit_code == 0
    obj = json.loads(res.stdout)
    assert obj["family"] == "k3-elliptic:r=2"
    assert [t["space"] for t in obj["tables"]] == ["Y", "Z:1", "U", "Uc"]
    assert tables_from_json_obj(obj) == family_tables(parse_family("k3-elliptic:r=2"))


def test_generate_grid_round_trip():
    res = invoke(["generate", "k3-finite:g=3", "--format", "grid"])
    assert res.exit_code == 0
    assert res.stdout.startswith("# table Y n=2 m=2\n")
    assert parse_grid(res.stdout) == family_tables(parse_family("k3-finite:g=3"))


def test_generate_drops_zero_cells():
    # at r=1 the reduced component classes vanish; no zero dims are emitted
    res = invoke(["generate", "k3-elliptic:r=1"])
    assert res.exit_code == 0
    assert '"dim": 0' not in res.stdout


def test_generate_bad_spec():
    res = invoke(["generate", "k3-elliptic:r=zero"])
    assert res.exit_code == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize("args", [
    ["generate", "k3-elliptic:r=1_0"],
    ["generate", "k3-typeIII:k=2 "],
    ["mirror", "--fibration", "k3-elliptic:r=03", "--degeneration", "k3-typeII:r=3"],
    ["mirror", "--fibration", "k3-elliptic:r=3", "--degeneration", "k3-typeII:r=+3"],
], ids=["generate-underscore", "generate-trailing-space", "mirror-leading-zero",
        "mirror-plus-sign"])
def test_family_spec_must_be_canonical(args):
    res = invoke(args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and "not canonical" in res.stderr
    assert res.stderr.count("\n") == 1


def test_generate_out_file(tmp_path):
    out = tmp_path / "tables.json"
    res = invoke(["generate", "k3-typeII:r=2", "--out", str(out)])
    assert res.exit_code == 0
    assert res.stdout == ""
    text = out.read_text()
    assert text == json_oracle(json.loads(text))
    assert json.loads(text)["family"] == "k3-typeII:r=2"


# -- check ------------------------------------------------------------------

def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_check_sequence_pass(tmp_path):
    path = _write(tmp_path, "in.json",
                  {"template": "cs", "tables": ["k3-typeII:r=2"]})
    res = invoke(["check", path])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["pass"] is True and rep["violations"] == []


def test_check_sequence_violation(tmp_path):
    tables = family_tables(parse_family("k3-typeII:r=2"))
    x = tables["Xlim"]
    entries = dict(x.entries)
    entries[(2, 2, 2, 1)] = 17
    tables["Xlim"] = TriFilteredTable(x.space, entries)
    path = _write(tmp_path, "in.json", {
        "template": "cs",
        "tables": [tables_to_json_obj(tables)],
    })
    res = invoke(["check", path])
    assert res.exit_code == 1
    rep = json.loads(res.stdout)
    assert rep["pass"] is False
    assert any("lane" in v["relation"] for v in rep["violations"])


def test_check_with_pins(tmp_path):
    base = {"template": "cs", "tables": ["k3-typeII:r=3"]}
    good = dict(base, pins=[{"between": [1, 2], "rank": 2, "k": 2}])
    bad = dict(base, pins=[{"between": [1, 2], "rank": 4, "k": 2}])
    assert invoke(["check", _write(tmp_path, "g.json", good)]).exit_code == 0
    res = invoke(["check", _write(tmp_path, "b.json", bad)])
    assert res.exit_code == 1
    assert "pinned rank" in res.stdout


@pytest.mark.parametrize("pin", [
    {"between": [1, 2], "rank": "2", "k": 2},
    {"between": [1, 2], "rank": True, "k": 2},
    {"between": [1, 2], "rank": 2, "k": "2"},
    {"between": [1, 2], "rank": 2, "k": True},
    {"between": [1, 2], "rank": 2.0},
])
def test_check_rejects_mistyped_pins(tmp_path, pin):
    obj = {"template": "cs", "tables": ["k3-typeII:r=3"], "pins": [pin]}
    res = invoke(["check", _write(tmp_path, "pin.json", obj)])
    assert res.exit_code == 2, pin
    assert "error:" in res.stderr and "pin" in res.stderr


@pytest.mark.parametrize("command", ["check", "solve"])
def test_negative_pinned_rank_is_an_input_error(tmp_path, command):
    obj = {"template": "loc1", "tables": ["k3-elliptic:r=2"],
           "pins": [{"between": [0, 1], "rank": -3}]}
    if command == "solve":
        obj["unknown"] = {"space": "U", "k": 2}
    res = invoke([command, _write(tmp_path, "pin.json", obj)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert "rank" in res.stderr and "-3" in res.stderr


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
    _loc1_with(name=[1]),
], ids=["period-bool", "period-float", "k_offset-float", "shift-bool", "twist-str",
        "space-int", "name-list"])
def test_check_rejects_mistyped_template_fields(tmp_path, template):
    obj = {"template": template, "tables": ["k3-elliptic:r=2"]}
    res = invoke(["check", _write(tmp_path, "tmpl.json", obj)])
    assert res.exit_code == 2, template
    assert "error:" in res.stderr and "template" in res.stderr


def _invoke_traced(args):
    """invoke(args), and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return invoke(args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("offset, accepted", [
    (34, True), (-34, True), (35, False), (-35, False), (10**5, False)])
def test_template_k_offset_is_bounded(tmp_path, command, offset, accepted):
    """A lane spans the spread of the k_offsets, so an offset beyond any
    table's degrees is refused before a lane is built."""
    template = {"period": 1, "terms": [{"space": "Y"}, {"space": "Y", "k_offset": offset}]}
    obj = {"template": template, "tables": ["k3-elliptic:r=2"]}
    if command == "solve":
        obj["unknown"] = {"space": "Y", "k": 2}
    res, peak = _invoke_traced([command, _write(tmp_path, "in.json", obj)])
    if accepted:
        assert res.exit_code == 1, res.stderr
        return
    assert res.exit_code == 2
    assert res.stderr.startswith("error:") and "k_offset" in res.stderr
    assert res.stderr.count("\n") == 1
    assert peak < 1 << 20


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("terms, shifts", [(1000, 1), (1001, 1), (5000, 1), (1000, 3)],
                         ids=["at-the-cap", "over-the-cap", "5000-terms", "over-the-budget"])
def test_template_length_is_bounded(tmp_path, command, terms, shifts):
    """A lane holds one cell per term per cycle: a template longer than
    MAX_TERMS is refused when it is read, and an instance whose lanes would
    hold more than MAX_LANE_CELLS cells before a lane is built.  Terms read
    Y with k_offsets cycling through -34..34, and with shifts cycling
    through 0..shifts-1, each of which opens lanes of its own."""
    template = {"period": 1, "terms": [{"space": "Y", "k_offset": -34 + i % 69, "shift": i % shifts}
                                       for i in range(terms)]}
    obj = {"template": template, "tables": ["k3-elliptic:r=2"]}
    if command == "solve":
        obj["unknown"] = {"space": "Y", "k": 2}
    res, peak = _invoke_traced([command, _write(tmp_path, "in.json", obj)])
    if terms == 1000 and shifts == 1:
        assert res.exit_code == 1, res.stderr
        return
    if terms > 1000:
        error = f"template has {terms} terms, more than 1000"
    else:
        error = "the lanes of this instance would hold more than 1000000 cells"
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {error}\n")
    assert peak < 2 << 20


@pytest.mark.parametrize("command", ["check", "solve"])
def test_equal_terms_are_refused_quickly(tmp_path, command):
    """1,000 equal terms read a Y table of 10,000 entries in 500 lanes of 20
    cycles: 10,000,000 cells, over the budget.  Equal terms open equal
    lanes, so the refusal takes one pass over the table, not one per term."""
    y = TriFilteredTable(SpaceDescriptor("Y", 16, 1),
                         {(k, l, 0, 0): 1 for k in range(20) for l in range(500)})
    obj = {"template": {"period": 1, "terms": [{"space": "Y"}] * 1000},
           "tables": [tables_to_json_obj({"Y": y})]}
    if command == "solve":
        obj["unknown"] = {"space": "Y", "k": 2}
    path = _write(tmp_path, "in.json", obj)
    start = time.perf_counter()
    res = invoke([command, path])
    elapsed = time.perf_counter() - start
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "error: the lanes of this instance would hold more than 1000000 cells\n")
    assert elapsed < 1, elapsed


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("degree, accepted", [(34, True), (10**5, False)])
def test_table_degree_is_bounded(tmp_path, command, degree, accepted):
    """A lane spans the cycle degrees it reads, so a table entry far beyond
    any space's degrees is refused before a lane is built."""
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    y = tables["Y"]
    tables["Y"] = TriFilteredTable(y.space, {**y.entries, (degree, 1, 0, 0): 1})
    obj = {"template": "loc1"}
    if command == "solve":
        del tables["U"]
        obj["unknown"] = "U"
    obj["tables"] = [tables_to_json_obj(tables)]
    res, peak = _invoke_traced([command, _write(tmp_path, "in.json", obj)])
    if accepted:
        assert res.exit_code == 1, res.stderr
        return
    assert res.exit_code == 2
    assert res.stderr == f"error: table Y has an entry in degree {degree}, outside [-34, 34]\n"
    assert peak < 1 << 20


def _retagged(table, **fields):
    obj = table.to_json_obj()
    obj.update(fields)
    return obj


def _cs_with_xlim_at_n3():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    return [_retagged(tables["Xlim"], n=3),
            _retagged(tables["Total"]), _retagged(tables["Supported"])]


def _y_at_n3():
    return _retagged(family_tables(parse_family("k3-elliptic:r=2"))["Y"], n=3)


def _cs_known_beside_y_at_n3(y_first, bump=False):
    """Total and Supported of k3-typeII:r=2 (one +1 on Total if bump) and a
    Y at n=3, which cs never reads."""
    tables = family_tables(parse_family("k3-typeII:r=2"))
    total = tables["Total"]
    if bump:
        entries = dict(total.entries)
        entries[(0, 1, 0, 0)] += 1
        total = TriFilteredTable(total.space, entries)
    cs = [_retagged(total), _retagged(tables["Supported"])]
    return [_y_at_n3(), *cs] if y_first else [*cs, _y_at_n3()]


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
    ("check", {"template": "cs", "tables": ["k3-typeII:r=2", _y_at_n3()]}, "n"),
    ("solve", {"template": "cs", "tables": _cs_known_beside_y_at_n3(True, bump=True),
               "unknown": "Xlim"}, "n"),
    ("solve", {"template": "cs", "tables": _cs_known_beside_y_at_n3(False),
               "unknown": "Xlim"}, "n"),
], ids=["check-cs-n", "solve-cs-n", "check-loc1-m", "solve-loc1-m", "check-unread-y-n",
        "solve-unread-y-first-bumped", "solve-unread-y-last"])
def test_instance_tables_must_agree_on_n_and_m(tmp_path, command, obj, field):
    res = invoke([command, _write(tmp_path, "in.json", obj)])
    assert res.exit_code == 2
    assert f"disagree on {field}" in res.stderr


@pytest.mark.parametrize("field", ["k", "dim"])
def test_check_rejects_boolean_table_fields(tmp_path, field):
    entry = {"k": 0, "l": 0, "q": 0, "p": 0, "dim": 1}
    entry[field] = True
    obj = {"space": "Y", "n": 2, "m": 1, "entries": [entry]}
    res = invoke(["check", _write(tmp_path, "t.json", obj)])
    assert res.exit_code == 2
    assert "error:" in res.stderr


def test_check_table_set(tmp_path):
    gen = invoke(["generate", "k3-finite:g=2"])
    path = tmp_path / "set.json"
    path.write_text(gen.stdout)
    res = invoke(["check", str(path)])
    assert res.exit_code == 0
    # a table set's list is read as a sequence object's: a spec stands for its set
    spec = invoke(["check", _write(tmp_path, "spec.json", {"tables": ["k3-finite:g=2"]})])
    assert (spec.exit_code, spec.stdout) == (0, res.stdout)


def test_check_single_table(tmp_path):
    y = family_tables(parse_family("k3-elliptic:r=2"))["Y"]
    path = _write(tmp_path, "y.json", y.to_json_obj())
    assert invoke(["check", path]).exit_code == 0
    entries = dict(y.entries)
    entries[(2, 0, 2, 1)] = 1  # below the perverse window
    bad = TriFilteredTable(y.space, entries)
    path = _write(tmp_path, "bad.json", bad.to_json_obj())
    res = invoke(["check", path])
    assert res.exit_code == 1
    assert "lane window" in res.stdout


def test_check_stdin():
    payload = json.dumps({"template": "loc2", "tables": ["k3-elliptic:r=3"]})
    res = invoke(["check", "-"], input=payload)
    assert res.exit_code == 0


@pytest.mark.parametrize("payload", [
    "{not json",
    "[1, 2]",
    '{"neither": 1}',
    '{"template": "cs", "tables": ["k3-typeII:r=2", "k3-typeII:r=3"]}',
    '{"template": "nope", "tables": []}',
    '{"space": 5, "n": 2, "entries": []}',
    '{"space": "Y", "n": 2.5, "m": 1, "entries": []}',
    '{"space": "Z: 1", "n": 2, "m": 1, "entries": []}',
    '{"space": "Z:+1", "n": 2, "m": 1, "entries": []}',
    '{"space": "Z:01", "n": 2, "m": 1, "entries": []}',
    '{"space": "Z:\\uff11", "n": 2, "m": 1, "entries": []}',
    '{"template": "loc1", "tables": ["k3-elliptic:r=2"], '
    '"pins": [{"between": [0, 1], "rank": -3}]}',
    '{"template": "loc1", "tables": ["k3-elliptic:r=1_0"]}',
    '{"template": "loc1", "tables": ["k3-elliptic:r=03"]}',
    '{"template": "loc1", "tables": ["k3-elliptic:r=+3"]}',
    '{"template": "loc1", "tables": ["k3-elliptic:r= 3"]}',
    '{"template": "loc1", "tables": ["k3-elliptic:r=\\u0663"]}',
    '{"template": "cs", "tables": ["k3-typeIII:k=2 "]}',
])
def test_check_bad_inputs(tmp_path, payload):
    path = tmp_path / "in.json"
    path.write_text(payload)
    res = invoke(["check", str(path)])
    assert res.exit_code == 2, payload
    assert "error:" in res.stderr


@pytest.mark.parametrize("tag", ["Z:abc", "Z:", "Z:1.5"])
def test_section_tag_needs_an_integer_depth(tmp_path, tag):
    """A section tag whose depth is no integer exits 2 with one line naming
    the tag, not the bare message of int()."""
    path = _write(tmp_path, "in.json", {"space": tag, "n": 2, "m": 1, "entries": []})
    res = invoke(["check", path])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: section tag {tag!r} needs an integer depth\n"


@pytest.mark.parametrize("command", ["check", "solve"])
def test_deeply_nested_json_is_an_input_error(command):
    """JSON nested deeper than the decoder recurses exits 2 with one line,
    not a RecursionError traceback under the violation code."""
    res = invoke([command, "-"], input="[" * 1000 + "]" * 1000)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")


def test_check_empty_instance(tmp_path):
    """A sequence object whose template reads only empty tables checks no
    lane: exit 2 with one line, not a pass."""
    tables = family_tables(parse_family("k3-typeII:r=2"))
    empty = {tag: TriFilteredTable(t.space, {}) for tag, t in tables.items()}
    path = _write(tmp_path, "in.json", {"template": "cs",
                                        "tables": [tables_to_json_obj(empty)]})
    res = invoke(["check", path])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "nothing checked" in res.stderr
    # one nonempty table the template reads is enough to check lanes
    path = _write(tmp_path, "in.json", {"template": "cs", "tables": [tables_to_json_obj(
        {**empty, "Xlim": tables["Xlim"]})]})
    assert invoke(["check", path]).exit_code == 1


def _empty_table_inputs():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    empty = {tag: TriFilteredTable(t.space, {}) for tag, t in tables.items()}
    return [tables_to_json_obj(empty, "k3-typeII:r=2"), {"tables": []},
            empty["Xlim"].to_json_obj()]


@pytest.mark.parametrize("obj", _empty_table_inputs(),
                         ids=["empty-tables", "no-tables", "empty-table"])
def test_check_empty_tables(tmp_path, obj):
    """A table set or a single table without one entry checks nothing:
    exit 2 with one line, as for a sequence object, not a pass."""
    res = invoke(["check", _write(tmp_path, "in.json", obj)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "error: nothing checked: " in res.stderr


def test_check_tables_must_be_a_list(tmp_path):
    path = _write(tmp_path, "in.json", {"template": "cs", "tables": "k3-typeII:r=2"})
    res = invoke(["check", path])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == 'error: "tables" must be a list of family specs or table objects\n'


@pytest.mark.parametrize("tables", ["abc", {"Y": 1}, ""], ids=["string", "object", "empty"])
def test_check_table_set_tables_must_be_a_list(tmp_path, tables):
    """A table set's "tables" is read by the rule of a sequence object's:
    anything but a list gets the same one line."""
    res = invoke(["check", _write(tmp_path, "in.json", {"tables": tables})])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == 'error: "tables" must be a list of family specs or table objects\n'


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("pins", [{}, "", {"between": [0, 1], "rank": 3}, None],
                         ids=["object", "string", "one-pin", "null"])
def test_pins_must_be_a_list(tmp_path, command, pins):
    """A sequence object's "pins" is read by the list rule of its "tables":
    anything but a list gets one line, not a run with no pins."""
    obj = {"template": "loc1", "tables": ["k3-elliptic:r=2"], "pins": pins}
    if command == "solve":
        obj["unknown"] = {"space": "U", "k": 2}
    res = invoke([command, _write(tmp_path, "in.json", obj)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == 'error: "pins" must be a list of pin objects\n'


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("entries", [{}, ""], ids=["object", "string"])
def test_entries_must_be_a_list(tmp_path, command, entries):
    """A table's "entries" is a list: anything else is refused, not read as
    an empty table whose lanes then fail."""
    tables = tables_to_json_obj(family_tables(parse_family("k3-elliptic:r=2")))
    next(t for t in tables["tables"] if t["space"] == "Z:1")["entries"] = entries
    obj = {"template": "loc1", "tables": [tables]}
    if command == "solve":
        obj["unknown"] = {"space": "U", "k": 2}
    res = invoke([command, _write(tmp_path, "in.json", obj)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == 'error: "entries" must be a list of entry objects\n'


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("terms", [{}, "abc", {"a": 1}, None],
                         ids=["empty-object", "string", "object", "null"])
def test_terms_must_be_a_list(tmp_path, command, terms):
    """An inline template's "terms" is read by the list rule of "tables",
    "pins" and "entries": anything but a list gets one line, not a message
    from whatever iterating it raised."""
    obj = {"template": {"period": 1, "terms": terms}, "tables": ["k3-elliptic:r=2"]}
    if command == "solve":
        obj["unknown"] = "U"
    res = invoke([command, _write(tmp_path, "in.json", obj)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == 'error: "terms" must be a list of term objects\n'


def test_check_missing_file(tmp_path):
    res = invoke(["check", str(tmp_path / "absent.json")])
    assert res.exit_code == 2


# -- solve ------------------------------------------------------------------

def _tables_without(spec, tag):
    tables = family_tables(parse_family(spec))
    del tables[tag]
    return tables_to_json_obj(tables)


def test_solve_recovers_table(tmp_path):
    path = _write(tmp_path, "in.json", {
        "template": "cs",
        "tables": [_tables_without("k3-typeII:r=2", "Xlim")],
        "unknown": "Xlim",
    })
    res = invoke(["solve", path])
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert out["determined"] is True
    assert out["underdetermined"] == []
    assert out["report"]["pass"] is True
    got = TriFilteredTable.from_json_obj(out["table"])
    assert got == family_tables(parse_family("k3-typeII:r=2"))["Xlim"]


def test_solve_single_degree(tmp_path):
    path = _write(tmp_path, "in.json", {
        "template": "cs",
        "tables": ["k3-typeIII:k=2"],
        "unknown": {"space": "Xlim", "k": 2},
    })
    res = invoke(["solve", path])
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert out["determined"] is True
    got = TriFilteredTable.from_json_obj(out["table"])
    assert got == family_tables(parse_family("k3-typeIII:k=2"))["Xlim"]


def test_solve_underdetermined_reports_intervals(tmp_path):
    path = _write(tmp_path, "in.json", {
        "template": "loc1",
        "tables": [_tables_without("k3-finite:g=3", "U")],
        "unknown": "U",
    })
    res = invoke(["solve", path])
    assert res.exit_code == 0  # no violation, just not fully pinned down
    out = json.loads(res.stdout)
    assert out["determined"] is False
    cells = {tuple(v["entry"][x] for x in "klqp"): (v["lo"], v["hi"])
             for v in out["underdetermined"]}
    assert cells == {(1, 2, 2, 1): (0, 1), (2, 2, 2, 1): (19, 20)}


def test_solve_open_cells_unbounded_above(tmp_path):
    # a template reading Xlim twice leaves every cell of its box open
    template = {"period": 1, "terms": [{"space": "Xlim"}, {"space": "Xlim"}]}
    path = _write(tmp_path, "in.json", {
        "template": template, "tables": ["k3-typeII:r=2"], "unknown": "Xlim"})
    res = invoke(["solve", path])
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert out["determined"] is False
    assert len(out["underdetermined"]) == 32
    assert all(v["hi"] is None for v in out["underdetermined"])
    assert res.stdout.count('"hi": null') == 32


def test_solve_contradiction(tmp_path):
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
    res = invoke(["solve", path])
    assert res.exit_code == 1
    out = json.loads(res.stdout)
    assert out["table"] is None
    assert "solve contradiction" in res.stdout


def test_solve_nonconvergence_is_an_input_error(tmp_path):
    # loc1 with a second read of Z:1 never reaches a fixpoint on these tables
    template = builtin_templates()["loc1"].to_json_obj()
    template["terms"].append(template["terms"][2])
    path = _write(tmp_path, "in.json", {
        "template": template, "tables": ["k3-elliptic:r=2"], "unknown": "Z:1"})
    res = invoke(["solve", path])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: interval propagation did not converge within 10000 rounds\n"


def test_solve_degree_outside_the_window_is_an_input_error(tmp_path):
    # U of a K3 surface has degrees 0..4: degree 30 has no cell to solve
    path = _write(tmp_path, "in.json", {
        "template": "loc1", "tables": ["k3-elliptic:r=2"], "unknown": {"space": "U", "k": 30}})
    res = invoke(["solve", path])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: degree 30 lies outside the degree window [0, 4] of U\n"


def test_solve_rejects_huge_n_before_allocating(tmp_path):
    tables = [{"space": tag, "n": 1000000000, "entries": []}
              for tag in ("Total", "Supported")]
    path = _write(tmp_path, "in.json", {
        "template": "cs", "tables": tables, "unknown": "Xlim"})
    tracemalloc.start()
    try:
        res = invoke(["solve", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 2
    assert res.stderr.startswith("error:") and "n=1000000000" in res.stderr
    assert res.stderr.count("\n") == 1
    assert peak < 1 << 20


@pytest.mark.parametrize("unknown", [
    {"space": "Xlim", "k": "2"},
    {"space": "Xlim", "k": 2.9},
    {"space": "Xlim", "k": True},
    ["Xlim", 2],
    {"k": 2},
], ids=["str-degree", "float-degree", "bool-degree", "list", "no-space"])
def test_solve_takes_only_the_documented_unknowns(tmp_path, unknown):
    path = _write(tmp_path, "in.json", {
        "template": "cs", "tables": ["k3-typeIII:k=1"], "unknown": unknown})
    res = invoke(["solve", path])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: unknown must be")
    assert res.stderr.count("\n") == 1


def test_solve_input_must_be_an_object(tmp_path):
    res = invoke(["solve", _write(tmp_path, "in.json", [{"template": "cs"}])])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == 'error: solve input needs "template", "tables" and "unknown" keys\n'


def _empty_loc1(unknown, extra: dict) -> dict:
    """loc1 on k3-elliptic:r=2 with Y and Z:1 empty, and U holding its cells
    in degree 2 and ``extra``."""
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    u = tables["U"]
    entries = {**{q: d for q, d in u.entries.items() if q[0] == 2}, **extra}
    return {"template": "loc1", "unknown": unknown, "tables": [tables_to_json_obj(
        {"Y": TriFilteredTable(tables["Y"].space, {}),
         "Z:1": TriFilteredTable(tables["Z:1"].space, {}),
         "U": TriFilteredTable(u.space, entries)})]}


@pytest.mark.parametrize("unknown, message", [
    ("U", "error: nothing checked: the tables 'loc1' reads besides the unknown U "
          "are all empty\n"),
    ({"space": "U", "k": 2}, "error: nothing checked: the tables 'loc1' reads besides "
                             "the unknown U in degree 2 are all empty\n"),
], ids=["full", "degree"])
def test_solve_empty_instance(tmp_path, unknown, message):
    """A solve whose known tables are all empty exits 2 with one line, as
    check does, not a determined empty table."""
    res = invoke(["solve", _write(tmp_path, "in.json", _empty_loc1(unknown, {}))])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == message


def test_solve_degree_counts_other_degrees_as_known(tmp_path):
    """One cell of U outside the solved degree is known data: the solve runs,
    and finds that no completion makes that cell's lane exact."""
    obj = _empty_loc1({"space": "U", "k": 2}, {(0, 0, 0, 0): 1})
    res = invoke(["solve", _write(tmp_path, "in.json", obj)])
    assert res.exit_code == 1
    assert "solve contradiction" in res.stdout


def test_solve_requires_unknown(tmp_path):
    path = _write(tmp_path, "in.json",
                  {"template": "cs", "tables": ["k3-typeII:r=2"]})
    res = invoke(["solve", path])
    assert res.exit_code == 2
    assert "no unknown marked" in res.stderr


def test_solve_out_file(tmp_path):
    out = tmp_path / "res.json"
    path = _write(tmp_path, "in.json", {
        "template": "cs",
        "tables": [_tables_without("k3-typeII:r=1", "Supported")],
        "unknown": "Supported",
    })
    res = invoke(["solve", path, "--out", str(out)])
    assert res.exit_code == 0
    text = out.read_text()
    assert text == json_oracle(json.loads(text))
    assert json.loads(text)["determined"] is True


# -- mirror -----------------------------------------------------------------

def test_mirror_pass_and_fail():
    ok = invoke(["mirror", "--fibration", "k3-elliptic:r=3",
                         "--degeneration", "k3-typeII:r=3"])
    assert ok.exit_code == 0
    assert json.loads(ok.stdout)["pass"] is True
    bad = invoke(["mirror", "--fibration", "k3-finite:g=4",
                          "--degeneration", "k3-typeIII:k=2"])
    assert bad.exit_code == 1
    assert "mirror entry mismatch" in bad.stdout


def test_mirror_stability_flag():
    res = invoke(["mirror", "--fibration", "k3-finite:g=2",
                          "--degeneration", "k3-typeIII:k=1", "--mu", "2"])
    assert res.exit_code == 0
    bad = invoke(["mirror", "--fibration", "k3-elliptic:r=2",
                          "--degeneration", "k3-typeII:r=2", "--mu", "0"])
    assert bad.exit_code == 2


def test_mirror_sides_must_match_kinds():
    res = invoke(["mirror", "--fibration", "k3-typeII:r=2",
                          "--degeneration", "k3-elliptic:r=2"])
    assert res.exit_code == 2
    assert "--fibration needs a fibration family" in res.stderr
    res = invoke(["mirror", "--fibration", "k3-elliptic:r=2",
                  "--degeneration", "k3-elliptic:r=2"])
    assert res.exit_code == 2
    assert res.stderr == ("error: --degeneration needs a degeneration family, "
                          "got 'k3-elliptic:r=2'\n")


# -- basechange -------------------------------------------------------------

def test_basechange_chain():
    res = invoke(["basechange", "--topology", "chain",
                          "--components", "3", "--mu", "2"])
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {
        "components": 5, "double_curves": 4, "triple_points": 0,
        "topology": "chain"}


def test_basechange_sphere():
    res = invoke(["basechange", "--topology", "sphere",
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
def test_basechange_bad_flags(args):
    res = invoke(["basechange"] + args)
    assert res.exit_code == 2


def test_missing_required_option_is_exit_two():
    res = invoke(["basechange", "--topology", "chain", "--components", "3"])
    assert res.exit_code == 2
    res = invoke(["mirror", "--fibration", "k3-elliptic:r=1"])
    assert res.exit_code == 2


# -- exit codes and fuzzing -------------------------------------------------

@pytest.mark.parametrize("args, code", [
    ([], 2),
    (["--help"], 0),
    (["generate", "--help"], 0),
    (["--bogus"], 2),
    (["nosuch"], 2),
    (["generate", "k3-elliptic:r=2", "--bogus"], 2),
    (["generate", "k3-elliptic:r=2", "extra"], 2),
    (["mirror", "--fib", "k3-elliptic:r=3", "--degeneration", "k3-typeII:r=3"], 2),
    (["generate", "k3-elliptic:r=2", "--form", "grid"], 2),
    (["generate", "k3-elliptic:r=2", "--out", "{dir}"], 2),
    (["check", "absent.json", "--out", "{dir}"], 2),
    (["basechange", "--topology", "ring", "--components", "3", "--mu", "2"], 2),
    (["generate", "k3-elliptic:r=2", "--format", "yaml"], 2),
    (["generate", "k3-elliptic:r=2", "--format"], 2),
    (["mirror", "--fibration", "k3-elliptic:r=3", "--degeneration", "k3-typeII:r=3",
      "--mu", "two"], 2),
    (["basechange", "--topology", "chain", "--components", "x", "--mu", "2"], 2),
    (["basechange", "--topology", "chain", "--components", "3"], 2),
    (["generate"], 2),
    (["check"], 2),
    (["mirror", "--fibration=k3-elliptic:r=3", "--degeneration", "k3-typeII:r=3"], 0),
], ids=["no-args", "help", "subcommand-help", "unknown-option", "unknown-command",
        "unknown-subcommand-option", "extra-argument", "abbreviated-option",
        "abbreviated-format", "generate-out-dir", "check-out-dir", "bad-topology",
        "bad-format", "format-without-value", "non-int-mu", "non-int-components",
        "missing-mu", "missing-family", "missing-input", "option-equals-value"])
def test_exit_codes(tmp_path, args, code):
    res = invoke([a.replace("{dir}", str(tmp_path)) for a in args])
    assert res.exit_code == code, res.stderr


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-3, 12)
    | st.sampled_from(["Y", "Z:1", "Xlim", "Total", "cs", "k3-typeII:r=2", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["space", "n", "m", "k", "entries", "x"]),
                      inner, max_size=3),
    max_leaves=6)


def _fuzz_seeds():
    """(command, input) pairs that the CLI accepts as they are."""
    ell = family_tables(parse_family("k3-elliptic:r=1"))
    deg = family_tables(parse_family("k3-typeII:r=1"))
    loc1 = builtin_templates()["loc1"].to_json_obj()
    return [
        ("check", {"template": "cs", "tables": ["k3-typeII:r=2"]}),
        ("check", {"template": loc1, "tables": [tables_to_json_obj(ell)],
                   "pins": [{"between": [1, 2], "rank": 1, "k": 2}]}),
        ("check", ell["Y"].to_json_obj()),
        ("check", tables_to_json_obj(deg)),
        ("solve", {"template": "cs", "unknown": "Xlim",
                   "tables": [deg["Total"].to_json_obj(), deg["Supported"].to_json_obj()]}),
        ("solve", {"template": "loc1", "tables": ["k3-elliptic:r=1"],
                   "unknown": {"space": "U", "k": 2}}),
    ]


def _mutated(data, value, root=True):
    """value with one part replaced by arbitrary JSON: the part is found by
    descending through the containers, always from the root and with odds
    3:1 below it."""
    if isinstance(value, (dict, list)) and value and (root or data.draw(st.integers(0, 3))):
        key = data.draw(st.sampled_from(list(value) if isinstance(value, dict)
                                        else range(len(value))))
        value[key] = _mutated(data, value[key], root=False)
        return value
    return data.draw(_JSON)


def _entries(value) -> list[dict]:
    """The table entry objects, those with a "dim", anywhere inside value."""
    if isinstance(value, list):
        return [e for v in value for e in _entries(v)]
    if isinstance(value, dict):
        found = [value] if "dim" in value else []
        return found + _entries(list(value.values()))
    return []


def _nudged(data, value):
    """value with one entry's dim moved by 1, kept >= 0: a valid input that is
    mostly wrong, so the CLI has to judge it (exit 1) rather than refuse it.
    A seed that names its tables by family spec has no entry and is mutated
    as _mutated does."""
    entries = _entries(value)
    if not entries:
        return _mutated(data, value)
    entry = data.draw(st.sampled_from(entries))
    entry["dim"] = max(0, entry["dim"] + data.draw(st.sampled_from([-1, 1])))
    return value


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_json_inputs(data):
    command, obj = data.draw(st.sampled_from(_fuzz_seeds()))
    mutate = data.draw(st.sampled_from([_mutated, _nudged]))
    payload = json.dumps(mutate(data, obj))
    res = invoke([command, "-"], input=payload)
    assert res.exit_code in (0, 1, 2), payload
    assert "Traceback" not in res.stderr, payload
    if res.exit_code in (0, 1):
        assert res.stdout == json_oracle(json.loads(res.stdout)), payload
