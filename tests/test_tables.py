import ast
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_tables
import trigrade
from trigrade import (EllipticCurveBase, FiniteSurfaceBase, SpaceDescriptor, TriFilteredTable,
                      TypeII, TypeIII, builtin_templates, canonical_json, family_tables,
                      mirror_transform, parse_family, parse_grid, poincare_verdier_dual,
                      render_tables, solve_unknown, tables_from_json_obj, tables_to_json_obj)

GOLDEN_DIR = Path(__file__).parent / "golden"

Y2 = SpaceDescriptor("Y", 2, 1)


def test_construction_drops_zeros():
    t = TriFilteredTable(Y2, {(0, 1, 0, 0): 1, (2, 2, 2, 1): 0})
    assert t.entries == {(0, 1, 0, 0): 1}
    assert t.dim(2, 2, 2, 1) == 0


def test_construction_rejects_bad_values():
    with pytest.raises(ValueError):
        TriFilteredTable(Y2, {(0, 1, 0, 0): -1})
    with pytest.raises(ValueError):
        TriFilteredTable(Y2, {(0, 1, 0, 0): 1.5})
    with pytest.raises(ValueError):
        TriFilteredTable(Y2, {(0, 1, 0): 1})


@pytest.mark.parametrize("entries", [
    {(True, 0, 0, 0): 1},
    {(0, 1, 0, False): 1},
    {(0, 1, 0, 0): True},
])
def test_construction_rejects_booleans(entries):
    with pytest.raises(ValueError):
        TriFilteredTable(Y2, entries)


# the 79 families of the sweep in scripts/verify_families.py
SWEEP = ([EllipticCurveBase(r) for r in range(1, 21)]
         + [FiniteSurfaceBase(g) for g in range(2, 21)]
         + [TypeII(r) for r in range(1, 21)] + [TypeIII(k) for k in range(1, 21)])


def _built(tables: dict) -> list:
    """What the builders that skip the entry checks make from ``tables``:
    each table's dual, its mirror transform where it has a match, and the
    tables read back from their grids."""
    out = [*map(poincare_verdier_dual, tables.values()),
           *[mirror_transform(t) for tag, t in tables.items() if tag in ("Y", "Uc")]]
    return out + list(parse_grid(render_tables(tables)).values())


def test_unchecked_builders_match_the_checking_constructor():
    """The catalog, the duals, mirror_transform, parse_grid and the solver
    build their tables without checking the entries again.  Each such table
    equals the one the checking constructor makes of its entries, so none
    holds a zero, a negative or a non-int entry, or a key that is no four
    ints: on every sweep family, on a +1 and a -1 at each entry of each of
    its tables, and on every completed solve of solve_roundtrip's families,
    in full and per degree."""
    built, solved = [], 0
    for fam in SWEEP:
        tables = family_tables(fam)
        built += [*tables.values(), *_built(tables)]
        for tag, t in tables.items():
            for quad, v in t.entries.items():
                for dv in (1, -1):
                    mutated = TriFilteredTable(t.space, {**t.entries, quad: v + dv})
                    built += _built({tag: mutated})
    templates = builtin_templates()
    for fam in (EllipticCurveBase(2), FiniteSurfaceBase(3), TypeII(2), TypeIII(2)):
        tables = family_tables(fam)
        for tmpl in templates.values():
            if not all(s in tables for s in tmpl.spaces()):
                continue
            for tag in tmpl.spaces():
                k_lo, k_hi = tables[tag].space.degree_range()
                known = {t: tab for t, tab in tables.items() if t != tag}
                results = [solve_unknown(tmpl, known, tag)]
                results += [solve_unknown(tmpl, tables, (tag, k)) for k in range(k_lo, k_hi + 1)]
                done = [res.table for res in results if res.table is not None]
                solved += len(done)
                built += done
    assert len(built) > 9000 and solved > 100, (len(built), solved)
    for t in built:
        assert t == TriFilteredTable(t.space, dict(t.entries)), t


def _of_callers(node, where: str) -> list:
    """The qualified names of the functions in ``node`` that call _of."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found += _of_callers(child, f"{where}.{child.name}")
        elif isinstance(child, ast.Attribute) and child.attr == "_of":
            found.append(where)
        else:
            found += _of_callers(child, where)
    return found


def test_only_the_listed_builders_skip_the_entry_checks():
    package = Path(trigrade.__file__).parent
    callers = {caller for path in package.glob("*.py")
               for caller in _of_callers(ast.parse(path.read_text()), path.stem)}
    assert callers == {"tables.poincare_verdier_dual", "catalog._Family._tables",
                       "mirror.mirror_transform", "render.parse_grid.flush",
                       "solver.solve_unknown"}


def test_totals():
    t = TriFilteredTable(Y2, {
        (2, 2, 2, 0): 1, (2, 2, 2, 1): 18, (2, 2, 2, 2): 1,
        (2, 1, 2, 1): 1, (2, 3, 2, 1): 1, (0, 1, 0, 0): 1,
    })
    assert t.total_dim() == 23
    assert t.total_dim(2) == 22
    assert t.total_dim(3) == 0
    assert t.weight_totals(2) == {2: 22}


def test_json_round_trip():
    t = TriFilteredTable(Y2, {(2, 2, 2, 1): 18, (0, 1, 0, 0): 1})
    back = TriFilteredTable.from_json_obj(json.loads(canonical_json(t.to_json_obj())))
    assert back == t
    assert back.space.m == 1

    x = TriFilteredTable(SpaceDescriptor("Xlim", 2), {(2, 2, 2, 1): 20})
    obj = x.to_json_obj()
    assert "m" not in obj
    assert TriFilteredTable.from_json_obj(obj) == x


def test_json_duplicate_entries():
    obj = {"space": "Y", "n": 2, "m": 1, "entries": [
        {"k": 2, "l": 2, "q": 2, "p": 1, "dim": 18},
        {"k": 2, "l": 2, "q": 2, "p": 1, "dim": 17},
    ]}
    with pytest.raises(ValueError):
        TriFilteredTable.from_json_obj(obj)
    obj["entries"][1]["dim"] = 18  # consistent duplicate is tolerated
    assert TriFilteredTable.from_json_obj(obj).dim(2, 2, 2, 1) == 18


def test_json_malformed():
    with pytest.raises(ValueError):
        TriFilteredTable.from_json_obj({"space": "Y", "n": 2})


@pytest.mark.parametrize("field,value,message", [
    ("dim", True, "dimension at (2, 2, 2, 1) is not an integer: True"),
    ("dim", 1.5, "dimension at (2, 2, 2, 1) is not an integer: 1.5"),
    ("dim", "1", "dimension at (2, 2, 2, 1) is not an integer: '1'"),
    ("dim", -1, "negative dimension -1 at (2, 2, 2, 1)"),
    ("k", True, "bad index quadruple (True, 2, 2, 1)"),
    ("k", "0", "bad index quadruple ('0', 2, 2, 1)"),
    ("p", True, "bad index quadruple (2, 2, 2, True)"),
    ("q", "0", "bad index quadruple (2, 2, '0', 1)"),
])
def test_json_readers_refuse_bad_entries(field, value, message):
    """Both JSON readers, of one table and of a table set, check every entry."""
    entry = {"k": 2, "l": 2, "q": 2, "p": 1, "dim": 1, field: value}
    obj = {"space": "Y", "n": 2, "m": 1, "entries": [entry]}
    for read in (TriFilteredTable.from_json_obj, tables_from_json_obj,
                 lambda o: tables_from_json_obj({"tables": [o]})):
        with pytest.raises(ValueError) as info:
            read(obj)
        assert str(info.value) == message


def test_zero_dim_accepted_on_read():
    obj = {"space": "Xlim", "n": 2,
           "entries": [{"k": 2, "l": 2, "q": 2, "p": 1, "dim": 0}]}
    assert TriFilteredTable.from_json_obj(obj).entries == {}


def test_canonical_json_form():
    text = canonical_json({"b": 1, "a": [2]})
    assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


def json_oracle(obj) -> str:
    """What canonical_json promises to write, from the standard library."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Int(int):
    def __repr__(self):
        return "not json"


class _Str(str):
    pass


# keys and strings with quotes, backslashes, control characters and non-ASCII
_text = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), max_size=5)
_scalars = st.one_of(
    st.integers(), st.integers(min_value=2**64), st.integers(max_value=-2**64),
    st.booleans(), st.none(), st.floats(allow_nan=True, allow_infinity=True),
    _text, st.builds(_Int, st.integers()), st.builds(_Str, _text))
_values = st.recursive(_scalars, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(_text, children, max_size=4),
    # keys json converts: ints and bools sort together, None alone
    st.dictionaries(st.one_of(st.integers(), st.booleans()), children, max_size=3),
    st.dictionaries(st.none(), children, max_size=1),
    st.dictionaries(st.builds(_Str, _text), children, max_size=2),
), max_leaves=24)


@settings(max_examples=400)
@given(_values)
def test_canonical_json_is_json_dumps(value):
    assert canonical_json(value) == json_oracle(value)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": {}}, {"a": []}, [[], [[{}]]], (), {"a": ()},
    float("nan"), -float("inf"), True, None, 2**70, -2**70, "\u00e9\n\"",
    {2: 1, False: 0}, {None: [1]}, {"b": [1.5, False], "a": {"c": None}},
])
def test_canonical_json_edge_cases(value):
    assert canonical_json(value) == json_oracle(value)


def test_canonical_json_keeps_nothing_between_calls():
    """The sorted keys canonical_json remembers live for one call: a thousand
    payloads, each dict with a key set of its own, are written as json.dumps
    writes them and leave traced memory where it was.  A memo kept across
    calls would hold every key set, well over 100 KB of them."""
    payloads = [{f"key{i}": [i, {f"a{i}": i, f"b{i}": [str(i)]}], "n": {f"c{i}": i}}
                for i in range(1000)]
    want = [json_oracle(v) for v in payloads]
    canonical_json(payloads[0])  # anything a first call sets up once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wrong = sum([canonical_json(v) != text for v, text in zip(payloads, want)])
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert wrong == 0
    assert after - before < 1024, after - before


def test_canonical_json_of_golden_table_sets():
    assert len(oracle_tables.GOLDEN) == 10
    for _spec, filename, _tables in oracle_tables.GOLDEN:
        text = (GOLDEN_DIR / filename).read_text()
        obj = json.loads(text)
        assert canonical_json(obj) == json_oracle(obj) == text, filename


def test_table_set_round_trip_and_order():
    tables = {
        "Uc": TriFilteredTable(SpaceDescriptor("Uc", 2, 1), {(2, 2, 2, 1): 1}),
        "Y": TriFilteredTable(Y2, {(0, 1, 0, 0): 1}),
        "Z:1": TriFilteredTable(SpaceDescriptor("Z", 2, 1, depth=1), {(0, 0, 0, 0): 2}),
        "U": TriFilteredTable(SpaceDescriptor("U", 2, 1), {(0, 1, 0, 0): 1}),
    }
    obj = tables_to_json_obj(tables, "custom")
    assert obj["family"] == "custom"
    assert [t["space"] for t in obj["tables"]] == ["Y", "Z:1", "U", "Uc"]
    back = tables_from_json_obj(json.loads(canonical_json(obj)))
    assert back == tables


def test_table_set_duplicate_tag():
    obj = {"tables": [
        {"space": "Xlim", "n": 2, "entries": []},
        {"space": "Xlim", "n": 2, "entries": []},
    ]}
    with pytest.raises(ValueError):
        tables_from_json_obj(obj)


@pytest.mark.parametrize("tables", ["", "abc", {"Y": 1}], ids=["empty", "string", "object"])
def test_table_set_tables_must_be_a_list(tables):
    with pytest.raises(ValueError) as exc:
        tables_from_json_obj({"tables": tables})
    assert str(exc.value) == '"tables" must be a list of family specs or table objects'


def test_table_set_forms():
    """Every form a table set is read in: a family spec stands for the
    family's tables, a nested set is read by the same rule, and an object
    without "tables" is one table."""
    tables = family_tables(parse_family("k3-finite:g=3"))
    objs = {tag: t.to_json_obj() for tag, t in tables.items()}
    assert tables_from_json_obj({"tables": ["k3-finite:g=3"]}) == tables
    nested = {"tables": [{"tables": [objs["Y"], {"tables": [objs["Z:1"]]}]}, objs["Z:2"],
                         {"tables": []}]}
    assert tables_from_json_obj(nested) == {tag: tables[tag] for tag in ("Y", "Z:1", "Z:2")}
    assert tables_from_json_obj(objs["U"]) == {"U": tables["U"]}


def test_table_set_bad_reference():
    with pytest.raises(ValueError, match=r"^bad table reference \[\]$"):
        tables_from_json_obj({"tables": [{"tables": [[]]}]})
    with pytest.raises(ValueError, match=r"^bad table reference 5$"):
        tables_from_json_obj({"tables": [5]})


def test_table_set_duplicate_tag_across_nested_sets():
    y = family_tables(parse_family("k3-elliptic:r=2"))["Y"].to_json_obj()
    obj = {"tables": [{"tables": [y]}, {"tables": [{"tables": [y]}]}]}
    with pytest.raises(ValueError, match=r"^duplicate table for space Y$"):
        tables_from_json_obj(obj)
    with pytest.raises(ValueError, match=r"^duplicate table for space Y$"):
        tables_from_json_obj({"tables": ["k3-elliptic:r=2", {"tables": [y]}]})
