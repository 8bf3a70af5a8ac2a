import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_tables
from trigrade import (SpaceDescriptor, TriFilteredTable, canonical_json,
                      tables_from_json_obj, tables_to_json_obj)

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
