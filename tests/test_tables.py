import json

import pytest

from trigrade import (SpaceDescriptor, TriFilteredTable, canonical_json,
                      tables_from_json_obj, tables_to_json_obj)

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
