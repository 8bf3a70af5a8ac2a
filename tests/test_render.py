import pytest

from trigrade import (SpaceDescriptor, TriFilteredTable, parse_grid, render_table,
                      render_tables, tables_to_json_obj)


def test_round_trip_all_fixtures(fixture_sets):
    for spec, tables in fixture_sets.items():
        back = parse_grid(render_tables(tables))
        assert back == tables, spec


def test_layout():
    from trigrade import family_tables, parse_family
    fam = family_tables(parse_family("k3-typeIII:k=1"))
    text = render_table(fam["Xlim"])
    lines = text.splitlines()
    assert lines[0] == "# table Xlim n=2"
    assert "## k=2 l=2" in lines
    i = lines.index("## k=2 l=2")
    assert lines[i + 1].split() == ["p\\q", "0", "2", "4"]
    # rows ascend in p; zeros render as dots
    assert lines[i + 2].split() == ["0", "1", ".", "."]
    assert lines[i + 3].split() == ["1", ".", "20", "."]
    assert lines[i + 4].split() == ["2", ".", ".", "1"]


def test_header_includes_section_depth_budget():
    from trigrade import family_tables, parse_family
    fib = family_tables(parse_family("k3-finite:g=2"))
    assert render_table(fib["Y"]).splitlines()[0] == "# table Y n=2 m=2"
    assert render_table(fib["Z:2"]).splitlines()[0] == "# table Z:2 n=2 m=2"


def test_table_order_in_multi_render(fixture_sets):
    text = render_tables(fixture_sets["k3-elliptic:r=2"])
    headers = [ln for ln in text.splitlines() if ln.startswith("# table ")]
    assert [h.split()[2] for h in headers] == ["Y", "Z:1", "U", "Uc"]


def test_parse_empty_table():
    got = parse_grid("# table Y n=2 m=1\n")
    assert got["Y"].entries == {}


@pytest.mark.parametrize("text,match", [
    ("# table Y n=2 m=1\n# table Y n=2 m=1\n", "duplicate table"),
    ("# table Y n=2 q=3\n", "bad header field"),
    ("# table Y m=1\n", "lacks n"),
    ("## k=2 l=2\n", "before any table"),
    ("# table Y n=2 m=1\n## k=2\n", "bad block header"),
    ("# table Y n=2 m=1\np\\q  2\n", "outside a block"),
    ("# table Y n=2 m=1\n## k=2 l=2\n1  5\n", "unexpected row"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n1  5  7\n", "expected 1 cells"),
    ("# table Xlim n=2 m=1\n", "m"),
    ("# table Z:01 n=2 m=1\n", "Z:01"),
    # only the integers render_table writes, and each field once
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n1  2_0\n", "line 4: bad integer '2_0'"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n1  x\n", "line 4: bad integer 'x'"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n1  01\n", "line 4: bad integer '01'"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n1  +0\n", "line 4: bad integer '\\+0'"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  +2\n", "line 3: bad integer '\\+2'"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n01  5\n", "line 4: bad integer '01'"),
    ("# table Xlim n=\u0662\n", "line 1: bad integer"),
    ("# table Xlim n=2 n=3\n", "line 1: repeated header field 'n'"),
    ("# table Y n=2 m=1 m=1\n", "line 1: repeated header field 'm'"),
    ("# table Y n=2 m=1\n## k=0 l=0 k=4\n", "line 2: bad block header"),
    ("# table Y n=2 m=1\n## l=2 k=2\n", "line 2: bad block header"),
    ("# table Y n=2 m=1\n## k=02 l=2\n", "line 2: bad integer '02'"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n1  -5\n", "line 4: dimension -5 is not"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n1  0\n", "line 4: dimension 0 is not"),
    ("# table Y n=99 m=1\n", "line 1: dimension n=99"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\qX  2\n1  5\n", "line 3: unexpected row"),
    ("# table Y n=2 m=1\n\n# table U n=2 m=1\n# table Y n=2 m=1\n", "line 4: duplicate table Y"),
    # a header with no tag, bare or with trailing spaces, first or after a block
    ("# table\n", "line 1: empty table header"),
    ("# table   \n", "line 1: empty table header"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n2  5\n# table\n", "line 5: empty table header"),
    ("# table Y n=2 m=1\n## k=2 l=2\np\\q  2\n2  5\n# table \n", "line 5: empty table header"),
    # a section tag whose depth is no integer, named with its line
    ("# table Z:abc n=2 m=1\n", "^line 1: section tag 'Z:abc' needs an integer depth$"),
])
def test_parse_errors(text, match):
    with pytest.raises(ValueError, match=match):
        parse_grid(text)


def test_parse_reports_line_numbers():
    text = "# table Y n=2 m=1\n\n## k=2 l=2\np\\q  2\n0  1\n0  2\n"
    with pytest.raises(ValueError, match="line 6"):
        parse_grid(text)


def test_grid_and_json_share_one_table_order():
    tags = ["Uc", "Z:4", "U", "Y", "Z:1"]
    tables = {tag: TriFilteredTable(SpaceDescriptor.parse_tag(tag, 4, 4), {})
              for tag in tags}
    grid = [line.split()[2] for line in render_tables(tables).splitlines()
            if line.startswith("# table ")]
    json_order = [t["space"] for t in tables_to_json_obj(tables)["tables"]]
    assert grid == json_order == ["Y", "Z:1", "Z:4", "U", "Uc"]
