import json
from pathlib import Path

import pytest

from solver_cases import result_obj, run_case
from trigrade import (RankPin, SequenceTemplate, SequenceTerm,
                      SpaceDescriptor, TriFilteredTable, builtin_templates,
                      family_tables, parse_family, solve_unknown, support_box)


def test_support_box_contains_all_fixture_entries(fixture_sets):
    for spec, tables in fixture_sets.items():
        for tag, table in tables.items():
            box = support_box(table.space)
            outside = [q for q in table.entries if q not in box]
            assert not outside, (spec, tag, outside)


def test_support_box_degree_restriction():
    space = SpaceDescriptor("Uc", 2, 1)
    full = support_box(space)
    deg2 = support_box(space, 2)
    assert deg2 == {q for q in full if q[0] == 2}
    assert support_box(space, 9) == set()


def test_solver_reproduces_golden():
    """Every case of the regression golden gives the recorded SolveResult:
    tables, open intervals, reports and iteration counts."""
    golden = json.loads((Path(__file__).parent / "golden" / "solver_results.json").read_text())
    assert len(golden) > 200
    assert max(e["result"]["iterations"] for e in golden) > 2
    for entry in golden:
        assert result_obj(run_case(entry["case"])) == entry["result"], entry["case"]


def test_recover_limit_table():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    known = {t: tab for t, tab in tables.items() if t != "Xlim"}
    res = solve_unknown(builtin_templates()["cs"], known, "Xlim")
    assert res.determined
    assert res.underdetermined == []
    assert res.table.entries == tables["Xlim"].entries
    assert res.table.space == tables["Xlim"].space
    assert res.report.passed
    assert res.iterations < 10


def test_delete_and_resolve_every_table(fixture_sets):
    """Deleting any single table and re-solving never invents a wrong value:
    determined cells match the fixture exactly and every loose interval
    still contains the true dimension."""
    loose = set()
    combos = 0
    for spec, tables in fixture_sets.items():
        for name, tmpl in builtin_templates().items():
            if any(s not in tables for s in tmpl.spaces()):
                continue
            for tag in tmpl.spaces():
                combos += 1
                known = {t: tab for t, tab in tables.items() if t != tag}
                res = solve_unknown(tmpl, known, tag)
                assert res.table is not None, (spec, name, tag)
                under = {q: (lo, hi) for q, lo, hi in res.underdetermined}
                for quad in support_box(tables[tag].space):
                    truth = tables[tag].dim(*quad)
                    if quad in under:
                        lo, hi = under[quad]
                        assert lo <= truth and (hi is None or truth <= hi), \
                            (spec, name, tag, quad)
                    else:
                        assert res.table.dim(*quad) == truth, (spec, name, tag, quad)
                if res.determined:
                    assert res.report.passed, (spec, name, tag)
                else:
                    loose.add((spec, name, tag))
    assert combos == 24
    assert loose == {("k3-finite:g=3", "loc1", "U"),
                     ("k3-finite:g=3", "loc2", "Uc")}


def test_underdetermined_intervals_reported():
    g = 3
    tables = family_tables(parse_family(f"k3-finite:g={g}"))
    known = {t: tab for t, tab in tables.items() if t != "U"}
    res = solve_unknown(builtin_templates()["loc1"], known, "U")
    assert not res.determined
    under = {q: (lo, hi) for q, lo, hi in res.underdetermined}
    # a rank-1 piece can sit on either side of the H^1 -> H^2 boundary
    assert under == {(1, 2, 2, 1): (0, 1), (2, 2, 2, 1): (19, 20)}
    # cells outside the ambiguity are still pinned down
    assert res.table.dim(2, 2, 3, 1) == g


def test_pin_resolves_ambiguity():
    tables = family_tables(parse_family("k3-finite:g=3"))
    known = {t: tab for t, tab in tables.items() if t != "U"}
    pin = RankPin(term_index=1, rank=0, degree=1)
    res = solve_unknown(builtin_templates()["loc1"], known, "U", pins=[pin])
    assert res.determined
    assert res.table.entries == tables["U"].entries
    assert res.report.passed


def test_pin_consistent_with_full_solve():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    known = {t: tab for t, tab in tables.items() if t != "Xlim"}
    pin = RankPin(term_index=1, rank=2, degree=2)
    res = solve_unknown(builtin_templates()["cs"], known, "Xlim", pins=[pin])
    assert res.determined
    assert res.table.entries == tables["Xlim"].entries
    assert res.report.passed


def test_pin_contradiction():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    known = {t: tab for t, tab in tables.items() if t != "Xlim"}
    pin = RankPin(term_index=1, rank=5, degree=2)
    res = solve_unknown(builtin_templates()["cs"], known, "Xlim", pins=[pin])
    assert res.table is None
    assert not res.determined
    assert not res.report.passed
    assert any("pin" in v.relation for v in res.report.violations)


def test_contradictory_tables_report_lane():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    total = tables["Total"]
    entries = dict(total.entries)
    entries[(0, 1, 0, 0)] = 2
    tables["Total"] = TriFilteredTable(total.space, entries)
    known = {t: tab for t, tab in tables.items() if t != "Xlim"}
    res = solve_unknown(builtin_templates()["cs"], known, "Xlim")
    assert res.table is None
    assert not res.report.passed
    v = res.report.violations[0]
    assert "solve contradiction" in v.relation
    assert v.lane is not None


def test_zero_environment_forces_zero_table():
    empty = {
        "Total": TriFilteredTable(SpaceDescriptor("Total", 2), {}),
        "Supported": TriFilteredTable(SpaceDescriptor("Supported", 2), {}),
    }
    res = solve_unknown(builtin_templates()["cs"], empty, "Xlim")
    assert res.determined
    assert res.table.entries == {}
    assert res.report.passed


def test_partial_degree_solve():
    tables = family_tables(parse_family("k3-typeII:r=3"))
    x = tables["Xlim"]
    corrupted = {q: (5 if q[0] == 2 else d) for q, d in x.entries.items()}
    tables["Xlim"] = TriFilteredTable(x.space, corrupted)
    res = solve_unknown(builtin_templates()["cs"], tables, ("Xlim", 2))
    assert res.determined
    assert res.table.entries == x.entries
    assert res.report.passed


def test_partial_solve_needs_stored_table():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    known = {t: tab for t, tab in tables.items() if t != "Xlim"}
    with pytest.raises(ValueError, match="needs the table present"):
        solve_unknown(builtin_templates()["cs"], known, ("Xlim", 2))


def test_unknown_must_be_referenced():
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    with pytest.raises(ValueError, match="never references"):
        solve_unknown(builtin_templates()["loc1"], tables, "Total")


def test_unknown_spec_validation():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    with pytest.raises(ValueError, match="unknown must be"):
        solve_unknown(builtin_templates()["cs"], tables, 3.5)


def test_missing_companion_tables():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    known = {"Total": tables["Total"]}
    with pytest.raises(ValueError, match="missing"):
        solve_unknown(builtin_templates()["cs"], known, "Xlim")


def test_descriptor_inference_needs_a_table():
    tmpl = SequenceTemplate("solo", 1, (SequenceTerm("Y"),))
    with pytest.raises(ValueError, match="infer"):
        solve_unknown(tmpl, {}, "Y")


def test_uncoupled_reads_stay_unbounded():
    """A template reading the unknown twice at the same quadruple imposes no
    upper bound at all, and the solver says so instead of guessing."""
    tmpl = SequenceTemplate("twice", 1, (
        SequenceTerm("Y"), SequenceTerm("Y"), SequenceTerm("U")))
    tables = {"U": TriFilteredTable(SpaceDescriptor("U", 2, 1), {})}
    res = solve_unknown(tmpl, tables, "Y")
    assert not res.determined
    assert any(hi is None for _q, _lo, hi in res.underdetermined)
