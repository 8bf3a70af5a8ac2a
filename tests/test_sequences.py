import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigrade import (RankPin, SequenceTemplate, SequenceTerm,
                      TriFilteredTable, builtin_templates, check_exactness,
                      check_sequence, extract_lanes, family_tables,
                      infer_rank, parse_family)


def test_builtin_shapes():
    t = builtin_templates()
    assert set(t) == {"loc1", "loc2", "mirror-cs", "cs"}
    mcs = t["mirror-cs"]
    assert mcs.period == 2 and len(mcs.terms) == 4
    loc1 = t["loc1"]
    assert loc1.period == 1
    assert loc1.terms[2].shift == -1 and loc1.terms[2].twist == -1
    assert loc1.terms[2].k_offset == -1
    cs = t["cs"]
    assert cs.period == 2
    # both terms tied to the total space carry the +1 perverse shift
    assert cs.terms[0].shift == 1 and cs.terms[3].shift == 1
    assert cs.terms[2].twist == -1


def test_template_json_round_trip():
    for tmpl in builtin_templates().values():
        back = SequenceTemplate.from_json_obj(tmpl.to_json_obj())
        assert back == tmpl
    assert SequenceTemplate.from_json_obj("cs") == builtin_templates()["cs"]
    with pytest.raises(ValueError):
        SequenceTemplate.from_json_obj("nope")
    custom = SequenceTemplate.from_json_obj(
        {"period": 1, "terms": [{"space": "Y"}, {"space": "U", "twist": 1}]})
    assert custom.name == "custom"
    assert custom.terms[1] == SequenceTerm("U", twist=1)


def test_template_validation():
    with pytest.raises(ValueError):
        SequenceTemplate("bad", 0, (SequenceTerm("Y"),))
    with pytest.raises(ValueError):
        SequenceTemplate("bad", 1, ())


def test_check_exactness_short():
    res = check_exactness([1, 1])
    assert res.feasible and res.ranks == [1, 0]


def test_check_exactness_impossible():
    res = check_exactness([1, 0, 1])
    assert not res.feasible
    assert res.failure_index == 1
    assert "negative" in res.reason


def test_check_exactness_worked_chain():
    g = 3
    res = check_exactness([1, 22, 2 * g + 21, 2 * g + 21, 22, 1, 0, 1, 1])
    assert res.feasible
    assert res.ranks == [1, 21, 2 * g, 21, 1, 0, 0, 1, 0]


def test_check_exactness_rejects_negative_dims():
    with pytest.raises(ValueError):
        check_exactness([1, -1])


def _brute_force_feasible(dims):
    if not dims:
        return True
    spans = [range(min(a, b) + 1) for a, b in zip(dims, dims[1:])]
    spans.append(range(1))  # rank out of the last position must be 0
    for ranks in itertools.product(*spans):
        prev = 0
        for d, r in zip(dims, ranks):
            if prev + r != d:
                break
            prev = r
        else:
            return True
    return False


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_feasibility_matches_brute_force(dims):
    assert check_exactness(dims).feasible == _brute_force_feasible(dims)


def test_lanes_empty_tables():
    fam = family_tables(parse_family("k3-elliptic:r=1"))
    empty = {tag: TriFilteredTable(t.space, {}) for tag, t in fam.items()}
    assert extract_lanes(builtin_templates()["loc1"], empty) == []


def test_lanes_missing_table():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    del tables["Supported"]
    with pytest.raises(ValueError, match="Supported"):
        extract_lanes(builtin_templates()["cs"], tables)


def test_section_term_lane_placement():
    """The shifted, twisted section term lands its H^1 classes in the
    (l=2, q=3) lanes of the first localization sequence."""
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    lanes = {(lane.l, lane.q, lane.p): lane
             for lane in extract_lanes(builtin_templates()["loc1"], tables)}
    for p in (1, 2):
        lane = lanes[(2, 3, p)]
        hits = [e for e in lane.entries if e.term_index == 2 and e.dim]
        assert [(e.degree, e.dim) for e in hits] == [(1, 2)]


def test_lane_totals_worked_chain():
    """Summing the l=2 lanes of the fibration sequence over (q, p)
    reproduces the known total chain for the finite family."""
    g = 3
    tables = family_tables(parse_family(f"k3-finite:g={g}"))
    tmpl = builtin_templates()["mirror-cs"]
    lanes = [lane for lane in extract_lanes(tmpl, tables) if lane.l == 2]
    assert all(lane.residue == 0 for lane in lanes)
    sums: dict[tuple[int, int], int] = {}
    for lane in lanes:
        for j, e in enumerate(lane.entries):
            cycle = lane.start_cycle + (j // len(tmpl.terms)) * tmpl.period
            key = (cycle, j % len(tmpl.terms))
            sums[key] = sums.get(key, 0) + e.dim
    c_lo = min(c for c, _ in sums)
    c_hi = max(c for c, _ in sums)
    chain = [sums.get((c, i), 0)
             for c in range(c_lo, c_hi + 1, tmpl.period)
             for i in range(len(tmpl.terms))]
    while chain and chain[0] == 0:
        chain.pop(0)
    while chain and chain[-1] == 0:
        chain.pop()
    # The twisted terms also read the H^0 classes two cycles early; the
    # interior zero separates that prefix from the familiar H^0..H^4 run.
    assert chain == [1, 1, 0, 1, 22, 2 * g + 21, 2 * g + 21, 22, 1, 0, 1, 1]
    assert chain[3:] == [1, 22, 2 * g + 21, 2 * g + 21, 22, 1, 0, 1, 1]
    res = check_exactness(chain)
    assert res.feasible
    assert res.ranks[3:] == [1, 21, 2 * g, 21, 1, 0, 0, 1, 0]


def test_lane_decomposition_is_exhaustive(fixture_sets):
    """Every table entry is read exactly once per term that references the
    table, so lane dims total to the term-weighted table totals; and every
    lane entry is the read SequenceTerm.read_quad defines."""
    for spec, tables in fixture_sets.items():
        for name, tmpl in builtin_templates().items():
            if any(s not in tables for s in tmpl.spaces()):
                continue
            lanes = extract_lanes(tmpl, tables)
            lane_sum = sum(sum(lane.chain) for lane in lanes)
            term_sum = sum(tables[t.space].total_dim() for t in tmpl.terms)
            assert lane_sum == term_sum, (spec, name)
            for lane in lanes:
                for j, e in enumerate(lane.entries):
                    term = tmpl.terms[e.term_index]
                    c = lane.start_cycle + (j // len(tmpl.terms)) * tmpl.period
                    quad = term.read_quad(c, lane.l, lane.q, lane.p)
                    assert (e.degree, e.dim) == (quad[0], tables[term.space].dim(*quad))


def test_check_sequence_passes_fixtures(fixture_sets):
    for spec, tables in fixture_sets.items():
        names = ("loc1", "loc2", "mirror-cs") if "Y" in tables else ("cs",)
        for name in names:
            rep = check_sequence(builtin_templates()[name], tables)
            assert rep.passed, (spec, name, [v.relation for v in rep.violations])


def test_check_sequence_violation_names_lane():
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    y = tables["Y"]
    entries = dict(y.entries)
    entries[(2, 2, 2, 1)] = 17
    tables["Y"] = type(y)(y.space, entries)
    rep = check_sequence(builtin_templates()["mirror-cs"], tables)
    assert not rep.passed
    v = rep.violations[0]
    assert v.lane is not None and v.position is not None
    assert "exactness" in v.relation


def test_rank_pins():
    tables = family_tables(parse_family("k3-typeII:r=3"))
    cs = builtin_templates()["cs"]
    ok = [RankPin(term_index=1, rank=2, degree=2)]
    assert check_sequence(cs, tables, ok).passed
    bad = [RankPin(term_index=1, rank=3, degree=2)]
    rep = check_sequence(cs, tables, bad)
    assert not rep.passed
    assert any("pinned rank" in v.relation for v in rep.violations)
    with pytest.raises(ValueError):
        check_sequence(cs, tables, [RankPin(term_index=7, rank=0)])


def test_rank_pin_json():
    pin = RankPin.from_json_obj({"between": [1, 2], "rank": 2, "k": 2}, 4)
    assert pin == RankPin(1, 2, 2)
    assert pin.to_json_obj(4) == {"between": [1, 2], "rank": 2, "k": 2}
    wrap = RankPin.from_json_obj({"between": [3, 0], "rank": 1}, 4)
    assert wrap.term_index == 3 and wrap.degree is None
    with pytest.raises(ValueError):
        RankPin.from_json_obj({"between": [1, 3], "rank": 2}, 4)
    with pytest.raises(ValueError):
        RankPin.from_json_obj({"rank": 2}, 4)


def test_infer_rank_monodromy():
    cs = builtin_templates()["cs"]
    for spec in ("k3-typeII:r=2", "k3-typeII:r=5", "k3-typeIII:k=1", "k3-typeIII:k=4"):
        tables = family_tables(parse_family(spec))
        assert infer_rank(cs, tables, term_index=1, degree=2) == 2, spec


def test_infer_rank_restriction_map():
    """The map from the total space to the limit has rank 20 on H^2 for
    both degeneration types: 22 limit classes, phantom kernel removed."""
    cs = builtin_templates()["cs"]
    for spec in ("k3-typeII:r=2", "k3-typeIII:k=2"):
        tables = family_tables(parse_family(spec))
        assert tables["Xlim"].total_dim(2) == 22
        assert infer_rank(cs, tables, term_index=0, degree=2) == 20, spec


def test_infer_rank_needs_exactness():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    x = tables["Xlim"]
    entries = dict(x.entries)
    entries[(2, 2, 2, 1)] = 17
    tables["Xlim"] = type(x)(x.space, entries)
    with pytest.raises(ValueError, match="not exact"):
        infer_rank(builtin_templates()["cs"], tables, 1, 2)
