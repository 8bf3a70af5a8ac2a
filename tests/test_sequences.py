import itertools
import re
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigrade import (RankPin, SequenceTemplate, SequenceTerm, SpaceDescriptor,
                      TriFilteredTable, builtin_templates, check_exactness,
                      check_sequence, extract_lanes, family_tables,
                      infer_rank, parse_family)
import trigrade.sequences as sequences
from trigrade.sequences import _lane_pass, _lanes


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


def _naive_lanes(template, sources):
    """_lanes by its definition: every quad a term reads opens the lane and
    cycle it reads it under, and each cell of the window is read through
    SequenceTerm.read_quad."""
    P = template.period
    windows = {}
    for term in template.terms:
        for quad in sources[term.space]:
            c = quad[0] - term.k_offset
            lane = (quad[1] - term.shift, quad[2] - 2 * term.twist, quad[3] - term.twist)
            assert term.read_quad(c, *lane) == quad
            windows.setdefault((*lane, c % P), []).append(c)
    out = []
    for key in sorted(windows):
        c_lo, c_hi = min(windows[key]), max(windows[key])
        cells = [sources[t.space].get(t.read_quad(c, *key[:3]), 0)
                 for c in range(c_lo, c_hi + 1, P) for t in template.terms]
        out.append((key, (c_lo, cells)))
    return out


_offset = st.integers(-3, 3)
# narrow (l, q, p) ranges, so that lanes span several cycles
_quad = st.tuples(st.integers(-4, 4), *[st.integers(-1, 1)] * 3)


@st.composite
def _template_and_sources(draw):
    terms = draw(st.lists(st.builds(SequenceTerm, st.sampled_from("ABC"),
                                    _offset, _offset, _offset),
                          min_size=1, max_size=5))
    if len(terms) > 1:  # one space read by two terms
        terms[-1] = SequenceTerm(terms[0].space, terms[-1].k_offset,
                                 terms[-1].shift, terms[-1].twist)
    template = SequenceTemplate("random", draw(st.integers(1, 3)), tuple(terms))
    # values are dimensions or, as in the solver's overlay, ~slot, negative
    value = st.integers(-9, 9)
    sources = {s: draw(st.dictionaries(_quad, value, max_size=10))
               for s in template.spaces()}
    return template, sources


@given(_template_and_sources())
def test_lanes_match_naive_reads(case):
    """The one pass builds the naive lanes.  When the sources hold no 0, as
    tables and the solver's overlay never do, a lane of one cycle with one
    nonzero cell is reached by one read alone, which the solver's isolated
    cells rest on."""
    template, sources = case
    lanes = _lanes(template, sources)
    assert sorted(lanes.items()) == _naive_lanes(template, sources)
    if any(0 in source.values() for source in sources.values()):
        return
    T, P = len(template.terms), template.period
    reads = Counter((l - t.shift, q - 2 * t.twist, p - t.twist, (k - t.k_offset) % P)
                    for t in template.terms for k, l, q, p in sources[t.space])
    assert all(reads[key] == 1 for key, (_c_lo, cells) in lanes.items()
               if len(cells) == T and cells.count(0) == T - 1)


@given(_template_and_sources())
def test_lanes_that_ask_the_window_pass_at_the_first_read_are_the_same(case):
    """With no allowance, the first read makes _lanes call _windows, which
    accepts, and the pass goes on to build the same lanes as without the
    call."""
    template, sources = case
    lanes = _lanes(template, sources)
    windows, calls = sequences._windows, []
    with mock.patch.object(sequences, "LANE_ALLOWANCE", 0), \
            mock.patch.object(sequences, "_windows",
                              lambda *args: calls.append(1) or windows(*args)):
        assert _lanes(template, sources) == lanes
    assert calls == ([1] if lanes else [])


@st.composite
def _far_reaching_instances(draw):
    """An instance of _template_and_sources, with at times one entry in a
    degree whose cycle may lie outside [-2 MAX_DEGREE, 2 MAX_DEGREE]."""
    template, sources = draw(_template_and_sources())
    if draw(st.booleans()):
        k = draw(st.sampled_from([-72, -66, 66, 72]))
        _k, l, q, p = draw(_quad)
        sources[draw(st.sampled_from(template.spaces()))][(k, l, q, p)] = draw(st.integers(-9, 9))
    return template, sources


@given(_far_reaching_instances(), st.integers(0, 400), st.data())
def test_lanes_refuse_as_the_window_pass_does(case, budget, data):
    """Under a small cell budget and an allowance within it, _lanes raises
    exactly when _windows raises, with its message, and otherwise builds
    the naive lanes."""
    template, sources = case
    allowance = data.draw(st.integers(0, budget))
    with mock.patch.object(sequences, "MAX_LANE_CELLS", budget), \
            mock.patch.object(sequences, "LANE_ALLOWANCE", allowance):
        try:
            sequences._windows(template, sources)
            error = None
        except ValueError as exc:
            error = str(exc)
        if error is not None:
            with pytest.raises(ValueError) as exc:
                _lanes(template, sources)
            assert str(exc.value) == error
            return
        lanes = _lanes(template, sources)
    assert sorted(lanes.items()) == _naive_lanes(template, sources)


@given(_template_and_sources())
def test_lane_pass_returns_the_lanes_it_cannot_pass(case):
    """_lane_pass returns every lane holding a negative cell, as the
    solver's overlay writes an unknown, and of the other lanes exactly those
    that check_exactness rejects, each as it took it."""
    template, sources = case
    lanes = _lanes(template, sources)
    failures, totals = _lane_pass(template, lanes.items(), [])
    assert totals == []
    assert sorted(failures) == sorted(
        (key, lane) for key, lane in lanes.items()
        if min(lane[1]) < 0 or not check_exactness(lane[1]).feasible)
    assert all(lane is lanes[key] for key, lane in failures)


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


@pytest.mark.parametrize("fields", [
    (True, 0, None), (0.0, 0, None), (0, "2", None), (0, False, None),
    (0, 2, 1.0), (0, 2, True), (0, -1, None), (0, -3, 2),
], ids=["index-bool", "index-float", "rank-str", "rank-bool", "degree-float",
        "degree-bool", "rank-negative", "rank-negative-with-degree"])
def test_rank_pin_fields_are_checked_on_construction(fields):
    with pytest.raises(ValueError, match="pin"):
        RankPin(*fields)


def test_rank_pin_json_shares_the_constructor_rule():
    with pytest.raises(ValueError, match="nonnegative"):
        RankPin.from_json_obj({"between": [0, 1], "rank": -3}, 3)
    with pytest.raises(ValueError, match="integer"):
        RankPin.from_json_obj({"between": [0, "1"], "rank": 1}, 3)
    assert RankPin(0, 0) == RankPin.from_json_obj({"between": [0, 1], "rank": 0}, 3)


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


def _plus_one(tables, *cells):
    """A copy of ``tables`` with 1 added to each (tag, quad) cell."""
    out = dict(tables)
    for tag, quad in cells:
        t = out[tag]
        entries = dict(t.entries)
        entries[quad] = entries.get(quad, 0) + 1
        out[tag] = TriFilteredTable(t.space, entries)
    return out


def test_check_and_infer_refuse_an_all_empty_instance():
    """loc1 over empty Y, U and Z:1 has no lane to check: check_sequence and
    infer_rank raise, as the CLI's check does, rather than pass or return 0.
    One entry in a table the template reads is enough to check lanes."""
    loc1 = builtin_templates()["loc1"]
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    empty = {tag: TriFilteredTable(tables[tag].space, {}) for tag in ("Y", "U", "Z:1")}
    message = "^nothing checked: the tables 'loc1' reads are all empty$"
    with pytest.raises(ValueError, match=message):
        check_sequence(loc1, empty)
    with pytest.raises(ValueError, match=message):
        infer_rank(loc1, empty, 0)
    with pytest.raises(ValueError, match=message):
        check_sequence(loc1, {**empty, "Uc": tables["Uc"]})  # a table loc1 does not read
    assert not check_sequence(loc1, {**empty, "Y": tables["Y"]}).passed


@pytest.mark.parametrize("empty", [False, True])
def test_pin_outside_template_raises_everywhere(empty):
    from trigrade import solve_unknown
    tmpl = builtin_templates()["loc1"]
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    if empty:
        instances = [{tag: TriFilteredTable(t.space, {}) for tag, t in tables.items()}]
    else:
        # an exact instance, and one whose lanes fail before any pin is read
        instances = [tables, _plus_one(tables, ("Y", (2, 2, 2, 1)))]
    pin = RankPin(5, 0)
    for tables in instances:
        with pytest.raises(ValueError, match="pin names term 5"):
            check_sequence(tmpl, tables, [pin])
        with pytest.raises(ValueError, match="pin names term 5"):
            infer_rank(tmpl, tables, pin.term_index)
        known = {tag: t for tag, t in tables.items() if tag != "U"}
        with pytest.raises(ValueError, match="pin names term 5"):
            solve_unknown(tmpl, known, "U", [pin])


def test_pin_outside_template_raises_before_a_missing_table():
    """A bad pin is refused first on an instance missing a table, by solve
    as by check and infer: all three check the pins with the instance."""
    from trigrade import solve_unknown
    tmpl = builtin_templates()["loc1"]
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    del tables["Z:1"]
    pin = RankPin(5, 0)
    with pytest.raises(ValueError, match="pin names term 5"):
        check_sequence(tmpl, tables, [pin])
    with pytest.raises(ValueError, match="pin names term 5"):
        infer_rank(tmpl, tables, pin.term_index)
    known = {tag: t for tag, t in tables.items() if tag != "U"}
    with pytest.raises(ValueError, match="pin names term 5"):
        solve_unknown(tmpl, known, "U", [pin])


@pytest.mark.parametrize("term_index, degree, message", [
    (True, 2, "pin term index must be an integer, got True"),
    (1.0, 2, "pin term index must be an integer, got 1.0"),
    ("1", 2, "pin term index must be an integer, got '1'"),
    (1, True, "pin degree must be an integer, got True"),
    (1, 2.0, "pin degree must be an integer, got 2.0"),
], ids=["term-bool", "term-float", "term-str", "degree-bool", "degree-float"])
def test_infer_rank_takes_the_integer_rule_of_a_pin(term_index, degree, message):
    """infer_rank reads its term and degree as a RankPin's: True is not
    term 1, nor 2.0 degree 2."""
    tables = family_tables(parse_family("k3-typeII:r=2"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        infer_rank(builtin_templates()["cs"], tables, term_index, degree)


def _reference_report(template, tables, pins):
    """check_sequence by its definition: every lane of extract_lanes through
    check_exactness in (l, q, p, residue) order; pins, summed over the
    entries reading the pinned term (in the pinned degree), only when every
    lane is exact."""
    lanes = sorted(extract_lanes(template, tables), key=lambda lane: (lane.key, lane.residue))
    results = [(lane, check_exactness(lane.chain)) for lane in lanes]
    violations = []
    for lane, res in results:
        if not res.feasible:
            e = lane.entries[res.failure_index]
            space = template.terms[e.term_index].space
            l, q, p = lane.key
            violations.append({
                "relation": f"exactness: {res.reason} ({lane.describe()}, "
                            f"term {e.term_index} [{space}] in degree {e.degree})",
                "space": space, "lane": {"l": l, "q": q, "p": p},
                "position": res.failure_index})
    if not violations:
        for pin in pins:
            total = sum(res.ranks[i] for lane, res in results
                        for i, e in enumerate(lane.entries)
                        if e.term_index == pin.term_index and pin.degree in (None, e.degree))
            if total != pin.rank:
                space = template.terms[pin.term_index].space
                at = "" if pin.degree is None else f" in degree {pin.degree}"
                violations.append({
                    "relation": f"pinned rank: map out of term {pin.term_index} [{space}]"
                                f"{at} has total rank {total}, pinned {pin.rank}"})
    return {"pass": not violations, "violations": violations}


# (spec, template, +1 cells, failing lanes).  The new Z:1 cell opens a lane
# that does not close; the cs cells fail lanes of both residues, and a
# residue 1 lane comes before a residue 0 lane in the checking order.
_DIFFERENTIAL = [
    ("k3-elliptic:r=2", "loc1", (("Y", (2, 2, 2, 1)), ("Z:1", (0, 5, 0, 0))), 2),
    ("k3-elliptic:r=2", "loc1",
     (("Y", (0, 1, 0, 0)), ("Y", (2, 2, 2, 1)), ("Y", (4, 3, 4, 2))), 3),
    ("k3-typeII:r=2", "cs", (("Total", (3, 3, 3, 1)), ("Xlim", (4, 4, 4, 2))), 3),
    ("k3-typeII:r=2", "cs", (("Total", (3, 3, 3, 1)), ("Supported", (4, 4, 4, 2))), 2),
    ("k3-finite:g=3", "mirror-cs", (("Uc", (2, 2, 2, 1)), ("Y", (4, 2, 4, 2))), 2),
]


@pytest.mark.parametrize("case", _DIFFERENTIAL,
                         ids=[f"{spec}-{name}-{n}failing" for spec, name, _, n in _DIFFERENTIAL])
def test_check_sequence_matches_reference(case):
    spec, name, cells, n_failing = case
    tmpl = builtin_templates()[name]
    exact = family_tables(parse_family(spec))
    mutated = _plus_one(exact, *cells)
    T = len(tmpl.terms)
    pin_sets = [[], [RankPin(i, r) for i in range(T) for r in (0, 2)],
                [RankPin(i, r, k) for i in range(T) for k in (0, 2, 3) for r in (1, 2, 20)]]
    for tables in (exact, mutated):
        for pins in pin_sets:
            got = check_sequence(tmpl, tables, pins).to_json_obj()
            assert got == _reference_report(tmpl, tables, pins), (name, pins)
    failing = _reference_report(tmpl, mutated, [])["violations"]
    assert len(failing) == n_failing
    # infer_rank names the first failing lane in the checking order
    first = min((lane for lane in extract_lanes(tmpl, mutated)
                 if not check_exactness(lane.chain).feasible),
                key=lambda lane: (lane.key, lane.residue))
    with pytest.raises(ValueError) as exc:
        infer_rank(tmpl, mutated, 0)
    assert str(exc.value) == (f"cannot infer ranks: {first.describe()} is not exact "
                              f"({check_exactness(first.chain).reason})")


def test_a_failing_lane_is_reported_from_its_failing_cell():
    """A template of 300 terms, all reading Y with k_offsets cycling through
    -34..34, opens 7 lanes of 20,700 cells on k3-elliptic:r=2, and every one
    fails.  Each violation is built from its failing cell alone: the check
    peaks under 2 MB, where the lanes' cells take 1.2 MB and a LaneEntry for
    each cell of the failing lanes would take over 10 MB."""
    tmpl = SequenceTemplate("wide", 1, tuple(
        SequenceTerm("Y", k_offset=-34 + i % 69) for i in range(300)))
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    tracemalloc.start()
    try:
        got = check_sequence(tmpl, tables).to_json_obj()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got["violations"]) == 7
    assert peak < 2 << 20, peak
    assert got == _reference_report(tmpl, tables, [])


@st.composite
def _padded_lanes(draw):
    """A template; up to 3 lanes of its cells, in key order; the same lanes
    with whole cycles of zeros added at the front and back, the first
    cycle moved back by the period for each cycle added in front; and up to
    2 pins."""
    offsets = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
    T, P = len(offsets), draw(st.integers(1, 3))
    template = SequenceTemplate("random", P, tuple(SequenceTerm("Y", ko) for ko in offsets))
    bare, padded = [], []
    for l in range(draw(st.integers(1, 3))):
        c_lo = draw(st.integers(-4, 4))
        size = T * draw(st.integers(1, 4))
        cells = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        front, back = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        key = (l, 0, 0, c_lo % P)
        bare.append((key, (c_lo, cells)))
        padded.append((key, (c_lo - front * P, [0] * (front * T) + cells + [0] * (back * T))))
    pins = draw(st.lists(st.builds(RankPin, st.integers(0, T - 1), st.integers(0, 6),
                                   st.none() | st.integers(-6, 14)), max_size=2))
    return template, bare, padded, pins


@given(_padded_lanes())
def test_report_is_the_same_on_zero_padded_lanes(case):
    """_sequence_report, fed what _lane_pass returns as both its callers
    feed it, gives the same violations on lanes padded with whole cycles of
    zeros as on the bare lanes: the same exactness failures at the same
    positions and, when every lane is exact, the same pinned totals."""
    template, bare, padded, pins = case
    reports = [sequences._sequence_report(template, *_lane_pass(template, lanes, pins), pins)
               for lanes in (bare, padded)]
    assert reports[0].to_json_obj() == reports[1].to_json_obj()


def test_lanes_opened_term_by_term_are_refused_early():
    """100 terms read Y, each with a twist of its own, so each term opens a
    lane for every entry: 200,000 lanes of 100 cells on a table of 2,000
    entries.  _lanes opens lanes until they would pass LANE_ALLOWANCE cells,
    then calls _windows, whose first pass refuses the instance once the
    lanes it has opened hold more than MAX_LANE_CELLS cells, before their
    windows fill memory (46 MB under tracemalloc when only the sum between
    the passes refused it)."""
    entries = {(k, l, k, 0): 1 for k in range(20) for l in range(100)}
    tables = {"Y": TriFilteredTable(SpaceDescriptor("Y", 16, 1), entries)}
    tmpl = SequenceTemplate("twists", 1, tuple(SequenceTerm("Y", twist=i) for i in range(100)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^the lanes of this instance would hold more "
                                             "than 1000000 cells$"):
            check_sequence(tmpl, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
