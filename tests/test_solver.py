import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_tables
import trigrade.solver as solver
from solver_cases import result_obj, run_case
from trigrade import (RankPin, SequenceTemplate, SequenceTerm,
                      SpaceDescriptor, TriFilteredTable, builtin_templates,
                      check_exactness, check_sequence, family_tables, infer_rank,
                      parse_family, solve_unknown, support_box)
from trigrade.sequences import MAX_LANE_CELLS, _lanes, _pin_positions


def test_support_box_contains_all_fixture_entries(fixture_sets):
    for spec, tables in fixture_sets.items():
        for tag, table in tables.items():
            box = support_box(table.space)
            outside = [q for q in table.entries if q not in box]
            assert not outside, (spec, tag, outside)


@pytest.mark.parametrize("degree", [True, 2.0])
def test_support_box_degree_takes_the_integer_rule(degree):
    """A degree that is no int is refused, not read as the int it equals."""
    space = family_tables(parse_family("k3-typeII:r=2"))["Xlim"].space
    with pytest.raises(ValueError, match=f"^degree must be an integer, got {degree}$"):
        support_box(space, degree)


def test_support_box_degree_restriction():
    space = SpaceDescriptor("Uc", 2, 1)
    full = support_box(space)
    deg2 = support_box(space, 2)
    assert deg2 == {q for q in full if q[0] == 2}
    assert support_box(space, 9) == set()


def _golden():
    return json.loads((Path(__file__).parent / "golden" / "solver_results.json").read_text())


def _assert_exact_bounds(res):
    """An open cell's bounds leave the solver as exact ints, hi None when
    unbounded above: a float 3.0 would pass an == comparison with 3."""
    for quad, lo, hi in res.underdetermined:
        assert type(lo) is int and (hi is None or type(hi) is int), (quad, lo, hi)


def test_solver_reproduces_golden():
    """Every case of the regression golden gives the recorded SolveResult:
    tables, open intervals, reports and iteration counts."""
    golden = _golden()
    assert len(golden) > 200
    assert max(e["result"]["iterations"] for e in golden) > 2
    for entry in golden:
        res = run_case(entry["case"])
        _assert_exact_bounds(res)
        assert result_obj(res) == entry["result"], entry["case"]


INF = solver.INF


def _full_sweep(box, lanes, pin_occ, pins, intervals, limit=10000):
    """Reference propagation: every lane every round through the interval
    passes alone (no closed form), then the pin caps; unbounded is the
    solver's INF.  A cell ~slot < 0 is the unknown box[slot], with interval
    intervals[slot].  Tightens ``intervals`` and returns what
    solver._propagate returns, or raises after ``limit`` rounds."""
    caps = {}  # (lane, boundary rank) -> (lo, hi)
    for rounds in range(1, limit + 1):
        changed = False
        ranks = []  # each lane's boundary rank intervals, this round
        for li, (key, (_c_lo, cells)) in enumerate(lanes):
            d = [intervals[~c] if c < 0 else (c, c) for c in cells]
            n = len(d)
            fwd = [(0, 0)]
            for i, (d_lo, d_hi) in enumerate(d):
                c_lo, c_hi = caps.get((li, i + 1), (0, INF))
                lo = max(d_lo - fwd[i][1], 0, c_lo)
                hi = min(d_hi - fwd[i][0], c_hi)
                if lo > hi:
                    return rounds, (key, i, "rank forced negative or above its pin")
                fwd.append((lo, hi))
            if fwd[n][0] > 0:
                return rounds, (key, n - 1, "chain cannot close")
            back = [None] * n + [(0, 0)]
            for i in reversed(range(n)):
                lo = max(d[i][0] - back[i + 1][1], 0, fwd[i][0])
                hi = min(d[i][1] - back[i + 1][0], fwd[i][1])
                if lo > hi:
                    return rounds, (key, i, "forward and backward ranks incompatible")
                back[i] = (lo, hi)
            ranks.append(back)
            for i, cell in enumerate(cells):
                if cell >= 0:
                    continue
                cur = intervals[~cell]
                lo = max(cur[0], back[i][0] + back[i + 1][0])
                hi = min(cur[1], back[i][1] + back[i + 1][1])
                if lo > hi:
                    return rounds, (key, i, f"cell {box[~cell]} has no feasible dimension")
                if (lo, hi) != cur:
                    intervals[~cell] = (lo, hi)
                    changed = True
        for pin, occ in zip(pins, pin_occ):
            ivs = [ranks[li][j] for li, j in occ]
            lo_sum, hi_sum = sum(lo for lo, _ in ivs), sum(hi for _, hi in ivs)
            if not lo_sum <= pin.rank <= hi_sum:
                key = lanes[occ[0][0]][0] if occ else ("*",) * 4
                reach = f"[{lo_sum}, {None if hi_sum == INF else hi_sum}]"
                return rounds, (key, None, f"pinned rank {pin.rank} outside reachable {reach}")
            for at, (lo, hi) in zip(occ, ivs):
                others = [iv for other, iv in zip(occ, ivs) if other != at]
                cap = (max(lo, pin.rank - sum(o_hi for _, o_hi in others)),
                       min(hi, pin.rank - sum(o_lo for o_lo, _ in others)))
                prev = caps.get(at, (-INF, INF))
                cap = (max(cap[0], prev[0]), min(cap[1], prev[1]))
                if cap != prev:
                    caps[at] = cap
                    changed = True
        if not changed:
            return rounds, None
    raise AssertionError("the full sweep did not converge")


def _unsplit(template, sources, pins):
    """The whole lane system, by its definition: every lane _lanes builds,
    known lanes included, in key order, and each pin's (lane, boundary rank)
    pairs over them."""
    lanes = sorted(_lanes(template, sources).items())
    pin_occ = [[(li, j + 1) for li, (_key, (c_lo, cells)) in enumerate(lanes)
                for j in _pin_positions(template, pin, c_lo, len(cells))]
               for pin in pins]
    return lanes, pin_occ


def _isolated(template, lanes, box, pins):
    """The slots of the isolated cells, by their definition: with no pins,
    every lane reading the cell, of ``lanes``, holds it as one cycle's one
    nonzero cell."""
    T = len(template.terms)
    readers = [[] for _ in box]
    for _key, (_c_lo, cells) in lanes:
        for cell in cells:
            if cell < 0:
                readers[~cell].append(cells)
    return [] if pins else [slot for slot, reading in enumerate(readers)
                            if all(len(cells) == T and cells.count(0) == T - 1
                                   for cells in reading)]


def _beside_a_full_sweep(system, args, case=None):
    """solver._propagate over ``system``, _assemble's of ``args``, beside
    _full_sweep over every lane _lanes builds, the isolated cells' lanes
    included: the same round count and contradiction, and the same
    intervals.  After a contradiction the isolated cells may differ, and
    the solve reads no interval: _propagate sets them to 0 before round 1,
    the sweep when it reaches their lanes.  Returns what _propagate does."""
    template, sources, box, pins, _tag = args
    worklist = [(0, INF)] * len(box)
    sweep = list(worklist)
    got = solver._propagate(system, pins, worklist)
    assert got == _full_sweep(box, *_unsplit(template, sources, pins), pins, sweep), case
    isolated = set(system[6]) if got[1] is not None else set()
    assert [iv for slot, iv in enumerate(worklist) if slot not in isolated] == \
        [iv for slot, iv in enumerate(sweep) if slot not in isolated], case
    return got


def test_worklist_and_closed_form_match_a_full_sweep(monkeypatch):
    """The solver module docstring's claims, on every golden case: closing
    the isolated cells at assembly, passing the exact lanes no pin reads
    once and propagating the others with the worklist gives a full sweep of
    every lane's intervals, contradiction and round count, and the closed
    form gives what the interval passes give.  The isolated cells are those
    of the definition, none in a pinned case and some in others; their lanes
    are dropped, and the propagated lanes are the other lanes holding an
    unknown cell, a pin occurrence or a failing chain, in key order.  A cs
    solve for Xlim keeps in the system the lane of a cell read once between
    zeros and once beside known cells.  Each pin sums the same ranks of the
    same lanes as over every lane, and the lanes' readers, repeats and
    one-unknown positions are those of a scan of their cells.  The golden
    holds contradictions on a lane of known dimensions, and contradictions
    on a lane reading an unknown cell that comes before a failing lane of
    known dimensions."""
    golden = _golden()
    assemble, calls = solver._assemble, []
    monkeypatch.setattr(solver, "_assemble", lambda *args: calls.append(args) or assemble(*args))
    outcomes = {"contradiction": 0, "pinned": 0, "known lane reported": 0,
                "read lane before a failing known lane": 0}
    isolating, lone_read_kept = 0, 0
    for entry in golden:
        calls.clear()
        run_case(entry["case"])
        (args,) = calls
        template, sources, box, pins, tag = args
        _box, lanes, readers, repeats, single, occ_got, isolated = system = assemble(*args)
        every_lane, pin_occ = _unsplit(template, sources, pins)
        assert list(isolated) == _isolated(template, every_lane, box, pins), entry["case"]
        # each isolated cell keeps the lanes holding it, to verify it by
        assert {slot: sorted(kept) for slot, kept in isolated.items()} == \
            {slot: [lane for lane in every_lane if ~slot in lane[1][1]]
             for slot in isolated}, entry["case"]
        assert not (pins and isolated), entry["case"]
        isolating += bool(isolated)
        known = [lane for lane in every_lane if min(lane[1][1]) >= 0]
        pinned = {li for occ in pin_occ for li, _j in occ}
        closed = {~slot for slot in isolated}
        assert lanes == [lane for li, lane in enumerate(every_lane)
                         if not closed.intersection(lane[1][1])
                         and (lane not in known or li in pinned
                              or not check_exactness(lane[1][1]).feasible)], entry["case"]
        assert [[(lanes[li][0], j) for li, j in occ] for occ in occ_got] == \
            [[(every_lane[li][0], j) for li, j in occ] for occ in pin_occ], entry["case"]
        if (template.name, tag, pins) == ("cs", "Xlim", []):
            # a lane of one cycle, 4 cells, holding an unknown between zeros
            lone_read_kept += any(len(cells) == 4 and cells.count(0) == 3 and min(cells) < 0
                                  for _key, (_c_lo, cells) in lanes)

        scan = [set() for _ in box]
        for li, (_key, (_c_lo, cells)) in enumerate(lanes):
            unknown = [i for i, c in enumerate(cells) if c < 0]
            for i in unknown:
                scan[~cells[i]].add(li)
            assert repeats[li] == (len({cells[i] for i in unknown}) < len(unknown))
            assert single[li] == (unknown[0] if len(unknown) == 1 else None)
        assert [sorted(lis) for lis in readers] == [sorted(lis) for lis in scan], entry["case"]

        got = _beside_a_full_sweep(system, args, entry["case"])
        assert got[0] == entry["result"]["iterations"]
        outcomes["contradiction"] += got[1] is not None
        outcomes["pinned"] += bool(pins)
        failing = [key for key, (_c_lo, cells) in known if not check_exactness(cells).feasible]
        if failing:
            reported = "known lane reported" if got[1][0] == failing[0] else \
                "read lane before a failing known lane"
            outcomes[reported] += 1
    assert len(golden) == 390
    assert outcomes == {"contradiction": 175, "pinned": 189, "known lane reported": 17,
                        "read lane before a failing known lane": 2}
    assert (isolating, lone_read_kept) == (183, 17)


def _system(monkeypatch, template, tables, unknown, pins=()):
    """_assemble's arguments and system in solve_unknown(template, tables,
    unknown, pins)."""
    assemble, calls = solver._assemble, []
    monkeypatch.setattr(solver, "_assemble", lambda *args: calls.append(args) or assemble(*args))
    solve_unknown(template, tables, unknown, list(pins))
    (args,) = calls
    return args, assemble(*args)


def test_lone_lanes_are_one_cycle_around_one_unknown(monkeypatch):
    """A lone lane holds one unknown between zeros, and a cell is isolated
    when each of its reads lies in one.  In a degree solve, a lane whose
    only nonzero cell is a known degree of the unknown's own table is not
    lone; a cell that one lane reads twice is not isolated; nor is a cs
    Xlim cell with one lone read and one read beside known cells; and with
    a pin nothing is isolated."""
    # (U, Y), degree 1 of U unknown: U(0, 0, 0, 0) = 2 alone in its lane
    pair = SequenceTemplate("pair", 1, (SequenceTerm("U"), SequenceTerm("Y")))
    tables = {"U": TriFilteredTable(SpaceDescriptor("U", 2, 1), {(0, 0, 0, 0): 2}),
              "Y": TriFilteredTable(SpaceDescriptor("Y", 2, 1), {})}
    (_t, _s, box, _p, _tag), system = _system(monkeypatch, pair, tables, ("U", 1))
    _box, lanes, _readers, _repeats, _single, _occ, isolated = system
    assert lanes == [((0, 0, 0, 0), (0, [2, 0]))]
    assert sorted(isolated) == list(range(len(box)))
    assert all(lane == [(box[slot][1:] + (0,), (1, [~slot, 0]))]
               for slot, lane in isolated.items())

    typeii = family_tables(parse_family("k3-typeII:r=2"))
    twice = SequenceTemplate("twice", 1, (SequenceTerm("Xlim"), SequenceTerm("Xlim")))
    (_t, _s, box, _p, _tag), system = _system(monkeypatch, twice, typeii, "Xlim")
    _box, lanes, readers, repeats, _single, _occ, isolated = system
    assert not isolated and all(repeats) and all(len(lis) == 1 for lis in readers)
    assert [cells for _key, (_c_lo, cells) in lanes] == [[~slot, ~slot] for slot in range(len(box))]

    cs, known = builtin_templates()["cs"], {t: v for t, v in typeii.items() if t != "Xlim"}
    args, (_box, lanes, readers, _repeats, _single, _occ, isolated) = \
        _system(monkeypatch, cs, known, "Xlim")
    lone = {}
    for key, (_c_lo, cells) in _lanes(cs, args[1]).items():
        if len(cells) == 4 and cells.count(0) == 3 and min(cells) < 0:
            lone.setdefault(~min(cells), []).append(key)
    half = {slot for slot, keys in lone.items() if len(keys) == 1}
    assert len(isolated) == 8 and half and not half & set(isolated)
    # both lanes of such a cell, the lone one too, are propagated
    assert all(len(readers[slot]) == 2 and lone[slot][0] in {lanes[li][0] for li in readers[slot]}
               for slot in half)

    _args, system = _system(monkeypatch, cs, known, "Xlim", [RankPin(1, 2, 2)])
    assert system[6] == {}


@given(st.data())
def test_the_backward_pass_never_empties_a_rank(data):
    """Over random lanes reading a few unknown cells, some at several
    positions, with intervals unbounded above at times and random pin caps,
    the reference sweep never finds forward and backward ranks incompatible:
    a forward pass that passes leaves the backward pass a rank at each
    position (solver module docstring).  A system need not converge; every
    round it runs is checked."""
    slots = data.draw(st.integers(1, 3))
    cell = st.one_of(st.integers(0, 4), st.integers(-slots, -1))
    lanes = [((li, 0, 0, 0), (0, cells)) for li, cells in enumerate(
        data.draw(st.lists(st.lists(cell, min_size=1, max_size=7), min_size=1, max_size=3)))]
    intervals = [(lo, data.draw(st.sampled_from([INF, lo, lo + 1, lo + 3])))
                 for lo in data.draw(st.lists(st.integers(0, 3), min_size=slots,
                                              max_size=slots))]
    every = [(li, j) for li, (_key, (_c_lo, cells)) in enumerate(lanes)
             for j in range(1, len(cells) + 1)]
    pin_occ = data.draw(st.lists(st.lists(st.sampled_from(every), unique=True), max_size=2))
    pins = [RankPin(0, data.draw(st.integers(0, 6))) for _ in pin_occ]
    try:
        got = _full_sweep(list(range(slots)), lanes, pin_occ, pins, intervals, limit=100)
    except AssertionError:  # no round returned the detail either
        return
    assert got[1] is None or got[1][2] != "forward and backward ranks incompatible"


def test_sizes_bound_every_golden_solve(monkeypatch):
    """Every golden solve builds its lanes in one pass within LANE_ALLOWANCE
    cells, every cycle within [-2 MAX_DEGREE, 2 MAX_DEGREE], so the window
    pass guarding the budgets never runs."""
    import trigrade.sequences as sequences

    windows = sequences._windows
    calls = []
    monkeypatch.setattr(sequences, "_windows", lambda *args: calls.append(1) or windows(*args))
    for entry in _golden():
        run_case(entry["case"])
    assert calls == []


ORACLE_FAMILIES = ("k3-elliptic:r=1", "k3-finite:g=2", "k3-typeII:r=1", "k3-typeIII:k=1")
ORACLE_BOUND = 2
# (family, template, unknown tag, degree): custom templates reading the
# unknown twice in a lane, so that some cells stay open
ORACLE_TWICE = [
    ("k3-elliptic:r=1", [{"space": "U", "k_offset": -1}, {"space": "U"}], "U", 0),
    ("k3-typeII:r=1", [{"space": "Xlim", "k_offset": -1}, {"space": "Xlim", "k_offset": 1}],
     "Xlim", 1),
    ("k3-elliptic:r=1", [{"space": "Y"}, {"space": "Y"}], "Y", 4),
]


def _oracle_instances():
    """Degree solves with at most 5 box cells on small builtin families:
    each as it is, with one known entry moved by +-1, and with one pin."""
    rng = random.Random(5)
    solves = []
    for spec in ORACLE_FAMILIES:
        tables = family_tables(parse_family(spec))
        for tmpl in builtin_templates().values():
            if all(s in tables for s in tmpl.spaces()):
                solves.extend((tmpl, tables, tag, k) for tag in tmpl.spaces()
                              for k in range(tables[tag].space.degree_range()[1] + 1))
    for spec, terms, tag, k in ORACLE_TWICE:
        tmpl = SequenceTemplate.from_json_obj({"period": 1, "terms": terms})
        solves.append((tmpl, family_tables(parse_family(spec)), tag, k))
    for tmpl, tables, tag, k in solves:
        if not 0 < len(support_box(tables[tag].space, k)) <= 5:
            continue
        yield tmpl, tables, tag, k, []
        others = [s for s in tmpl.spaces() if s != tag]
        if others:
            space = rng.choice(others)
            entries = dict(tables[space].entries)
            quad = rng.choice(sorted(entries))
            entries[quad] += rng.choice((-1, 1))
            yield tmpl, {**tables, space: TriFilteredTable(tables[space].space, entries)}, \
                tag, k, []
        if not check_sequence(tmpl, tables).passed:
            continue  # a template reading the unknown twice need not be exact
        i = rng.randrange(len(tmpl.terms))
        degree = rng.choice([None, *sorted({q[0] for q in tables[tmpl.terms[i].space].entries})])
        rank = infer_rank(tmpl, tables, i, degree) + rng.choice((-1, 0, 1))
        if rank >= 0:
            yield tmpl, tables, tag, k, [RankPin(i, rank, degree)]


def test_solver_agrees_with_brute_force():
    """On tiny degree solves, every completion up to ORACLE_BOUND that
    check_sequence passes agrees with the solver: a determined cell takes its
    value in each, an open interval holds every feasible value (and each
    value of the interval up to the bound is feasible), and a contradiction
    leaves none."""
    counts = {"instances": 0, "contradictions": 0, "open cells": 0}
    for tmpl, tables, tag, k, pins in _oracle_instances():
        counts["instances"] += 1
        res = solve_unknown(tmpl, tables, (tag, k), pins)
        _assert_exact_bounds(res)
        space = tables[tag].space
        box = sorted(support_box(space, k))
        kept = {q: d for q, d in tables[tag].entries.items() if q[0] != k}
        completions = []
        for dims in itertools.product(range(ORACLE_BOUND + 1), repeat=len(box)):
            table = TriFilteredTable(space, {**kept, **{q: d for q, d in zip(box, dims) if d}})
            if check_sequence(tmpl, {**tables, tag: table}, pins).passed:
                completions.append(dict(zip(box, dims)))
        case = (tmpl.name, space.tag, k, pins)
        if res.table is None:
            counts["contradictions"] += 1
            assert completions == [], case
            continue
        under = {q: (lo, hi) for q, lo, hi in res.underdetermined}
        for quad in box:
            feasible = {c[quad] for c in completions}
            if quad in under:
                counts["open cells"] += 1
                lo, hi = under[quad]
                top = ORACLE_BOUND if hi is None else min(hi, ORACLE_BOUND)
                assert feasible == set(range(lo, top + 1)), (case, quad, lo, hi)
            else:
                assert feasible <= {res.table.dim(*quad)}, (case, quad)
        if res.determined and all(res.table.dim(*q) <= ORACLE_BOUND for q in box):
            assert len(completions) == 1, case
    # every open cell of these instances is unbounded above, left by a
    # template reading the unknown twice
    assert counts == {"instances": 135, "contradictions": 67, "open cells": 7}


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


@pytest.mark.parametrize("spec, name, unknown, besides", [
    ("k3-typeII:r=2", "cs", "Xlim", "Xlim"),
    ("k3-elliptic:r=2", "loc1", "U", "U"),
    ("k3-elliptic:r=2", "loc1", ("U", 2), "U in degree 2"),
], ids=["cs-full", "loc1-full", "loc1-degree"])
def test_solve_refuses_an_all_empty_instance(spec, name, unknown, besides):
    """With every table the template reads besides the unknown empty, and in
    a degree solve the unknown's other degrees too, nothing is known to
    solve from: the solve raises, as the CLI's does, rather than return a
    determined empty table with a passing report.  The unknown's own cells
    in the solved degree are not known data.  An unknown the template never
    reads and a degree outside the window are still reported first."""
    tables = family_tables(parse_family(spec))
    tag = unknown if isinstance(unknown, str) else unknown[0]
    empty = {t: TriFilteredTable(tab.space, {}) for t, tab in tables.items()}
    empty[tag] = TriFilteredTable(tables[tag].space, {
        quad: d for quad, d in tables[tag].entries.items() if quad[0] == 2})
    template = builtin_templates()[name]
    message = f"nothing checked: the tables {name!r} reads besides the unknown {besides} " \
              "are all empty"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_unknown(template, empty, unknown)
    with pytest.raises(ValueError, match="never references"):
        solve_unknown(template, empty, "Z:2")
    with pytest.raises(ValueError, match="outside the degree window"):
        solve_unknown(template, empty, (tag, 30))


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


@pytest.mark.parametrize("unknown", [
    ("Xlim", True), ("Xlim", 2.0), ("Xlim", "2"), ["Xlim", 2], (5, 2),
], ids=["bool-degree", "float-degree", "str-degree", "list", "int-tag"])
def test_unknown_is_a_tag_or_a_tag_and_int_degree(unknown):
    """Only a tag string or a (tag, int degree) tuple names the unknown; a
    degree is never coerced."""
    tables = family_tables(parse_family("k3-typeII:r=2"))
    with pytest.raises(ValueError, match="unknown must be"):
        solve_unknown(builtin_templates()["cs"], tables, unknown)


def test_missing_companion_tables():
    tables = family_tables(parse_family("k3-typeII:r=2"))
    known = {"Total": tables["Total"]}
    with pytest.raises(ValueError, match="missing"):
        solve_unknown(builtin_templates()["cs"], known, "Xlim")


def _cs_with_extra_y(order, bump):
    """Total and Supported of k3-typeII:r=2 (one +1 on Total if bump) beside
    a Y table at n=3, which the cs template never reads."""
    tables = family_tables(parse_family("k3-typeII:r=2"))
    y = family_tables(parse_family("k3-elliptic:r=2"))["Y"]
    given = {"Y": TriFilteredTable(SpaceDescriptor("Y", 3, 1), y.entries),
             "Total": tables["Total"], "Supported": tables["Supported"]}
    if bump:
        entries = dict(tables["Total"].entries)
        entries[(0, 1, 0, 0)] += 1
        given["Total"] = TriFilteredTable(tables["Total"].space, entries)
    return {tag: given[tag] for tag in order}


@pytest.mark.parametrize("order, bump", [
    (("Y", "Total", "Supported"), False),
    (("Y", "Total", "Supported"), True),
    (("Total", "Supported", "Y"), False),
], ids=["y-first", "y-first-bumped", "y-last"])
def test_tables_given_must_agree_on_n(order, bump):
    """The unknown's n comes from a given table, so every table given must
    agree on it, whatever the order, before any box is built."""
    with pytest.raises(ValueError, match="disagree on n"):
        solve_unknown(builtin_templates()["cs"], _cs_with_extra_y(order, bump), "Xlim")


def test_pin_on_a_rank_unbounded_above(monkeypatch):
    """Template (U, Y, Y), degree 1 of Y unknown: each lane reads its Y cell
    twice, which leaves the cells unbounded above, and a pin on the ranks out
    of the first Y sums such a rank with a known rank 3.  A pin of 0 is out
    of the reach [3, None]; a pin of 4 caps the unbounded rank at 1 and so
    bounds every cell.  The worklist matches the full sweep on each."""
    tmpl = SequenceTemplate("twice", 1, (SequenceTerm("U"), SequenceTerm("Y"), SequenceTerm("Y")))
    tables = {"U": TriFilteredTable(SpaceDescriptor("U", 2, 1),
                                    {(0, 1, 1, 0): 2, (1, 1, 1, 0): 3, (2, 1, 1, 0): 1}),
              "Y": TriFilteredTable(SpaceDescriptor("Y", 2, 1), {(0, 1, 1, 0): 5})}
    assemble, calls = solver._assemble, []
    monkeypatch.setattr(solver, "_assemble", lambda *args: calls.append(args) or assemble(*args))
    cells = [(1, 1, 1, 0), (1, 1, 1, 1), (1, 2, 1, 0), (1, 2, 1, 1)]
    for rank, under in [(None, [(1, None), (0, None), (0, None), (0, None)]),
                        (0, None),
                        (4, [(1, 2), (0, 1), (0, 1), (0, 1)])]:
        calls.clear()
        pins = [] if rank is None else [RankPin(1, rank)]
        res = solve_unknown(tmpl, tables, ("Y", 1), pins)
        if under is None:
            assert [v.relation for v in res.report.violations] == [
                "solve contradiction: pinned rank 0 outside reachable [3, None] "
                "(lane (l=1, q=1, p=0) residue 0)"]
        else:
            assert res.underdetermined == [(q, *iv) for q, iv in zip(cells, under)]
        _assert_exact_bounds(res)
        (args,) = calls
        _beside_a_full_sweep(assemble(*args), args, rank)


@pytest.mark.parametrize("pin, rounds, contradiction", [
    (None, 1, None),
    (RankPin(1, 3, 0), 2, None),
    (RankPin(1, 4, 0), 1, "solve contradiction: pinned rank 4 outside reachable [3, 3] "
                          "(lane (l=1, q=0, p=0) residue 0)"),
], ids=["no-pin", "pin-met", "pin-missed"])
def test_a_pin_on_known_lanes_alone(monkeypatch, pin, rounds, contradiction):
    """Template (U, Y, Y) with degree 1 of Y unknown: each read lane reads
    its Y cell twice, so round 1 tightens nothing.  A pin in degree 0 sums
    only the lane of Y(0, 1, 0, 0) = 3, which reads no unknown cell.  As in
    the full sweep, its first cap makes round 1 count as changed, and a pin
    it cannot meet names that lane."""
    tmpl = SequenceTemplate("twice", 1, (SequenceTerm("U"), SequenceTerm("Y"), SequenceTerm("Y")))
    tables = {"U": TriFilteredTable(SpaceDescriptor("U", 2, 1), {}),
              "Y": TriFilteredTable(SpaceDescriptor("Y", 2, 1), {(0, 1, 0, 0): 3})}
    assemble, calls = solver._assemble, []
    monkeypatch.setattr(solver, "_assemble", lambda *args: calls.append(args) or assemble(*args))
    pins = [] if pin is None else [pin]
    res = solve_unknown(tmpl, tables, ("Y", 1), pins)
    assert res.iterations == rounds
    assert [v.relation for v in res.report.violations] == ([contradiction] if contradiction else [])
    assert contradiction or all(hi is None for _quad, _lo, hi in res.underdetermined)
    (args,) = calls
    _beside_a_full_sweep(assemble(*args), args)


@pytest.mark.parametrize("unknown", [("Y", 1), "Y"], ids=["degree", "full"])
def test_a_cell_read_twice_with_no_feasible_dimension(monkeypatch, unknown):
    """Template (Y, U, Uc, Z:1, Y): the lane (l=1, q=1, p=0) reads
    Y(1, 1, 1, 0) at both ends of the chain [x, 2, 0, 3, x].  Read at the
    front, x is forced to 2, and read at the back, to 3, so the interval
    passes leave the cell no value.  The report names the cell by its
    quadruple, in a full solve too, where it is not the box's first cell."""
    tmpl = SequenceTemplate("ends", 1, tuple(
        SequenceTerm(tag) for tag in ("Y", "U", "Uc", "Z:1", "Y")))
    tables = {"Y": TriFilteredTable(SpaceDescriptor("Y", 2, 1), {}),
              "U": TriFilteredTable(SpaceDescriptor("U", 2, 1), {(1, 1, 1, 0): 2}),
              "Uc": TriFilteredTable(SpaceDescriptor("Uc", 2, 1), {}),
              "Z:1": TriFilteredTable(SpaceDescriptor("Z", 2, 1, depth=1), {(1, 1, 1, 0): 3})}
    if isinstance(unknown, str):
        del tables["Y"]
    assemble, calls = solver._assemble, []
    monkeypatch.setattr(solver, "_assemble", lambda *args: calls.append(args) or assemble(*args))
    res = solve_unknown(tmpl, tables, unknown)
    assert res.table is None and res.iterations == 1
    (v,) = res.report.violations
    assert v.relation == ("solve contradiction: cell (1, 1, 1, 0) has no feasible dimension "
                          "(lane (l=1, q=1, p=0) residue 0)")
    assert (v.lane, v.position) == ((1, 1, 0), 4)
    (args,) = calls
    box = args[2]
    assert box.index((1, 1, 1, 0)) == (0 if isinstance(unknown, tuple) else 2)
    _beside_a_full_sweep(assemble(*args), args)


@pytest.mark.parametrize("tag, degree, window", [
    ("U", 30, (0, 4)), ("U", -1, (0, 4)), ("U", 5, (0, 4)), ("Z:1", 3, (0, 2)),
])
def test_a_degree_outside_the_window_is_refused(tag, degree, window):
    """A degree outside the unknown's degree window leaves its box empty: the
    solve would have nothing to solve and pass, so it is refused."""
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    message = f"degree {degree} lies outside the degree window [{window[0]}, {window[1]}] of {tag}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_unknown(builtin_templates()["loc1"], tables, (tag, degree))


def test_every_degree_of_the_window_has_cells(fixture_sets):
    """The degree window is exactly where a degree solve has cells: every
    degree inside it has a nonempty box, the degrees just outside have
    none, and the solver's slots follow the sorted box."""
    for tables in fixture_sets.values():
        for table in tables.values():
            space = table.space
            k_lo, k_hi = space.degree_range()
            for k in range(k_lo - 1, k_hi + 2):
                box = solver._sorted_box(space, k)
                assert box == sorted(support_box(space, k)), (space, k)
                assert bool(box) == (k_lo <= k <= k_hi), (space, k)
            assert solver._sorted_box(space) == sorted(support_box(space))


def test_descriptor_inference_needs_a_table():
    tmpl = SequenceTemplate("solo", 1, (SequenceTerm("Y"),))
    with pytest.raises(ValueError, match="infer"):
        solve_unknown(tmpl, {}, "Y")


def test_unknown_descriptor_error_is_its_own():
    """An unknown Z:3 over a base of dimension 2 is refused for its depth,
    not for lacking a base dimension."""
    loc1 = builtin_templates()["loc1"].to_json_obj()
    loc1["terms"][2]["space"] = "Z:3"
    tables = family_tables(parse_family("k3-finite:g=3"))
    with pytest.raises(ValueError, match="^section codimension exceeds base dimension$"):
        solve_unknown(SequenceTemplate.from_json_obj(loc1), tables, "Z:3")


def test_uncoupled_reads_stay_unbounded():
    """A template reading the unknown twice at the same quadruple imposes no
    upper bound at all, and the solver says so instead of guessing."""
    tmpl = SequenceTemplate("twice", 1, (SequenceTerm("Y"), SequenceTerm("Y")))
    # U, which the template does not read, gives n and m
    tables = {"U": TriFilteredTable(SpaceDescriptor("U", 2, 1), {})}
    res = solve_unknown(tmpl, tables, "Y")
    assert not res.determined
    assert any(hi is None for _q, _lo, hi in res.underdetermined)


def test_round_cap_ends_a_solve_that_does_not_converge():
    """loc1 with a second read of Z:1: the lower bounds of two cells creep
    up against an unbounded upper end, and the round cap stops them."""
    loc1 = builtin_templates()["loc1"].to_json_obj()
    loc1["terms"].append(loc1["terms"][2])
    tmpl = SequenceTemplate.from_json_obj(loc1)
    tables = family_tables(parse_family("k3-elliptic:r=2"))
    with pytest.raises(ValueError, match="^interval propagation did not converge "
                                         "within 10000 rounds$"):
        solve_unknown(tmpl, tables, "Z:1")


@pytest.mark.parametrize("u, y, position, detail", [
    # Y(0) reads 1 after U(0) = 2: a rank goes negative before the cell
    ({(0, 1, 1, 0): 2, (2, 1, 1, 0): 3}, {(0, 1, 1, 0): 1}, 1,
     "rank forced negative or above its pin"),
    # U(2) reads 1 before Y(2) = 2: a rank goes negative after the cell
    ({(1, 1, 1, 0): 3, (2, 1, 1, 0): 1}, {(2, 1, 1, 0): 2}, 3, "chain cannot close"),
], ids=["before-the-cell", "after-the-cell"])
def test_one_unknown_lane_with_a_negative_rank(u, y, position, detail):
    """The lane (l=1, q=1, p=0) reads U and Y in turn, with Y(1, 1, 1, 0) the
    only unknown cell of the degree solve.  A rank goes negative on one side
    of the cell while the other side leaves the cell a nonnegative value: the
    lane still has no solution, and the solve ends in a contradiction there."""
    tmpl = SequenceTemplate("alternate", 1, (SequenceTerm("U"), SequenceTerm("Y")))
    tables = {"U": TriFilteredTable(SpaceDescriptor("U", 2, 1), u),
              "Y": TriFilteredTable(SpaceDescriptor("Y", 2, 1), y)}
    res = solve_unknown(tmpl, tables, ("Y", 1))
    assert res.table is None
    (v,) = res.report.violations
    assert v.relation == f"solve contradiction: {detail} (lane (l=1, q=1, p=0) residue 0)"
    assert (v.lane, v.position) == ((1, 1, 0), position)


def _check_completed(template, completed, pins) -> dict:
    """check_sequence's report on a completed instance, as JSON.  A template
    reading only the unknown can complete it with no entry, an instance
    check_sequence refuses as empty; there the report is the pass of an
    instance with no lane."""
    try:
        return check_sequence(template, completed, pins).to_json_obj()
    except ValueError as exc:
        assert str(exc).startswith("nothing checked: "), exc
        assert not any(completed[s].entries for s in template.spaces())
        return {"pass": True, "violations": []}


def test_verification_on_the_assembled_lanes_is_check_sequence(monkeypatch):
    """On every determined golden case, solver._verify on the assembled
    lanes returns check_sequence's report on the completed instance, which
    the solve reports, and the solve builds its lanes once."""
    import solver_cases
    import trigrade.sequences as sequences

    calls = {"solve": None, "verify": None, "lanes": 0}
    verify, lanes = solver._verify, sequences._lanes

    def solve(template, tables, unknown, pins=()):
        calls["solve"] = (template, tables, unknown, pins)
        return solve_unknown(template, tables, unknown, pins)

    def record_verify(*args):
        calls["verify"] = verify(*args)
        return calls["verify"]

    def count_lanes(*args):
        calls["lanes"] += 1
        return lanes(*args)

    monkeypatch.setattr(solver_cases, "solve_unknown", solve)
    monkeypatch.setattr(solver, "_verify", record_verify)
    monkeypatch.setattr(solver, "_lanes", count_lanes)
    monkeypatch.setattr(sequences, "_lanes", count_lanes)
    determined = 0
    for entry in _golden():
        calls.update(verify=None, lanes=0)
        res = run_case(entry["case"])
        assert calls["lanes"] == 1, entry["case"]
        if not res.determined:
            assert calls["verify"] is None, entry["case"]
            continue
        determined += 1
        template, tables, unknown, pins = calls["solve"]
        tag = unknown if isinstance(unknown, str) else unknown[0]
        completed = {**tables, tag: res.table}
        assert calls["verify"] is res.report, entry["case"]
        assert res.report.to_json_obj() == _check_completed(template, completed, pins), \
            entry["case"]
        assert res.report.passed, entry["case"]
    assert determined == 197


def test_verification_on_bumped_slots_is_check_sequence(monkeypatch):
    """On every determined golden case, solve_unknown with 4 of the box's
    slots in turn, chosen at random with at least one isolated slot where
    the case has one, raised by 1 and by 2 once propagation ends: the solve
    builds its lanes once, its verification fails, and its report is
    check_sequence's on the bumped completion it returns."""
    import solver_cases
    import trigrade.sequences as sequences

    rng = random.Random(29)
    propagate, lanes, assemble = solver._propagate, sequences._lanes, solver._assemble
    calls = {"lanes": 0, "bump": None, "solve": None, "system": None}

    def solve(template, tables, unknown, pins=()):
        calls["solve"] = (template, tables, unknown, pins)
        return solve_unknown(template, tables, unknown, pins)

    def count_lanes(*args):
        calls["lanes"] += 1
        return lanes(*args)

    def record_assemble(*args):
        calls["system"] = assemble(*args)
        return calls["system"]

    def bumped_propagate(system, pins, intervals):
        got = propagate(system, pins, intervals)
        if calls["bump"] is not None:
            slot, delta = calls["bump"]
            value = intervals[slot][0] + delta
            intervals[slot] = (value, value)
        return got

    monkeypatch.setattr(solver_cases, "solve_unknown", solve)
    monkeypatch.setattr(solver, "_lanes", count_lanes)
    monkeypatch.setattr(sequences, "_lanes", count_lanes)
    monkeypatch.setattr(solver, "_assemble", record_assemble)
    monkeypatch.setattr(solver, "_propagate", bumped_propagate)
    completions, isolated_bumps, pinned = 0, 0, 0
    for entry in _golden():
        if not entry["result"]["determined"]:
            continue
        calls["bump"] = None
        run_case(entry["case"])
        box, isolated = calls["system"][0], list(calls["system"][6])
        slots = rng.sample(range(len(box)), min(4, len(box)))
        if isolated and not set(slots) & set(isolated):
            slots[0] = rng.choice(isolated)
        for slot in slots:
            for delta in (1, 2):
                calls.update(bump=(slot, delta), lanes=0)
                res = run_case(entry["case"])
                assert calls["lanes"] == 1, entry["case"]
                template, tables, unknown, pins = calls["solve"]
                tag = unknown if isinstance(unknown, str) else unknown[0]
                want = _check_completed(template, {**tables, tag: res.table}, pins)
                assert not res.report.passed, (entry["case"], slot, delta)
                assert res.report.to_json_obj() == want, (entry["case"], slot, delta)
                completions += 1
                isolated_bumps += slot in isolated
                pinned += bool(pins)
    assert completions > 1400 and isolated_bumps > 100 and pinned > 100, \
        (completions, isolated_bumps, pinned)


def _assembled(monkeypatch, template, tables, unknown, pins):
    """The arguments solve_unknown passes to solver._verify."""
    seen = []
    verify = solver._verify
    monkeypatch.setattr(solver, "_verify", lambda *args: seen.append(args) or verify(*args))
    assert solve_unknown(template, tables, unknown, pins).determined
    (args,) = seen
    return args


@pytest.mark.parametrize("spec, name, tag", [
    ("k3-typeII:r=2", "cs", "Xlim"),
    # Z:1 is loc1's last term: a +1 on a cell at a lane's end leaves the
    # rank at 1 without going negative, and only the closing test sees it
    ("k3-elliptic:r=2", "loc1", "Z:1"),
])
def test_verification_fails_on_a_changed_cell(monkeypatch, spec, name, tag):
    """A +1 on any one cell of the solved box fails the verification, on
    the cells _verify reads off the propagated lanes and on the isolated
    cells, 8 of the 32 in the cs solve, whose lanes were dropped: the report
    names an exactness failure in a lane reading the cell."""
    tables = family_tables(parse_family(spec))
    known = {t: tab for t, tab in tables.items() if t != tag}
    template, system, pins, intervals = _assembled(
        monkeypatch, builtin_templates()[name], known, tag, [])
    assert len(system[6]) == {"cs": 8, "loc1": 0}[name]
    assert solver._verify(template, system, pins, intervals).passed
    box, lanes, isolated = system[0], system[1], system[6]
    for slot, (value, _hi) in enumerate(intervals):
        bumped = intervals[:]
        bumped[slot] = (value + 1, value + 1)
        report = solver._verify(template, system, pins, bumped)
        reading = [key[:3] for key, (_c_lo, cells) in lanes if ~slot in cells]
        reading += [key[:3] for key, _lane in isolated.get(slot, [])]
        assert report.violations, slot
        assert all(v.relation.startswith("exactness: ") for v in report.violations), slot
        assert {v.lane for v in report.violations} & set(reading), (slot, box[slot])


def test_verification_fails_on_a_pin_off_by_one(monkeypatch):
    tables = family_tables(parse_family("k3-typeII:r=2"))
    known = {t: tab for t, tab in tables.items() if t != "Xlim"}
    template, system, pins, intervals = _assembled(
        monkeypatch, builtin_templates()["cs"], known, "Xlim", [RankPin(1, 2, 2)])
    assert solver._verify(template, system, pins, intervals).passed
    for rank in (1, 3):
        report = solver._verify(template, system, [RankPin(1, rank, 2)], intervals)
        assert [v.relation for v in report.violations] == [
            f"pinned rank: map out of term 1 [Xlim] in degree 2 has total rank 2, "
            f"pinned {rank}"]


def _curve_product(builder_tables, g, t):
    """The tables of an oracle builder's set times C^t, C a genus-g curve:
    entries convolve with H*(C), every piece of which sits on its perverse
    centre, and n goes up by t."""
    curve = {(0, 0, 0, 0): 1, (1, 1, 1, 0): g, (1, 1, 1, 1): g, (2, 2, 2, 1): 1}
    tables = {}
    for tag, (n, m, entries) in builder_tables.items():
        for _ in range(t):
            product: dict = {}
            for (k, l, q, p), a in entries.items():
                for (k2, l2, q2, p2), b in curve.items():
                    quad = (k + k2, l + l2, q + q2, p + p2)
                    product[quad] = product.get(quad, 0) + a * b
            entries = product
        tables[tag] = TriFilteredTable(SpaceDescriptor.parse_tag(tag, n + t, m), entries)
    return tables


PRODUCT_SETS = [(oracle_tables.elliptic, 2), (oracle_tables.finite, 3),
                (oracle_tables.type_ii, 2), (oracle_tables.type_iii, 2)]


def test_worklist_matches_a_full_sweep_on_kunneth_products(monkeypatch):
    """Each oracle family times C^t, C a genus-2 curve, t = 1 and 2 (n = 3
    and 4): for every applicable template and table, a full solve and a
    solve of each degree.  _propagate gives the full sweep's intervals,
    contradiction and round count, and every determined cell is the
    product's.  These lanes are longer than the golden's and some read two
    or three unknown cells, and 372 of the 416 solves close isolated cells
    at assembly."""
    assemble, calls = solver._assemble, []
    monkeypatch.setattr(solver, "_assemble", lambda *args: calls.append(args) or assemble(*args))
    solves, unknowns_in_a_lane, isolating = 0, set(), 0
    for builder, param in PRODUCT_SETS:
        for t in (1, 2):
            tables = _curve_product(builder(param), 2, t)
            for tmpl in builtin_templates().values():
                if not all(s in tables for s in tmpl.spaces()):
                    continue
                for tag in tmpl.spaces():
                    k_lo, k_hi = tables[tag].space.degree_range()
                    for degree in [None, *range(k_lo, k_hi + 1)]:
                        calls.clear()
                        if degree is None:
                            given = {s: tab for s, tab in tables.items() if s != tag}
                            res = solve_unknown(tmpl, given, tag)
                        else:
                            res = solve_unknown(tmpl, tables, (tag, degree))
                        case = (builder.__name__, t, tmpl.name, tag, degree)
                        assert res.table is not None, case
                        under = {quad: (lo, hi) for quad, lo, hi in res.underdetermined}
                        (args,) = calls
                        box = args[2]
                        for quad in box:
                            truth = tables[tag].dim(*quad)
                            if quad in under:
                                lo, hi = under[quad]
                                assert lo <= truth and (hi is None or truth <= hi), (case, quad)
                            else:
                                assert res.table.dim(*quad) == truth, (case, quad)
                        system = assemble(*args)
                        got = _beside_a_full_sweep(system, args, case)
                        assert got[0] == res.iterations, case
                        isolating += bool(system[6])
                        unknowns_in_a_lane.update(
                            sum(c < 0 for c in cells) for _key, (_c_lo, cells) in system[1])
                        solves += 1
    assert solves == 416
    assert unknowns_in_a_lane == {1, 2, 3}
    assert isolating == 372


def test_the_lane_cell_budget_admits_products_up_to_n_16():
    """The largest instances the solver is asked about: each oracle family
    times C^14 (n = 16) under every applicable template, checked and with
    each table unknown, build their lanes within MAX_LANE_CELLS."""
    largest = 0
    for builder, param in PRODUCT_SETS:
        tables = _curve_product(builder(param), 3, 14)
        for tmpl in builtin_templates().values():
            if not all(s in tables for s in tmpl.spaces()):
                continue
            sources = {s: tables[s].entries for s in tmpl.spaces()}
            overlays = [{**sources, tag: dict.fromkeys(support_box(tables[tag].space), -1)}
                        for tag in tmpl.spaces()]
            for given in [sources, *overlays]:
                largest = max(largest, sum(len(cells) for _c_lo, cells
                                           in _lanes(tmpl, given).values()))
    assert 60_000 < largest <= MAX_LANE_CELLS // 10


@pytest.mark.parametrize("template, spec, tag", [
    ("cs", "k3-typeII:r=2", "Total"),
    ("loc1", "k3-finite:g=3", "U"),
])
def test_a_pin_cap_does_not_revisit_point_rank_lanes(monkeypatch, template, spec, tag):
    """A pin on the true total rank out of term 0 caps every lane it sums,
    but a cap cannot move the point ranks of a closed-form lane, so no such
    lane is visited again: check_exactness runs once per closed-form lane,
    for its ranks."""
    tmpl = builtin_templates()[template]
    tables = family_tables(parse_family(spec))
    pin = RankPin(0, infer_rank(tmpl, tables, 0))
    exact, assemble, calls, systems = solver.check_exactness, solver._assemble, [], []
    monkeypatch.setattr(solver, "check_exactness", lambda cells: calls.append(1) or exact(cells))
    monkeypatch.setattr(solver, "_assemble",
                        lambda *args: systems.append(assemble(*args)) or systems[-1])
    res = solve_unknown(tmpl, {t: v for t, v in tables.items() if t != tag}, tag, [pin])
    assert res.determined and res.report.passed and res.table == tables[tag]
    (system,) = systems
    closed_form = sum(pos is not None for pos in system[4])
    assert len(calls) == closed_form == {"Total": 92, "U": 23}[tag]
