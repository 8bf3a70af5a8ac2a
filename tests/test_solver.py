import itertools
import json
import random
from pathlib import Path

import pytest

import trigrade.solver as solver
from solver_cases import result_obj, run_case
from trigrade import (RankPin, SequenceTemplate, SequenceTerm,
                      SpaceDescriptor, TriFilteredTable, builtin_templates,
                      check_sequence, family_tables, infer_rank, parse_family,
                      solve_unknown, support_box)


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


def _full_sweep(lanes, pin_occ, pins, intervals):
    """Reference propagation: every lane every round through the interval
    passes alone (no closed form), then the pin caps; unbounded is the
    solver's INF.  Tightens ``intervals`` and returns what solver._propagate
    returns."""
    caps = {}  # (lane, boundary rank) -> (lo, hi)
    for rounds in range(1, 10001):
        changed = False
        ranks = []  # each lane's boundary rank intervals, this round
        for li, (key, _c_lo, cells) in enumerate(lanes):
            d = [intervals[c] if isinstance(c, tuple) else (c, c) for c in cells]
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
                if not isinstance(cell, tuple):
                    continue
                cur = intervals[cell]
                lo = max(cur[0], back[i][0] + back[i + 1][0])
                hi = min(cur[1], back[i][1] + back[i + 1][1])
                if lo > hi:
                    return rounds, (key, i, f"cell {cell} has no feasible dimension")
                if (lo, hi) != cur:
                    intervals[cell] = (lo, hi)
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


def test_worklist_and_closed_form_match_a_full_sweep(monkeypatch):
    """The solver module docstring's two claims, on every golden case: the
    worklist gives the full sweep's intervals, contradiction and round count,
    and the closed form gives what the interval passes give.  The lane
    system's readers, repeats and one-unknown positions are those of a scan
    of its cells."""
    golden = _golden()
    assemble, calls = solver._assemble, []
    monkeypatch.setattr(solver, "_assemble", lambda *args: calls.append(args) or assemble(*args))
    outcomes = {"contradiction": 0, "pinned": 0}
    for entry in golden:
        calls.clear()
        run_case(entry["case"])
        (args,) = calls
        box, pins = args[3], args[4]
        lanes, readers, repeats, single, pin_occ = system = assemble(*args)

        scan: dict = {quad: set() for quad in box}
        for li, (_key, _c_lo, cells) in enumerate(lanes):
            unknown = [i for i, c in enumerate(cells) if isinstance(c, tuple)]
            for i in unknown:
                scan[cells[i]].add(li)
            assert repeats[li] == (len({cells[i] for i in unknown}) < len(unknown))
            assert single[li] == (-1 if not unknown else unknown[0] if len(unknown) == 1
                                  else None)
        assert {quad: sorted(lis) for quad, lis in readers.items()} == \
            {quad: sorted(lis) for quad, lis in scan.items()}, entry["case"]

        worklist = {quad: (0, INF) for quad in box}
        sweep = dict(worklist)
        got = solver._propagate(system, pins, worklist)
        assert got == _full_sweep(lanes, pin_occ, pins, sweep), entry["case"]
        assert worklist == sweep, entry["case"]
        assert got[0] == entry["result"]["iterations"]
        outcomes["contradiction"] += got[1] is not None
        outcomes["pinned"] += bool(pins)
    assert len(golden) == 390
    assert outcomes == {"contradiction": 175, "pinned": 189}


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
        lanes, _readers, _repeats, _single, pin_occ = system = assemble(*args)
        worklist = {quad: (0, INF) for quad in args[3]}
        sweep = dict(worklist)
        assert solver._propagate(system, pins, worklist) == \
            _full_sweep(lanes, pin_occ, pins, sweep), rank
        assert worklist == sweep, rank


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
    tmpl = SequenceTemplate("twice", 1, (
        SequenceTerm("Y"), SequenceTerm("Y"), SequenceTerm("U")))
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


def test_verification_on_the_assembled_lanes_is_check_sequence(monkeypatch):
    """On every determined golden case, solver._verify on the assembled
    lanes gives check_sequence's verdict on the completed instance, and the
    solve builds its lanes once."""
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
        assert calls["verify"] == check_sequence(template, completed, pins).passed, \
            entry["case"]
        assert calls["verify"], entry["case"]
    assert determined == 197


def test_failed_verification_falls_back_to_check_sequence(monkeypatch):
    """With the check on the assembled lanes failing every time, every
    report comes from check_sequence, and every result is the golden's."""
    monkeypatch.setattr(solver, "_verify", lambda *args: False)
    golden = _golden()
    assert len(golden) == 390
    for entry in golden:
        assert result_obj(run_case(entry["case"])) == entry["result"], entry["case"]


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
    tables = family_tables(parse_family(spec))
    known = {t: tab for t, tab in tables.items() if t != tag}
    system, pins, intervals = _assembled(
        monkeypatch, builtin_templates()[name], known, tag, [])
    assert solver._verify(system, pins, intervals)
    for quad, (value, _hi) in intervals.items():
        bumped = {**intervals, quad: (value + 1, value + 1)}
        assert not solver._verify(system, pins, bumped), quad


def test_verification_fails_on_a_pin_off_by_one(monkeypatch):
    tables = family_tables(parse_family("k3-typeII:r=2"))
    known = {t: tab for t, tab in tables.items() if t != "Xlim"}
    system, pins, intervals = _assembled(
        monkeypatch, builtin_templates()["cs"], known, "Xlim", [RankPin(1, 2, 2)])
    assert solver._verify(system, pins, intervals)
    for rank in (1, 3):
        assert not solver._verify(system, [RankPin(1, rank, 2)], intervals)
