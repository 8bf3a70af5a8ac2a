"""Recovering a deleted table from lane exactness alone.

Every cell of the missing table inside its structural support box is an
unknown nonnegative integer; cells outside the box are structural zeros.
Each lane of the template instance imposes the exactness relation
d_i = r_{i-1} + r_i with nonnegative connecting ranks that vanish at both
ends.  We propagate these as interval constraints: a forward and a backward
pass of the rank recursion turn known intervals for the d_i into intervals
for the ranks and back, and propagating over all lanes to a fixpoint
tightens every cell as far as lane-by-lane propagation allows.  Whether that
is as far as the dimension data allows is unproven: a cell read by two lanes
couples them, and each lane only ever sees its own projection.  On tiny
degree solves a brute force over all completions finds every interval tight
(tests/test_solver.py), but there every open interval is unbounded above.

The propagation is sound: the true table always lies inside every computed
interval, so a cell whose interval collapses to a point is genuinely forced
(reported solved), a wider interval is reported underdetermined rather than
guessed, and an empty interval means the known tables admit no exact
completion at all (contradiction, reported with the offending lane).

Inside the solver an unknown cell is its slot, its index in the box listed
in ascending (k, l, q, p) order.  The unknown table is read through an
overlay that holds ~slot, a negative int, at each cell of the box, so a
lane's cells are plain ints, a cell is unknown exactly when it is negative
(known dimensions are never negative), and the intervals and each cell's
readers are lists indexed by slot.  The results are read off in slot
order, which is the sorted order of the cells; only a contradiction's
"cell ... has no feasible dimension" turns a slot back into its quadruple.

A solve runs in two steps.  _assemble builds the lane system once: _lanes
builds every lane of the instance, read through the overlay, in one pass,
as (key, (first cycle, cells)) pairs, the form every caller takes.  A lone
lane has one cycle and one nonzero cell, an unknown.  A table or the
overlay holds no 0, so a lane's first read writes a nonzero cell and no
cell is written twice: a lone lane is reached by that one read alone.  A
box cell is isolated when each of its reads, one per template term on the
unknown's space, lies in a lone lane; _assemble drops those lanes and
closes the cell at 0, as below.  It runs _lane_pass, the lane pass of
check_sequence, over the other lanes.  The rank recursion breaks on a
negative cell, so the pass cannot pass a lane reading a cell of the box,
nor a lane of known dimensions that is not exact.  These lanes, and when
there are pins every lane holding a pin occurrence, are the lanes
propagated, and one pass over them in key order indexes the lanes reading
each cell, the lanes reading a cell twice, each lane's one unknown
position and the ranks each pin sums.
_propagate owns all that follows, the worklist, the closed form, the
interval passes and the pin step; it tightens the intervals in place and
returns the round count and the contradiction, if any, from which
solve_unknown builds the report.  Only the pin step reads a lane's boundary
ranks and caps, so _propagate keeps them only when there are pins, and caps
only for the lanes a pin caps.

An isolated cell takes no part in propagation.  Its lanes each hold the
cell between zeros, so in round 1 the closed form below forces it from
(0, INF) to 0 in the first of them.  No other lane reads the cell, so that
queues only the others, later in the same round, which find the cell at
0; it cannot give a contradiction, and only sets round 1's changed flag.
_propagate therefore sets the cell's interval to (0, 0) before round 1 and
counts round 1 as changed when any cell is isolated: the contradiction, the
round count and, when there is no contradiction, the intervals are the full
sweep's.  (After a contradiction no interval is read, and an isolated cell
may read 0 where the sweep stopped before its lanes.)  With pins nothing
is isolated, since the pin step sums boundary ranks over lanes, and a pin
contradiction is named by the first lane it sums.  A cell with one lone
lane and one lane coupling it to other cells (cs reads Xlim twice) is not
isolated, and both its lanes are propagated; nor is a cell one lane reads
twice.  A known degree of a degree solve's table is positive, so a lane
holding one alone is never lone.  Finding these cells costs a length test per lane.

Within one lane each unknown cell usually sits at one position, and then
the lane's relations form a path: one forward/backward pass already gives
the exact interval projection of every cell and rank of the lane, so a
second pass with no new input from outside the lane changes nothing.  The
fixpoint is therefore reached with a worklist instead of re-sweeping every
lane.  A round visits its queued lanes in the sorted lane order.  When a
lane tightens a cell, every other lane reading that cell is queued: for this
round if it comes later in the order, for the next round if it came
earlier.  A lane reading one cell at two positions (custom templates can
build one) is no path, so it re-queues itself for the next round whenever
it tightens a cell.  Rank pins act after each round on the lanes' last
boundary ranks, and a lane whose rank cap a pin changes is queued for the
next round, unless its boundary ranks are all points, which no cap moves
(see the closed form below).  This is the order of sweeping every lane
every round, minus the sweeps that cannot change anything: the intervals,
the contradiction reported and the round count are those of the full
sweep.  A test runs such a full sweep, with the interval passes alone,
over every lane _lanes builds, the isolated cells' included, beside
_assemble and _propagate on every case of the solver golden, and checks
this and the closed form below.

A lane that the lane pass passes and that no pin reads is exact and takes
no further part: it reads no unknown cell, so a full sweep finds nothing to
tighten in it and no contradiction.

Most lanes read one unknown cell, and such a lane takes a closed form:
the rank recursion r = d_i - r of check_exactness runs from the front up to
the cell and from the back down to just after it, the cell is forced to
r_in + r_out and tightened to that point, and when there are pins the
lane's ranks, check_exactness's with the cell at that value, are stored as
both ends of the boundary.  This is what the interval passes give.  Any
solution of the lane carries these ranks, so there is at most one.  If no
rank goes negative, the chain closes and the forced value lies in the
cell's interval, it is that, and the interval passes, seeing points on both
sides of the cell and being sound, return exactly it.  Otherwise there is
none, and the lane falls through to the interval passes, the only code that
reports a contradiction on a lane: in the forward pass, at the close or at
a cell.  The backward pass empties no rank: once the forward pass raises
nothing and F[n] starts at 0, R[n] = 0 lies in F[n], and R[i+1] lying in
F[i+1], within d_i - F[i], makes d_i - R[i+1] meet F[i], so R[i] is not
empty and lies in F[i]; caps only shrink F, and INF changes nothing.  A pin
cap changes nothing: the closed form succeeds on a visit only if it did on
every earlier one (its ranks read known cells, intervals only shrink), so
the lane's boundary always held these point ranks, and the pin step,
having checked lo_sum <= pin <= hi_sum, caps a point rank r to
max(r, pin - others_hi) = r and min(r, pin - others_lo) = r, whichever
step made it a point.

A determined solve is verified by _verify, which returns check_sequence's
report on the completed instance, written from the lanes already assembled.
_lane_pass runs over the propagated lanes, each unknown cell read at its
point value.  The lanes of each isolated cell that is not 0 join its
failures, in key order: a lone nonzero cell between zeros is never exact,
and its lanes being exact is exactly the cell being 0.  _sequence_report,
check_sequence's own report code, writes the violations and each pin's
total against its rank.  Every lane is checked once: the isolated cells'
lanes and the propagated ones here, the others by _assemble's lane pass; no
lane or pin is skipped on the strength of the propagation argument.  An
assembled lane is the completed instance's lane padded with whole cycles of
zero cells at its ends (the box cells solved to 0, and whole lanes that
only such cells reach, every cell 0).  Leading zeros keep the rank at 0, and
trailing zeros keep a rank of 0 at 0 and drive any other rank negative, so
padding changes neither whether a lane is exact nor any rank a pin sums;
and _sequence_report cuts a failing lane to its nonzero cycles before it
names the failure.  So a solve builds its lanes once, and reports on the
completion as check_sequence would.
"""

from __future__ import annotations

from .sequences import (RankPin, SequenceTemplate, _check_instance, _describe_lane,
                        _lane_pass, _lanes, _pin_positions, _require_data, _sequence_report,
                        check_exactness)
from .spaces import FIBRATION_KINDS, SpaceDescriptor
from .tables import Quad, Record, TriFilteredTable, VerificationReport, Violation, _integer

# interval [lo, hi]; hi is INF when unbounded above, so that comparisons
# and sums need no special case
INF = float("inf")
Interval = tuple[int, int | float]


def support_box(space: SpaceDescriptor, degree: int | None = None) -> set[Quad]:
    """All index quadruples where a table of this space could be nonzero.

    Degree, lane, weight and Hodge windows all come from the descriptor,
    the same windows validate_table checks, so any valid table lives inside
    its box.  A degree given must be an int.
    """
    if degree is not None:
        _integer(degree, "degree")
    return set(_sorted_box(space, degree))


def _sorted_box(space: SpaceDescriptor, degree: int | None = None) -> list[Quad]:
    """support_box in ascending (k, l, q, p) order, the order its loops
    enumerate it in.  The solver marks each cell by its slot, its index
    here."""
    k_lo, k_hi = space.degree_range()
    if degree is not None:
        k_lo, k_hi = max(k_lo, degree), min(k_hi, degree)
    box: list[Quad] = []
    for k in range(k_lo, k_hi + 1):
        l_lo, l_hi = space.lane_range(k)
        q_lo, q_hi = space.weight_range(k)
        for l in range(l_lo, l_hi + 1):
            for q in range(q_lo, q_hi + 1):
                p_lo, p_hi = space.hodge_range(k, q)
                for p in range(p_lo, p_hi + 1):
                    box.append((k, l, q, p))
    return box


class SolveResult(Record):
    """Outcome of solve_unknown.

    ``table`` holds every determined cell (None after a contradiction);
    ``underdetermined`` lists cells whose interval stayed wider than a point,
    with the interval bounds, hi None when unbounded above; ``report``
    carries the contradiction, or when fully determined check_sequence's
    report on the completed instance, written from the assembled lanes;
    ``iterations`` counts the propagation rounds, the last of which only
    confirms the fixpoint.
    """

    __slots__ = ("table", "determined", "underdetermined", "report", "iterations")

    def __init__(self, table: TriFilteredTable | None, determined: bool,
                 underdetermined: list[tuple[Quad, int, int | None]],
                 report: VerificationReport, iterations: int):
        self.table = table
        self.determined = determined
        self.underdetermined = underdetermined
        self.report = report
        self.iterations = iterations


def _parse_unknown(unknown) -> tuple[str, int | None]:
    if isinstance(unknown, str):
        return unknown, None
    # type(...) is int: bool is an int subclass and must not pass
    if (isinstance(unknown, tuple) and len(unknown) == 2
            and isinstance(unknown[0], str) and type(unknown[1]) is int):
        return unknown
    raise ValueError(f"unknown must be a space tag or (tag, degree), got {unknown!r}")


def _infer_descriptor(tag: str, known: dict[str, TriFilteredTable]) -> SpaceDescriptor:
    """The unknown table's descriptor.  _check_instance has made every table
    given agree on n, and on m where set, so any known table supplies them;
    m goes only to a fibration-side tag."""
    if not known:
        raise ValueError("cannot infer the unknown table's descriptor from nothing")
    n = next(iter(known.values())).space.n
    m = None
    if tag.partition(":")[0] in FIBRATION_KINDS:
        m = next((t.space.m for t in known.values() if t.space.m is not None), None)
    return SpaceDescriptor.parse_tag(tag, n, m)


def _assemble(template: SequenceTemplate, sources: dict, box: list[Quad],
              pins: list[RankPin], tag: str) -> tuple:
    """The lane system over the unknowns of ``box``, the support box of
    ``tag``, whose cell at slot i the overlay in ``sources`` writes as ~i:
    (box, lanes, readers, repeats, single, pin_occ, isolated), each lane a
    (key, (first cycle, cells)) pair as _lanes(...).items() gives it.
    isolated maps the slot of each isolated cell (none when there are pins)
    to its lone lanes, which are dropped: lanes of one cycle, T cells, whose
    one nonzero cell is the unknown, and which its read alone reaches, since
    sources hold no 0 and no cell is written twice.  lanes are the other
    lanes _lane_pass cannot pass and, with pins, the lanes holding a pin
    occurrence, in key order; one pass over them fills readers[slot], the
    lanes reading that cell, repeats, the lanes reading a cell twice,
    single[i], lane i's one unknown position (None if none or more), and
    pin_occ, each pin's (lane, boundary rank) pairs.  The other lanes are
    exact, and take no further part."""
    lane_map = _lanes(template, sources)
    isolated: dict[int, list] = {}
    if not pins:
        T = len(template.terms)
        reads = sum(term.space == tag for term in template.terms)
        lone: dict[int, list] = {}  # ~slot -> its lone lanes
        for key, (_c_lo, cells) in lane_map.items():
            if len(cells) == T and cells.count(0) == T - 1 and (d := min(cells)) < 0:
                lone.setdefault(d, []).append(key)
        for d, keys in lone.items():
            if len(keys) == reads:
                isolated[~d] = [(key, lane_map.pop(key)) for key in keys]
    failures, _totals = _lane_pass(template, lane_map.items(), [])
    failing = {key for key, _lane in failures} if pins else ()
    lanes, pin_occ = [], [[] for _ in pins]
    readers: list[list[int]] = [[] for _ in box]
    repeats, single = [], []
    for lane in sorted(lane_map.items() if pins else failures):
        key, (c_lo, cells) = lane
        li = len(lanes)
        if pins:
            # the rank out of position j is the lane's boundary rank j + 1
            at = [(occ, j + 1) for occ, pin in zip(pin_occ, pins)
                  for j in _pin_positions(template, pin, c_lo, len(cells))]
            if not at and key not in failing:
                continue
            for occ, j in at:
                occ.append((li, j))
        lanes.append(lane)
        unknown = [d for d in cells if d < 0]  # the ~slots of the cells it reads
        single.append(cells.index(unknown[0]) if len(unknown) == 1 else None)
        distinct = dict.fromkeys(unknown)
        repeats.append(len(distinct) < len(unknown))
        for d in distinct:
            readers[~d].append(li)
    return box, lanes, readers, repeats, single, pin_occ, isolated


def _propagate(system: tuple, pins: list[RankPin],
               intervals: list[Interval]) -> tuple[int, tuple | None]:
    """Run the worklist of the module docstring over _assemble's system,
    tightening ``intervals``, the interval of each slot of the box (hi INF
    when unbounded above), in place: (rounds, None), or (rounds, (lane key,
    position, detail)) for a contradiction.  The lanes' boundary ranks and
    their caps are kept only when there are pins, for the pin step."""
    box, lanes, readers, repeats, single, pin_occ, isolated = system
    for slot in isolated:  # what round 1 of their lanes would force
        intervals[slot] = (0, 0)
    # Only the pin step reads these: boundary[li] = (lo, hi) lists of lane
    # li's boundary ranks at its last visit, and caps[li][j] a pin's cap on
    # its boundary rank j, held only for the lanes a pin caps.
    boundary: list | None = [None] * len(lanes) if pins else None
    caps: dict[int, dict[int, Interval]] = {}
    dirty = [True] * len(lanes)
    rounds = 0
    while True:
        rounds += 1
        if rounds > 10000:
            raise ValueError("interval propagation did not converge within 10000 rounds")
        changed = rounds == 1 and bool(isolated)
        requeue: set[int] = set()  # lanes to visit next round

        for li, (key, (_c_lo, cells)) in enumerate(lanes):
            if not dirty[li]:
                continue
            dirty[li] = False
            n_pos = len(cells)
            moved = None  # the slots this visit tightened, once a step has run
            pos = single[li]
            if pos is not None:
                # the closed form (module docstring), else the interval passes
                r = s = 0
                for i in range(pos):
                    r = cells[i] - r
                    if r < 0:
                        break
                for i in range(n_pos - 1, pos, -1):
                    s = cells[i] - s
                    if s < 0:
                        break
                slot = ~cells[pos]
                lo, hi = intervals[slot]
                if r >= 0 and s >= 0 and lo <= r + s <= hi:
                    if boundary is not None:
                        point = cells[:]
                        point[pos] = r + s
                        ranks = [0, *check_exactness(point).ranks]
                        boundary[li] = (ranks, ranks)
                    moved = [] if lo == hi else [slot]
                    if moved:
                        intervals[slot] = (r + s, r + s)
            if moved is None:
                moved = []
                lane_caps = caps.get(li)
                # Interval arithmetic on local lo/hi; INF - int stays INF.
                # Forward: F[i+1] = (d_i - F[i]) clamped to [0, INF], then capped.
                d_lo = [0] * n_pos
                d_hi: list = [0] * n_pos
                F_lo = [0] * (n_pos + 1)
                F_hi: list = [0] * (n_pos + 1)
                f_lo = f_hi = 0
                for i in range(n_pos):
                    cell = cells[i]
                    if cell < 0:
                        lo, hi = intervals[~cell]
                    else:
                        lo = hi = cell
                    d_lo[i] = lo
                    d_hi[i] = hi
                    lo = lo - f_hi if lo > f_hi else 0
                    hi -= f_lo
                    if lane_caps:
                        cap = lane_caps.get(i + 1)
                        if cap is not None:
                            if cap[0] > lo:
                                lo = cap[0]
                            if cap[1] < hi:
                                hi = cap[1]
                    if lo > hi:
                        return rounds, (key, i, "rank forced negative or above its pin")
                    F_lo[i + 1] = f_lo = lo
                    F_hi[i + 1] = f_hi = hi
                # Backward: the chain closes with rank 0, which F[n] allows iff
                # its lower end is 0 (ranks are never negative); then
                # R[i] = F[i] meet (d_i - R[i+1]).
                if f_lo > 0:
                    return rounds, (key, n_pos - 1, "chain cannot close")
                R_lo = [0] * (n_pos + 1)
                R_hi: list = [0] * (n_pos + 1)
                r_lo = r_hi = 0
                for i in range(n_pos - 1, -1, -1):
                    lo, hi = d_lo[i], d_hi[i]
                    lo = lo - r_hi if lo > r_hi else 0
                    hi -= r_lo
                    if F_lo[i] > lo:
                        lo = F_lo[i]
                    if F_hi[i] < hi:
                        hi = F_hi[i]
                    R_lo[i] = r_lo = lo
                    R_hi[i] = r_hi = hi
                if boundary is not None:
                    boundary[li] = (R_lo, R_hi)
                # Each cell meets R[i] + R[i+1].
                for i in range(n_pos):
                    slot = ~cells[i]
                    if slot < 0:
                        continue
                    cur = intervals[slot]
                    lo = R_lo[i] + R_lo[i + 1]
                    if cur[0] > lo:
                        lo = cur[0]
                    hi = R_hi[i] + R_hi[i + 1]
                    if cur[1] < hi:
                        hi = cur[1]
                    if lo > hi:
                        return rounds, (key, i, f"cell {box[slot]} has no feasible dimension")
                    if lo != cur[0] or hi != cur[1]:
                        intervals[slot] = (lo, hi)
                        moved.append(slot)
            if moved:
                changed = True
                if repeats[li]:
                    requeue.add(li)
                # queue the other readers: later ones this round, earlier ones next
                for slot in moved:
                    for lj in readers[slot]:
                        if lj > li:
                            dirty[lj] = True
                        elif lj < li:
                            requeue.add(lj)

        for pin, occ in zip(pins, pin_occ):
            ivs = [(boundary[li][0][j], boundary[li][1][j]) for li, j in occ]
            lo_sum = sum(lo for lo, _hi in ivs)
            # The upper ends are summed apart from a count of the unbounded
            # ones: taking one INF back out of an INF sum would give nan.
            his = [hi for _lo, hi in ivs if hi != INF]
            bounded_hi, unbounded = sum(his), len(ivs) - len(his)
            if pin.rank < lo_sum or (not unbounded and pin.rank > bounded_hi):
                # named by the first lane, in key order, that the pin sums
                return rounds, (lanes[occ[0][0]][0] if occ else ("*",) * 4, None,
                                f"pinned rank {pin.rank} outside reachable "
                                f"[{lo_sum}, {None if unbounded else bounded_hi}]")
            # Cap each occurrence by the pin less the other occurrences: their
            # sums are the pin's sums less this occurrence's own bounds.
            for (li, j), (lo, hi) in zip(occ, ivs):
                others_lo = lo_sum - lo
                if unbounded == (hi == INF):  # the others are all bounded above
                    lo = max(lo, pin.rank - (bounded_hi - (0 if unbounded else hi)))
                hi = min(hi, pin.rank - others_lo)
                lane_caps = caps.setdefault(li, {})
                prev = lane_caps.get(j)
                if prev is not None:
                    lo, hi = max(prev[0], lo), min(prev[1], hi)
                if (lo, hi) != prev:
                    lane_caps[j] = (lo, hi)
                    changed = True
                    if boundary[li][0] != boundary[li][1]:  # a cap moves no point rank
                        requeue.add(li)

        if not changed:
            return rounds, None
        for li in requeue:
            dirty[li] = True


def _verify(template: SequenceTemplate, system: tuple, pins: list[RankPin],
            intervals: list[Interval]) -> VerificationReport:
    """check_sequence's report on the completed instance, written from the
    assembled system (module docstring): _lane_pass over the propagated
    lanes, each unknown cell at its point value, with the lanes of every
    isolated cell that is not 0 merged into its failures in key order."""
    _box, lanes, _readers, _repeats, single, _pin_occ, isolated = system
    failures, totals = _lane_pass(template, _completed(lanes, single, intervals), pins)
    # an isolated cell's lanes hold it, as ~slot, between zeros
    lone = [(key, (c_lo, [intervals[slot][0] if d else 0 for d in cells]))
            for slot, its_lanes in isolated.items() if intervals[slot][0]
            for key, (c_lo, cells) in its_lanes]
    if lone:
        failures = sorted(failures + lone)
    return _sequence_report(template, failures, totals, pins)


def _completed(lanes: list, single: list, intervals: list[Interval]):
    """The propagated lanes, each unknown cell read at the lower end of its
    slot's interval: a copy of the cells with the one unknown position
    replaced, or every unknown cell where a lane reads none or more."""
    for (key, (c_lo, cells)), pos in zip(lanes, single):
        if pos is None:
            cells = [intervals[~d][0] if d < 0 else d for d in cells]
        else:
            cells = cells[:]
            cells[pos] = intervals[~cells[pos]][0]
        yield key, (c_lo, cells)


def solve_unknown(template: SequenceTemplate,
                  tables: dict[str, TriFilteredTable],
                  unknown,
                  pins: list[RankPin] = ()) -> SolveResult:
    """Solve for the one table marked unknown.

    ``unknown`` is a space tag, or (tag, degree) to solve only that
    cohomological degree while trusting the table's other degrees; the
    degree must lie in the space's degree window, outside which the table
    has no cell to solve.  If the tables set still contains the unknown tag
    in a full solve, its stored entries are ignored; everything is rebuilt
    from the other tables.  After these checks, an instance is refused whose
    known tables, and in a degree solve the table's other degrees, are all empty.
    """
    tag, degree = _parse_unknown(unknown)
    if tag not in {t.space for t in template.terms}:
        raise ValueError(f"template {template.name!r} never references {tag!r}")
    known = dict(tables)
    stored = known.pop(tag, None)
    if degree is not None and stored is None:
        raise ValueError(
            f"partial solve for {tag} degree {degree} needs the table present "
            "to supply its other degrees")
    _check_instance(template, tables, tag, pins)
    space = stored.space if stored is not None else _infer_descriptor(tag, known)
    if degree is not None:
        k_lo, k_hi = space.degree_range()
        if not k_lo <= degree <= k_hi:
            raise ValueError(f"degree {degree} lies outside the degree window "
                             f"[{k_lo}, {k_hi}] of {tag}")
    _require_data(template, tables, tag, degree)
    box = _sorted_box(space, degree)

    # The lanes are those of the instance with the unknown table read
    # through an overlay: the cell at slot i of the box reads as ~i, and for
    # a degree solve the table's other degrees are known data.
    other_degrees = {} if degree is None else {
        quad: d for quad, d in stored.entries.items() if quad[0] != degree}
    sources = {s: known[s].entries for s in template.spaces() if s != tag}
    sources[tag] = overlay = dict(other_degrees)
    overlay.update(zip(box, range(-1, ~len(box), -1)))
    intervals: list[Interval] = [(0, INF)] * len(box)
    system = _assemble(template, sources, box, pins, tag)
    iterations, failure = _propagate(system, pins, intervals)
    if failure is not None:
        key, position, detail = failure
        rep = VerificationReport([Violation(
            f"solve contradiction: {detail} ({_describe_lane(key)})",
            lane=key[:3], position=position)])
        return SolveResult(None, False, [], rep, iterations)

    solved = other_degrees  # the box's determined cells join the degrees kept
    under: list[tuple[Quad, int, int | None]] = []
    for quad, (lo, hi) in zip(box, intervals):
        if lo == hi:
            if lo > 0:
                solved[quad] = lo
        else:
            under.append((quad, lo, None if hi == INF else hi))

    # the kept degrees come from a checked table, and every solved value is
    # an int bound, positive
    table = TriFilteredTable._of(space, solved)
    determined = not under
    report = _verify(template, system, pins, intervals) if determined else VerificationReport()
    return SolveResult(table, determined, under, report, iterations)
