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

A solve runs in two steps.  _assemble builds the lane system once: the
lanes of the instance with the unknown table read through an overlay, the
lanes reading each cell, the lanes reading a cell twice, each lane's one
unknown position and the lanes' ranks each pin sums.  _propagate owns all
that follows, the worklist, the closed form, the interval passes and the
pin step; it tightens the intervals in place and returns the round count
and the contradiction, if any, from which solve_unknown builds the report.

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
next round.  This is the order of sweeping every lane every round, minus
the sweeps that cannot change anything: the intervals, the contradiction
reported and the round count are those of the full sweep.  A test runs
such a full sweep, with the interval passes alone, beside _propagate on
every case of the solver golden, and checks this and the closed form below.

Most lanes of a solve read at most one unknown cell, and such a lane takes
a closed form: the rank recursion r = d_i - r of check_exactness runs from
the front up to the cell (over the whole lane if it reads none) and from the
back down to just after it, the cell is forced to r_in + r_out, the ranks
are stored as both ends of the boundary and the cell is tightened to that
point.  This is what the interval passes give.  Any solution of the lane
carries these ranks, so there is at most one.  If no rank goes negative, the
chain closes and the forced value lies in the cell's interval, it is that,
and the interval passes, seeing points on both sides of the cell and being
sound, return exactly it.  Otherwise there is none, and the lane falls
through to the interval passes, the only code that reports a contradiction.
A pin cap changes nothing: the closed form succeeds on a visit only if it
did on every earlier one (its ranks read known cells, intervals only
shrink), so the lane's boundary always held these point ranks, and the pin
step, having checked lo_sum <= pin <= hi_sum, caps a point rank r to
max(r, pin - others_hi) = r and min(r, pin - others_lo) = r.

A determined solve is verified on the lanes _assemble built, by _verify:
check_exactness's recursion r = d - r runs over every lane, each unknown
cell read at its point value, and must never go negative and must close at
0; then each pin's boundary ranks over pin_occ must total its rank.  No lane
or pin is skipped on the strength of the propagation argument.  This is
check_sequence of the completed instance: an assembled lane is its lane,
padded with zero cells (the box cells solved to 0, and whole lanes opened
only by such cells, every cell 0).  Leading zeros keep the rank at 0, and
trailing zeros keep a rank of 0 at 0 and drive any other rank negative, so
padding changes neither whether a lane is exact nor any rank a pin sums.
If the check fails, which by this argument it never does, the report comes
from check_sequence of the completed instance.
"""

from __future__ import annotations

from .sequences import (RankPin, SequenceTemplate, _check_instance, _check_term_index,
                        _lanes, _pin_positions, _read_positions, check_sequence)
from .spaces import FIBRATION_KINDS, SpaceDescriptor
from .tables import Quad, Record, TriFilteredTable, VerificationReport, Violation

# interval [lo, hi]; hi is INF when unbounded above, so that comparisons
# and sums need no special case
INF = float("inf")
Interval = tuple[int, int | float]


def support_box(space: SpaceDescriptor, degree: int | None = None) -> set[Quad]:
    """All index quadruples where a table of this space could be nonzero.

    Degree, lane, weight and Hodge windows all come from the descriptor,
    the same windows validate_table checks, so any valid table lives inside
    its box.
    """
    k_lo, k_hi = space.degree_range()
    if degree is not None:
        k_lo, k_hi = max(k_lo, degree), min(k_hi, degree)
    box: set[Quad] = set()
    for k in range(k_lo, k_hi + 1):
        l_lo, l_hi = space.lane_range(k)
        q_lo, q_hi = space.weight_range(k)
        for l in range(l_lo, l_hi + 1):
            for q in range(q_lo, q_hi + 1):
                p_lo, p_hi = space.hodge_range(k, q)
                for p in range(p_lo, p_hi + 1):
                    box.add((k, l, q, p))
    return box


class SolveResult(Record):
    """Outcome of solve_unknown.

    ``table`` holds every determined cell (None after a contradiction);
    ``underdetermined`` lists cells whose interval stayed wider than a point,
    with the interval bounds, hi None when unbounded above; ``report``
    carries the contradiction, or the final verification of the completed
    instance when fully determined: a pass is read off the assembled lanes,
    and only a failure runs check_sequence for the violations;
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


def _assemble(template: SequenceTemplate, sources: dict, tag: str, box: set[Quad],
              pins: list[RankPin]) -> tuple:
    """The lane system: lanes[i] = (key, first cycle, cells) in key order, a
    cell being a known dimension or an unknown's quadruple; readers (each
    cell's lanes), repeats (lanes reading a cell twice), single[i] (lane i's
    one unknown position: -1 if none, None if more) and pin_occ (for each
    pin, the (lane, boundary rank) pairs it sums)."""
    lane_map = _lanes(template, sources)
    keys = sorted(lane_map)
    lanes = [(key, *lane_map[key]) for key in keys]
    index = {key: li for li, key in enumerate(keys)}
    readers: dict[Quad, list[int]] = {quad: [] for quad in box}
    repeats = [False] * len(lanes)
    single: list[int | None] = [-1] * len(lanes)
    for quad, key, pos in _read_positions(template, lane_map, tag, box):
        li = index[key]
        if li in readers[quad]:
            repeats[li] = True
        else:
            readers[quad].append(li)
        single[li] = pos if single[li] == -1 else None

    # Chain positions whose outgoing rank each pin sums: the rank out of
    # position j is the lane's boundary rank j + 1.
    pin_occ = [[(li, j + 1) for li, (_key, c_lo, cells) in enumerate(lanes)
                for j in _pin_positions(template, pin.term_index, pin.degree,
                                        c_lo, len(cells))]
               for pin in pins]
    return lanes, readers, repeats, single, pin_occ


def _propagate(system: tuple, pins: list[RankPin],
               intervals: dict[Quad, Interval]) -> tuple[int, tuple | None]:
    """Run the worklist of the module docstring over _assemble's system,
    tightening ``intervals`` (hi INF when unbounded above) in place:
    (rounds, None), or (rounds, (lane key, position, detail)) for a
    contradiction."""
    lanes, readers, repeats, single, pin_occ = system
    caps: list[dict[int, Interval]] = [{} for _ in lanes]
    # boundary[li] = (lo, hi) lists of the lane's connecting ranks at its
    # last visit; the pin step reads them.
    boundary: list[tuple[list, list] | None] = [None] * len(lanes)
    dirty = [True] * len(lanes)
    rounds = 0
    while True:
        rounds += 1
        if rounds > 10000:
            raise ValueError("interval propagation did not converge within 10000 rounds")
        changed = False
        requeue: set[int] = set()  # lanes to visit next round

        for li, (key, _c_lo, cells) in enumerate(lanes):
            if not dirty[li]:
                continue
            dirty[li] = False
            n_pos = len(cells)
            moved = None  # the cells this visit tightened, once a step has run
            pos = single[li]
            if pos is not None:
                # the closed form (module docstring), else the interval passes
                ranks = [0] * (n_pos + 1)
                r = s = 0
                end = n_pos if pos < 0 else pos
                for i in range(end):
                    r = cells[i] - r
                    if r < 0:
                        break
                    ranks[i + 1] = r
                for i in range(n_pos - 1, end, -1):
                    s = cells[i] - s
                    if s < 0:
                        break
                    ranks[i] = s
                # a lane reading no unknown closes: r + s is forced to 0
                lo, hi = intervals[cells[pos]] if pos >= 0 else (0, 0)
                if r >= 0 and s >= 0 and lo <= r + s <= hi:
                    boundary[li] = (ranks, ranks)
                    moved = [] if lo == hi else [cells[pos]]
                    if moved:
                        intervals[cells[pos]] = (r + s, r + s)
            if moved is None:
                moved = []
                lane_caps = caps[li]
                # Interval arithmetic on local lo/hi; INF - int stays INF.
                # Forward: F[i+1] = (d_i - F[i]) clamped to [0, INF], then capped.
                d_lo = [0] * n_pos
                d_hi: list = [0] * n_pos
                F_lo = [0] * (n_pos + 1)
                F_hi: list = [0] * (n_pos + 1)
                f_lo = f_hi = 0
                for i in range(n_pos):
                    cell = cells[i]
                    if cell.__class__ is tuple:
                        lo, hi = intervals[cell]
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
                    if lo > hi:
                        return rounds, (key, i, "forward and backward ranks incompatible")
                    R_lo[i] = r_lo = lo
                    R_hi[i] = r_hi = hi
                boundary[li] = (R_lo, R_hi)
                # Each cell meets R[i] + R[i+1].
                for i in range(n_pos):
                    cell = cells[i]
                    if cell.__class__ is not tuple:
                        continue
                    cur = intervals[cell]
                    lo = R_lo[i] + R_lo[i + 1]
                    if cur[0] > lo:
                        lo = cur[0]
                    hi = R_hi[i] + R_hi[i + 1]
                    if cur[1] < hi:
                        hi = cur[1]
                    if lo > hi:
                        return rounds, (key, i, f"cell {cell} has no feasible dimension")
                    if lo != cur[0] or hi != cur[1]:
                        intervals[cell] = (lo, hi)
                        moved.append(cell)
            if moved:
                changed = True
                if repeats[li]:
                    requeue.add(li)
                # queue the other readers: later ones this round, earlier ones next
                for cell in moved:
                    for lj in readers[cell]:
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
                return rounds, (("*",) * 4 if not occ else lanes[occ[0][0]][0], None,
                                f"pinned rank {pin.rank} outside reachable "
                                f"[{lo_sum}, {None if unbounded else bounded_hi}]")
            # Cap each occurrence by the pin less the other occurrences: their
            # sums are the pin's sums less this occurrence's own bounds.
            for (li, j), (lo, hi) in zip(occ, ivs):
                others_lo = lo_sum - lo
                if unbounded == (hi == INF):  # the others are all bounded above
                    lo = max(lo, pin.rank - (bounded_hi - (0 if unbounded else hi)))
                hi = min(hi, pin.rank - others_lo)
                prev = caps[li].get(j)
                if prev is not None:
                    lo, hi = max(prev[0], lo), min(prev[1], hi)
                if (lo, hi) != prev:
                    caps[li][j] = (lo, hi)
                    requeue.add(li)
                    changed = True

        if not changed:
            return rounds, None
        for li in requeue:
            dirty[li] = True


def _verify(system: tuple, pins: list[RankPin], intervals: dict[Quad, Interval]) -> bool:
    """Whether check_sequence passes the completed instance, read off the
    assembled system (module docstring): every lane closes under
    check_exactness's recursion with each unknown cell at its point value,
    and each pin's ranks over pin_occ total its rank."""
    lanes, _readers, _repeats, _single, pin_occ = system
    ranks = []  # ranks[li][j]: lane li's boundary rank j
    for _key, _c_lo, cells in lanes:
        r = 0
        lane_ranks = [0]
        for d in cells:
            r = (intervals[d][0] if d.__class__ is tuple else d) - r
            if r < 0:
                return False
            lane_ranks.append(r)
        if r:
            return False
        ranks.append(lane_ranks)
    return all(sum(ranks[li][j] for li, j in occ) == pin.rank
               for pin, occ in zip(pins, pin_occ))


def solve_unknown(template: SequenceTemplate,
                  tables: dict[str, TriFilteredTable],
                  unknown,
                  pins: list[RankPin] = ()) -> SolveResult:
    """Solve for the one table marked unknown.

    ``unknown`` is a space tag, or (tag, degree) to solve only that
    cohomological degree while trusting the table's other degrees.  If the
    tables set still contains the unknown tag in a full solve, its stored
    entries are ignored; everything is rebuilt from the other tables.
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
    _check_instance(template, tables, tag)
    for pin in pins:
        _check_term_index(template, pin.term_index)
    space = stored.space if stored is not None else _infer_descriptor(tag, known)
    box = support_box(space, degree)

    # The lanes are those of the instance with the unknown table read
    # through an overlay: a cell of the box reads as its own quadruple, and
    # for a degree solve the table's other degrees are known data.
    other_degrees = {} if degree is None else {
        quad: d for quad, d in stored.entries.items() if quad[0] != degree}
    sources = {s: known[s].entries for s in template.spaces() if s != tag}
    sources[tag] = {**other_degrees, **{quad: quad for quad in box}}
    intervals: dict[Quad, Interval] = {quad: (0, INF) for quad in box}
    system = _assemble(template, sources, tag, box, pins)
    iterations, failure = _propagate(system, pins, intervals)
    if failure is not None:
        (res, l, q, p), position, detail = failure
        rep = VerificationReport([Violation(
            f"solve contradiction: {detail} (lane (l={l}, q={q}, p={p}) residue {res})",
            lane=(l, q, p), position=position)])
        return SolveResult(None, False, [], rep, iterations)

    solved: dict[Quad, int] = {}
    under: list[tuple[Quad, int, int | None]] = []
    for quad in sorted(box):
        lo, hi = intervals[quad]
        if lo == hi:
            if lo > 0:
                solved[quad] = lo
        else:
            under.append((quad, lo, None if hi == INF else hi))

    if degree is not None:
        solved = {**other_degrees, **solved}
    table = TriFilteredTable(space, solved)
    determined = not under
    report = VerificationReport()
    if determined and not _verify(system, pins, intervals):
        completed = dict(known)
        completed[tag] = table
        report = check_sequence(template, completed, pins=list(pins))
    return SolveResult(table, determined, under, report, iterations)
