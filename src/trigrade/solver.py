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
couples them, and each lane only ever sees its own projection.

The propagation is sound: the true table always lies inside every computed
interval, so a cell whose interval collapses to a point is genuinely forced
(reported solved), a wider interval is reported underdetermined rather than
guessed, and an empty interval means the known tables admit no exact
completion at all (contradiction, reported with the offending lane).

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
reported and the round count are those of the full sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import VerificationReport, Violation
from .sequences import RankPin, SequenceTemplate, check_sequence
from .spaces import SpaceDescriptor
from .tables import Quad, TriFilteredTable

# interval [lo, hi]; hi None means unbounded above
Interval = tuple[int, int | None]


def _meet(a: Interval, b: Interval) -> Interval:
    if a[1] is None:
        hi = b[1]
    elif b[1] is None:
        hi = a[1]
    else:
        hi = min(a[1], b[1])
    return (max(a[0], b[0]), hi)


def support_box(space: SpaceDescriptor, degree: int | None = None) -> set[Quad]:
    """All index quadruples where a table of this space could be nonzero.

    Degree and lane windows come from the descriptor.  Weights of a degree-k
    structure lie in [0, 2k], sharpened to q = k for the smooth projective
    kinds and to one-sided windows for U and Uc; the Hodge index runs over
    the window a weight-q piece of H^k of a d-dimensional space allows.
    These are exactly the vanishing facts validate_table checks, so any
    valid table lives inside its box.
    """
    k_lo, k_hi = space.degree_range()
    if degree is not None:
        k_lo, k_hi = max(k_lo, degree), min(k_hi, degree)
    d = space.complex_dim
    box: set[Quad] = set()
    for k in range(k_lo, k_hi + 1):
        l_lo, l_hi = space.lane_range(k)
        if space.kind in ("Y", "Z"):
            q_range = range(k, k + 1)
        elif space.kind == "U":
            q_range = range(k, 2 * k + 1)
        elif space.kind == "Uc":
            q_range = range(0, k + 1)
        else:
            q_range = range(0, 2 * k + 1)
        for l in range(l_lo, l_hi + 1):
            for q in q_range:
                for p in range(max(0, q - k, q - d), min(q, k, d) + 1):
                    box.add((k, l, q, p))
    return box


@dataclass
class SolveResult:
    """Outcome of solve_unknown.

    ``table`` holds every determined cell (None after a contradiction);
    ``underdetermined`` lists cells whose interval stayed wider than a point,
    with the interval bounds; ``report`` carries the contradiction, or the
    final verification of the completed instance when fully determined;
    ``iterations`` counts the propagation rounds, the last of which only
    confirms the fixpoint.
    """

    table: TriFilteredTable | None
    determined: bool
    underdetermined: list[tuple[Quad, int, int | None]]
    report: VerificationReport
    iterations: int


def _parse_unknown(unknown) -> tuple[str, int | None]:
    if isinstance(unknown, str):
        return unknown, None
    try:
        tag, degree = unknown
        return str(tag), int(degree)
    except (TypeError, ValueError):
        raise ValueError(
            f"unknown must be a space tag or (tag, degree), got {unknown!r}") from None


def _infer_descriptor(tag: str, known: dict[str, TriFilteredTable]) -> SpaceDescriptor:
    if not known:
        raise ValueError("cannot infer the unknown table's descriptor from nothing")
    n = next(iter(known.values())).space.n
    m = None
    for t in known.values():
        if t.space.is_fibration_side:
            m = t.space.m
            break
    try:
        return SpaceDescriptor.parse_tag(tag, n, m)
    except ValueError:
        # degeneration-side tags reject m; retry bare
        return SpaceDescriptor.parse_tag(tag, n, None)


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
    missing = [s for s in template.spaces() if s != tag and s not in known]
    if missing:
        raise ValueError(f"tables missing for {', '.join(missing)}")
    space = stored.space if stored is not None else _infer_descriptor(tag, known)
    box = support_box(space, degree)

    # -- assemble the lane system -----------------------------------------
    # Every read is (k_offset, shift, twist, lookup, reads_unknown), the
    # terms' SequenceTerm.read_quad written out; lookup gives the known
    # dimension at a quadruple.  For a degree solve the unknown table's
    # other degrees are known data.
    P = template.period
    T = len(template.terms)
    other_degrees = {} if degree is None else {
        quad: d for quad, d in stored.entries.items() if quad[0] != degree}
    reads = []
    windows: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for term in template.terms:
        ko, s, tw = term.k_offset, term.shift, term.twist
        if term.space == tag:
            reads.append((ko, s, tw, other_degrees.get, True))
            touched = list(box) + list(other_degrees)
        else:
            entries = known[term.space].entries
            reads.append((ko, s, tw, entries.get, False))
            touched = entries
        for k, l, q, p in touched:
            c = k - ko
            key = (c % P, l - s, q - 2 * tw, p - tw)
            w = windows.get(key)
            if w is None:
                windows[key] = (c, c)
            elif c < w[0]:
                windows[key] = (c, w[1])
            elif c > w[1]:
                windows[key] = (w[0], c)

    # lanes[i] = (key, first cycle, cells): a cell is a known dimension, or
    # the quadruple of an unknown one.  readers maps each unknown cell to the
    # lanes that read it; repeats marks lanes reading one cell twice.
    lanes: list[tuple[tuple[int, int, int, int], int, list]] = []
    readers: dict[Quad, list[int]] = {quad: [] for quad in box}
    repeats: list[bool] = []
    for (res, l, q, p), (c_lo, c_hi) in sorted(windows.items()):
        cells: list = []
        unknowns: list[Quad] = []
        keep = False
        for c in range(c_lo, c_hi + 1, P):
            for ko, s, tw, get, reads_unknown in reads:
                quad = (c + ko, l + s, q + 2 * tw, p + tw)
                if reads_unknown and quad in box:
                    cells.append(quad)
                    unknowns.append(quad)
                else:
                    v = get(quad, 0)
                    cells.append(v)
                    keep = keep or v > 0
        if keep or unknowns:
            distinct = set(unknowns)
            for quad in distinct:
                readers[quad].append(len(lanes))
            repeats.append(len(distinct) < len(unknowns))
            lanes.append(((res, l, q, p), c_lo, cells))

    # Chain positions whose outgoing rank each pin sums.
    pin_occ: list[list[tuple[int, int]]] = []
    for pin in pins:
        if not 0 <= pin.term_index < T:
            raise ValueError(f"pin names term {pin.term_index}, template has {T} terms")
        occ: list[tuple[int, int]] = []
        for li, (_key, c_lo, cells) in enumerate(lanes):
            for j in range(pin.term_index, len(cells), T):
                if pin.degree is not None:
                    c = c_lo + (j // T) * P
                    if c + template.terms[pin.term_index].k_offset != pin.degree:
                        continue
                occ.append((li, j + 1))
        pin_occ.append(occ)

    # -- propagate to a fixpoint ------------------------------------------
    intervals: dict[Quad, Interval] = {quad: (0, None) for quad in box}
    caps: list[dict[int, Interval]] = [{} for _ in lanes]
    # boundary[li] = (lo, hi) lists of the lane's connecting ranks at its
    # last visit; the pin step reads them.
    boundary: list[tuple[list, list] | None] = [None] * len(lanes)

    def fail(lane_key, position, detail) -> SolveResult:
        res, l, q, p = lane_key
        rep = VerificationReport()
        rep.add(Violation(
            f"solve contradiction: {detail} "
            f"(lane (l={l}, q={q}, p={p}) residue {res})",
            lane=(l, q, p), position=position))
        return SolveResult(None, False, [], rep, iterations)

    dirty = [True] * len(lanes)
    iterations = 0
    while True:
        iterations += 1
        if iterations > 10000:
            raise RuntimeError("interval propagation failed to converge")
        changed = False
        requeue: set[int] = set()  # lanes to visit next round

        for li, (key, _c_lo, cells) in enumerate(lanes):
            if not dirty[li]:
                continue
            dirty[li] = False
            lane_caps = caps[li]
            n_pos = len(cells)
            # Interval arithmetic on local lo/hi ints; hi None is unbounded.
            # Forward: F[i+1] = (d_i - F[i]) clamped to [0, inf), then capped.
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
                if f_hi is not None:
                    lo = lo - f_hi if lo > f_hi else 0
                else:
                    lo = 0
                if hi is not None:
                    hi -= f_lo
                if lane_caps:
                    cap = lane_caps.get(i + 1)
                    if cap is not None:
                        if cap[0] > lo:
                            lo = cap[0]
                        if cap[1] is not None and (hi is None or cap[1] < hi):
                            hi = cap[1]
                if hi is not None and lo > hi:
                    return fail(key, i, "rank forced negative or above its pin")
                F_lo[i + 1] = f_lo = lo
                F_hi[i + 1] = f_hi = hi
            # Backward: the chain closes with rank 0, which F[n] allows iff
            # its lower end is 0 (ranks are never negative); then
            # R[i] = F[i] meet (d_i - R[i+1]).
            if f_lo > 0:
                return fail(key, n_pos - 1, "chain cannot close")
            R_lo = [0] * (n_pos + 1)
            R_hi: list = [0] * (n_pos + 1)
            r_lo = r_hi = 0
            for i in range(n_pos - 1, -1, -1):
                lo, hi = d_lo[i], d_hi[i]
                if r_hi is not None:
                    lo = lo - r_hi if lo > r_hi else 0
                else:
                    lo = 0
                if hi is not None:
                    hi -= r_lo
                if F_lo[i] > lo:
                    lo = F_lo[i]
                f_hi = F_hi[i]
                if f_hi is not None and (hi is None or f_hi < hi):
                    hi = f_hi
                if hi is not None and lo > hi:
                    return fail(key, i, "forward and backward ranks incompatible")
                R_lo[i] = r_lo = lo
                R_hi[i] = r_hi = hi
            boundary[li] = (R_lo, R_hi)
            # Each cell meets R[i] + R[i+1].
            tightened = False
            for i in range(n_pos):
                cell = cells[i]
                if cell.__class__ is not tuple:
                    continue
                cur = intervals[cell]
                lo = R_lo[i] + R_lo[i + 1]
                if cur[0] > lo:
                    lo = cur[0]
                hi = R_hi[i]
                if hi is not None:
                    hi = None if R_hi[i + 1] is None else hi + R_hi[i + 1]
                if cur[1] is not None and (hi is None or cur[1] < hi):
                    hi = cur[1]
                if hi is not None and lo > hi:
                    return fail(key, i, f"cell {cell} has no feasible dimension")
                if lo != cur[0] or hi != cur[1]:
                    intervals[cell] = (lo, hi)
                    tightened = True
                    for lj in readers[cell]:
                        if lj > li:
                            dirty[lj] = True
                        elif lj < li:
                            requeue.add(lj)
            if tightened:
                changed = True
                if repeats[li]:
                    requeue.add(li)

        for pin, occ in zip(pins, pin_occ):
            ivs = [(boundary[li][0][j], boundary[li][1][j]) for li, j in occ]
            lo_sum = sum(iv[0] for iv in ivs)
            hi_sum = None if any(iv[1] is None for iv in ivs) else sum(iv[1] for iv in ivs)
            if pin.rank < lo_sum or (hi_sum is not None and pin.rank > hi_sum):
                return fail(("*",) * 4 if not occ else lanes[occ[0][0]][0], None,
                            f"pinned rank {pin.rank} outside reachable "
                            f"[{lo_sum}, {hi_sum}]")
            for which, (li, j) in enumerate(occ):
                cur = ivs[which]
                others = [iv for w, iv in enumerate(ivs) if w != which]
                o_lo = sum(iv[0] for iv in others)
                o_hi = None if any(iv[1] is None for iv in others) else sum(iv[1] for iv in others)
                lo_new = cur[0] if o_hi is None else max(cur[0], pin.rank - o_hi)
                hi_new = pin.rank - o_lo if cur[1] is None else min(cur[1], pin.rank - o_lo)
                capped = (lo_new, hi_new)
                prev = caps[li].get(j)
                if prev is None or _meet(prev, capped) != prev:
                    caps[li][j] = capped if prev is None else _meet(prev, capped)
                    requeue.add(li)
                    changed = True

        if not changed:
            break
        for li in requeue:
            dirty[li] = True

    # -- collect ----------------------------------------------------------
    solved: dict[Quad, int] = {}
    under: list[tuple[Quad, int, int | None]] = []
    for quad in sorted(box):
        lo, hi = intervals[quad]
        if hi is not None and lo == hi:
            if lo > 0:
                solved[quad] = lo
        else:
            under.append((quad, lo, hi))

    if degree is not None:
        solved = {**other_degrees, **solved}
    table = TriFilteredTable(space, solved)
    determined = not under
    report = VerificationReport()
    if determined:
        completed = dict(known)
        completed[tag] = table
        report = check_sequence(template, completed, pins=list(pins))
    return SolveResult(table, determined, under, report, iterations)
