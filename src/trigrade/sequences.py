"""Long exact sequence templates and lane-by-lane exactness checking.

A template is a cyclic list of terms.  Instantiating it at cycle degree c and
term (space, a, s, j) reads the space's table at

    (c + a,  l + s,  q + 2j,  p + j)

for a lane (l, q, p): the k-offset a moves along cohomological degree, the
shift s moves the perverse lane, and the twist j moves the weight and Hodge
slots together the way a Tate twist does.  A template of period P advances c
by P each full cycle, so the cycle degrees split into P residue classes and
each class is its own exact sequence.  A Lane is one such chain: a triple
(l, q, p) together with a residue class.

Exactness of a chain of finite dimensional pieces is a pure dimension
condition: ranks r_i of the connecting maps must satisfy d_i = r_{i-1} + r_i
with zero rank entering the first position and leaving the last.  That
recursion is check_exactness for one chain.  _lanes builds every lane of an
instance in one pass over the reads, as key and (first cycle, cells), and
asks _windows to check the budgets only once what it allocates could break
them.  _lane_pass runs the recursion once over such lanes, in any order,
and returns the lanes it cannot pass, as it took them, and each pin's total
rank.  check_sequence and infer_rank run it over every lane of a known
instance and rerun check_exactness on the failing lanes they report, with no
Lane built.  The solver runs it over the lanes of an instance whose unknown
cells read as negative ints, on which the recursion breaks, but for the
lanes that hold a lone unknown between zeros, to find the lanes it must
propagate, and over those lanes again to verify a determined solve.
_sequence_report writes the report from what the pass returns, for
check_sequence and for a determined solve alike.
"""

from __future__ import annotations

from .spaces import MAX_N
from .tables import (Frozen, TriFilteredTable, VerificationReport, Violation, _integer,
                     _json_list, _require_agreement, _set)

# No space has a degree above 2(MAX_N + 1), the top degree of a space of
# complex dimension MAX_N + 1.  Template k_offsets lie within this bound, and _windows refuses an
# instance whose table degrees stray far enough to widen a lane beyond it.
MAX_DEGREE = 2 * (MAX_N + 1)
# A lane holds one cell per term per cycle, so the work of an instance grows
# with the template's length: the builtin templates have at most 4 terms.
# SequenceTemplate refuses more than MAX_TERMS terms, and _windows an instance
# whose lanes would hold more than MAX_LANE_CELLS cells in all, about 8 MB of
# cell references; the largest product instance (m <= 2) up to n = MAX_N, cs
# or mirror-cs with one table unknown, holds about 63,000.  _lanes asks
# _windows once it would allocate more than LANE_ALLOWANCE cells, an eighth
# of the budget: no product instance runs the window pass, and a refused
# instance's memory stays small.  A loc2 solve of Uc at n = m = 16, 83,521
# unknown cells, runs it once and is accepted (about 5 s and a 30 MB
# tracemalloc peak on a 2-core Xeon VM).
MAX_TERMS = 1000
MAX_LANE_CELLS = 1_000_000
LANE_ALLOWANCE = MAX_LANE_CELLS // 8
OVER_BUDGET = f"the lanes of this instance would hold more than {MAX_LANE_CELLS} cells"


class SequenceTerm(Frozen):
    __slots__ = ("space", "k_offset", "shift", "twist")

    def __init__(self, space: str, k_offset: int = 0, shift: int = 0, twist: int = 0):
        # space is a table tag: "Y", "Z:1", "U", "Uc", "Xlim", "Total", "Supported"
        if not isinstance(space, str):
            raise ValueError(f"template term 'space' must be a string, got {space!r}")
        for field, value in (("k_offset", k_offset), ("shift", shift), ("twist", twist)):
            _integer(value, f"template term {field!r}")
        # A lane's cells span the spread of the k_offsets, so an offset
        # beyond any table's degrees only costs memory.
        if not -MAX_DEGREE <= k_offset <= MAX_DEGREE:
            raise ValueError(f"template term 'k_offset' must lie in [-{MAX_DEGREE}, "
                             f"{MAX_DEGREE}], got {k_offset}")
        _set(self, "space", space)
        _set(self, "k_offset", k_offset)
        _set(self, "shift", shift)
        _set(self, "twist", twist)

    def read_quad(self, c: int, l: int, q: int, p: int) -> tuple[int, int, int, int]:
        return (c + self.k_offset, l + self.shift, q + 2 * self.twist, p + self.twist)


class SequenceTemplate(Frozen):
    __slots__ = ("name", "period", "terms")

    def __init__(self, name: str, period: int, terms: tuple[SequenceTerm, ...]):
        if not isinstance(name, str):
            raise ValueError(f"template 'name' must be a string, got {name!r}")
        _integer(period, "template 'period'")
        # a tuple keeps the template hashable; a term is read by its fields
        if not (isinstance(terms, tuple) and all(isinstance(t, SequenceTerm) for t in terms)):
            raise ValueError(f"template 'terms' must be a tuple of SequenceTerm, got {terms!r}")
        if period < 1 or not terms:
            raise ValueError("template needs a positive period and at least one term")
        if len(terms) > MAX_TERMS:
            raise ValueError(f"template has {len(terms)} terms, more than {MAX_TERMS}")
        _set(self, "name", name)
        _set(self, "period", period)
        _set(self, "terms", terms)

    def spaces(self) -> list[str]:
        return sorted({t.space for t in self.terms})

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "period": self.period,
            "terms": [
                {"space": t.space, "k_offset": t.k_offset,
                 "shift": t.shift, "twist": t.twist}
                for t in self.terms
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SequenceTemplate":
        if isinstance(obj, str):
            try:
                return builtin_templates()[obj]
            except KeyError:
                raise ValueError(f"unknown template {obj!r}") from None
        try:
            terms = tuple(
                SequenceTerm(t["space"], t.get("k_offset", 0),
                             t.get("shift", 0), t.get("twist", 0))
                for t in _json_list(obj["terms"], "terms", "term objects"))
            return cls(obj.get("name", "custom"), obj["period"], terms)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed template object: {exc}") from exc


def builtin_templates() -> dict[str, SequenceTemplate]:
    """The four built-in templates.

    loc1/loc2 are the two localization sequences of the open-closed
    decomposition of a fibred space along a linear section (period 1); cs is
    the degeneration sequence tying the total space, the limit, its twist and
    the supported cohomology (period 2); mirror-cs is its fibration-side
    mirror partner built from Uc, Y and twists of Y and U (period 2).
    """
    t = SequenceTerm
    return {
        "loc1": SequenceTemplate("loc1", 1, (
            t("Y"), t("U"), t("Z:1", k_offset=-1, shift=-1, twist=-1))),
        "loc2": SequenceTemplate("loc2", 1, (
            t("Uc"), t("Y"), t("Z:1", shift=-1))),
        "mirror-cs": SequenceTemplate("mirror-cs", 2, (
            t("Uc"), t("Y"), t("Y", k_offset=2, twist=1), t("U", k_offset=2, twist=1))),
        "cs": SequenceTemplate("cs", 2, (
            t("Total", shift=1), t("Xlim"), t("Xlim", twist=-1),
            t("Supported", k_offset=2, shift=1))),
    }


class LaneEntry(Frozen):
    __slots__ = ("term_index", "degree", "dim")

    def __init__(self, term_index: int, degree: int, dim: int):
        _set(self, "term_index", term_index)
        _set(self, "degree", degree)  # the k actually read in the term's own table
        _set(self, "dim", dim)


class Lane(Frozen):
    """One chain of the instantiated sequence: fixed (l, q, p) and a residue
    class of the cycle degree mod the period."""

    __slots__ = ("l", "q", "p", "residue", "start_cycle", "entries")

    def __init__(self, l: int, q: int, p: int, residue: int, start_cycle: int,
                 entries: tuple[LaneEntry, ...]):
        _set(self, "l", l)
        _set(self, "q", q)
        _set(self, "p", p)
        _set(self, "residue", residue)
        _set(self, "start_cycle", start_cycle)
        _set(self, "entries", entries)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.l, self.q, self.p)

    @property
    def chain(self) -> list[int]:
        return [e.dim for e in self.entries]

    def describe(self) -> str:
        return _describe_lane((self.l, self.q, self.p, self.residue))


def _describe_lane(key: tuple[int, int, int, int]) -> str:
    l, q, p, res = key
    return f"lane (l={l}, q={q}, p={p}) residue {res}"


class FeasibilityResult(Frozen):
    """Outcome of the rank recursion on one chain of dimensions."""

    __slots__ = ("feasible", "ranks", "failure_index", "reason")

    def __init__(self, feasible: bool, ranks: list[int], failure_index: int | None = None,
                 reason: str | None = None):
        _set(self, "feasible", feasible)
        _set(self, "ranks", ranks)
        _set(self, "failure_index", failure_index)
        _set(self, "reason", reason)


def check_exactness(dims: list[int]) -> FeasibilityResult:
    """Decide whether a chain of dimensions can come from an exact sequence.

    Runs r_i = d_i - r_{i-1} with r entering the chain equal to 0.  The
    chain is realizable iff no r_i goes negative and the final r is 0.  A
    literal zero d_i forces the running rank to restart, so interior zeros
    segment the chain automatically.  ranks[i] is the rank of the map out
    of position i.
    """
    ranks: list[int] = []
    r = 0
    for i, d in enumerate(dims):
        if d < 0:
            raise ValueError(f"negative dimension {d} at position {i}")
        r = d - r
        if r < 0:
            return FeasibilityResult(
                False, ranks, failure_index=i,
                reason=f"rank forced negative ({r}) at position {i}")
        ranks.append(r)
    if r != 0:
        return FeasibilityResult(
            False, ranks, failure_index=len(dims) - 1,
            reason=f"chain does not close (leftover rank {r})")
    return FeasibilityResult(True, ranks)


def _check_instance(template: SequenceTemplate, tables: dict[str, TriFilteredTable],
                    unknown: str | None = None, pins: list[RankPin] = ()):
    """Raise ValueError unless every pin names a term of the template, every
    space the template reads has a table (the unknown excepted), and all the
    tables given, read by the template or not, agree on n, and on m where m
    is set.  A bad pin is reported first."""
    for pin in pins:
        if not 0 <= pin.term_index < len(template.terms):
            raise ValueError(f"pin names term {pin.term_index}, template has "
                             f"{len(template.terms)} terms")
    missing = [s for s in template.spaces() if s != unknown and s not in tables]
    if missing:
        raise ValueError(
            f"template {template.name!r} is missing tables for {', '.join(missing)}")
    _require_agreement(tables)


def _require_data(template: SequenceTemplate, tables: dict[str, TriFilteredTable],
                  unknown: str | None = None, degree: int | None = None):
    """Refuse an instance whose known data, the tables the template reads but
    the unknown and, when only its ``degree`` is solved, its other degrees,
    are all empty.  A template reading only the unknown has no known table."""
    known = [tables[s].entries for s in template.spaces() if s != unknown]
    if degree is not None:
        # the first entry of another degree settles it
        known.append(any(quad[0] != degree for quad in tables[unknown].entries))
    if known and not any(known):
        besides = "" if unknown is None else f" besides the unknown {unknown}"
        besides += "" if degree is None else f" in degree {degree}"
        raise ValueError(f"nothing checked: the tables {template.name!r} reads{besides} "
                         "are all empty")


def _windows(template: SequenceTemplate, sources: dict[str, dict]) -> None:
    """Refuse, with a ValueError, an instance whose lanes break the budgets.

    A few KB of input can otherwise ask for lanes of millions of cells.
    Every lane's cycle window must lie in [-2B, 2B], with B = MAX_DEGREE;
    else a ValueError names a table entry whose degree lies outside [-B, B],
    since c = k - k_offset and |k_offset| <= B.  The same loop sums the
    lanes' cells, which must stay within MAX_LANE_CELLS.  Checking the
    windows costs one step per lane, not one per entry.  The window pass
    already refuses an instance, after each term, once it has found more
    than MAX_LANE_CELLS / T lanes, since each holds at least T cells: terms
    that each open lanes of their own would otherwise fill the windows with
    one lane per entry and term before the budget is checked.  Equal terms
    open equal windows, so the pass runs over the distinct terms.
    """
    P = template.period
    T = len(template.terms)
    windows: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for space, ko, s, tw in dict.fromkeys([(term.space, term.k_offset, term.shift, term.twist)
                                           for term in template.terms]):
        for k, l, q, p in sources[space]:
            # the lane (and cycle c) under which this term reads the quad
            c = k - ko
            key = (l - s, q - 2 * tw, p - tw, c % P)
            w = windows.get(key)
            if w is None:
                windows[key] = (c, c)
            elif c < w[0]:
                windows[key] = (c, w[1])
            elif c > w[1]:
                windows[key] = (w[0], c)
        if len(windows) * T > MAX_LANE_CELLS:  # a lane holds T cells or more
            raise ValueError(OVER_BUDGET)
    span = 0
    for c_lo, c_hi in windows.values():
        if c_lo < -2 * MAX_DEGREE or c_hi > 2 * MAX_DEGREE:
            tag, k = next((term.space, quad[0]) for term in template.terms
                          for quad in sources[term.space] if abs(quad[0]) > MAX_DEGREE)
            raise ValueError(f"table {tag} has an entry in degree {k}, "
                             f"outside [-{MAX_DEGREE}, {MAX_DEGREE}]")
        span += c_hi - c_lo
    # a window's two ends share a residue mod P, so each lane holds
    # ((c_hi - c_lo) // P + 1) * T cells
    if (span // P + len(windows)) * T > MAX_LANE_CELLS:
        raise ValueError(OVER_BUDGET)


def _lanes(template: SequenceTemplate, sources: dict[str, dict]) -> dict:
    """Map key -> (first cycle, cells) for every lane of a template
    instance, where key = (l, q, p, residue), the order of every report.

    ``sources`` maps each space tag to a mapping quad -> value.  Every quad a
    term reads opens its lane, which runs from the first such cycle to the
    last; cells holds each term's read at each cycle, 0 where a quad is absent.
    The dict is unsorted: extract_lanes sorts it, the solver sorts only the
    lanes it propagates, and _lane_pass needs no order.

    The lanes are built in one pass over the reads, one lane lookup each.
    Term j reads (k, l, q, p) at cycle c = k - k_offset in the lane
    (l - shift, q - 2 twist, p - twist, c mod P): the inverse of
    SequenceTerm.read_quad is written out here and in _windows, and nowhere
    else, for the solver finds its unknown cells in the lanes, as negative
    cells.  The first read of a lane opens it as one cycle of T zero cells,
    T the template's term count.  A later read extends it by whole cycles of
    zeros at either end to reach its cycle, then writes its cell,
    (c - c_lo) // P * T + j.

    The pass keeps the budgets of _windows where it allocates, at an opening
    and an extension: it counts the cells these add against LANE_ALLOWANCE,
    and checks that the cycle they reach lies in [-2B, 2B], B = MAX_DEGREE.
    A read inside a lane's cycles allocates nothing and is not checked.
    Before an allocation that would exceed the allowance, or reach a cycle
    outside that range, the pass calls _windows once, which refuses the
    instance or returns; the pass then goes on with no cap.  If it never
    calls _windows, every lane's window lies in range and the lanes hold at
    most LANE_ALLOWANCE <= MAX_LANE_CELLS cells, so _windows would accept
    the instance; and every refusal is raised by _windows itself.  So an
    instance is accepted or refused, and with which error, as by _windows
    alone.
    """
    P = template.period
    T = len(template.terms)
    B = 2 * MAX_DEGREE
    allowance = LANE_ALLOWANCE
    lanes: dict = {}
    for j, term in enumerate(template.terms):
        ko, s, tw = term.k_offset, term.shift, term.twist
        for (k, l, q, p), value in sources[term.space].items():
            c = k - ko
            key = (l - s, q - 2 * tw, p - tw, c % P)
            lane = lanes.get(key)
            if lane is None:
                added = T
            else:
                c_lo, cells = lane
                i = (c - c_lo) // P * T + j
                if 0 <= i < len(cells):
                    cells[i] = value
                    continue
                # whole cycles of zeros in front, so that cells start at c,
                # or behind, up to c's
                added = j - i if i < 0 else i - j + T - len(cells)
            if added > allowance or not -B <= c <= B:
                _windows(template, sources)
                allowance = float("inf")
            allowance -= added
            if lane is None:
                cells = [0] * T
                cells[j] = value
                lanes[key] = (c, cells)
                continue
            if i < 0:
                cells[:0] = [0] * added
                lanes[key] = (c, cells)
                i = j
            else:
                cells += [0] * added
            cells[i] = value
    return lanes


def _cell(template: SequenceTemplate, c_lo: int, i: int) -> tuple[int, int]:
    """Cell i of a lane whose first cycle is c_lo: the index of its term,
    i % T, and the degree it reads in that term's table, its cycle
    c_lo + (i // T) * P plus the term's k_offset."""
    block, j = divmod(i, len(template.terms))
    return j, c_lo + block * template.period + template.terms[j].k_offset


def _as_lane(template: SequenceTemplate, key: tuple[int, int, int, int], c_lo: int,
             cells: list[int]) -> Lane:
    """One enumerated lane as a Lane, each cell an entry of its term and
    degree."""
    l, q, p, res = key
    return Lane(l, q, p, res, c_lo, tuple([
        LaneEntry(*_cell(template, c_lo, i), dim) for i, dim in enumerate(cells)]))


def extract_lanes(template: SequenceTemplate,
                  tables: dict[str, TriFilteredTable]) -> list[Lane]:
    """All lanes with at least one nonzero entry, as fully materialized
    chains (interior zeros included, boundaries trimmed to the nonzero
    window), ordered by (l, q, p, residue)."""
    _check_instance(template, tables)
    sources = {s: tables[s].entries for s in template.spaces()}
    return [_as_lane(template, key, *lane)
            for key, lane in sorted(_lanes(template, sources).items())]


def _pin_positions(template: SequenceTemplate, pin: RankPin, start_cycle: int,
                   length: int) -> range:
    """Chain indices, in a lane starting at ``start_cycle`` with ``length``
    cells, of the pinned term's occurrences whose outgoing rank the pin sums:
    every one, or only the one reading the pin's degree in the term's table."""
    T = len(template.terms)
    if pin.degree is None:
        return range(pin.term_index, length, T)
    c = pin.degree - template.terms[pin.term_index].k_offset
    block, off = divmod(c - start_cycle, template.period)
    idx = block * T + pin.term_index
    return range(idx, idx + 1) if off == 0 and 0 <= idx < length else range(0)


class RankPin(Frozen):
    """Pinned total rank of the maps out of one term, summed over all lanes.

    ``degree`` restricts the pin to the occurrence reading that k in the
    term's own table; left as None the pin covers every occurrence (the usual
    case when only one degree carries nonzero rank anyway).
    """

    __slots__ = ("term_index", "rank", "degree")

    def __init__(self, term_index: int, rank: int, degree: int | None = None):
        _integer(term_index, "pin term index")
        _integer(rank, "pin rank")
        if degree is not None:
            _integer(degree, "pin degree")
        if rank < 0:
            raise ValueError(f"pin rank must be nonnegative, got {rank}")
        _set(self, "term_index", term_index)
        _set(self, "rank", rank)
        _set(self, "degree", degree)

    @classmethod
    def from_json_obj(cls, obj: dict, n_terms: int) -> "RankPin":
        try:
            i, j = obj["between"]
            rank = obj["rank"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed pin object: {exc}") from exc
        pin = cls(i, rank, obj.get("k"))
        if type(j) is not int:
            raise ValueError(f"pin 'between' must hold integers, got {j!r}")
        if not 0 <= i < n_terms or j != (i + 1) % n_terms:
            raise ValueError(
                f"pin 'between' must name adjacent terms, got [{i}, {j}] "
                f"with {n_terms} terms")
        return pin

    def to_json_obj(self, n_terms: int) -> dict:
        obj = {"between": [self.term_index, (self.term_index + 1) % n_terms],
               "rank": self.rank}
        if self.degree is not None:
            obj["k"] = self.degree
        return obj


def _lane_pass(template: SequenceTemplate, lanes, pins: list[RankPin]):
    """Run check_exactness's recursion once over ``lanes``, (key, (first
    cycle, cells)) pairs in any order, as _lanes(...).items() gives them.

    Returns the lanes it cannot pass, as it took them and in their order, and
    each pin's total rank over the passing lanes, which means something only
    when no lane fails.  A lane fails where a rank goes negative, which a
    negative cell always makes it do, or where a rank is left over.  The
    recursion keeps no ranks: check_exactness reruns it on each passing lane
    when there are pins, for its ranks.
    """
    failures, totals = [], [0] * len(pins)
    for lane in lanes:
        c_lo, cells = lane[1]
        r = 0
        for d in cells:
            r = d - r
            if r < 0:
                break
        if r:
            failures.append(lane)
        elif pins:
            ranks = check_exactness(cells).ranks
            for n, pin in enumerate(pins):
                at = _pin_positions(template, pin, c_lo, len(cells))
                totals[n] += sum(ranks[i] for i in at)
    return failures, totals


def _instance_pass(template: SequenceTemplate, tables: dict[str, TriFilteredTable],
                   pins: list[RankPin]):
    """_lane_pass over every lane of a fully known instance, once the
    instance and its pins are checked, with the failing lanes in key order,
    the order of a report; an all-empty instance is then refused."""
    _check_instance(template, tables, pins=pins)
    sources = {s: tables[s].entries for s in template.spaces()}
    failures, totals = _lane_pass(template, _lanes(template, sources).items(), pins)
    failures.sort()
    _require_data(template, tables)
    return failures, totals


def check_sequence(template: SequenceTemplate,
                   tables: dict[str, TriFilteredTable],
                   pins: list[RankPin] = ()) -> VerificationReport:
    """Check lane-by-lane exactness of a template instance, plus any pins.

    Every violation names the lane, the chain position and the relation that
    failed.  Pin term indices are checked before anything else; pinned ranks
    only once all lanes are feasible, since ranks are not defined otherwise.
    An all-empty instance is an input error, after the pin and table checks.
    """
    failures, totals = _instance_pass(template, tables, pins)
    return _sequence_report(template, failures, totals, pins)


def _sequence_report(template: SequenceTemplate, failures: list, totals: list[int],
                     pins: list[RankPin]) -> VerificationReport:
    """The report on an instance from what _lane_pass returns over its lanes:
    ``failures``, its failing (key, (first cycle, cells)) lanes in key
    order, and ``totals``, each pin's total rank.

    Each failing lane is first cut to the cycles from its first nonzero cell
    to its last.  The solver's assembled lanes have whole cycles of zeros at
    their ends, where box cells came out 0; an instance's own lanes never
    do, since a table stores no zero.  Leading zeros would shift the
    failure's position, and trailing ones turn a rank left over at the end
    into a rank forced negative in the cycle after: cut, the lane reports
    the instance's failure.
    """
    rep = VerificationReport()
    T = len(template.terms)
    for key, (c_lo, cells) in failures:
        # a failing lane has a nonzero cell
        front = next(i for i, d in enumerate(cells) if d) // T
        back = next(i for i, d in enumerate(reversed(cells)) if d) // T
        if front or back:
            c_lo += front * template.period
            cells = cells[front * T:len(cells) - back * T]
        res = check_exactness(cells)
        i, reason = res.failure_index, res.reason
        j, degree = _cell(template, c_lo, i)
        term = template.terms[j]
        rep.add(Violation(
            f"exactness: {reason} ({_describe_lane(key)}, "
            f"term {j} [{term.space}] in degree {degree})",
            space=term.space, lane=key[:3], position=i))
    if not rep.passed:
        return rep
    for pin, total in zip(pins, totals):
        if total != pin.rank:
            term = template.terms[pin.term_index]
            at = "" if pin.degree is None else f" in degree {pin.degree}"
            rep.add(Violation(
                f"pinned rank: map out of term {pin.term_index} [{term.space}]"
                f"{at} has total rank {total}, pinned {pin.rank}"))
    return rep


def infer_rank(template: SequenceTemplate, tables: dict[str, TriFilteredTable],
               term_index: int, degree: int | None = None) -> int:
    """Total rank, over all lanes, of the maps out of one term, optionally
    restricted to the occurrence reading degree ``degree``.

    The term and degree are read as RankPin(term_index, 0, degree), whose
    rank is never read, so they are checked as a pin's are.  Only
    meaningful on a fully known, exact instance; raises, as check_sequence
    does, on an all-empty instance, and if any lane is infeasible.
    """
    failures, (total,) = _instance_pass(template, tables, [RankPin(term_index, 0, degree)])
    if failures:
        key, (_c_lo, cells) = failures[0]
        raise ValueError(f"cannot infer ranks: {_describe_lane(key)} is not exact "
                         f"({check_exactness(cells).reason})")
    return total
