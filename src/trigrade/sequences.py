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
recursion is check_exactness.  check_sequence and infer_rank run it inline
on every lane in one pass, and call check_exactness only on a lane that
fails, for its reason and position.
"""

from __future__ import annotations

from .spaces import MAX_N
from .tables import Frozen, TriFilteredTable, VerificationReport, Violation, _set

# No space has a degree above 2(MAX_N + 1), the top degree of a space of
# complex dimension MAX_N + 1.  Template k_offsets lie within this bound, and _lanes refuses an
# instance whose table degrees stray far enough to widen a lane beyond it.
MAX_DEGREE = 2 * (MAX_N + 1)


class SequenceTerm(Frozen):
    __slots__ = ("space", "k_offset", "shift", "twist")

    def __init__(self, space: str, k_offset: int = 0, shift: int = 0, twist: int = 0):
        # space is a table tag: "Y", "Z:1", "U", "Uc", "Xlim", "Total", "Supported"
        if not isinstance(space, str):
            raise ValueError(f"template term 'space' must be a string, got {space!r}")
        for field, value in (("k_offset", k_offset), ("shift", shift), ("twist", twist)):
            # type(...) is int: bool is an int subclass and must not pass
            if type(value) is not int:
                raise ValueError(f"template term {field!r} must be an integer, got {value!r}")
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
        if type(period) is not int:
            raise ValueError(f"template 'period' must be an integer, got {period!r}")
        # a tuple keeps the template hashable; a term is read by its fields
        if not (isinstance(terms, tuple) and all(isinstance(t, SequenceTerm) for t in terms)):
            raise ValueError(f"template 'terms' must be a tuple of SequenceTerm, got {terms!r}")
        if period < 1 or not terms:
            raise ValueError("template needs a positive period and at least one term")
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
                for t in obj["terms"])
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
        return f"lane (l={self.l}, q={self.q}, p={self.p}) residue {self.residue}"


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


def _check_instance(template: SequenceTemplate,
                    tables: dict[str, TriFilteredTable], unknown: str | None):
    """Raise ValueError unless every space the template reads has a table
    (the unknown excepted), and all the tables given, read by the template
    or not, agree on n, and on m where m is set."""
    missing = [s for s in template.spaces() if s != unknown and s not in tables]
    if missing:
        raise ValueError(
            f"template {template.name!r} is missing tables for {', '.join(missing)}")
    spaces = [t.space for t in tables.values()]
    for attr in ("n", "m"):
        found = {sp.tag: getattr(sp, attr) for sp in spaces if getattr(sp, attr) is not None}
        if len(set(found.values())) > 1:
            listed = ", ".join(f"{tag} {attr}={v}" for tag, v in found.items())
            raise ValueError(f"the tables of one instance disagree on {attr}: {listed}")


def _lanes(template: SequenceTemplate, sources: dict[str, dict]) -> dict:
    """Map key -> (first cycle, cells) for every lane of a template
    instance, where key = (residue, l, q, p).

    ``sources`` maps each space tag to a mapping quad -> value.  Every quad a
    term reads opens its lane, which runs from the first such cycle to the
    last; cells holds each term's read at each cycle, 0 where a quad is absent.
    The dict is unsorted: extract_lanes and the solver sort it, and
    _lane_pass needs no order.

    The cells are built by scatter, not by probing every (cycle, term) cell:
    each lane gets a zero-filled list, and a second pass over the sources
    writes each entry straight to its cell, (c - c_lo) // P * T + j for term
    j at cycle c.  The inverse of SequenceTerm.read_quad is written out in
    both passes.  The second pass recomputes each entry's lane rather than
    keeping a list of the first pass's reads: such a list was no faster and
    held every read in memory at once.

    Between the passes each lane's cycle window must lie in [-2B, 2B], with
    B = MAX_DEGREE; else a ValueError names a table entry whose degree lies
    outside [-B, B], since c = k - k_offset and |k_offset| <= B.  A few KB of
    input can otherwise ask for lanes of millions of cells.  Checking the
    windows costs one step per lane, not one per entry.
    """
    P = template.period
    T = len(template.terms)
    windows: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for term in template.terms:
        ko, s, tw = term.k_offset, term.shift, term.twist
        for k, l, q, p in sources[term.space]:
            # the lane (and cycle c) under which this term reads the quad
            c = k - ko
            key = (c % P, l - s, q - 2 * tw, p - tw)
            w = windows.get(key)
            if w is None:
                windows[key] = (c, c)
            elif c < w[0]:
                windows[key] = (c, w[1])
            elif c > w[1]:
                windows[key] = (w[0], c)
    for c_lo, c_hi in windows.values():
        if c_lo < -2 * MAX_DEGREE or c_hi > 2 * MAX_DEGREE:
            tag, k = next((term.space, quad[0]) for term in template.terms
                          for quad in sources[term.space] if abs(quad[0]) > MAX_DEGREE)
            raise ValueError(f"table {tag} has an entry in degree {k}, "
                             f"outside [-{MAX_DEGREE}, {MAX_DEGREE}]")

    lanes = {key: (c_lo, [0] * (((c_hi - c_lo) // P + 1) * T))
             for key, (c_lo, c_hi) in windows.items()}
    for j, term in enumerate(template.terms):
        ko, s, tw = term.k_offset, term.shift, term.twist
        for (k, l, q, p), value in sources[term.space].items():
            c = k - ko
            c_lo, cells = lanes[(c % P, l - s, q - 2 * tw, p - tw)]
            cells[(c - c_lo) // P * T + j] = value
    return lanes


def _read_positions(template: SequenceTemplate, lanes: dict, space: str, quads):
    """Yield (quad, lane key, cell position) of each read of one of ``quads``
    by a term on ``space``, in lanes _lanes built from sources holding them:
    SequenceTerm.read_quad inverted as in _lanes."""
    P, T = template.period, len(template.terms)
    for j, term in enumerate(template.terms):
        if term.space != space:
            continue
        ko, s, tw = term.k_offset, term.shift, term.twist
        for quad in quads:
            c = quad[0] - ko
            key = (c % P, quad[1] - s, quad[2] - 2 * tw, quad[3] - tw)
            yield quad, key, (c - lanes[key][0]) // P * T + j


def _as_lane(template: SequenceTemplate, key: tuple[int, int, int, int], c_lo: int,
             cells: list[int]) -> Lane:
    """One enumerated lane as a Lane: cell j belongs to term j % T and reads
    degree c_lo + (j // T) * P + that term's k_offset."""
    res, l, q, p = key
    P = template.period
    T = len(template.terms)
    return Lane(l, q, p, res, c_lo, tuple([
        LaneEntry(j % T, c_lo + (j // T) * P + template.terms[j % T].k_offset, dim)
        for j, dim in enumerate(cells)]))


def extract_lanes(template: SequenceTemplate,
                  tables: dict[str, TriFilteredTable]) -> list[Lane]:
    """All lanes with at least one nonzero entry, as fully materialized
    chains (interior zeros included, boundaries trimmed to the nonzero
    window), ordered by (l, q, p, residue)."""
    _check_instance(template, tables, None)
    sources = {s: tables[s].entries for s in template.spaces()}
    return sorted((_as_lane(template, key, *lane)
                   for key, lane in _lanes(template, sources).items()),
                  key=lambda lane: (lane.key, lane.residue))


def _check_term_index(template: SequenceTemplate, term_index: int):
    if not 0 <= term_index < len(template.terms):
        raise ValueError(f"pin names term {term_index}, template has "
                         f"{len(template.terms)} terms")


def _pin_positions(template: SequenceTemplate, term_index: int, degree: int | None,
                   start_cycle: int, length: int) -> range:
    """Chain indices, in a lane starting at ``start_cycle`` with ``length``
    cells, of the term's occurrences whose outgoing rank a pin sums: every
    occurrence, or only the one reading ``degree`` in the term's own table."""
    T = len(template.terms)
    if degree is None:
        return range(term_index, length, T)
    c = degree - template.terms[term_index].k_offset
    block, off = divmod(c - start_cycle, template.period)
    idx = block * T + term_index
    return range(idx, idx + 1) if off == 0 and 0 <= idx < length else range(0)


class RankPin(Frozen):
    """Pinned total rank of the maps out of one term, summed over all lanes.

    ``degree`` restricts the pin to the occurrence reading that k in the
    term's own table; left as None the pin covers every occurrence (the usual
    case when only one degree carries nonzero rank anyway).
    """

    __slots__ = ("term_index", "rank", "degree")

    def __init__(self, term_index: int, rank: int, degree: int | None = None):
        fields = [("term index", term_index), ("rank", rank)]
        if degree is not None:
            fields.append(("degree", degree))
        for field, value in fields:
            # type(...) is int: bool is an int subclass and must not pass
            if type(value) is not int:
                raise ValueError(f"pin {field} must be an integer, got {value!r}")
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


def _lane_pass(template: SequenceTemplate, tables: dict[str, TriFilteredTable],
               pins: list[tuple[int, int | None]]):
    """The failing lanes of a fully known instance in checking order, as
    (Lane, check_exactness result) pairs, and the total rank over all lanes
    of each (term index, degree) pin, meaningful only when none fails."""
    for term_index, _degree in pins:
        _check_term_index(template, term_index)
    _check_instance(template, tables, None)
    sources = {s: tables[s].entries for s in template.spaces()}
    failures, totals = [], [0] * len(pins)
    for key, (c_lo, cells) in _lanes(template, sources).items():
        ranks, r = [], 0
        for d in cells:
            r = d - r
            if r < 0:
                break
            ranks.append(r)
        if r:
            failures.append((_as_lane(template, key, c_lo, cells), check_exactness(cells)))
            continue
        for n, pin in enumerate(pins):
            totals[n] += sum(ranks[i] for i in _pin_positions(template, *pin, c_lo, len(cells)))
    failures.sort(key=lambda failure: (failure[0].key, failure[0].residue))
    return failures, totals


def check_sequence(template: SequenceTemplate,
                   tables: dict[str, TriFilteredTable],
                   pins: list[RankPin] = ()) -> VerificationReport:
    """Check lane-by-lane exactness of a template instance, plus any pins.

    Every violation names the lane, the chain position and the relation that
    failed.  Pin term indices are checked before any lane; pinned ranks only
    once all lanes are feasible, since ranks are not defined otherwise.
    """
    rep = VerificationReport()
    failures, totals = _lane_pass(template, tables, [(p.term_index, p.degree) for p in pins])
    for lane, res in failures:
        entry = lane.entries[res.failure_index]
        term = template.terms[entry.term_index]
        rep.add(Violation(
            f"exactness: {res.reason} ({lane.describe()}, "
            f"term {entry.term_index} [{term.space}] in degree {entry.degree})",
            space=term.space, lane=lane.key, position=res.failure_index))
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

    Only meaningful on a fully known, exact instance; raises if any lane is
    infeasible.
    """
    failures, (total,) = _lane_pass(template, tables, [(term_index, degree)])
    if failures:
        lane, res = failures[0]
        raise ValueError(
            f"cannot infer ranks: {lane.describe()} is not exact ({res.reason})")
    return total
