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
recursion is check_exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import VerificationReport, Violation
from .tables import TriFilteredTable


@dataclass(frozen=True)
class SequenceTerm:
    space: str  # table tag: "Y", "Z:1", "U", "Uc", "Xlim", "Total", "Supported"
    k_offset: int = 0
    shift: int = 0
    twist: int = 0

    def read_quad(self, c: int, l: int, q: int, p: int) -> tuple[int, int, int, int]:
        return (c + self.k_offset, l + self.shift, q + 2 * self.twist, p + self.twist)


@dataclass(frozen=True)
class SequenceTemplate:
    name: str
    period: int
    terms: tuple[SequenceTerm, ...]

    def __post_init__(self):
        if self.period < 1 or not self.terms:
            raise ValueError("template needs a positive period and at least one term")

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


@dataclass(frozen=True)
class LaneEntry:
    term_index: int
    degree: int  # the k actually read in the term's own table
    dim: int


@dataclass(frozen=True)
class Lane:
    """One chain of the instantiated sequence: fixed (l, q, p) and a residue
    class of the cycle degree mod the period."""

    l: int
    q: int
    p: int
    residue: int
    start_cycle: int
    entries: tuple[LaneEntry, ...]

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.l, self.q, self.p)

    @property
    def chain(self) -> list[int]:
        return [e.dim for e in self.entries]

    def describe(self) -> str:
        return f"lane (l={self.l}, q={self.q}, p={self.p}) residue {self.residue}"


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the rank recursion on one chain of dimensions."""

    feasible: bool
    ranks: list[int]
    failure_index: int | None = None
    reason: str | None = None


def check_exactness(dims: "list[int] | Lane") -> FeasibilityResult:
    """Decide whether a chain of dimensions can come from an exact sequence.

    Accepts a Lane or a bare list of dimensions.  Runs r_i = d_i - r_{i-1}
    with r entering the chain equal to 0.  The chain is realizable iff no
    r_i goes negative and the final r is 0.  A literal zero d_i forces the
    running rank to restart, so interior zeros segment the chain
    automatically.  ranks[i] is the rank of the map out of position i.
    """
    if isinstance(dims, Lane):
        dims = dims.chain
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


def _required_tables(template: SequenceTemplate, tables: dict[str, TriFilteredTable]):
    missing = [s for s in template.spaces() if s not in tables]
    if missing:
        raise ValueError(
            f"template {template.name!r} needs tables for {', '.join(missing)}")


def extract_lanes(template: SequenceTemplate,
                  tables: dict[str, TriFilteredTable]) -> list[Lane]:
    """All lanes with at least one nonzero entry, as fully materialized
    chains (interior zeros included, boundaries trimmed to the nonzero
    window)."""
    _required_tables(template, tables)
    P = template.period
    # (term index, k_offset, shift, twist, lookup) per term, bound once; the
    # reads below are SequenceTerm.read_quad written out
    reads = [(i, t.k_offset, t.shift, t.twist, tables[t.space].entries.get)
             for i, t in enumerate(template.terms)]
    windows: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for term in template.terms:
        ko, s, tw = term.k_offset, term.shift, term.twist
        for k, l, q, p in tables[term.space].entries:
            # the lane (and cycle c) under which this term reads the entry
            c = k - ko
            key = (c % P, l - s, q - 2 * tw, p - tw)
            w = windows.get(key)
            if w is None:
                windows[key] = (c, c)
            elif c < w[0]:
                windows[key] = (c, w[1])
            elif c > w[1]:
                windows[key] = (w[0], c)

    lanes = []
    for (res, l, q, p), (c_lo, c_hi) in sorted(windows.items(), key=lambda kv: (kv[0][1:], kv[0][0])):
        entries = []
        for c in range(c_lo, c_hi + 1, P):
            for i, ko, s, tw, get in reads:
                k = c + ko
                entries.append(LaneEntry(i, k, get((k, l + s, q + 2 * tw, p + tw), 0)))
        lanes.append(Lane(l, q, p, res, c_lo, tuple(entries)))
    return lanes


def _position_index(lane: Lane, template: SequenceTemplate,
                    term_index: int, degree: int) -> int | None:
    """Chain index of the occurrence of a term at its own degree, if it falls
    inside this lane's window."""
    c = degree - template.terms[term_index].k_offset
    if (c - lane.start_cycle) % template.period != 0:
        return None
    block = (c - lane.start_cycle) // template.period
    idx = block * len(template.terms) + term_index
    if 0 <= idx < len(lane.entries):
        return idx
    return None


@dataclass(frozen=True)
class RankPin:
    """Pinned total rank of the maps out of one term, summed over all lanes.

    ``degree`` restricts the pin to the occurrence reading that k in the
    term's own table; left as None the pin covers every occurrence (the usual
    case when only one degree carries nonzero rank anyway).
    """

    term_index: int
    rank: int
    degree: int | None = None

    @classmethod
    def from_json_obj(cls, obj: dict, n_terms: int) -> "RankPin":
        try:
            i, j = obj["between"]
            rank = obj["rank"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed pin object: {exc}") from exc
        degree = obj.get("k")
        fields = [("between", i), ("between", j), ("rank", rank)]
        if degree is not None:
            fields.append(("k", degree))
        for field, value in fields:
            # type(...) is int: bool is an int subclass and must not pass
            if type(value) is not int:
                raise ValueError(f"pin {field!r} must be an integer, got {value!r}")
        if not 0 <= i < n_terms or j != (i + 1) % n_terms:
            raise ValueError(
                f"pin 'between' must name adjacent terms, got [{i}, {j}] "
                f"with {n_terms} terms")
        return cls(i, rank, degree)

    def to_json_obj(self, n_terms: int) -> dict:
        obj = {"between": [self.term_index, (self.term_index + 1) % n_terms],
               "rank": self.rank}
        if self.degree is not None:
            obj["k"] = self.degree
        return obj


def check_sequence(template: SequenceTemplate,
                   tables: dict[str, TriFilteredTable],
                   pins: list[RankPin] = ()) -> VerificationReport:
    """Check lane-by-lane exactness of a template instance, plus any pins.

    Every violation names the lane, the chain position and the relation that
    failed.  Pins are only evaluated once all lanes are feasible, since ranks
    are not defined otherwise.
    """
    rep = VerificationReport()
    lanes = extract_lanes(template, tables)
    results = []
    for lane in lanes:
        res = check_exactness(lane.chain)
        results.append(res)
        if not res.feasible:
            entry = lane.entries[res.failure_index]
            term = template.terms[entry.term_index]
            rep.add(Violation(
                f"exactness: {res.reason} ({lane.describe()}, "
                f"term {entry.term_index} [{term.space}] in degree {entry.degree})",
                space=term.space, lane=lane.key, position=res.failure_index))
    if not rep.passed:
        return rep
    for pin in pins:
        if not 0 <= pin.term_index < len(template.terms):
            raise ValueError(f"pin names term {pin.term_index}, template has "
                             f"{len(template.terms)} terms")
        total = _rank_total(template, lanes, results, pin.term_index, pin.degree)
        if total != pin.rank:
            term = template.terms[pin.term_index]
            at = "" if pin.degree is None else f" in degree {pin.degree}"
            rep.add(Violation(
                f"pinned rank: map out of term {pin.term_index} [{term.space}]"
                f"{at} has total rank {total}, pinned {pin.rank}"))
    return rep


def _rank_total(template, lanes, results, term_index: int, degree: int | None) -> int:
    total = 0
    for lane, res in zip(lanes, results):
        if degree is None:
            total += sum(r for e, r in zip(lane.entries, res.ranks)
                         if e.term_index == term_index)
        else:
            idx = _position_index(lane, template, term_index, degree)
            if idx is not None:
                total += res.ranks[idx]
    return total


def infer_rank(template: SequenceTemplate, tables: dict[str, TriFilteredTable],
               term_index: int, degree: int | None = None) -> int:
    """Total rank, over all lanes, of the maps out of one term, optionally
    restricted to the occurrence reading degree ``degree``.

    Only meaningful on a fully known, exact instance; raises if any lane is
    infeasible.
    """
    lanes = extract_lanes(template, tables)
    results = []
    for lane in lanes:
        res = check_exactness(lane.chain)
        if not res.feasible:
            raise ValueError(
                f"cannot infer ranks: {lane.describe()} is not exact ({res.reason})")
        results.append(res)
    return _rank_total(template, lanes, results, term_index, degree)
