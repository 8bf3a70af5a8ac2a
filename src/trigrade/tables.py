"""Trigraded dimension tables and their JSON form.

A table records, for one space, the dimensions

    dim Gr_F^p Gr^W_q Gr^P_l H^k

as a finite map from index quadruples (k, l, q, p) to positive integers.  A
quadruple absent from the map means the graded piece is zero; zero is never
stored.  Everything downstream (validation, exactness checking, solving)
consumes these tables.

This lowest module also holds Record and Frozen, the bases of the value
classes.  Those are written by hand, since @dataclass compiles each class's
methods with exec at every import, a cost every CLI process would pay.  The
bases derive ==, hash, repr, copying and (Frozen) the refusal to assign or
delete from __slots__, as @dataclass did; each __init__ validates and sets,
an integer argument through _integer.  Violation and VerificationReport,
what every check and solve reports, live here too, so that reporting loads
none of the single-table checks.

Every JSON output is canonical_json's text, byte for byte
``json.dumps(obj, indent=2, sort_keys=True) + "\n"``.  A small formatter
writes it: with an indent, json.dumps (on Python 3.11, for one) skips its
C encoder for the pure-Python one, which took most of a table set's
serialization time.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .spaces import SpaceDescriptor

Quad = tuple[int, int, int, int]

_set = object.__setattr__  # how a Frozen __init__ sets its fields
_int = int.__repr__  # how json writes an int


def _integer(value, name: str, least: int | None = None) -> int:
    """``value`` if it is an exact int, at least ``least`` when given; else
    a ValueError naming ``name``.  A bool, an int subclass, is refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


class Record:
    """Value semantics over __slots__: equal when of one class with equal
    fields, unhashable, repr ``Name(field=value, ...)``, and copied or
    pickled by calling the class on the field values again."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        if len(names) > 1:
            cls._values = property(attrgetter(*names))
        elif names:  # attrgetter of one name gives the bare value
            get = attrgetter(*names)
            cls._values = property(lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values


class Frozen(Record):
    """A Record whose fields cannot be assigned or deleted, hashed by them."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(Frozen):
    """One failed relation.  ``entry`` localizes table checks; ``lane`` and
    ``position`` localize sequence checks."""

    __slots__ = ("relation", "space", "entry", "lane", "position")

    def __init__(self, relation: str, space: str | None = None, entry: Quad | None = None,
                 lane: tuple[int, int, int] | None = None, position: int | None = None):
        _set(self, "relation", relation)
        _set(self, "space", space)
        _set(self, "entry", entry)
        _set(self, "lane", lane)
        _set(self, "position", position)

    def to_json_obj(self) -> dict:
        obj: dict = {"relation": self.relation}
        if self.space is not None:
            obj["space"] = self.space
        if self.entry is not None:
            k, l, q, p = self.entry
            obj["entry"] = {"k": k, "l": l, "q": q, "p": p}
        if self.lane is not None:
            l, q, p = self.lane
            obj["lane"] = {"l": l, "q": q, "p": p}
        if self.position is not None:
            obj["position"] = self.position
        return obj


class VerificationReport(Record):
    __slots__ = ("violations",)

    def __init__(self, violations: list[Violation] | None = None):
        self.violations = [] if violations is None else violations

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, violation: Violation):
        self.violations.append(violation)

    def extend(self, other: "VerificationReport"):
        self.violations.extend(other.violations)

    def to_json_obj(self) -> dict:
        return {
            "pass": self.passed,
            "violations": [v.to_json_obj() for v in self.violations],
        }


class TriFilteredTable(Frozen):
    """Finite support map (k, l, q, p) -> dim > 0 for one space.

    Construction normalizes the entries: zeros are dropped, and negative or
    non-integer dimensions and indices are rejected, booleans included.  A
    key must be a tuple of four indices, stored as a plain tuple; a set, a
    list or a bare integer is rejected rather than converted.  Index
    quadruples are not range checked here; that is validate_table's job,
    since an entry outside the support windows is a violation it reports,
    not an input error.
    """

    __slots__ = ("space", "entries")

    def __init__(self, space: SpaceDescriptor, entries: dict[Quad, int] | None = None):
        clean = {}
        for quad, dim in ({} if entries is None else entries).items():
            if not isinstance(quad, tuple) or len(quad) != 4:
                raise ValueError(f"bad index quadruple {quad!r}")
            k, l, q, p = quad
            # type(...) is int: bool is an int subclass and must not pass
            if (type(k) is not int or type(l) is not int or type(q) is not int
                    or type(p) is not int):
                raise ValueError(f"bad index quadruple {quad!r}")
            if type(dim) is not int:
                raise ValueError(f"dimension at {quad} is not an integer: {dim!r}")
            if dim < 0:
                raise ValueError(f"negative dimension {dim} at {quad}")
            if dim > 0:
                clean[(k, l, q, p)] = dim
        _set(self, "space", space)
        _set(self, "entries", clean)

    def dim(self, k: int, l: int, q: int, p: int) -> int:
        return self.entries.get((k, l, q, p), 0)

    def sorted_entries(self) -> list[tuple[Quad, int]]:
        return sorted(self.entries.items())

    def total_dim(self, k: int | None = None) -> int:
        """Sum of all dimensions, or of those in degree ``k``."""
        if k is None:
            return sum(self.entries.values())
        return sum(d for (kk, _, _, _), d in self.entries.items() if kk == k)

    def weight_totals(self, k: int) -> dict[int, int]:
        """Weight-graded totals in degree k, derived rather than stored."""
        out: dict[int, int] = {}
        for (kk, _, q, _), d in self.entries.items():
            if kk == k:
                out[q] = out.get(q, 0) + d
        return out

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        obj = {"space": self.space.tag, "n": self.space.n}
        if self.space.m is not None:
            obj["m"] = self.space.m
        obj["entries"] = [
            {"k": k, "l": l, "q": q, "p": p, "dim": d}
            for (k, l, q, p), d in self.sorted_entries()
        ]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TriFilteredTable":
        from .spaces import SpaceDescriptor

        try:
            space = SpaceDescriptor.parse_tag(obj["space"], obj["n"], obj.get("m"))
            entries = {}
            for e in _json_list(obj["entries"], "entries", "entry objects"):
                quad = (e["k"], e["l"], e["q"], e["p"])
                if quad in entries and entries[quad] != e["dim"]:
                    raise ValueError(f"conflicting duplicate entry at {quad}")
                entries[quad] = e["dim"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed table object: {exc}") from exc
        return cls(space, entries)


def poincare_verdier_dual(table: TriFilteredTable) -> TriFilteredTable:
    """The dual table, an involution: with d the complex dimension of the
    table's space, its entry at (k, l, q, p) is the input's at (2d-k, 2d-l,
    2d-q, d-p), on SpaceDescriptor.dual.  U pairs with Uc, and Y with
    itself, in dimension n; Z:r with itself in n-r; Xlim with itself in n;
    Total with Supported, cohomology supported on the central fibre, in n+1."""
    d = table.space.complex_dim
    return TriFilteredTable(table.space.dual(), {
        (2 * d - k, 2 * d - l, 2 * d - q, d - p): v
        for (k, l, q, p), v in table.entries.items()})


def canonical_json(obj) -> str:
    """The one serialized form used everywhere, so files are comparable:
    ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``, byte for byte.
    A list or dict that contains itself raises RecursionError, where
    json.dumps reports a circular reference; no payload here holds one."""
    return _dumps(obj, "\n") + "\n"


def _dumps(o, nl: str) -> str:
    """json.dumps(o, indent=2, sort_keys=True) at the depth whose line break
    and indent is ``nl``.  Exact str and int, non-empty lists and non-empty
    dicts with only str keys are written here, as json writes them; anything
    else (floats, bools, None, tuples, subclasses, empty containers, other
    keys) goes to json.dumps, whose standalone text is the nested text with
    every later line shifted by the depth."""
    t = type(o)
    if t is str:
        return _quote(o)
    if t is int:
        return _int(o)
    inner = nl + "  "
    if t is list and o:
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in o]) + nl + "]"
    if t is dict and o and all([type(key) is str for key in o]):
        # an int value inline: most values are the indices of an entry
        return "{" + inner + ("," + inner).join(
            [_quote(key) + ": " + (_int(v) if type(v) is int else _dumps(v, inner))
             for key, v in sorted(o.items())]) + nl + "}"
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", nl)


def tables_to_json_obj(tables: dict[str, TriFilteredTable], family: str | None = None) -> dict:
    """A table-set object: one JSON file holding several tables.

    Tables are keyed by their space tag; the serialized order is
    SpaceDescriptor.order_key, so output is reproducible.
    """
    obj: dict = {}
    if family:
        obj["family"] = family
    ordered = sorted(tables.values(), key=lambda t: t.space.order_key)
    obj["tables"] = [t.to_json_obj() for t in ordered]
    return obj


def tables_from_json_obj(obj: dict) -> dict[str, TriFilteredTable]:
    """The tables of a table set, keyed by space tag, in every form trigrade
    reads: a dict with "tables" is a set, whose list holds family spec
    strings (the builtin family's tables), nested sets read by this rule and
    inline table objects; a dict without "tables" is one table.  A space
    given twice is an input error."""
    if "tables" not in obj:
        return tables_from_json_obj({"tables": [obj]})
    out: dict[str, TriFilteredTable] = {}
    for ref in _json_list(obj["tables"], "tables", "family specs or table objects"):
        # an inline table, the common ref, is read without a nested call
        if isinstance(ref, dict) and "tables" not in ref:
            t = TriFilteredTable.from_json_obj(ref)
            new = ((t.space.tag, t),)
        elif isinstance(ref, dict):
            new = tables_from_json_obj(ref).items()
        elif isinstance(ref, str):
            from .catalog import family_tables, parse_family

            new = family_tables(parse_family(ref)).items()
        else:
            raise ValueError(f"bad table reference {ref!r}")
        for tag, t in new:
            if tag in out:
                raise ValueError(f"duplicate table for space {tag}")
            out[tag] = t
    return out


def _json_list(value, key: str, items: str) -> list:
    """``value``, read at ``key`` of a JSON object, if it is a list of ``items``."""
    if not isinstance(value, list):
        raise ValueError(f'"{key}" must be a list of {items}')
    return value
