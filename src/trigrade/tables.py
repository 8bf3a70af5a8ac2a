"""Trigraded dimension tables and index transforms.

A table records, for one space, the dimensions

    dim Gr_F^p Gr^W_q Gr^P_l H^k

as a finite map from index quadruples (k, l, q, p) to positive integers.  A
quadruple absent from the map means the graded piece is zero; zero is never
stored.  Everything downstream (validation, exactness checking, solving)
consumes these tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .spaces import SpaceDescriptor

Quad = tuple[int, int, int, int]


@dataclass(frozen=True)
class IndexTransform:
    """Composable reindexing of a table.

    The output table reads the input at shifted indices:

        output(k, l, q, p) = input(k + k_offset,
                                   l + perverse_shift,
                                   q + 2 * tate_twist,
                                   p + tate_twist)

    so a Tate twist by d moves an entry of weight q down to weight q - 2d, as
    twisting by (d) should.  Transforms compose additively in all three
    fields.
    """

    k_offset: int = 0
    perverse_shift: int = 0
    tate_twist: int = 0

    def compose(self, other: "IndexTransform") -> "IndexTransform":
        return IndexTransform(
            self.k_offset + other.k_offset,
            self.perverse_shift + other.perverse_shift,
            self.tate_twist + other.tate_twist,
        )

    def apply_to_quad(self, quad: Quad) -> Quad:
        """Where the entry at ``quad`` of the input lands in the output."""
        k, l, q, p = quad
        return (
            k - self.k_offset,
            l - self.perverse_shift,
            q - 2 * self.tate_twist,
            p - self.tate_twist,
        )


@dataclass(frozen=True)
class TriFilteredTable:
    """Finite support map (k, l, q, p) -> dim > 0 for one space.

    Construction normalizes the entries: zeros are dropped, and negative or
    non-integer dimensions and indices are rejected, booleans included.
    Index quadruples are not range checked here; that is validate_table's
    job, since transforms legitimately move entries outside the canonical
    windows.
    """

    space: SpaceDescriptor
    entries: dict[Quad, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for quad, dim in self.entries.items():
            # type(...) is int: bool is an int subclass and must not pass
            if len(quad) != 4 or not all(type(i) is int for i in quad):
                raise ValueError(f"bad index quadruple {quad!r}")
            if type(dim) is not int:
                raise ValueError(f"dimension at {quad} is not an integer: {dim!r}")
            if dim < 0:
                raise ValueError(f"negative dimension {dim} at {quad}")
            if dim > 0:
                clean[tuple(quad)] = dim
        object.__setattr__(self, "entries", clean)

    def dim(self, k: int, l: int, q: int, p: int) -> int:
        return self.entries.get((k, l, q, p), 0)

    def sorted_entries(self) -> list[tuple[Quad, int]]:
        return sorted(self.entries.items())

    def degrees(self) -> list[int]:
        return sorted({k for (k, _, _, _) in self.entries})

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

    def lane_totals(self, k: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for (kk, l, _, _), d in self.entries.items():
            if kk == k:
                out[l] = out.get(l, 0) + d
        return out

    def retagged(self, space: SpaceDescriptor) -> "TriFilteredTable":
        return TriFilteredTable(space, dict(self.entries))

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
        try:
            space = SpaceDescriptor.parse_tag(obj["space"], obj["n"], obj.get("m"))
            entries = {}
            for e in obj["entries"]:
                quad = (e["k"], e["l"], e["q"], e["p"])
                if quad in entries and entries[quad] != e["dim"]:
                    raise ValueError(f"conflicting duplicate entry at {quad}")
                entries[quad] = e["dim"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed table object: {exc}") from exc
        return cls(space, entries)

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "TriFilteredTable":
        return cls.from_json_obj(json.loads(text))


def canonical_json(obj) -> str:
    """The one serialized form used everywhere, so files are comparable."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def apply_transform(table: TriFilteredTable, tr: IndexTransform) -> TriFilteredTable:
    """Reindex a table by a transform.  Entry-preserving and invertible."""
    moved = {tr.apply_to_quad(quad): d for quad, d in table.entries.items()}
    return TriFilteredTable(table.space, moved)


def tables_to_json_obj(tables: dict[str, TriFilteredTable], family: str | None = None) -> dict:
    """A table-set object: one JSON file holding several tables.

    Tables are keyed by their space tag; the serialized order follows a fixed
    tag order so output is reproducible.
    """
    order = {t: i for i, t in enumerate(("Y", "U", "Uc", "Xlim", "Total", "Supported"))}

    def sort_key(tag: str):
        if tag.startswith("Z:"):
            return (1, int(tag[2:]))
        return (0, 0) if tag == "Y" else (2 + order.get(tag, 9), 0)

    obj: dict = {}
    if family:
        obj["family"] = family
    obj["tables"] = [tables[tag].to_json_obj() for tag in sorted(tables, key=sort_key)]
    return obj


def tables_from_json_obj(obj: dict) -> dict[str, TriFilteredTable]:
    out = {}
    for tobj in obj["tables"]:
        t = TriFilteredTable.from_json_obj(tobj)
        if t.space.tag in out:
            raise ValueError(f"duplicate table for space {t.space.tag}")
        out[t.space.tag] = t
    return out
