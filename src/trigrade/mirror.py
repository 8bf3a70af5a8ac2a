"""The mirror correspondence between fibration and degeneration tables.

For mirror pairs with n-dimensional members, the correspondence exchanges
the weight and perverse gradings through an index map that reflects the
Hodge index:

    (k, l, q, p)  on the fibration side
        corresponds to
    (n+k-2p, n+q-2p, n+l-2p, n-p)  on the degeneration side,

with the compact space Y matching the limit table and the compact-support
table of U matching the total space's, the latter with the perverse index
raised by one because the total space has dimension n+1.  Applying the map
twice gives back the original quadruple, so the correspondence is an
involution.
"""

from __future__ import annotations

from .catalog import (DegenerationFamily, FibrationFamily, degeneration_tables,
                      family_spec, fibration_tables)
from .dualcomplex import base_change, base_changed_family, dual_complex, veronese
from .spaces import SpaceDescriptor
from .tables import Frozen, Quad, TriFilteredTable, VerificationReport, Violation, _set


def mirror_quad(n: int, quad: Quad) -> Quad:
    k, l, q, p = quad
    return (n + k - 2 * p, n + q - 2 * p, n + l - 2 * p, n - p)


def _mirror_transform(table: TriFilteredTable, source: str, target: str,
                      lane_shift: int) -> TriFilteredTable:
    """mirror_quad with the perverse slot raised by ``lane_shift``."""
    if table.space.kind != source:
        raise ValueError(f"expected a {source} table, got {table.space.tag}")
    n = table.space.n
    moved = {}
    for quad, v in table.entries.items():
        k, l, q, p = mirror_quad(n, quad)
        moved[(k, l + lane_shift, q, p)] = v
    return TriFilteredTable(SpaceDescriptor(target, n), moved)


def mirror_transform_compact(table_y: TriFilteredTable) -> TriFilteredTable:
    """Reindex a Y table as the limit table its mirror partner should have."""
    return _mirror_transform(table_y, "Y", "Xlim", 0)


def mirror_transform_open(table_uc: TriFilteredTable) -> TriFilteredTable:
    """Reindex a Uc table as the mirror's total-space table: the same index
    map with the perverse slot raised by one."""
    return _mirror_transform(table_uc, "Uc", "Total", 1)


class MirrorPair(Frozen):
    """A fibration-side table set {Y, Uc} paired with a degeneration-side
    {Xlim, Total}, sharing n.  Families are kept when the pair comes from
    the catalog, so stability under base change can regenerate it."""

    __slots__ = ("fibration", "degeneration", "fibration_family", "degeneration_family")

    def __init__(self, fibration: dict[str, TriFilteredTable],
                 degeneration: dict[str, TriFilteredTable],
                 fibration_family: FibrationFamily | None = None,
                 degeneration_family: DegenerationFamily | None = None):
        for tag in ("Y", "Uc"):
            if tag not in fibration:
                raise ValueError(f"fibration side lacks {tag}")
        for tag in ("Xlim", "Total"):
            if tag not in degeneration:
                raise ValueError(f"degeneration side lacks {tag}")
        if fibration["Y"].space.n != degeneration["Xlim"].space.n:
            raise ValueError(
                f"sides disagree on n: {fibration['Y'].space.n} vs "
                f"{degeneration['Xlim'].space.n}")
        _set(self, "fibration", fibration)
        _set(self, "degeneration", degeneration)
        _set(self, "fibration_family", fibration_family)
        _set(self, "degeneration_family", degeneration_family)

    @classmethod
    def from_families(cls, fib: FibrationFamily, deg: DegenerationFamily) -> "MirrorPair":
        return cls(fibration_tables(fib), degeneration_tables(deg), fib, deg)


def _compare(transformed: TriFilteredTable, actual: TriFilteredTable,
             rep: VerificationReport):
    for quad in sorted(set(transformed.entries) | set(actual.entries)):
        want = transformed.dim(*quad)
        have = actual.dim(*quad)
        if want != have:
            rep.add(Violation(
                f"mirror entry mismatch at {actual.space.tag}{quad}: fibration "
                f"side transforms to {want}, degeneration side has {have}",
                space=actual.space.tag, entry=quad))


def mirror_check(pair: MirrorPair) -> VerificationReport:
    """Entrywise comparison of the transformed fibration side against the
    degeneration side (Y against Xlim, Uc against Total)."""
    rep = VerificationReport()
    _compare(mirror_transform_compact(pair.fibration["Y"]),
             pair.degeneration["Xlim"], rep)
    _compare(mirror_transform_open(pair.fibration["Uc"]),
             pair.degeneration["Total"], rep)
    return rep


def stability_check(pair: MirrorPair, mu: int) -> VerificationReport:
    """Check the correspondence survives a mu-fold base change.

    The fibration side is re-embedded (veronese), the degeneration side base
    changed, tables regenerated, and the mirror comparison re-run; the dual
    complex of the new degeneration must also match base_change applied to
    the old one, component for component.
    """
    if mu < 1:
        raise ValueError(f"need mu >= 1, got {mu}")
    if pair.fibration_family is None or pair.degeneration_family is None:
        raise ValueError("stability check needs a pair built from catalog families")
    fib2 = veronese(pair.fibration_family, mu)
    deg2 = base_changed_family(pair.degeneration_family, mu)
    rep = mirror_check(MirrorPair.from_families(fib2, deg2))
    counted = base_change(dual_complex(pair.degeneration_family), mu)
    regenerated = dual_complex(deg2)
    if counted != regenerated:
        rep.add(Violation(
            f"dual complex after base change by {mu} disagrees: counting gives "
            f"{counted.to_json_obj()}, the re-derived family has "
            f"{regenerated.to_json_obj()} ({family_spec(deg2)})"))
    return rep
