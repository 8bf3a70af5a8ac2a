"""The mirror correspondence between fibration and degeneration tables.

For mirror pairs with n-dimensional members, the correspondence exchanges
the weight and perverse gradings through an index map that reflects the
Hodge index:

    (k, l, q, p)  on the fibration side
        corresponds to
    (n+k-2p, n+q-2p, n+l-2p, n-p)  on the degeneration side.

The map is an involution.  The tables it matches are written once, in
_MATCHES: the compact space Y matches the limit table Xlim, and the
compact-support table Uc of U matches the total space's, the latter with
the perverse index raised by one because the total space has dimension n+1.
"""

from __future__ import annotations

from .catalog import (DegenerationFamily, FibrationFamily, base_changed_family,
                      degeneration_tables, dual_complex, family_spec, fibration_tables,
                      veronese)
from .dualcomplex import base_change
from .spaces import SpaceDescriptor
from .tables import Frozen, Quad, TriFilteredTable, VerificationReport, Violation, _set


def mirror_quad(n: int, quad: Quad) -> Quad:
    k, l, q, p = quad
    return (n + k - 2 * p, n + q - 2 * p, n + l - 2 * p, n - p)


# fibration-side tag -> (degeneration-side tag, (k, l, q, p) shift added
# after mirror_quad); mirror_check reports the matches in this order
_MATCHES = {"Y": ("Xlim", (0, 0, 0, 0)), "Uc": ("Total", (0, 1, 0, 0))}


def mirror_transform(table: TriFilteredTable) -> TriFilteredTable:
    """Reindex a fibration-side table as the table its mirror partner should
    have: mirror_quad, then the shift of its match in _MATCHES."""
    match = _MATCHES.get(table.space.tag)
    if match is None:
        raise ValueError(f"no mirror match for a {table.space.tag} table; "
                         f"expected one of {', '.join(_MATCHES)}")
    target, (dk, dl, dq, dp) = match
    n = table.space.n
    moved = {}
    for quad, v in table.entries.items():
        k, l, q, p = mirror_quad(n, quad)
        moved[(k + dk, l + dl, q + dq, p + dp)] = v
    return TriFilteredTable(SpaceDescriptor(target, n), moved)


class MirrorPair(Frozen):
    """A fibration-side table set paired with a degeneration-side one, each
    holding its side of every match in _MATCHES, all those tables at one n.
    Families are kept when the pair comes from the catalog, so stability
    under base change can regenerate it."""

    __slots__ = ("fibration", "degeneration", "fibration_family", "degeneration_family")

    def __init__(self, fibration: dict[str, TriFilteredTable],
                 degeneration: dict[str, TriFilteredTable],
                 fibration_family: FibrationFamily | None = None,
                 degeneration_family: DegenerationFamily | None = None):
        for tag in _MATCHES:
            if tag not in fibration:
                raise ValueError(f"fibration side lacks {tag}")
        for tag, _shift in _MATCHES.values():
            if tag not in degeneration:
                raise ValueError(f"degeneration side lacks {tag}")
        # the tables of the first match fix n, and every other table takes it
        (tag, (target, _shift)), *rest = _MATCHES.items()
        n, deg_n = fibration[tag].space.n, degeneration[target].space.n
        if n != deg_n:
            raise ValueError(f"sides disagree on n: {n} vs {deg_n}")
        for fib_tag, (deg_tag, _shift) in rest:
            for other in (fibration[fib_tag], degeneration[deg_tag]):
                if other.space.n != n:
                    raise ValueError(f"{other.space.tag} has n={other.space.n}, "
                                     f"{tag} and {target} have n={n}")
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
    """Entrywise comparison of each transformed fibration-side table against
    its degeneration-side partner, match by match in _MATCHES order."""
    rep = VerificationReport()
    for tag, (target, _shift) in _MATCHES.items():
        _compare(mirror_transform(pair.fibration[tag]), pair.degeneration[target], rep)
    return rep


def stability_check(pair: MirrorPair, mu: int) -> VerificationReport:
    """Check the correspondence survives a mu-fold base change.

    The fibration side is re-embedded (veronese), the degeneration side base
    changed, tables regenerated, and the mirror comparison re-run; the dual
    complex of the new degeneration must also match base_change applied to
    the old one, component for component.  veronese checks mu.
    """
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
