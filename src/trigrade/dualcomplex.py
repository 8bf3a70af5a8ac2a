"""Dual-complex counts for normal-crossings central fibres, and their
arithmetic under base change.

Only the two shapes that occur for K3 degenerations are modeled: a chain
(no triple points) and a triangulated sphere.  Base change by mu inserts
(mu-1) new components along every double curve and (mu-1)(mu-2)/2 at every
triple point; the edge and face counts are then recovered from the shape's
identities rather than tracked stratum by stratum.  This module holds the
counts only; the families, their base change and their dual complexes live
in the catalog.
"""

from __future__ import annotations

from .tables import Frozen, _set

CHAIN = "chain"
SPHERE = "sphere"


class DualComplexData(Frozen):
    """Vertex / edge / face counts of the dual complex: components, double
    curves, triple points."""

    __slots__ = ("components", "double_curves", "triple_points", "topology")

    def __init__(self, components: int, double_curves: int, triple_points: int,
                 topology: str):
        v, e, f = components, double_curves, triple_points
        # type(...) is int: bool is an int subclass and must not pass
        if any(type(x) is not int for x in (v, e, f)):
            raise ValueError(f"counts must be integers, got V={v!r}, E={e!r}, F={f!r}")
        if v < 1 or e < 0 or f < 0:
            raise ValueError("counts out of range")
        if topology == CHAIN:
            if f != 0 or e != v - 1:
                raise ValueError(f"not a chain: V={v}, E={e}, F={f}")
        elif topology == SPHERE:
            if v - e + f != 2 or 3 * f != 2 * e:  # Euler characteristic 2
                raise ValueError(f"not a triangulated sphere: V={v}, E={e}, F={f}")
        else:
            raise ValueError(f"unknown topology {topology!r}")
        _set(self, "components", v)
        _set(self, "double_curves", e)
        _set(self, "triple_points", f)
        _set(self, "topology", topology)

    def to_json_obj(self) -> dict:
        return {
            "components": self.components,
            "double_curves": self.double_curves,
            "triple_points": self.triple_points,
            "topology": self.topology,
        }


def chain_counts(components: int) -> DualComplexData:
    return DualComplexData(components, components - 1, 0, CHAIN)


def type_iii_counts(triple_points: int) -> DualComplexData:
    """Sphere data from the triangle count 2k: (k+2, 3k, 2k)."""
    if triple_points <= 0 or triple_points % 2:
        raise ValueError(f"triple point count must be even and positive, "
                         f"got {triple_points}")
    k = triple_points // 2
    return DualComplexData(k + 2, 3 * k, 2 * k, SPHERE)


def base_change(d: DualComplexData, mu: int) -> DualComplexData:
    """Dual complex after a mu-fold base change.

    components' = V + (mu-1) E + (mu-1)(mu-2)/2 F; the other counts follow
    from the shape identities (E = V-1 on a chain; Euler 2 and 3F = 2E on
    the sphere).
    """
    if type(mu) is not int:
        raise ValueError(f"mu must be an integer, got {mu!r}")
    if mu < 1:
        raise ValueError(f"need mu >= 1, got {mu}")
    v = (d.components + (mu - 1) * d.double_curves
         + (mu - 1) * (mu - 2) // 2 * d.triple_points)
    if d.topology == CHAIN:
        return chain_counts(v)
    return DualComplexData(v, 3 * (v - 2), 2 * (v - 2), SPHERE)
