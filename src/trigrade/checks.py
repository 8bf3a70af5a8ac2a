"""Single-table checks: support windows, duality, Lefschetz pairing,
restriction to linear sections.

All checks return a VerificationReport rather than raising, so callers can collect every
violation at once.  Raising is reserved for malformed input (missing tables,
bad tags), which surfaces as ValueError.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .tables import Quad, TriFilteredTable, VerificationReport, Violation


def validate_table(table: TriFilteredTable) -> VerificationReport:
    """Check every entry against the support windows of its space.

    Covered: the degree window of the space, and in each degree the windows
    of SpaceDescriptor.lane_range, weight_range (purity for Y and Z) and
    hodge_range, the same windows support_box enumerates.  Nonnegativity of
    dimensions needs no check; construction enforces it.
    """
    rep = VerificationReport()
    sp = table.space
    k_lo, k_hi = sp.degree_range()
    for (k, l, q, p), _dim in table.sorted_entries():
        where = dict(space=sp.tag, entry=(k, l, q, p))
        if not k_lo <= k <= k_hi:
            rep.add(Violation(
                f"degree window: k={k} outside [{k_lo}, {k_hi}] for {sp.tag}",
                **where))
            continue
        l_lo, l_hi = sp.lane_range(k)
        if not l_lo <= l <= l_hi:
            rep.add(Violation(
                f"lane window: l={l} outside [{l_lo}, {l_hi}] in degree {k} for {sp.tag}",
                **where))
        q_lo, q_hi = sp.weight_range(k)
        if not q_lo <= q <= q_hi:
            if sp.kind in ("Y", "Z"):
                relation = f"purity: weight q={q} != k={k} on smooth projective {sp.tag}"
            else:
                on = {"U": f" on open {sp.tag}",
                      "Uc": f" on compactly supported {sp.tag}"}.get(sp.kind, "")
                relation = f"weight window: q={q} outside [{q_lo}, {q_hi}]{on}"
            rep.add(Violation(relation, **where))
        p_lo, p_hi = sp.hodge_range(k, q)
        if not p_lo <= p <= p_hi:
            rep.add(Violation(
                f"Hodge window: p={p} outside [{p_lo}, {p_hi}] for weight {q} in degree {k}",
                **where))
    return rep


def poincare_verdier_dual(table: TriFilteredTable) -> TriFilteredTable:
    """The dual table, for fibration-side spaces.

    With d the complex dimension of the space itself, the entry at (k,l,q,p)
    of the dual equals the entry at (2d-k, 2d-l, 2d-q, d-p) of the input; the
    space swaps with its dual partner (U with Uc, Y and the sections with
    themselves).  The perverse center being 2d-l encodes that each space's
    perverse structure is centered at its own dimension; for a depth-r
    section the center drops by r with the dimension.  Degeneration-side
    tables carry a different pairing and are rejected.
    """
    if not table.space.is_fibration_side:
        raise ValueError(
            f"duality is defined here for Y, Z, U, Uc only, not {table.space.tag}")
    return dualize_in_dimension(table, table.space.complex_dim)


def dualize_in_dimension(table: TriFilteredTable, d: int) -> TriFilteredTable:
    """Index-level duality about dimension d, retagging to the dual space."""
    moved = {
        (2 * d - k, 2 * d - l, 2 * d - q, d - p): v
        for (k, l, q, p), v in table.entries.items()
    }
    return TriFilteredTable(table.space.dual(), moved)


def lefschetz_partner(quad: Quad, d: int) -> Quad:
    """Index pairing of the relative Lefschetz isomorphism: lane l in degree
    k pairs with lane 2d-l in degree k+2(d-l), with a twist by d-l.  An
    involution on quadruples."""
    k, l, q, p = quad
    return (2 * d + k - 2 * l, 2 * d - l, q + 2 * (d - l), p + (d - l))


def hard_lefschetz_check(table: TriFilteredTable) -> VerificationReport:
    """Check the dimension symmetry dim(e) == dim(partner(e)) for all entries.

    Scanning entries suffices for both directions: a nonzero partner of a
    zero entry is itself an entry whose partner mismatches.
    """
    rep = VerificationReport()
    d = table.space.complex_dim
    for quad, v in table.sorted_entries():
        partner = lefschetz_partner(quad, d)
        w = table.dim(*partner)
        if w != v:
            rep.add(Violation(
                f"hard Lefschetz pairing: dim{quad} = {v} but partner dim{partner} = {w}",
                space=table.space.tag, entry=quad))
    return rep


def _section_map(sections) -> dict[int, TriFilteredTable]:
    by_depth: dict[int, TriFilteredTable] = {}
    if isinstance(sections, Mapping):
        sections = sections.values()
    for t in sections:
        if t.space.kind != "Z":
            continue
        by_depth[t.space.depth] = t
    return by_depth


def check_subvariety_constraints(
    table_y: TriFilteredTable,
    sections: Mapping[str, TriFilteredTable] | Iterable[TriFilteredTable],
) -> VerificationReport:
    """Relate off-center lanes of a fibred space to its linear sections.

    For an entry of Y at (k,l,q,p):

    * lanes below center (l < k): the comparison with the depth-r section is
      an isomorphism on this graded piece for r < k-l, reading the section at
      (k-2r, l-r, q-2r, p-r); at r = k-l it is onto the Y piece, so the
      section entry must be at least the Y entry.
    * lanes above center (l > k): the comparison map is an isomorphism for
      r < l-k at (k, l-r, q, p), and injective out of the Y piece at
      r = l-k, so the Y entry is at most the section entry.

    A needed depth with no section table supplied is an input error naming
    the depth.
    """
    rep = VerificationReport()
    by_depth = _section_map(sections)
    for (k, l, q, p), v in table_y.sorted_entries():
        if l == k:
            continue
        gap = abs(l - k)
        for r in range(1, gap + 1):
            if r not in by_depth:
                raise ValueError(
                    f"subvariety constraints need a depth-{r} section table "
                    f"(entry at {(k, l, q, p)} sits {gap} lanes off center)")
            z = by_depth[r]
            if l < k:
                zq = (k - 2 * r, l - r, q - 2 * r, p - r)
            else:
                zq = (k, l - r, q, p)
            zv = z.dim(*zq)
            where = dict(space=table_y.space.tag, entry=(k, l, q, p))
            if r < gap:
                if zv != v:
                    rep.add(Violation(
                        f"section restriction (depth {r}) is an isomorphism here: "
                        f"Y{(k, l, q, p)} = {v} but Z:{r}{zq} = {zv}", **where))
            elif v > zv:
                how = "onto" if l < k else "injective"
                rep.add(Violation(
                    f"section restriction (depth {r}) is {how} here: "
                    f"Y{(k, l, q, p)} = {v} exceeds Z:{r}{zq} = {zv}", **where))
    return rep
