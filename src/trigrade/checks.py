"""Single-table checks: support windows, Lefschetz pairing, restriction to
linear sections.

All checks return a VerificationReport rather than raising, so callers can collect every
violation at once.  Raising is reserved for malformed input (missing tables,
bad tags), which surfaces as ValueError.
"""

from __future__ import annotations

from .tables import Quad, TriFilteredTable, VerificationReport, Violation


def validate_table(table: TriFilteredTable) -> VerificationReport:
    """Check every entry against the support windows of its space.

    Covered: the degree window of the space, and in each degree the windows
    of SpaceDescriptor.lane_range, weight_range (purity for Y and Z) and
    hodge_range, the same windows support_box enumerates.  Nonnegativity of
    dimensions needs no check; construction enforces it.  Violations come
    in the order of their entries, and for one entry in the order above.
    """
    sp = table.space
    k_lo, k_hi = sp.degree_range()
    failing = []
    for quad in table.entries:
        relations = _window_failures(sp, k_lo, k_hi, *quad)
        if relations:
            failing.append((quad, relations))
    failing.sort()
    return VerificationReport([Violation(relation, space=sp.tag, entry=quad)
                               for quad, relations in failing for relation in relations])


def _window_failures(sp, k_lo: int, k_hi: int, k: int, l: int, q: int, p: int) -> tuple:
    """The relations an entry at (k, l, q, p) of a table of ``sp`` breaks,
    empty when it lies inside every window.  An entry outside the degree
    window is checked no further."""
    if not k_lo <= k <= k_hi:
        return (f"degree window: k={k} outside [{k_lo}, {k_hi}] for {sp.tag}",)
    relations = ()
    l_lo, l_hi = sp.lane_range(k)
    if not l_lo <= l <= l_hi:
        relations += (
            f"lane window: l={l} outside [{l_lo}, {l_hi}] in degree {k} for {sp.tag}",)
    q_lo, q_hi = sp.weight_range(k)
    if not q_lo <= q <= q_hi:
        if sp.kind in ("Y", "Z"):
            relations += (f"purity: weight q={q} != k={k} on smooth projective {sp.tag}",)
        else:
            on = {"U": f" on open {sp.tag}",
                  "Uc": f" on compactly supported {sp.tag}"}.get(sp.kind, "")
            relations += (f"weight window: q={q} outside [{q_lo}, {q_hi}]{on}",)
    p_lo, p_hi = sp.hodge_range(k, q)
    if not p_lo <= p <= p_hi:
        relations += (
            f"Hodge window: p={p} outside [{p_lo}, {p_hi}] for weight {q} in degree {k}",)
    return relations


def lefschetz_partner(quad: Quad, d: int) -> Quad:
    """Index pairing of the relative Lefschetz isomorphism: lane l in degree
    k pairs with lane 2d-l in degree k+2(d-l), with a twist by d-l.  An
    involution on quadruples."""
    k, l, q, p = quad
    return (2 * d + k - 2 * l, 2 * d - l, q + 2 * (d - l), p + (d - l))


def hard_lefschetz_check(table: TriFilteredTable) -> VerificationReport:
    """Check the dimension symmetry dim(e) == dim(partner(e)) for all entries.

    Scanning entries suffices for both directions: a nonzero partner of a
    zero entry is itself an entry whose partner mismatches.  Violations come
    in the order of their entries.
    """
    d = table.space.complex_dim
    entries = table.entries
    dim = entries.get
    failing = sorted([quad for quad, v in entries.items()
                      if dim(lefschetz_partner(quad, d), 0) != v])
    violations = []
    for quad in failing:
        partner = lefschetz_partner(quad, d)
        violations.append(Violation(
            f"hard Lefschetz pairing: dim{quad} = {entries[quad]} but partner "
            f"dim{partner} = {dim(partner, 0)}", space=table.space.tag, entry=quad))
    return VerificationReport(violations)


def check_subvariety_constraints(table_y: TriFilteredTable,
                                 tables: dict[str, TriFilteredTable]) -> VerificationReport:
    """Relate off-center lanes of a fibred space to its linear sections, the
    Z:r tables of the table set ``tables``; its other tables are not read.

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
    by_depth = {t.space.depth: t for t in tables.values() if t.space.kind == "Z"}
    failing = []
    for quad, v in table_y.entries.items():
        failures = _section_failures(quad, v, by_depth)
        if failures:
            failing.append((quad, v, failures))
    failing.sort()
    rep = VerificationReport()
    for (k, l, q, p), v, failures in failing:
        gap = abs(l - k)
        for r, zq, zv in failures:
            if zv is None:
                raise ValueError(
                    f"subvariety constraints need a depth-{r} section table "
                    f"(entry at {(k, l, q, p)} sits {gap} lanes off center)")
            if r < gap:
                relation = (f"section restriction (depth {r}) is an isomorphism here: "
                            f"Y{(k, l, q, p)} = {v} but Z:{r}{zq} = {zv}")
            else:
                how = "onto" if l < k else "injective"
                relation = (f"section restriction (depth {r}) is {how} here: "
                            f"Y{(k, l, q, p)} = {v} exceeds Z:{r}{zq} = {zv}")
            rep.add(Violation(relation, space=table_y.space.tag, entry=(k, l, q, p)))
    return rep


def _section_failures(quad: Quad, v: int, by_depth: dict[int, TriFilteredTable]) -> tuple:
    """The depths r at which the entry ``v`` of Y at ``quad`` breaks the
    comparison with the depth-r section, as (r, section quad, section dim)
    in order of r, empty when every comparison holds.  The section dim is
    None, and the failures end, at a depth with no section table."""
    k, l, q, p = quad
    gap = abs(l - k)
    failures = ()
    for r in range(1, gap + 1):
        zq = (k - 2 * r, l - r, q - 2 * r, p - r) if l < k else (k, l - r, q, p)
        z = by_depth.get(r)
        if z is None:
            return failures + ((r, zq, None),)
        zv = z.entries.get(zq, 0)
        if (zv != v) if r < gap else (v > zv):
            failures += ((r, zq, zv),)
    return failures
