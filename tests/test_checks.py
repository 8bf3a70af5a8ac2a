import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigrade import (EllipticCurveBase, FiniteSurfaceBase, SpaceDescriptor,
                      TriFilteredTable, TypeII, TypeIII, VerificationReport,
                      Violation, check_subvariety_constraints, dualize_in_dimension,
                      family_tables, hard_lefschetz_check, lefschetz_partner,
                      parse_family, poincare_verdier_dual, validate_table)


def test_all_fixture_tables_validate(fixture_sets):
    for spec, tables in fixture_sets.items():
        for tag, t in tables.items():
            rep = validate_table(t)
            assert rep.passed, (spec, tag, [v.relation for v in rep.violations])


@pytest.mark.parametrize("desc,quad,phrase", [
    (("Z:1", 2, 1), (3, 3, 3, 1), "degree window"),          # curve has no H^3
    (("Y", 2, 1), (2, 0, 2, 1), "lane window"),              # below k/2
    (("Y", 2, 1), (2, 4, 2, 1), "lane window"),              # above k+m
    (("U", 2, 1), (2, 1, 2, 1), "lane window"),              # U starts at k
    (("Uc", 2, 1), (1, 2, 0, 0), "lane window"),             # Uc stops at k
    (("Y", 2, 1), (2, 2, 3, 1), "purity"),                   # q must equal k
    (("U", 2, 1), (2, 2, 1, 0), "weight window"),            # U weights >= k
    (("Uc", 2, 1), (2, 2, 3, 2), "weight window"),           # Uc weights <= k
    (("Xlim", 2, None), (2, 2, 5, 2), "weight window"),      # q <= 2k
    (("Y", 2, 1), (2, 2, 2, 3), "Hodge window"),             # p <= q
    (("Xlim", 2, None), (4, 4, 4, 1), "Hodge window"),       # p >= q - d
])
def test_out_of_band_entries_fail(desc, quad, phrase):
    tag, n, m = desc
    t = TriFilteredTable(SpaceDescriptor.parse_tag(tag, n, m), {quad: 1})
    rep = validate_table(t)
    assert not rep.passed
    assert any(phrase in v.relation for v in rep.violations), \
        [v.relation for v in rep.violations]


def test_duality_is_an_involution_on_fixtures(fixture_sets):
    for spec, tables in fixture_sets.items():
        for tag, t in tables.items():
            if not t.space.is_fibration_side:
                continue
            assert poincare_verdier_dual(poincare_verdier_dual(t)) == t, (spec, tag)


def test_duality_swaps_open_and_compact(fixture_sets):
    tables = fixture_sets["k3-elliptic:r=2"]
    du = poincare_verdier_dual(tables["Uc"])
    assert du.space.kind == "U"
    assert du == tables["U"]
    # spot values: H^1_c(U) has the r-1 class in weight 0, its dual sits in
    # H^3(U) at weight 4
    assert tables["Uc"].dim(1, 1, 0, 0) == 1
    assert du.dim(3, 3, 4, 2) == 1


def test_duality_rejects_degeneration_side(fixture_sets):
    tables = fixture_sets["k3-typeII:r=2"]
    for tag in ("Xlim", "Total", "Supported"):
        with pytest.raises(ValueError):
            poincare_verdier_dual(tables[tag])


def test_dualize_in_dimension_total_supported(fixture_sets):
    tables = fixture_sets["k3-typeIII:k=2"]
    d = dualize_in_dimension(tables["Total"], 3)
    assert d.space.kind == "Supported"
    assert d == tables["Supported"]
    assert dualize_in_dimension(d, 3) == tables["Total"]


def test_section_duality_uses_own_dimension(fixture_sets):
    # a depth-1 section of the elliptic family is a curve: duality about d=1
    z = fixture_sets["k3-elliptic:r=2"]["Z:1"]
    dz = poincare_verdier_dual(z)
    assert dz.space == z.space
    assert dz == z


@given(st.tuples(st.integers(-2, 8), st.integers(-2, 8),
                 st.integers(-2, 8), st.integers(-2, 8)),
       st.integers(0, 4))
def test_lefschetz_partner_is_an_involution(quad, d):
    assert lefschetz_partner(lefschetz_partner(quad, d), d) == quad


def test_lefschetz_pairing_examples():
    # lane 1 of H^0 pairs with lane 3 of H^4 on a surface
    assert lefschetz_partner((0, 1, 0, 0), 2) == (2, 3, 2, 1)
    assert lefschetz_partner((2, 2, 2, 1), 2) == (2, 2, 2, 1)


def test_hard_lefschetz_passes_fixtures(fixture_sets):
    for spec, tables in fixture_sets.items():
        for tag, t in tables.items():
            rep = hard_lefschetz_check(t)
            assert rep.passed, (spec, tag, [v.relation for v in rep.violations])


def test_hard_lefschetz_catches_asymmetry(fixture_sets):
    y = fixture_sets["k3-elliptic:r=2"]["Y"]
    entries = dict(y.entries)
    entries[(0, 1, 0, 0)] = 2  # partner (2,3,2,1) stays 1
    rep = hard_lefschetz_check(TriFilteredTable(y.space, entries))
    assert not rep.passed
    assert any("hard Lefschetz" in v.relation for v in rep.violations)
    bad = {v.entry for v in rep.violations}
    assert (0, 1, 0, 0) in bad and (2, 3, 2, 1) in bad


def test_subvariety_constraints_pass_fixtures(fixture_sets):
    for spec in ("k3-elliptic:r=2", "k3-finite:g=3"):
        tables = fixture_sets[spec]
        rep = check_subvariety_constraints(tables["Y"], tables)
        assert rep.passed, (spec, [v.relation for v in rep.violations])


def test_subvariety_constraints_missing_depth():
    tables = family_tables(parse_family("k3-finite:g=3"))
    with pytest.raises(ValueError, match="depth-2"):
        check_subvariety_constraints(tables["Y"], {"Z:1": tables["Z:1"]})


def test_subvariety_constraint_violations():
    tables = family_tables(parse_family("k3-finite:g=3"))
    y = tables["Y"]
    # H^0 sits two lanes above center; bumping it breaks the depth-1
    # isomorphism with H^0 of the section
    entries = dict(y.entries)
    entries[(0, 2, 0, 0)] = 2
    rep = check_subvariety_constraints(TriFilteredTable(y.space, entries), tables)
    assert not rep.passed
    assert any("isomorphism" in v.relation and v.entry == (0, 2, 0, 0)
               for v in rep.violations)


def test_subvariety_onto_and_injective_bounds():
    tables = family_tables(parse_family("k3-elliptic:r=1"))
    y = tables["Y"]
    # (2,1,2,1) is one lane below center: the depth-1 section must surject
    # onto it, so r=1 still passes but a dim above r fails
    entries = dict(y.entries)
    entries[(2, 1, 2, 1)] = 2
    rep = check_subvariety_constraints(TriFilteredTable(y.space, entries), tables)
    assert any("onto" in v.relation for v in rep.violations)
    # (2,3,2,1) is one lane above center: injective into the section's piece
    entries = dict(y.entries)
    entries[(2, 3, 2, 1)] = 2
    rep = check_subvariety_constraints(TriFilteredTable(y.space, entries), tables)
    assert any("injective" in v.relation for v in rep.violations)


# -- full reports against the sorted-scan implementations ----------------------
# The checks scan entries unsorted and sort only the failing ones.  These are
# the straightforward sorted scans they replaced, kept as oracles: every
# report must match one in full, violation order and text included.

def validate_oracle(table):
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


def lefschetz_oracle(table):
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


def sections_oracle(table_y, sections):
    rep = VerificationReport()
    by_depth = {t.space.depth: t for t in sections.values() if t.space.kind == "Z"}
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


def _outcome(check, *args):
    try:
        return check(*args).to_json_obj()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _outside_windows(sp):
    """Entries outside each window of ``sp``, one at a time and several at
    once, in a degree of the middle of its window."""
    k_lo, k_hi = sp.degree_range()
    k = (k_lo + k_hi) // 2
    l_lo, l_hi = sp.lane_range(k)
    q_lo, q_hi = sp.weight_range(k)
    p_lo, p_hi = sp.hodge_range(k, q_lo)
    return [
        (k_hi + 1, k_hi + 1, k_hi + 1, 0), (k_lo - 1, l_lo, q_lo, p_lo),  # degree
        (k, l_hi + 1, q_lo, p_lo), (k, l_lo - 1, q_lo, p_lo),            # lane
        (k, l_lo, q_hi + 1, p_lo), (k, l_lo, q_lo - 1, p_lo),            # weight
        (k, l_lo, q_lo, p_hi + 1), (k, l_lo, q_lo, p_lo - 1),            # Hodge
        (k, l_hi + 2, q_hi + 2, p_hi + 3), (k, l_lo - 1, q_lo - 1, -1),  # several
    ]


def _mutations(table):
    """Every +1 and -1 on an entry, each entry outside a window, and all of
    those outside entries together; each table's entries inserted in
    reverse order, so that a scan in insertion order meets them unsorted."""
    def table_of(entries):
        return TriFilteredTable(table.space, dict(reversed(entries.items())))
    for quad in table.entries:
        for delta in (1, -1):
            entries = dict(table.entries)
            entries[quad] += delta
            yield table_of(entries)
    outside = _outside_windows(table.space)
    for quad in outside:
        yield table_of({**table.entries, quad: 1})
    yield table_of({**table.entries, **dict.fromkeys(outside, 2)})


def test_reports_match_sorted_scans_on_sweep_mutations():
    families = ([EllipticCurveBase(r) for r in range(1, 21)]
                + [FiniteSurfaceBase(g) for g in range(2, 21)]
                + [TypeII(r) for r in range(1, 21)]
                + [TypeIII(k) for k in range(1, 21)])
    assert len(families) == 79
    several = {}  # check -> reports with two or more violations; or the input error
    for fam in families:
        tables = family_tables(fam)
        for tag, table in tables.items():
            for mutated in [table, *_mutations(table)]:
                pairs = {"validate": (validate_table, validate_oracle, mutated),
                         "lefschetz": (hard_lefschetz_check, lefschetz_oracle, mutated)}
                if tag == "Y" or tag.startswith("Z:"):
                    at = {**tables, tag: mutated}
                    pairs["sections"] = (check_subvariety_constraints, sections_oracle,
                                         at["Y"], at)
                for name, (check, oracle, *args) in pairs.items():
                    got = _outcome(check, *args)
                    assert got == _outcome(oracle, *args), (fam, tag, mutated.entries)
                    if isinstance(got, str) or len(got["violations"]) > 1:
                        several[name] = several.get(name, 0) + 1
    # the comparisons reach reports where the violation order matters
    assert set(several) == {"validate", "lefschetz", "sections"}, several
