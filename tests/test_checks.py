import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigrade import (SpaceDescriptor, TriFilteredTable,
                      check_subvariety_constraints, dualize_in_dimension,
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
