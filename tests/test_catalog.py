import pytest

import oracle_tables
from trigrade import (DegenerationFamily, EllipticCurveBase, FibrationFamily,
                      FiniteSurfaceBase, TypeII, TypeIII, base_changed_family,
                      degeneration_tables, family_spec, family_tables,
                      fibration_tables, parse_family, phantom_cohomology)


def test_spec_round_trip():
    for spec, ctor, value in [
        ("k3-elliptic:r=3", EllipticCurveBase, 3),
        ("k3-finite:g=4", FiniteSurfaceBase, 4),
        ("k3-typeII:r=1", TypeII, 1),
        ("k3-typeIII:k=2", TypeIII, 2),
    ]:
        fam = parse_family(spec)
        assert isinstance(fam, ctor)
        assert family_spec(fam) == spec


@pytest.mark.parametrize("bad", [
    "k3-elliptic", "k3-elliptic:r", "k3-elliptic:r=x", "k3-elliptic:s=2",
    "nope:r=2", "k3-finite:r=2", "", "k3-typeII:r=2:extra=1",
])
def test_bad_specs(bad):
    with pytest.raises(ValueError):
        parse_family(bad)


def test_parameter_validation():
    with pytest.raises(ValueError):
        EllipticCurveBase(0)
    with pytest.raises(ValueError):
        FiniteSurfaceBase(1)
    with pytest.raises(ValueError):
        TypeII(0)
    with pytest.raises(ValueError):
        TypeIII(-1)
    with pytest.raises(ValueError):
        parse_family("k3-finite:g=1")


def test_union_membership():
    assert isinstance(EllipticCurveBase(1), FibrationFamily)
    assert isinstance(FiniteSurfaceBase(2), FibrationFamily)
    assert isinstance(TypeII(1), DegenerationFamily)
    assert not isinstance(TypeII(1), FibrationFamily)
    assert not isinstance(EllipticCurveBase(1), DegenerationFamily)
    with pytest.raises(ValueError):
        family_spec("k3-elliptic:r=1")


# every family of the sweep in scripts/verify_families.py
ORACLES = [(ctor(t), oracle, t) for ctor, oracle, least in [
    (EllipticCurveBase, oracle_tables.elliptic, 1),
    (FiniteSurfaceBase, oracle_tables.finite, 2),
    (TypeII, oracle_tables.type_ii, 1),
    (TypeIII, oracle_tables.type_iii, 1),
] for t in range(least, 21)]


@pytest.mark.parametrize("family,oracle,param", ORACLES,
                         ids=[family_spec(f) for f, _o, _p in ORACLES])
def test_tables_match_transcribed_oracle(family, oracle, param):
    """Generated tables, including the duality-derived U and Supported ones,
    agree cell for cell with independently transcribed data."""
    got = family_tables(family)
    want = oracle(param)
    assert set(got) == set(want)
    for tag, (n, m, entries) in want.items():
        table = got[tag]
        assert table.space.n == n
        assert table.space.m == m
        assert table.entries == entries, tag


@pytest.mark.parametrize("ctor", [EllipticCurveBase, FiniteSurfaceBase, TypeII, TypeIII])
def test_no_entry_is_negative_at_any_parameter(ctor):
    """Each stored entry is c + s*t for t >= LEAST: with a slope s >= 0 and a
    value at LEAST >= 0 it is nonnegative at every parameter, so no table of
    the family has a negative entry, nor do the dual tables derived from them."""
    for tag, coeffs in ctor.TABLES.items():
        for quad, (c, s) in coeffs.items():
            assert s >= 0 and c + s * ctor.LEAST >= 0, (tag, quad)


def test_family_tables_dispatch():
    fib = family_tables(EllipticCurveBase(2))
    assert set(fib) == {"Y", "Z:1", "U", "Uc"}
    assert set(family_tables(FiniteSurfaceBase(2))) == {"Y", "Z:1", "Z:2", "U", "Uc"}
    deg = family_tables(TypeII(2))
    assert set(deg) == {"Xlim", "Total", "Supported"}
    assert fib == fibration_tables(EllipticCurveBase(2))
    assert deg == degeneration_tables(TypeII(2))
    with pytest.raises(ValueError):
        family_tables("k3-typeII:r=2")
    with pytest.raises(ValueError, match="^not a fibration family: TypeII\\(r=2\\)$"):
        fibration_tables(TypeII(2))
    with pytest.raises(ValueError,
                       match="^not a degeneration family: EllipticCurveBase\\(r=2\\)$"):
        base_changed_family(EllipticCurveBase(2), 2)


@pytest.mark.parametrize("r", [1, 2, 5, 11])
def test_elliptic_closed_forms(r):
    t = fibration_tables(EllipticCurveBase(r))
    assert t["Y"].total_dim() == 24
    assert t["Y"].total_dim(2) == 22
    assert t["Z:1"].total_dim(0) == r
    assert t["Z:1"].total_dim(1) == 2 * r
    assert t["Uc"].total_dim(1) == r - 1
    assert t["U"].total_dim(3) == r - 1
    assert t["U"].total_dim(2) == 21 + 2 * r


@pytest.mark.parametrize("g", [2, 3, 7])
def test_finite_closed_forms(g):
    t = fibration_tables(FiniteSurfaceBase(g))
    assert t["Y"].total_dim() == 24
    assert t["Z:1"].total_dim(1) == 2 * g
    assert t["Z:2"].total_dim() == 2 * g - 2
    assert t["Uc"].total_dim(2) == 2 * g + 21
    assert t["U"].total_dim(2) == 2 * g + 21


@pytest.mark.parametrize("r", [1, 2, 6])
def test_type_ii_closed_forms(r):
    t = degeneration_tables(TypeII(r))
    assert t["Xlim"].total_dim() == 24
    assert t["Xlim"].weight_totals(2) == {1: 2, 2: 18, 3: 2}
    assert t["Total"].total_dim(3) == 2 * (r - 1)
    assert t["Supported"].total_dim() == t["Total"].total_dim()


@pytest.mark.parametrize("k", [1, 2, 5])
def test_type_iii_closed_forms(k):
    t = degeneration_tables(TypeIII(k))
    g = k + 1
    assert t["Xlim"].total_dim() == 24
    assert t["Xlim"].weight_totals(2) == {0: 1, 2: 20, 4: 1}
    assert t["Total"].total_dim(2) == g + 20
    assert t["Supported"].total_dim(4) == g + 20


def test_phantom_cohomology():
    for r in (1, 2, 7):
        fam = TypeII(r)
        assert [phantom_cohomology(fam, k) for k in range(5)] == \
            [0, 0, r, 2 * (r - 1), r]
    for k in (1, 2, 5):
        fam = TypeIII(k)
        g = k + 1
        assert [phantom_cohomology(fam, j) for j in range(5)] == [0, 0, g, 0, g]
    with pytest.raises(ValueError):
        phantom_cohomology(TypeII(1), 5)
    with pytest.raises(ValueError):
        phantom_cohomology(TypeIII(1), -1)
