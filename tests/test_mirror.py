import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigrade import (EllipticCurveBase, FiniteSurfaceBase, MirrorPair,
                      SpaceDescriptor, TriFilteredTable, TypeII, TypeIII,
                      family_tables, mirror_check, mirror_quad, mirror_transform,
                      stability_check)


def test_index_map_examples():
    assert mirror_quad(2, (2, 2, 2, 1)) == (2, 2, 2, 1)
    assert mirror_quad(2, (0, 1, 0, 0)) == (2, 2, 3, 2)
    assert mirror_quad(2, (4, 3, 4, 2)) == (2, 2, 1, 0)


@given(st.integers(1, 4),
       st.tuples(st.integers(-3, 8), st.integers(-3, 8),
                 st.integers(-3, 8), st.integers(-3, 8)))
def test_index_map_is_an_involution(n, quad):
    assert mirror_quad(n, mirror_quad(n, quad)) == quad


def test_compact_transform(fixture_sets):
    y = fixture_sets["k3-elliptic:r=2"]["Y"]
    t = mirror_transform(y)
    assert t.space.tag == "Xlim"
    assert t.dim(2, 2, 2, 1) == 18
    assert t.dim(2, 2, 3, 2) == 1  # the image of the H^0 class
    # pushing every entry back through the index map recovers the original
    back = {mirror_quad(2, quad): v for quad, v in t.entries.items()}
    assert back == y.entries


def test_open_transform():
    uc = family_tables(EllipticCurveBase(2))["Uc"]
    t = mirror_transform(uc)
    assert t.space.tag == "Total"
    assert t.dim(3, 3, 3, 2) == 1  # from Uc(1,1,0,0), r-1 = 1
    assert t.dim(2, 2, 2, 1) == 2  # from Uc(2,2,1,1), r = 2


@pytest.mark.parametrize("tag, target", [
    ("Y", "Xlim"), ("Uc", "Total"), ("U", None), ("Z:1", None),
    ("Xlim", None), ("Total", None), ("Supported", None)])
def test_transform_kind_guards(tag, target):
    """Y and Uc map to their matches; every other kind is refused by name."""
    tables = {**family_tables(EllipticCurveBase(2)), **family_tables(TypeII(2))}
    if target is not None:
        assert mirror_transform(tables[tag]).space.tag == target
        return
    with pytest.raises(ValueError, match=f"no mirror match for a {tag} table"):
        mirror_transform(tables[tag])


def test_perverse_raise_is_necessary():
    """Dropping the +1 on the perverse slot of the open transform breaks the
    match: the total space lives in dimension n+1, not n."""
    fib = family_tables(EllipticCurveBase(2))
    deg = family_tables(TypeII(2))
    raw = {}
    for quad, v in fib["Uc"].entries.items():
        raw[mirror_quad(2, quad)] = v
    assert raw != deg["Total"].entries
    # these two raw images land one lane below where the total space has them
    assert (2, 1, 2, 1) in raw and deg["Total"].dim(2, 1, 2, 1) == 0
    assert (3, 2, 3, 2) in raw and deg["Total"].dim(3, 2, 3, 2) == 0
    assert deg["Total"].dim(2, 2, 2, 1) == raw[(2, 1, 2, 1)]
    assert deg["Total"].dim(3, 3, 3, 2) == raw[(3, 2, 3, 2)]


def test_pair_validation():
    fib = family_tables(EllipticCurveBase(1))
    deg = family_tables(TypeII(1))
    MirrorPair(fib, deg)  # fine
    with pytest.raises(ValueError, match="lacks Uc"):
        MirrorPair({"Y": fib["Y"]}, deg)
    with pytest.raises(ValueError, match="lacks Xlim"):
        MirrorPair(fib, {"Total": deg["Total"]})
    odd = dict(fib)
    odd["Y"] = TriFilteredTable(SpaceDescriptor("Y", 3, 1), {})
    with pytest.raises(ValueError, match="disagree on n"):
        MirrorPair(odd, deg)


def test_correspondence_holds_for_matched_parameters():
    for r in (1, 2, 4):
        pair = MirrorPair.from_families(EllipticCurveBase(r), TypeII(r))
        assert mirror_check(pair).passed, r
    for k in (1, 2, 3):
        pair = MirrorPair.from_families(FiniteSurfaceBase(k + 1), TypeIII(k))
        assert mirror_check(pair).passed, k


def test_mismatched_parameters_fail_at_known_entries():
    pair = MirrorPair.from_families(FiniteSurfaceBase(4), TypeIII(2))
    rep = mirror_check(pair)
    assert not rep.passed
    assert {(v.space, v.entry) for v in rep.violations} == {
        ("Total", (2, 2, 2, 1)), ("Total", (4, 4, 4, 2))}
    assert all("mirror entry mismatch" in v.relation for v in rep.violations)


def test_hodge_diagonal_totals_match(fixture_sets):
    """Summing out the two gradings the correspondence permutes leaves a
    relation between plain Hodge numbers: h^{p,k-p} of the compact fibration
    side equals the (n-p)-graded piece of the limit in degree n+k-2p."""
    for fib_spec, deg_spec in [("k3-elliptic:r=2", "k3-typeII:r=2"),
                               ("k3-finite:g=3", "k3-typeIII:k=2")]:
        y = fixture_sets[fib_spec]["Y"]
        xlim = fixture_sets[deg_spec]["Xlim"]
        n = y.space.n
        for k in range(0, 2 * n + 1):
            for p in range(0, n + 1):
                lhs = sum(v for (kk, _l, _q, pp), v in y.entries.items()
                          if kk == k and pp == p)
                rhs = sum(v for (kk, _l, _q, pp), v in xlim.entries.items()
                          if kk == n + k - 2 * p and pp == n - p)
                assert lhs == rhs, (fib_spec, k, p)


def test_stability_under_base_change():
    pair = MirrorPair.from_families(EllipticCurveBase(2), TypeII(2))
    assert stability_check(pair, 3).passed
    pair = MirrorPair.from_families(FiniteSurfaceBase(2), TypeIII(1))
    assert stability_check(pair, 2).passed
    assert stability_check(pair, 1).passed == mirror_check(pair).passed


def test_stability_needs_catalog_families():
    fib = family_tables(EllipticCurveBase(2))
    deg = family_tables(TypeII(2))
    raw = MirrorPair(fib, deg)
    with pytest.raises(ValueError, match="catalog families"):
        stability_check(raw, 2)
    with pytest.raises(ValueError):
        stability_check(MirrorPair.from_families(EllipticCurveBase(2), TypeII(2)), 0)


def test_stability_fails_for_mismatched_pair():
    pair = MirrorPair.from_families(FiniteSurfaceBase(4), TypeIII(2))
    rep = stability_check(pair, 2)
    assert not rep.passed
