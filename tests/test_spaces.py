import re

import pytest

from trigrade import SpaceDescriptor
from trigrade.spaces import MAX_N


def test_fibration_side_needs_m():
    with pytest.raises(ValueError):
        SpaceDescriptor("Y", 2)
    with pytest.raises(ValueError):
        SpaceDescriptor("Uc", 3)


def test_degeneration_side_rejects_m():
    with pytest.raises(ValueError):
        SpaceDescriptor("Xlim", 2, m=1)
    SpaceDescriptor("Total", 2)  # fine without


def test_section_depth_rules():
    with pytest.raises(ValueError):
        SpaceDescriptor("Z", 2, m=1)  # needs depth
    with pytest.raises(ValueError):
        SpaceDescriptor("Z", 2, m=1, depth=2)  # depth > m
    with pytest.raises(ValueError):
        SpaceDescriptor("Y", 2, m=1, depth=1)  # depth on non-section
    z = SpaceDescriptor("Z", 2, m=2, depth=2)
    assert z.tag == "Z:2"


def test_m_window():
    with pytest.raises(ValueError):
        SpaceDescriptor("Y", 2, m=3)
    with pytest.raises(ValueError):
        SpaceDescriptor("Y", 2, m=-1)


@pytest.mark.parametrize("kind, n, m, depth", [
    ("Y", True, 1, 0),
    ("Y", 2.0, 1, 0),
    ("Xlim", "2", None, 0),
    ("Y", 2, True, 0),
    ("Y", 2, 1.0, 0),
    ("Z", 2, 1, True),
    ("Xlim", -1, None, 0),
    ("Xlim", MAX_N + 1, None, 0),
    ("Total", 10**9, None, 0),
], ids=["n-bool", "n-float", "n-str", "m-bool", "m-float", "depth-bool", "n-negative",
        "n-above-max", "n-huge"])
def test_dimensions_are_bounded_ints(kind, n, m, depth):
    with pytest.raises(ValueError):
        SpaceDescriptor(kind, n, m, depth)


def test_dimension_bounds_are_inclusive():
    assert SpaceDescriptor("Xlim", 0).n == 0
    assert SpaceDescriptor("Y", MAX_N, MAX_N).n == MAX_N


def test_unknown_kind():
    with pytest.raises(ValueError):
        SpaceDescriptor("Q", 2, m=1)
    with pytest.raises(ValueError):
        SpaceDescriptor.parse_tag(5, 2)


def test_tag_parse_round_trip():
    for desc in (
        SpaceDescriptor("Y", 2, 1),
        SpaceDescriptor("Z", 2, 2, depth=2),
        SpaceDescriptor("U", 3, 1),
        SpaceDescriptor("Xlim", 2),
        SpaceDescriptor("Supported", 2),
    ):
        assert SpaceDescriptor.parse_tag(desc.tag, desc.n, desc.m) == desc


@pytest.mark.parametrize("tag", ["Z:abc", "Z:", "Z:1.5"])
def test_section_tag_needs_an_integer_depth(tag):
    with pytest.raises(ValueError, match=f"^section tag '{re.escape(tag)}' needs an integer "
                                         "depth$"):
        SpaceDescriptor.parse_tag(tag, 2, 1)


def test_complex_dim():
    assert SpaceDescriptor("Y", 2, 1).complex_dim == 2
    assert SpaceDescriptor("Z", 2, 2, depth=1).complex_dim == 1
    assert SpaceDescriptor("Z", 2, 2, depth=2).complex_dim == 0
    assert SpaceDescriptor("Xlim", 2).complex_dim == 2
    assert SpaceDescriptor("Total", 2).complex_dim == 3
    assert SpaceDescriptor("Supported", 2).complex_dim == 3


def test_dual_pairs_and_involution():
    u = SpaceDescriptor("U", 2, 1)
    assert u.dual().kind == "Uc"
    assert u.dual().dual() == u
    t = SpaceDescriptor("Total", 2)
    assert t.dual().kind == "Supported"
    assert t.dual().dual() == t
    y = SpaceDescriptor("Y", 2, 2)
    assert y.dual() == y
    z = SpaceDescriptor("Z", 2, 2, depth=1)
    assert z.dual() == z


def test_degree_ranges():
    assert SpaceDescriptor("Y", 2, 1).degree_range() == (0, 4)
    assert SpaceDescriptor("Z", 2, 1, depth=1).degree_range() == (0, 2)
    assert SpaceDescriptor("Xlim", 2).degree_range() == (0, 4)
    # the total space retracts onto a fibre, so degrees stop at 2n
    assert SpaceDescriptor("Total", 2).degree_range() == (0, 4)
    # supported cohomology is dual to that window inside dimension n+1
    assert SpaceDescriptor("Supported", 2).degree_range() == (2, 6)


def test_lane_ranges():
    y = SpaceDescriptor("Y", 2, 1)
    assert y.lane_range(0) == (0, 1)
    assert y.lane_range(1) == (1, 2)
    assert y.lane_range(2) == (1, 3)
    assert y.lane_range(4) == (3, 5)
    u = SpaceDescriptor("U", 2, 1)
    assert u.lane_range(2) == (2, 3)
    uc = SpaceDescriptor("Uc", 2, 1)
    assert uc.lane_range(2) == (1, 2)
    assert SpaceDescriptor("Xlim", 2).lane_range(3) == (3, 3)
    assert SpaceDescriptor("Total", 2).lane_range(3) == (3, 4)
    assert SpaceDescriptor("Supported", 2).lane_range(3) == (2, 3)
    # a depth-1 section of the m=2 family is fibred over a curve
    z = SpaceDescriptor("Z", 2, 2, depth=1)
    assert z.lane_range(1) == (1, 2)
    assert z.lane_range(2) == (1, 3)
