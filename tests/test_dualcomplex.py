import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigrade import (CHAIN, SPHERE, DualComplexData, EllipticCurveBase,
                      FiniteSurfaceBase, MirrorPair, TypeII, TypeIII, base_change,
                      base_changed_family, chain_counts, dual_complex,
                      phantom_cohomology, stability_check, type_iii_counts, veronese)


def test_shape_invariants():
    DualComplexData(4, 3, 0, CHAIN)
    DualComplexData(4, 6, 4, SPHERE)  # tetrahedron
    with pytest.raises(ValueError):
        DualComplexData(4, 2, 0, CHAIN)
    with pytest.raises(ValueError):
        DualComplexData(4, 3, 1, CHAIN)
    with pytest.raises(ValueError):
        DualComplexData(4, 6, 3, SPHERE)  # Euler 1
    with pytest.raises(ValueError):
        DualComplexData(5, 6, 3, SPHERE)  # Euler 2 but 3F != 2E
    with pytest.raises(ValueError):
        DualComplexData(2, 0, 0, SPHERE)  # Euler 2 and 3F = 2E, but no triangle
    with pytest.raises(ValueError):
        DualComplexData(0, 0, 0, CHAIN)
    with pytest.raises(ValueError):
        DualComplexData(3, 2, 0, "torus")


def test_json_obj():
    d = chain_counts(3)
    assert d.to_json_obj() == {
        "components": 3, "double_curves": 2, "triple_points": 0,
        "topology": "chain"}


def test_type_iii_counts():
    assert type_iii_counts(2) == DualComplexData(3, 3, 2, SPHERE)
    assert type_iii_counts(4) == DualComplexData(4, 6, 4, SPHERE)
    for bad in (-2, 0, 3):
        with pytest.raises(ValueError):
            type_iii_counts(bad)


def test_base_change_closed_forms():
    # chain with r+1 components -> mu*r + 1
    for r in (1, 2, 5):
        for mu in (1, 2, 3):
            out = base_change(chain_counts(r + 1), mu)
            assert out == chain_counts(mu * r + 1)
    # 2k-triangle sphere -> 2 mu^2 k triangles
    for k in (1, 2, 4):
        for mu in (1, 2, 3):
            out = base_change(type_iii_counts(2 * k), mu)
            assert out == type_iii_counts(2 * mu * mu * k)
    with pytest.raises(ValueError):
        base_change(chain_counts(2), 0)


def test_base_change_identity_at_mu_one():
    for d in (chain_counts(4), type_iii_counts(6)):
        assert base_change(d, 1) == d


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6), st.integers(1, 6))
def test_base_change_multiplicativity(a, b, r, k):
    for d in (chain_counts(r + 1), type_iii_counts(2 * k)):
        assert base_change(base_change(d, a), b) == base_change(d, a * b)


def test_dual_complex_of_families():
    assert dual_complex(TypeII(3)) == chain_counts(4)
    assert dual_complex(TypeIII(2)) == type_iii_counts(4)
    with pytest.raises(ValueError):
        dual_complex(EllipticCurveBase(1))


def test_base_changed_family_matches_dual_complex():
    for fam in (TypeII(1), TypeII(3), TypeIII(1), TypeIII(2)):
        for mu in (1, 2, 3):
            new = base_changed_family(fam, mu)
            assert dual_complex(new) == base_change(dual_complex(fam), mu)
    assert base_changed_family(TypeII(2), 3) == TypeII(6)
    assert base_changed_family(TypeIII(2), 2) == TypeIII(8)


def test_veronese():
    assert veronese(EllipticCurveBase(3), 2) == EllipticCurveBase(6)
    assert veronese(FiniteSurfaceBase(3), 3) == FiniteSurfaceBase(19)
    assert veronese(FiniteSurfaceBase(2), 1) == FiniteSurfaceBase(2)
    with pytest.raises(ValueError):
        veronese(EllipticCurveBase(1), 0)
    with pytest.raises(ValueError):
        veronese(TypeII(1), 2)


@pytest.mark.parametrize("call, message", [
    (lambda: veronese(EllipticCurveBase(2), 1.5), "mu must be an integer, got 1.5"),
    (lambda: base_changed_family(TypeII(2), True), "mu must be an integer, got True"),
    (lambda: base_change(chain_counts(3), 2.0), "mu must be an integer, got 2.0"),
    (lambda: stability_check(MirrorPair.from_families(EllipticCurveBase(2), TypeII(2)), 1.5),
     "mu must be an integer, got 1.5"),
    (lambda: phantom_cohomology(TypeII(2), True), "degree must be an integer, got True"),
])
def test_no_silent_coercion(call, message):
    """A float or bool where an integer belongs is refused, not computed with."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(2, 6))
def test_veronese_multiplicativity(a, b, r, g):
    for f in (EllipticCurveBase(r), FiniteSurfaceBase(g)):
        assert veronese(veronese(f, a), b) == veronese(f, a * b)
