"""Built-in table families: K3 fibrations and K3 degenerations.

Two fibration families (both with n = 2):

* EllipticCurveBase(r): an elliptic K3 over a rational curve, with the
  degree-1 linear section pulled back to a disjoint union of r smooth
  fibres.
* FiniteSurfaceBase(g): a K3 mapping finitely to a rational surface, the
  degree-1 section a smooth connected curve of genus g, the degree-2
  section a set of 2g-2 points.

Two one-parameter degeneration families of K3 surfaces:

* TypeII(r): central fibre a chain of r+1 surfaces glued along elliptic
  curves (monodromy logarithm nilpotent of index 2).
* TypeIII(k): central fibre a union of rational surfaces glued along
  anticanonical cycles, dual complex a sphere with 2k triangles
  (nilpotency index 3).

Base change of the families lives here too (veronese, base_changed_family,
dual_complex); dualcomplex.py holds only the counts.

The compact-support tables of U and the supported-on-the-central-fibre
tables are not stored; they are forced by duality and derived here, which
the test suite cross-checks against independently transcribed values.
"""

from __future__ import annotations

from .checks import dualize_in_dimension, poincare_verdier_dual
from .spaces import SpaceDescriptor
from .tables import Frozen, TriFilteredTable, _set


class _Family(Frozen):
    """A builtin family: one integer parameter, at least LEAST."""

    __slots__ = ()
    LEAST, LABEL = 1, None

    def _checked(self, value: int) -> int:
        (name,) = self.__slots__
        # type(...) is int: bool is an int subclass and must not pass
        if type(value) is not int:
            raise ValueError(f"{self.LABEL or name} must be an integer, got {value!r}")
        if value < self.LEAST:
            raise ValueError(f"need {self.LABEL or name} >= {self.LEAST}, got {value}")
        return value


class EllipticCurveBase(_Family):
    __slots__ = ("r",)

    def __init__(self, r: int):
        _set(self, "r", self._checked(r))


class FiniteSurfaceBase(_Family):
    __slots__ = ("g",)
    LEAST, LABEL = 2, "genus g"

    def __init__(self, g: int):
        _set(self, "g", self._checked(g))


class TypeII(_Family):
    __slots__ = ("r",)

    def __init__(self, r: int):
        _set(self, "r", self._checked(r))


class TypeIII(_Family):
    __slots__ = ("k",)

    def __init__(self, k: int):
        _set(self, "k", self._checked(k))


FibrationFamily = EllipticCurveBase | FiniteSurfaceBase
DegenerationFamily = TypeII | TypeIII


def _check_mu(mu: int):
    if type(mu) is not int:
        raise ValueError(f"mu must be an integer, got {mu!r}")
    if mu < 1:
        raise ValueError(f"need mu >= 1, got {mu}")


def veronese(f: FibrationFamily, mu: int) -> FibrationFamily:
    """Re-embed the base so the linear section scales: r fibres become
    mu*r; a genus g = k+1 curve becomes genus mu^2*k + 1."""
    _check_mu(mu)
    if isinstance(f, EllipticCurveBase):
        return EllipticCurveBase(mu * f.r)
    if isinstance(f, FiniteSurfaceBase):
        return FiniteSurfaceBase(mu * mu * (f.g - 1) + 1)
    raise ValueError(f"not a fibration family: {f!r}")


def dual_complex(d: DegenerationFamily):
    """The central fibre's DualComplexData: a chain of r+1 components for
    TypeII(r), the 2k-triangle sphere for TypeIII(k)."""
    from .dualcomplex import chain_counts, type_iii_counts

    if isinstance(d, TypeII):
        return chain_counts(d.r + 1)
    if isinstance(d, TypeIII):
        return type_iii_counts(2 * d.k)
    raise ValueError(f"not a degeneration family: {d!r}")


def base_changed_family(d: DegenerationFamily, mu: int) -> DegenerationFamily:
    """The degeneration family after a mu-fold base change, so that its
    dual complex matches base_change of the original's."""
    _check_mu(mu)
    if isinstance(d, TypeII):
        return TypeII(mu * d.r)
    if isinstance(d, TypeIII):
        return TypeIII(mu * mu * d.k)
    raise ValueError(f"not a degeneration family: {d!r}")


_SPEC_FORMS = {
    ("k3-elliptic", "r"): EllipticCurveBase,
    ("k3-finite", "g"): FiniteSurfaceBase,
    ("k3-typeII", "r"): TypeII,
    ("k3-typeIII", "k"): TypeIII,
}


def parse_family(spec: str):
    """Parse a family spec string like ``k3-elliptic:r=3``.  Only the form
    family_spec writes is read: ``r=03``, ``r=+3`` and ``r=1_0`` are refused."""
    try:
        name, arg = spec.split(":", 1)
        key, raw = arg.split("=", 1)
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"bad family spec {spec!r}; expected e.g. 'k3-elliptic:r=3', "
            "'k3-finite:g=4', 'k3-typeII:r=3' or 'k3-typeIII:k=2'") from None
    ctor = _SPEC_FORMS.get((name, key))
    if ctor is None:
        raise ValueError(f"unknown family {name!r} with parameter {key!r}")
    family = ctor(value)
    if family_spec(family) != spec:
        raise ValueError(f"family spec {spec!r} is not canonical; write {family_spec(family)!r}")
    return family


def family_spec(family) -> str:
    for (name, key), ctor in _SPEC_FORMS.items():
        if isinstance(family, ctor):
            return f"{name}:{key}={getattr(family, key)}"
    raise ValueError(f"not a catalog family: {family!r}")


def _table(tag: str, n: int, m: int | None, entries: dict) -> TriFilteredTable:
    return TriFilteredTable(SpaceDescriptor.parse_tag(tag, n, m), entries)


def fibration_tables(family: FibrationFamily) -> dict[str, TriFilteredTable]:
    """The filtration tables of a fibration family: Y, its linear sections,
    Uc and U.  U is obtained from Uc by duality."""
    if isinstance(family, EllipticCurveBase):
        r = family.r
        n, m = 2, 1
        y = _table("Y", n, m, {
            (0, 1, 0, 0): 1,
            (2, 1, 2, 1): 1,
            (2, 2, 2, 0): 1, (2, 2, 2, 1): 18, (2, 2, 2, 2): 1,
            (2, 3, 2, 1): 1,
            (4, 3, 4, 2): 1,
        })
        # r disjoint elliptic curves
        z1 = _table("Z:1", n, m, {
            (0, 0, 0, 0): r,
            (1, 1, 1, 0): r, (1, 1, 1, 1): r,
            (2, 2, 2, 1): r,
        })
        uc = _table("Uc", n, m, {
            (1, 1, 0, 0): r - 1,
            (2, 1, 2, 1): 1,
            (2, 2, 1, 0): r, (2, 2, 1, 1): r,
            (2, 2, 2, 0): 1, (2, 2, 2, 1): 18, (2, 2, 2, 2): 1,
            (3, 3, 2, 1): r - 1,
            (4, 3, 4, 2): 1,
        })
        return {"Y": y, "Z:1": z1, "Uc": uc, "U": poincare_verdier_dual(uc)}
    if isinstance(family, FiniteSurfaceBase):
        g = family.g
        n, m = 2, 2
        y = _table("Y", n, m, {
            (0, 2, 0, 0): 1,
            (2, 2, 2, 0): 1, (2, 2, 2, 1): 20, (2, 2, 2, 2): 1,
            (4, 2, 4, 2): 1,
        })
        # one smooth connected curve of genus g
        z1 = _table("Z:1", n, m, {
            (0, 1, 0, 0): 1,
            (1, 1, 1, 0): g, (1, 1, 1, 1): g,
            (2, 1, 2, 1): 1,
        })
        # the degree-2 section: 2g-2 points
        z2 = _table("Z:2", n, m, {(0, 0, 0, 0): 2 * g - 2})
        uc = _table("Uc", n, m, {
            (2, 2, 1, 0): g, (2, 2, 1, 1): g,
            (2, 2, 2, 0): 1, (2, 2, 2, 1): 19, (2, 2, 2, 2): 1,
            (4, 2, 4, 2): 1,
        })
        return {"Y": y, "Z:1": z1, "Z:2": z2, "Uc": uc,
                "U": poincare_verdier_dual(uc)}
    raise ValueError(f"not a fibration family: {family!r}")


def degeneration_tables(family: DegenerationFamily) -> dict[str, TriFilteredTable]:
    """The filtration tables of a degeneration family: the limit, the total
    space, and the supported cohomology.  The supported table is the
    dual of the total space's in the total space's own dimension n+1."""
    n = 2
    if isinstance(family, TypeII):
        r = family.r
        xlim = _table("Xlim", n, None, {
            (0, 0, 0, 0): 1,
            (2, 2, 1, 0): 1, (2, 2, 1, 1): 1,
            (2, 2, 2, 1): 18,
            (2, 2, 3, 1): 1, (2, 2, 3, 2): 1,
            (4, 4, 4, 2): 1,
        })
        total = _table("Total", n, None, {
            (0, 1, 0, 0): 1,
            (2, 2, 2, 1): r,
            (2, 3, 1, 0): 1, (2, 3, 1, 1): 1, (2, 3, 2, 1): 18,
            (3, 3, 3, 1): r - 1, (3, 3, 3, 2): r - 1,
            (4, 4, 4, 2): r,
            (4, 5, 4, 2): 1,
        })
    elif isinstance(family, TypeIII):
        g = family.k + 1
        xlim = _table("Xlim", n, None, {
            (0, 0, 0, 0): 1,
            (2, 2, 0, 0): 1, (2, 2, 2, 1): 20, (2, 2, 4, 2): 1,
            (4, 4, 4, 2): 1,
        })
        total = _table("Total", n, None, {
            (0, 1, 0, 0): 1,
            (2, 2, 2, 1): g,
            (2, 3, 0, 0): 1, (2, 3, 2, 1): 19,
            (4, 4, 4, 2): g,
            (4, 5, 4, 2): 1,
        })
    else:
        raise ValueError(f"not a degeneration family: {family!r}")
    supported = dualize_in_dimension(total, n + 1)
    return {"Xlim": xlim, "Total": total, "Supported": supported}


def family_tables(family) -> dict[str, TriFilteredTable]:
    if isinstance(family, (EllipticCurveBase, FiniteSurfaceBase)):
        return fibration_tables(family)
    return degeneration_tables(family)


def phantom_cohomology(family: DegenerationFamily, k: int) -> int:
    """dim of the weight-k perverse piece Gr^P_k H^k of the total space:
    the classes killed by restriction to a nearby fibre."""
    if type(k) is not int:
        raise ValueError(f"degree must be an integer, got {k!r}")
    total = degeneration_tables(family)["Total"]
    k_lo, k_hi = total.space.degree_range()
    if not k_lo <= k <= k_hi:
        raise ValueError(f"degree {k} outside [{k_lo}, {k_hi}]")
    return sum(v for (kk, l, _q, _p), v in total.entries.items()
               if kk == k and l == k)
