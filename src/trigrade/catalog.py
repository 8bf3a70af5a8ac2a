"""Built-in table families: K3 fibrations and K3 degenerations.

Each family is a class whose class data are its facts (see _Family): its
spec, its parameter, its stored tables, affine in the parameter, and its
base change.  The public functions below check a family's kind and look
those facts up; only dual_complex, whose counts live in dualcomplex.py,
branches on the family.

The compact-support tables of U and the supported-on-the-central-fibre
tables are not stored; poincare_verdier_dual derives them, which the test
suite cross-checks against independently transcribed values.
"""

from __future__ import annotations

from .spaces import SpaceDescriptor
from .tables import Frozen, TriFilteredTable, _integer, _set, poincare_verdier_dual

N = 2  # the dimension n of every builtin family's members


class _Family(Frozen):
    """A builtin family: its one field is an integer parameter t.  Its class
    data: SPEC, the spec name; LEAST, the least t, and LABEL, t's name in
    messages (the field's name when None); M, the base dimension m; TABLES,
    each stored table as {quad: (c, s)}, the dimension c + s*t, zero ones
    dropped; DUAL, the tag of the stored table that poincare_verdier_dual
    dualizes; and the mu-fold base change t - SHIFT -> mu**POWER * (t - SHIFT)."""

    __slots__ = ()
    LEAST, LABEL, SHIFT, POWER = 1, None, 0, 1

    def _checked(self, value: int) -> int:
        (name,) = self.__slots__
        return _integer(value, self.LABEL or name, self.LEAST)

    def _tables(self) -> dict[str, TriFilteredTable]:
        (t,) = self._values
        # t is a checked int, and no c + s*t is negative at any t >= LEAST
        # (tests/test_catalog.py): the zeros dropped, the entries need no check
        tables = {tag: TriFilteredTable._of(SpaceDescriptor.parse_tag(tag, N, self.M),
                                            {quad: v for quad, (c, s) in coeffs.items()
                                             if (v := c + s * t)})
                  for tag, coeffs in self.TABLES.items()}
        dual = poincare_verdier_dual(tables[self.DUAL])
        tables[dual.space.tag] = dual
        return tables

    def _base_changed(self, mu: int) -> _Family:
        (t,) = self._values
        return type(self)(self.SHIFT + mu ** self.POWER * (t - self.SHIFT))


class FibrationFamily(_Family):
    """A K3 fibration over a base of dimension m: the tables of Y, its linear
    sections, and Uc, and U, poincare_verdier_dual of Uc in dimension n."""

    __slots__ = ()
    DUAL = "Uc"


class DegenerationFamily(_Family):
    """A one-parameter degeneration of K3 surfaces: the tables of the limit
    Xlim and of the total space, and Supported, poincare_verdier_dual of
    Total in the total space's own dimension n+1."""

    __slots__ = ()
    M, DUAL = None, "Total"


class EllipticCurveBase(FibrationFamily):
    """An elliptic K3 over a rational curve, the degree-1 linear section
    pulled back to a disjoint union of r smooth fibres."""

    __slots__ = ("r",)
    SPEC, M = "k3-elliptic", 1
    TABLES = {
        "Y": {(0, 1, 0, 0): (1, 0),
              (2, 1, 2, 1): (1, 0),
              (2, 2, 2, 0): (1, 0), (2, 2, 2, 1): (18, 0), (2, 2, 2, 2): (1, 0),
              (2, 3, 2, 1): (1, 0),
              (4, 3, 4, 2): (1, 0)},
        # r disjoint elliptic curves
        "Z:1": {(0, 0, 0, 0): (0, 1),
                (1, 1, 1, 0): (0, 1), (1, 1, 1, 1): (0, 1),
                (2, 2, 2, 1): (0, 1)},
        "Uc": {(1, 1, 0, 0): (-1, 1),
               (2, 1, 2, 1): (1, 0),
               (2, 2, 1, 0): (0, 1), (2, 2, 1, 1): (0, 1),
               (2, 2, 2, 0): (1, 0), (2, 2, 2, 1): (18, 0), (2, 2, 2, 2): (1, 0),
               (3, 3, 2, 1): (-1, 1),
               (4, 3, 4, 2): (1, 0)},
    }

    def __init__(self, r: int):
        _set(self, "r", self._checked(r))


class FiniteSurfaceBase(FibrationFamily):
    """A K3 mapping finitely to a rational surface, the degree-1 section a
    smooth connected curve of genus g, the degree-2 section a set of 2g-2
    points."""

    __slots__ = ("g",)
    SPEC, M = "k3-finite", 2
    LEAST, LABEL, SHIFT, POWER = 2, "genus g", 1, 2
    TABLES = {
        "Y": {(0, 2, 0, 0): (1, 0),
              (2, 2, 2, 0): (1, 0), (2, 2, 2, 1): (20, 0), (2, 2, 2, 2): (1, 0),
              (4, 2, 4, 2): (1, 0)},
        # one smooth connected curve of genus g
        "Z:1": {(0, 1, 0, 0): (1, 0),
                (1, 1, 1, 0): (0, 1), (1, 1, 1, 1): (0, 1),
                (2, 1, 2, 1): (1, 0)},
        # the degree-2 section: 2g-2 points
        "Z:2": {(0, 0, 0, 0): (-2, 2)},
        "Uc": {(2, 2, 1, 0): (0, 1), (2, 2, 1, 1): (0, 1),
               (2, 2, 2, 0): (1, 0), (2, 2, 2, 1): (19, 0), (2, 2, 2, 2): (1, 0),
               (4, 2, 4, 2): (1, 0)},
    }

    def __init__(self, g: int):
        _set(self, "g", self._checked(g))


class TypeII(DegenerationFamily):
    """Central fibre a chain of r+1 surfaces glued along elliptic curves
    (monodromy logarithm nilpotent of index 2)."""

    __slots__ = ("r",)
    SPEC = "k3-typeII"
    TABLES = {
        "Xlim": {(0, 0, 0, 0): (1, 0),
                 (2, 2, 1, 0): (1, 0), (2, 2, 1, 1): (1, 0),
                 (2, 2, 2, 1): (18, 0),
                 (2, 2, 3, 1): (1, 0), (2, 2, 3, 2): (1, 0),
                 (4, 4, 4, 2): (1, 0)},
        "Total": {(0, 1, 0, 0): (1, 0),
                  (2, 2, 2, 1): (0, 1),
                  (2, 3, 1, 0): (1, 0), (2, 3, 1, 1): (1, 0), (2, 3, 2, 1): (18, 0),
                  (3, 3, 3, 1): (-1, 1), (3, 3, 3, 2): (-1, 1),
                  (4, 4, 4, 2): (0, 1),
                  (4, 5, 4, 2): (1, 0)},
    }

    def __init__(self, r: int):
        _set(self, "r", self._checked(r))


class TypeIII(DegenerationFamily):
    """Central fibre a union of rational surfaces glued along anticanonical
    cycles, dual complex a sphere with 2k triangles (nilpotency index 3)."""

    __slots__ = ("k",)
    SPEC, POWER = "k3-typeIII", 2
    TABLES = {
        "Xlim": {(0, 0, 0, 0): (1, 0),
                 (2, 2, 0, 0): (1, 0), (2, 2, 2, 1): (20, 0), (2, 2, 4, 2): (1, 0),
                 (4, 4, 4, 2): (1, 0)},
        # g = k+1 in degrees 2 and 4
        "Total": {(0, 1, 0, 0): (1, 0),
                  (2, 2, 2, 1): (1, 1),
                  (2, 3, 0, 0): (1, 0), (2, 3, 2, 1): (19, 0),
                  (4, 4, 4, 2): (1, 1),
                  (4, 5, 4, 2): (1, 0)},
    }

    def __init__(self, k: int):
        _set(self, "k", self._checked(k))


_SPEC_FORMS = {(c.SPEC, c.__slots__[0]): c
               for c in (EllipticCurveBase, FiniteSurfaceBase, TypeII, TypeIII)}


def _of_kind(family, kind: type, name: str):
    if not isinstance(family, kind):
        raise ValueError(f"not a {name} family: {family!r}")
    return family


def veronese(f: FibrationFamily, mu: int) -> FibrationFamily:
    """Re-embed the base so the linear section scales: r fibres become
    mu*r; a genus g = k+1 curve becomes genus mu^2*k + 1."""
    _integer(mu, "mu", 1)
    return _of_kind(f, FibrationFamily, "fibration")._base_changed(mu)


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
    _integer(mu, "mu", 1)
    return _of_kind(d, DegenerationFamily, "degeneration")._base_changed(mu)


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
    (key,) = _of_kind(family, _Family, "catalog").__slots__
    return f"{family.SPEC}:{key}={getattr(family, key)}"


def fibration_tables(family: FibrationFamily) -> dict[str, TriFilteredTable]:
    return _of_kind(family, FibrationFamily, "fibration")._tables()


def degeneration_tables(family: DegenerationFamily) -> dict[str, TriFilteredTable]:
    return _of_kind(family, DegenerationFamily, "degeneration")._tables()


def family_tables(family) -> dict[str, TriFilteredTable]:
    return _of_kind(family, _Family, "catalog")._tables()


def phantom_cohomology(family: DegenerationFamily, k: int) -> int:
    """dim of the weight-k perverse piece Gr^P_k H^k of the total space:
    the classes killed by restriction to a nearby fibre."""
    _integer(k, "degree")
    total = degeneration_tables(family)["Total"]
    k_lo, k_hi = total.space.degree_range()
    if not k_lo <= k <= k_hi:
        raise ValueError(f"degree {k} outside [{k_lo}, {k_hi}]")
    return sum(v for (kk, l, _q, _p), v in total.entries.items()
               if kk == k and l == k)
