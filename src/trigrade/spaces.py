"""Space descriptors for trigraded dimension tables.

A table always belongs to a geometric space.  The spaces we track come in two
groups:

* fibration side: a smooth projective ``Y`` of dimension ``n`` fibred over a
  base of dimension ``m``, the preimages ``Z:r`` of codimension-``r`` linear
  sections of the base, the open complement ``U`` of ``Z:1``, and ``Uc``
  (cohomology of ``U`` with compact supports);
* degeneration side: the limit ``Xlim`` of a one-parameter degeneration with
  ``n``-dimensional fibres, the total space ``Total`` (an ``n+1``-fold), and
  ``Supported`` (cohomology of the total space supported on the special
  fibre).

The descriptor records which of these a table is, plus the two dimensions that
index bounds depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

FIBRATION_KINDS = ("Y", "Z", "U", "Uc")
DEGENERATION_KINDS = ("Xlim", "Total", "Supported")

# Largest n a descriptor accepts.  A support box grows about as n^4 (30,345
# cells for U at n = 16), so larger inputs are refused before anything is
# built from them.
MAX_N = 16


@dataclass(frozen=True)
class SpaceDescriptor:
    """Identity of the space a table belongs to.

    ``kind`` is one of ``Y, Z, U, Uc, Xlim, Total, Supported``.  ``n`` is the
    dimension of the fibred space (fibration side) or of a degeneration fibre
    (degeneration side).  ``m`` is the base dimension, present only on the
    fibration side.  ``depth`` is the section codimension ``r`` for ``Z`` and
    0 otherwise.
    """

    kind: str
    n: int
    m: int | None = None
    depth: int = 0

    def __post_init__(self):
        if self.kind not in FIBRATION_KINDS + DEGENERATION_KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        # type(...) is int: bool is an int subclass and must not pass
        if type(self.n) is not int or type(self.depth) is not int or (
                self.m is not None and type(self.m) is not int):
            raise ValueError(f"{self.kind} needs integer dimensions, got n={self.n!r}, "
                             f"m={self.m!r}, depth={self.depth!r}")
        if not 0 <= self.n <= MAX_N:
            raise ValueError(f"dimension n={self.n} outside [0, {MAX_N}]")
        if self.kind == "Z":
            if self.depth < 1:
                raise ValueError("Z requires depth >= 1")
        elif self.depth != 0:
            raise ValueError(f"depth given for non-section space {self.kind}")
        if self.kind in FIBRATION_KINDS:
            if self.m is None:
                raise ValueError(f"{self.kind} requires a base dimension m")
            if not 0 <= self.m <= self.n:
                raise ValueError(f"base dimension m={self.m} outside [0, n={self.n}]")
            if self.kind == "Z" and self.depth > self.m:
                raise ValueError("section codimension exceeds base dimension")
        elif self.m is not None:
            raise ValueError(f"{self.kind} does not take a base dimension")

    @property
    def tag(self) -> str:
        """The string form used in JSON files and sequence templates."""
        if self.kind == "Z":
            return f"Z:{self.depth}"
        return self.kind

    @classmethod
    def parse_tag(cls, tag: str, n: int, m: int | None = None) -> "SpaceDescriptor":
        """The descriptor whose ``tag`` is exactly ``tag``: ``Z:01``, ``Z:+1``
        and ``Z: 1`` are refused, not read as ``Z:1``."""
        if not (isinstance(tag, str) and tag.startswith("Z:")):
            return cls(tag, n, m)
        desc = cls("Z", n, m, depth=int(tag[2:]))
        if desc.tag != tag:
            raise ValueError(f"section tag {tag!r} is not canonical; write {desc.tag!r}")
        return desc

    @property
    def order_key(self) -> tuple[int, int]:
        """Listing order of tables, in JSON and grids alike: Y, the sections
        Z:r by depth, U, Uc, Xlim, Total, Supported."""
        return ((FIBRATION_KINDS + DEGENERATION_KINDS).index(self.kind), self.depth)

    @property
    def complex_dim(self) -> int:
        """Complex dimension of the space itself (not of any fibre)."""
        if self.kind == "Z":
            return self.n - self.depth
        if self.kind in ("Total", "Supported"):
            return self.n + 1
        return self.n

    @property
    def is_fibration_side(self) -> bool:
        return self.kind in FIBRATION_KINDS

    def dual(self) -> "SpaceDescriptor":
        """Descriptor of the dual space: U and Uc swap, as do Total and
        Supported; compact spaces are self-dual."""
        swap = {"U": "Uc", "Uc": "U", "Total": "Supported", "Supported": "Total"}
        kind = swap.get(self.kind, self.kind)
        return SpaceDescriptor(kind, self.n, self.m, self.depth)

    def degree_range(self) -> tuple[int, int]:
        """Cohomological degrees that can carry a nonzero group."""
        d = self.complex_dim
        if self.kind == "Supported":
            # dual window to the total space, which retracts onto an
            # n-dimensional fibre
            return (2, 2 * d)
        if self.kind == "Total":
            return (0, 2 * self.n)
        return (0, 2 * d)

    def lane_range(self, k: int) -> tuple[int, int]:
        """Perverse lanes that can be nonzero in degree ``k``.

        For spaces fibred in the usual sense (Y and the sections over their
        own base, U, Uc) these are the standard support windows; the
        degeneration-side spaces have one- or two-lane windows.
        """
        if self.kind == "Xlim":
            return (k, k)
        if self.kind == "Total":
            return (k, k + 1)
        if self.kind == "Supported":
            return (k - 1, k)
        if self.kind == "U":
            return (k, k + self.m)
        if self.kind == "Uc":
            return (k - self.m, k)
        # Y, or a section fibred over its own smaller base
        mb = self.m if self.kind == "Y" else self.m - self.depth
        lo = max(-(-k // 2), k - mb)  # ceil(k/2)
        return (lo, k + mb)

    def weight_range(self, k: int) -> tuple[int, int]:
        """Weights a degree-``k`` group can carry: [0, 2k], sharpened to
        q = k by purity for the smooth projective kinds (Y, Z) and to the
        one-sided windows of the open space U and of Uc."""
        if self.kind in ("Y", "Z"):
            return (k, k)
        if self.kind == "U":
            return (k, 2 * k)
        if self.kind == "Uc":
            return (0, k)
        return (0, 2 * k)

    def hodge_range(self, k: int, q: int) -> tuple[int, int]:
        """Hodge indices a weight-``q`` piece of H^k of a space of complex
        dimension d can carry."""
        d = self.complex_dim
        return (max(0, q - k, q - d), min(q, k, d))
