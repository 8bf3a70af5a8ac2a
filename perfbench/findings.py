#!/usr/bin/env python3
"""Facts about the Kunneth product instances that the notes record.

    python3 perfbench/findings.py

Prints, for t = 0..4 curve factors: whether validate_table and
hard_lefschetz_check accept every table of each product family, and how
many cells the loc1 -U and loc2 -Uc solves leave open on the k3-finite:g=3
products.  These are counts, not timings, so they repeat exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import trigrade as tg  # noqa: E402
from products import product_tables  # noqa: E402
from workloads import PRODUCT_POWERS, product_families  # noqa: E402

CURVE_GENERA = (1, 2, 5)


def main() -> int:
    powers = range(0, max(PRODUCT_POWERS) + 1)
    print("validate_table / hard_lefschetz_check on every product table:")
    for fam in product_families(tg):
        base = tg.family_tables(fam)
        row = []
        for t in powers:
            ok = all(tg.validate_table(tab).passed and tg.hard_lefschetz_check(tab).passed
                     for g in CURVE_GENERA
                     for tab in product_tables(base, g, t).values())
            row.append(f"t={t}:{'accept' if ok else 'REJECT'}")
        print(f"  {tg.family_spec(fam):18s} " + " ".join(row))

    templates = tg.builtin_templates()
    base = tg.family_tables(tg.FiniteSurfaceBase(3))
    print("open cells on k3-finite:g=3 products (curve genus "
          f"{', '.join(map(str, CURVE_GENERA))}):")
    for name, tag in (("loc1", "U"), ("loc2", "Uc")):
        row = []
        for t in powers:
            counts = set()
            for g in CURVE_GENERA:
                tables = product_tables(base, g, t)
                known = {k: v for k, v in tables.items() if k != tag}
                counts.add(len(tg.solve_unknown(templates[name], known, tag).underdetermined))
            row.append(f"t={t}:{'/'.join(map(str, sorted(counts)))}")
        print(f"  {name} -{tag:3s} " + " ".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
