#!/usr/bin/env python3
"""Demonstrate table recovery: delete each table of each template instance,
re-solve it from lane exactness, and compare against the original.

Prints one line per combination; exits nonzero if a solved cell ever
disagrees with the deleted table (loose cells are reported, not errors:
some instances genuinely leave a rank's placement open).
"""

import sys
from pathlib import Path

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trigrade import (EllipticCurveBase, FiniteSurfaceBase, TypeII, TypeIII,  # noqa: E402
                      builtin_templates, family_spec, family_tables,
                      solve_unknown, support_box)


def main():
    bad = 0
    families = [EllipticCurveBase(2), FiniteSurfaceBase(3), TypeII(2), TypeIII(2)]
    for fam in families:
        tables = family_tables(fam)
        for name, tmpl in builtin_templates().items():
            if any(s not in tables for s in tmpl.spaces()):
                continue
            for tag in tmpl.spaces():
                known = {t: tab for t, tab in tables.items() if t != tag}
                res = solve_unknown(tmpl, known, tag)
                loose = {q for q, _lo, _hi in res.underdetermined}
                wrong = [q for q in support_box(tables[tag].space)
                         if q not in loose
                         and res.table.dim(*q) != tables[tag].dim(*q)]
                bad += len(wrong)
                status = "exact" if res.determined else f"{len(loose)} cell(s) open"
                print(f"{family_spec(fam):18s} {name:9s} -{tag:9s} "
                      f"iters={res.iterations}  {status}"
                      + (f"  WRONG: {wrong}" if wrong else ""))
                for q, lo, hi in res.underdetermined:
                    true = tables[tag].dim(*q)
                    print(f"    open cell {q}: interval [{lo}, "
                          f"{'inf' if hi is None else hi}], actual {true}")
    if bad:
        print(f"\n{bad} solved cell(s) disagreed")
        return 1
    print("\nevery solved cell matches the deleted table")
    return 0


if __name__ == "__main__":
    sys.exit(main())
