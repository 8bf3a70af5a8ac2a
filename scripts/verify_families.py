#!/usr/bin/env python3
"""Run every check the library offers over the full builtin parameter sweep
and print a one-line summary per family.  Exits nonzero if anything fails.

Covered per family: structural validation and the Lefschetz pairing for each
table, section restriction constraints (fibration side), every applicable
sequence template, and the mirror comparison for the matched pairs.
"""

import sys
from pathlib import Path

# this checkout's package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trigrade import (EllipticCurveBase, FiniteSurfaceBase, MirrorPair,  # noqa: E402
                      TypeII, TypeIII, builtin_templates, check_sequence,
                      check_subvariety_constraints, family_spec,
                      family_tables, hard_lefschetz_check, mirror_check,
                      stability_check, validate_table)

FAILED = 0


def report(label, rep):
    global FAILED
    if rep.passed:
        return []
    FAILED += 1
    lines = [f"    {label}: FAIL"]
    lines += [f"      {v.relation}" for v in rep.violations[:3]]
    return lines


def check_family(fam):
    tables = family_tables(fam)
    problems = []
    for tag in sorted(tables):
        problems += report(f"validate {tag}", validate_table(tables[tag]))
        problems += report(f"lefschetz {tag}", hard_lefschetz_check(tables[tag]))
    if "Y" in tables:
        problems += report("sections", check_subvariety_constraints(tables["Y"], tables))
    names = []
    for name, tmpl in builtin_templates().items():
        if any(s not in tables for s in tmpl.spaces()):
            continue
        names.append(name)
        problems += report(f"sequence {name}", check_sequence(tmpl, tables))
    status = "ok" if not problems else "FAIL"
    print(f"{family_spec(fam):20s} tables={len(tables)} templates={','.join(names):20s} {status}")
    for line in problems:
        print(line)


def check_pair(fib, deg, mus=(1, 2, 3)):
    pair = MirrorPair.from_families(fib, deg)
    problems = report("mirror", mirror_check(pair))
    for mu in mus:
        problems += report(f"stability mu={mu}", stability_check(pair, mu))
    status = "ok" if not problems else "FAIL"
    print(f"mirror {family_spec(fib):18s} <-> {family_spec(deg):16s} {status}")
    for line in problems:
        print(line)


def main():
    for r in range(1, 21):
        check_family(EllipticCurveBase(r))
    for g in range(2, 21):
        check_family(FiniteSurfaceBase(g))
    for r in range(1, 21):
        check_family(TypeII(r))
    for k in range(1, 21):
        check_family(TypeIII(k))
    print()
    for r in (1, 2, 3, 8):
        check_pair(EllipticCurveBase(r), TypeII(r))
    for k in (1, 2, 5):
        check_pair(FiniteSurfaceBase(k + 1), TypeIII(k))
    print()
    if FAILED:
        print(f"{FAILED} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
