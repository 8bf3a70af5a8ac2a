#!/usr/bin/env python3
"""Rewrite tests/golden/solver_results.json, the solver regression golden.

The golden records the full SolveResult of a fixed set of solve_unknown
calls, so a change to the propagation can be checked to reach the same
fixpoint: same tables, open intervals, reports and iteration counts.  The
cases are:

* every combination of scripts/solve_roundtrip.py, as a full solve and as a
  solve of each single degree;
* seeded +-1 mutations of a known table, most of which end in a
  contradiction;
* rank pins on target and off by one, with and without a degree;
* custom templates that read one cell of the unknown twice in a lane and
  need more than two propagation rounds.

Run it only when a change to the solver's results is intended:

    PYTHONPATH=src python scripts/rebuild_solver_golden.py
"""

import json
import random
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

from solver_cases import result_obj, run_case  # noqa: E402
from trigrade import (builtin_templates, family_tables, infer_rank,  # noqa: E402
                      parse_family)

FAMILIES = ["k3-elliptic:r=2", "k3-finite:g=3", "k3-typeII:r=2", "k3-typeIII:k=2"]
PIN_SOLVES = [("k3-finite:g=3", "loc1", "U"), ("k3-typeII:r=2", "cs", "Xlim"),
              ("k3-elliptic:r=2", "mirror-cs", "Uc")]
# Found by a search over custom templates; each needs 3 to 6 rounds.
MULTI_ROUND = [
    ("k3-typeIII:k=2", {"name": "twice", "period": 1, "terms": [
        {"space": "Xlim", "shift": 1, "twist": -1},
        {"space": "Xlim", "twist": -1},
        {"space": "Xlim", "k_offset": 1, "shift": 1, "twist": -1}]}, "Xlim"),
    ("k3-finite:g=3", {"name": "twice", "period": 1, "terms": [
        {"space": "Uc", "k_offset": 2, "shift": 1},
        {"space": "Uc", "k_offset": 1, "shift": 1}]}, "Uc"),
]


def roundtrip_combos():
    for spec in FAMILIES:
        tables = family_tables(parse_family(spec))
        for name, tmpl in builtin_templates().items():
            if all(s in tables for s in tmpl.spaces()):
                for tag in tmpl.spaces():
                    yield spec, name, tag, tables


def cases():
    out = []
    for spec, name, tag, tables in roundtrip_combos():
        out.append({"template": name, "tables": spec, "drop": tag, "unknown": tag})
        k_lo, k_hi = tables[tag].space.degree_range()
        out.extend({"template": name, "tables": spec, "unknown": [tag, k]}
                   for k in range(k_lo, k_hi + 1))

    rng = random.Random(2)
    for spec, name, tag, tables in roundtrip_combos():
        others = [s for s in builtin_templates()[name].spaces() if s != tag]
        for _ in range(2):
            space = rng.choice(others)
            quad = rng.choice(sorted(tables[space].entries))
            out.append({"template": name, "tables": spec, "drop": tag, "unknown": tag,
                        "mutate": {"space": space, "entry": list(quad),
                                   "delta": rng.choice((-1, 1))}})

    for spec, name, tag in PIN_SOLVES:
        tmpl = builtin_templates()[name]
        tables = family_tables(parse_family(spec))
        for i, term in enumerate(tmpl.terms):
            ranked = [k for k in sorted({q[0] for q in tables[term.space].entries})
                      if infer_rank(tmpl, tables, i, k) > 0]
            for k in [None] + ranked[:1]:
                rank = infer_rank(tmpl, tables, i, k)
                for delta in (-1, 0, 1):
                    if rank + delta < 0:
                        continue
                    pin = {"between": [i, (i + 1) % len(tmpl.terms)], "rank": rank + delta}
                    if k is not None:
                        pin["k"] = k
                    out.append({"template": name, "tables": spec, "drop": tag,
                                "unknown": tag, "pins": [pin]})

    for spec, tmpl, tag in MULTI_ROUND:
        out.append({"template": tmpl, "tables": spec, "drop": tag, "unknown": tag})
    return out


def main():
    path = TESTS / "golden" / "solver_results.json"
    entries = [{"case": case, "result": result_obj(run_case(case))} for case in cases()]
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print("wrote", path.relative_to(TESTS.parent), f"({len(entries)} cases)")


if __name__ == "__main__":
    main()
