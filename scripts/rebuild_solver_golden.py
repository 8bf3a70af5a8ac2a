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
* two pins on one term, one with a degree and one without, each on target
  and off by one;
* two pins on one term of a template that reads the unknown twice at one
  quadruple, so some of a pin's occurrences are unbounded above;
* custom templates that read one cell of the unknown twice in a lane and
  need more than two propagation rounds;
* degree solves on +1-mutated known tables whose contradiction falls on a
  lane that reads no cell of the unknown degree, one way for each way a
  lane fails: the chain cannot close, or a rank is forced negative;
* a degree solve with a pin whose occurrences cap lanes that read no
  unknown cell, on target and off by one;
* solves on +1-mutated known tables where a lane reading exactly one
  unknown cell has no solution: a rank goes negative before the cell or
  after it, or the value the cell is forced to lies outside its interval
  (cs reads Xlim twice, so two lanes force one cell);
* a degree solve with a pin whose occurrences all cap lanes that read
  exactly one unknown cell, on target and off by one.

Run it only when a change to the solver's results is intended:

    python scripts/rebuild_solver_golden.py
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
# this checkout's package, installed or not, and the test helpers
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

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
# (family, template, unknown tag, mutated space, +1 quadruple, degrees
# solved): each contradiction falls on a lane with no unknown cell.
KNOWN_LANE_CONTRADICTIONS = [
    ("k3-typeII:r=2", "cs", "Total", "Supported", (2, 1, 2, 1), (0, 1, 2)),  # cannot close
    ("k3-typeII:r=2", "cs", "Xlim", "Total", (2, 2, 2, 1), (0, 1, 2)),  # rank negative
    ("k3-elliptic:r=2", "loc1", "U", "Y", (2, 2, 2, 1), (0, 3, 4)),  # rank negative
]
# (family, template, unknown tag, mutated space, +1 quadruple, degrees
# solved, None for a full solve): a lane that reads one unknown cell has no
# solution, and the first such lane visited fails as noted.
ONE_UNKNOWN_CONTRADICTIONS = [
    ("k3-typeII:r=2", "cs", "Supported", "Total", (0, 1, 0, 0), (2,)),  # before the cell
    ("k3-elliptic:r=2", "loc1", "Y", "U", (2, 2, 3, 1), (3,)),  # before the cell
    ("k3-typeII:r=2", "cs", "Total", "Supported", (4, 3, 4, 2), (2,)),  # after the cell
    ("k3-elliptic:r=2", "loc1", "U", "Y", (2, 2, 2, 1), (1,)),  # after the cell
    ("k3-typeII:r=2", "cs", "Xlim", "Supported", (2, 1, 2, 1), (None, 0)),  # outside
]
# (family, template, unknown, pinned term): the pin caps 16 of the 24
# lanes, and none of those 16 reads a cell of the unknown degree.
CAPPED_KNOWN_LANES = ("k3-typeII:r=2", "cs", ("Total", 1), 1)
# The same for a pin whose 43 occurrences each cap a lane reading exactly
# one cell of the unknown degree.
CAPPED_ONE_UNKNOWN_LANES = ("k3-finite:g=3", "loc2", ("Uc", 4), 2)
SAME_READ = ("k3-typeII:r=2", {"name": "same", "period": 1, "terms": [
    {"space": "Xlim"}, {"space": "Xlim"}]}, "Xlim")


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
            if ranked:
                k = ranked[0]
                total, part = infer_rank(tmpl, tables, i), infer_rank(tmpl, tables, i, k)
                between = [i, (i + 1) % len(tmpl.terms)]
                for d_total in (-1, 0, 1):
                    for d_part in (-1, 0, 1):
                        pins = [{"between": between, "rank": total + d_total},
                                {"between": between, "rank": part + d_part, "k": k}]
                        out.append({"template": name, "tables": spec, "drop": tag,
                                    "unknown": tag, "pins": pins})

    spec, tmpl, tag = SAME_READ
    for rank0 in (0, 1, 5):
        for rank in (0, 1, 5):
            for k in (None, 1):
                pins = [{"between": [0, 1], "rank": rank0, "k": 0},
                        {"between": [0, 1], "rank": rank}]
                if k is not None:
                    pins[1]["k"] = k
                out.append({"template": tmpl, "tables": spec, "drop": tag,
                            "unknown": tag, "pins": pins})

    for spec, tmpl, tag in MULTI_ROUND:
        out.append({"template": tmpl, "tables": spec, "drop": tag, "unknown": tag})

    for spec, name, tag, space, quad, degrees in KNOWN_LANE_CONTRADICTIONS:
        out.extend({"template": name, "tables": spec, "unknown": [tag, k],
                    "mutate": {"space": space, "entry": list(quad), "delta": 1}}
                   for k in degrees)

    for spec, name, tag, space, quad, degrees in ONE_UNKNOWN_CONTRADICTIONS:
        for k in degrees:
            case = {"template": name, "tables": spec, "unknown": tag if k is None else [tag, k],
                    "mutate": {"space": space, "entry": list(quad), "delta": 1}}
            if k is None:
                case["drop"] = tag
            out.append(case)

    for spec, name, (tag, k), i in (CAPPED_KNOWN_LANES, CAPPED_ONE_UNKNOWN_LANES):
        tmpl = builtin_templates()[name]
        rank = infer_rank(tmpl, family_tables(parse_family(spec)), i)
        out.extend({"template": name, "tables": spec, "unknown": [tag, k],
                    "pins": [{"between": [i, (i + 1) % len(tmpl.terms)],
                              "rank": rank + delta}]}
                   for delta in (-1, 0, 1))
    return out


def main():
    path = TESTS / "golden" / "solver_results.json"
    entries = [{"case": case, "result": result_obj(run_case(case))} for case in cases()]
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print("wrote", path.relative_to(TESTS.parent), f"({len(entries)} cases)")


if __name__ == "__main__":
    main()
