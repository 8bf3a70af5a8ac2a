"""Replayable solve_unknown calls for the solver regression golden.

A case is a JSON object naming one call:

    {"template": name or template object,
     "tables": family spec,
     "drop": tag,                                   (optional)
     "mutate": {"space": tag, "entry": [k, l, q, p], "delta": d},  (optional)
     "unknown": tag or [tag, k],
     "pins": [pin objects]}                         (optional)

run_case replays it and result_obj serializes the whole SolveResult, so
tests/golden/solver_results.json pins down tables, open intervals, reports
and iteration counts.  scripts/rebuild_solver_golden.py chooses the cases.
"""

from trigrade import (RankPin, SequenceTemplate, TriFilteredTable,
                      family_tables, parse_family, solve_unknown)


def run_case(case):
    template = SequenceTemplate.from_json_obj(case["template"])
    tables = family_tables(parse_family(case["tables"]))
    tables.pop(case.get("drop"), None)
    if "mutate" in case:
        mut = case["mutate"]
        table = tables[mut["space"]]
        entries = dict(table.entries)
        quad = tuple(mut["entry"])
        entries[quad] = entries.get(quad, 0) + mut["delta"]
        tables[mut["space"]] = TriFilteredTable(table.space, entries)
    unknown = case["unknown"]
    if isinstance(unknown, list):
        unknown = tuple(unknown)
    pins = [RankPin.from_json_obj(p, len(template.terms)) for p in case.get("pins", [])]
    return solve_unknown(template, tables, unknown, pins)


def result_obj(res) -> dict:
    return {
        "table": None if res.table is None else res.table.to_json_obj(),
        "determined": res.determined,
        "underdetermined": [[*quad, lo, hi] for quad, lo, hi in res.underdetermined],
        "report": res.report.to_json_obj(),
        "iterations": res.iterations,
    }
