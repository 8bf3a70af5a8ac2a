"""Command line entry points.

Five subcommands over the JSON formats of the library: generate (builtin
family tables), check (table, table set or sequence instance), solve
(recover an unknown table from exactness), mirror (fibration vs degeneration
correspondence), basechange (dual complex arithmetic).

Exit codes: 0 all checks pass, 1 a checked relation is violated, 2 the input
could not be used (bad spec string, malformed JSON, missing file, missing
flag).

Each subcommand imports the modules it uses in its own body, and only on
the path that uses them (the catalog for a family spec, render for a grid),
so a process loads only the code its subcommand runs.  A subcommand returns
its output text and exit code; main alone writes the text, to standard
output or --out, and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sequences import RankPin, SequenceTemplate
    from .tables import TriFilteredTable, VerificationReport

PASS, VIOLATION, INPUT_ERROR = 0, 1, 2


def _load_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply to decode") from None


def _read_sequence(obj: dict) -> tuple[SequenceTemplate, dict[str, TriFilteredTable],
                                      list[RankPin]]:
    """The template, tables and pins of a sequence object."""
    from .sequences import RankPin, SequenceTemplate
    from .tables import _json_list, tables_from_json_obj

    template = SequenceTemplate.from_json_obj(obj["template"])
    tables = tables_from_json_obj({"tables": obj.get("tables", [])})
    pins = [RankPin.from_json_obj(p, len(template.terms))
            for p in _json_list(obj.get("pins", []), "pins", "pin objects")]
    return template, tables, pins


def _check_table_set(tables: dict[str, TriFilteredTable]) -> VerificationReport:
    from .checks import check_subvariety_constraints, hard_lefschetz_check, validate_table
    from .tables import VerificationReport

    rep = VerificationReport()
    for tag in sorted(tables):
        rep.extend(validate_table(tables[tag]))
        rep.extend(hard_lefschetz_check(tables[tag]))
    if "Y" in tables and any(t.space.kind == "Z" for t in tables.values()):
        rep.extend(check_subvariety_constraints(tables["Y"], tables))
    return rep


def generate(family, fmt):
    """Emit the tables of a builtin family.

    FAMILY is a spec string: k3-elliptic:r=3, k3-finite:g=4, k3-typeII:r=3,
    k3-typeIII:k=2.
    """
    from .catalog import family_spec, family_tables, parse_family
    from .tables import canonical_json, tables_to_json_obj

    fam = parse_family(family)
    tables = family_tables(fam)
    if fmt == "json":
        return canonical_json(tables_to_json_obj(tables, family_spec(fam))), PASS
    from .render import render_tables

    return render_tables(tables), PASS


def check(input):
    """Check a JSON input; report violations.

    INPUT is a path (or - for standard input) holding one of: a sequence
    object {"template", "tables", "pins"?}, checked for lane exactness (an
    input error when every table the template reads is empty); a table set
    {"tables": [...]}, checked per table plus the section constraints when Y
    and its sections are present; a single table {"space", "n", "entries"}.
    A table set or table without an entry is an input error.
    """
    from .tables import canonical_json, tables_from_json_obj

    obj = _load_json(input)
    if not isinstance(obj, dict):
        raise ValueError("input must be a JSON object")
    if "template" in obj:
        from .sequences import check_sequence

        template, tables, pins = _read_sequence(obj)
        rep = check_sequence(template, tables, pins)
    elif "tables" in obj or "space" in obj:
        tables = tables_from_json_obj(obj)
        if not any(table.entries for table in tables.values()):
            raise ValueError("nothing checked: no table has an entry")
        rep = _check_table_set(tables)
    else:
        raise ValueError('input needs a "template", "tables" or "space" key')
    return canonical_json(rep.to_json_obj()), PASS if rep.passed else VIOLATION


def solve(input):
    """Solve for a table marked unknown in a sequence object.

    INPUT is a sequence object as for check, plus an "unknown" key: a space
    tag, or {"space": tag, "k": degree} to solve a single degree.  The
    result reports the solved table, whether it is fully determined, any
    cells the lanes leave open, and a contradiction if the known tables
    admit no exact completion.  As for check, an instance whose known
    tables are all empty is an input error.
    """
    from .solver import solve_unknown
    from .tables import canonical_json

    obj = _load_json(input)
    if not isinstance(obj, dict) or "template" not in obj:
        raise ValueError('solve input needs "template", "tables" and "unknown" keys')
    if "unknown" not in obj:
        raise ValueError('no unknown marked: add an "unknown" key naming a space tag')
    template, tables, pins = _read_sequence(obj)
    unknown = obj["unknown"]
    if isinstance(unknown, dict) and unknown.keys() in ({"space"}, {"space", "k"}):
        unknown = (unknown["space"], unknown["k"]) if "k" in unknown else unknown["space"]
    elif not isinstance(unknown, str):
        raise ValueError('unknown must be a space tag or {"space": tag, "k": degree}, '
                         f"got {unknown!r}")
    result = solve_unknown(template, tables, unknown, pins)
    return canonical_json({
        "table": None if result.table is None else result.table.to_json_obj(),
        "determined": result.determined,
        "underdetermined": [
            {"entry": {"k": k, "l": l, "q": q, "p": p}, "lo": lo, "hi": hi}
            for (k, l, q, p), lo, hi in result.underdetermined
        ],
        "report": result.report.to_json_obj(),
    }), PASS if result.report.passed else VIOLATION


def mirror(fibration, degeneration, mu):
    """Check the mirror correspondence between two builtin families."""
    from .catalog import DegenerationFamily, FibrationFamily, parse_family
    from .mirror import MirrorPair, mirror_check, stability_check
    from .tables import canonical_json

    fib = parse_family(fibration)
    deg = parse_family(degeneration)
    if not isinstance(fib, FibrationFamily):
        raise ValueError(f"--fibration needs a fibration family, got {fibration!r}")
    if not isinstance(deg, DegenerationFamily):
        raise ValueError(f"--degeneration needs a degeneration family, got {degeneration!r}")
    pair = MirrorPair.from_families(fib, deg)
    rep = mirror_check(pair) if mu is None else stability_check(pair, mu)
    return canonical_json(rep.to_json_obj()), PASS if rep.passed else VIOLATION


def basechange(topology, components, triple_points, mu):
    """Dual complex counts after a mu-fold base change."""
    from .dualcomplex import base_change, chain_counts, type_iii_counts
    from .tables import canonical_json

    if topology == "chain":
        if components is None or triple_points is not None:
            raise ValueError("chain topology takes --components only")
        d = chain_counts(components)
    else:
        if triple_points is None or components is not None:
            raise ValueError("sphere topology takes --triple-points only")
        d = type_iii_counts(triple_points)
    return canonical_json(base_change(d, mu).to_json_obj()), PASS


def _out_path(path: str) -> str:
    """An --out value: a file to write, never a directory."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File {path!r} is a directory.")
    return path


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trigrade", description=main.__doc__,
                                     allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(func, out_help):
        doc = func.__doc__
        sub = commands.add_parser(func.__name__, help=doc.split("\n", 1)[0],
                                  description=doc, allow_abbrev=False)
        sub.set_defaults(run=func)
        sub.add_argument("--out", type=_out_path, default=None, help=out_help)
        return sub

    sub = command(generate, "Write to a file instead of standard output.")
    sub.add_argument("family", metavar="FAMILY")
    sub.add_argument("--format", dest="fmt", choices=["json", "grid"], default="json",
                     help="Output form (default: json).")
    sub = command(check, "Write the report to a file instead of standard output.")
    sub.add_argument("input", metavar="INPUT")
    sub = command(solve, "Write the result to a file instead of standard output.")
    sub.add_argument("input", metavar="INPUT")
    sub = command(mirror, "Write the report to a file instead of standard output.")
    sub.add_argument("--fibration", required=True,
                     help="Fibration family spec, e.g. k3-elliptic:r=3.")
    sub.add_argument("--degeneration", required=True,
                     help="Degeneration family spec, e.g. k3-typeII:r=3.")
    sub.add_argument("--mu", type=int, default=None,
                     help="Also check stability under a mu-fold base change.")
    sub = command(basechange, "Write the counts to a file instead of standard output.")
    sub.add_argument("--topology", choices=["chain", "sphere"], required=True)
    sub.add_argument("--components", type=int, default=None,
                     help="Component count (chain topology).")
    sub.add_argument("--triple-points", dest="triple_points", type=int, default=None,
                     help="Triple point count (sphere topology).")
    sub.add_argument("--mu", type=int, required=True, help="Base change degree.")
    return parser


def main(argv=None):
    """Verify and solve trigraded cohomology dimension tables."""
    args = vars(_parser().parse_args(argv))
    run, out = args.pop("run"), args.pop("out")
    del args["command"]
    try:
        text, code = run(**args)
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        # malformed input: one line on stderr, exit code 2
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(INPUT_ERROR)
    sys.exit(code)


if __name__ == "__main__":
    main()
