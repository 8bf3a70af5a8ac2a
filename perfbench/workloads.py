"""The three benchmark workloads.

Each ``setup_*`` function takes the imported trigrade module, a seeded
random generator and a scratch directory, and returns a Prepared workload:
a list of operations, plus input checks to run once before measuring.  An
operation's ``run`` makes every call into trigrade through the tracer it is
given and returns what the calls produced; ``check`` returns what is wrong
with that output (outside the timed region); ``probe`` runs only in traced
runs, after the operation, to make the separate calls and counts that the
per-layer metrics need.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from products import applicable, bumped, product_tables, solve_errors

MIRROR_MUS = range(1, 9)
PRODUCT_POWERS = range(1, 5)
CLI_POWER = 3


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list[str]]
    probe: Callable[[Any, Any], None] | None = None


@dataclass
class Prepared:
    ops: list[Op]
    input_checks: list[Callable[[], list[str]]] = field(default_factory=list)


# -- sweep ----------------------------------------------------------------

def sweep_families(tg) -> list:
    """The parameter sweep of scripts/verify_families.py."""
    return ([tg.EllipticCurveBase(r) for r in range(1, 21)]
            + [tg.FiniteSurfaceBase(g) for g in range(2, 21)]
            + [tg.TypeII(r) for r in range(1, 21)]
            + [tg.TypeIII(k) for k in range(1, 21)])


def sweep_pairs(tg) -> list:
    return ([(tg.EllipticCurveBase(r), tg.TypeII(r)) for r in (1, 2, 3, 8)]
            + [(tg.FiniteSurfaceBase(k + 1), tg.TypeIII(k)) for k in (1, 2, 5)])


def _to_json(tg, tables, spec):
    return tg.canonical_json(tg.tables_to_json_obj(tables, spec))


def _from_json(tg, text):
    return tg.tables_from_json_obj(json.loads(text))


def _grid_roundtrip(tg, tables):
    return tg.parse_grid(tg.render_tables(tables))


def _check_set(tr, tg, tables, templates) -> dict:
    """Every check the library offers on one table set, by label."""
    reps = {}
    for tag in sorted(tables):
        reps[f"validate {tag}"] = tr.call("checks.validate_table", tg.validate_table, tables[tag])
        reps[f"lefschetz {tag}"] = tr.call(
            "checks.hard_lefschetz_check", tg.hard_lefschetz_check, tables[tag])
    if "Y" in tables:
        reps["sections"] = tr.call("checks.check_subvariety_constraints",
                                   tg.check_subvariety_constraints, tables["Y"], tables)
    for name, tmpl in templates:
        reps[f"sequence {name}"] = tr.call(
            "sequences.check_sequence", tg.check_sequence, tmpl, tables)
    return reps


def _family_op(tg, fam, templates, mutated_tag, mutated) -> Op:
    spec = tg.family_spec(fam)

    def run(tr):
        tables = tr.call("catalog.family_tables", tg.family_tables, fam)
        reps = _check_set(tr, tg, tables, templates)
        text = tr.call("tables.to_json", _to_json, tg, tables, spec)
        back = tr.call("tables.from_json", _from_json, tg, text)
        grid = tr.call("render.grid_roundtrip", _grid_roundtrip, tg, tables)
        rejected = _check_set(tr, tg, mutated, templates)
        return tables, reps, text, back, grid, rejected

    def check(out):
        tables, reps, _text, back, grid, rejected = out
        errors = [f"{spec}: {label} fails" for label, rep in reps.items() if not rep.passed]
        if back != tables:
            errors.append(f"{spec}: JSON round trip changed the tables")
        if grid != tables:
            errors.append(f"{spec}: grid round trip changed the tables")
        for name, tmpl in templates:
            if mutated_tag in tmpl.spaces() and rejected[f"sequence {name}"].passed:
                errors.append(f"{spec}: +1 on {mutated_tag} passes {name}")
        return errors

    def probe(tr, out):
        tables, _reps, text, *_ = out
        for tabs in (tables, mutated):
            tr.add("checks.entries", sum(len(t.entries) for t in tabs.values()))
            for _name, tmpl in templates:
                lanes = tr.call("sequences.extract_lanes", tg.extract_lanes, tmpl, tabs)
                tr.add("sequences.lanes", len(lanes))
                tr.add("sequences.lane_entries", sum(len(lane.entries) for lane in lanes))
        tr.add("tables.to_json.bytes", len(text.encode()))

    return Op("family", run, check, probe)


def _pair_op(tg, fib, deg, wrong) -> Op:
    label = f"{tg.family_spec(fib)} <-> {tg.family_spec(deg)}"

    def run(tr):
        pair = tg.MirrorPair.from_families(fib, deg)
        reps = {"mirror": tr.call("mirror.mirror_check", tg.mirror_check, pair)}
        for mu in MIRROR_MUS:
            reps[f"stability mu={mu}"] = tr.call(
                "mirror.stability_check", tg.stability_check, pair, mu)
        mismatched = tg.MirrorPair.from_families(fib, wrong)
        return reps, tr.call("mirror.mirror_check", tg.mirror_check, mismatched)

    def check(out):
        reps, mismatched = out
        errors = [f"{label}: {name} fails" for name, rep in reps.items() if not rep.passed]
        if mismatched.passed:
            errors.append(f"{label}: mismatched {tg.family_spec(wrong)} passes")
        return errors

    return Op("pair", run, check)


def setup_sweep(tg, rng, workdir) -> Prepared:
    """Every builtin family through every check, beside a seeded +1
    mutation of each family that must be rejected, and the mirror pairs
    with stability under base change."""
    templates = tg.builtin_templates()
    ops = []
    for fam in sweep_families(tg):
        tables = tg.family_tables(fam)
        apps = applicable(templates, tables)
        cells = sorted({(tag, quad) for _name, tmpl in apps for tag in tmpl.spaces()
                        for quad in tables[tag].entries})
        tag, quad = rng.choice(cells)
        mutated = dict(tables)
        mutated[tag] = bumped(tables[tag], quad)
        ops.append(_family_op(tg, fam, apps, tag, mutated))
    for fib, deg in sweep_pairs(tg):
        step = rng.randint(1, 3)
        wrong = (tg.TypeII(deg.r + step) if isinstance(deg, tg.TypeII)
                 else tg.TypeIII(deg.k + step))
        ops.append(_pair_op(tg, fib, deg, wrong))
    return Prepared(ops)


# -- solve-products ---------------------------------------------------------

def product_families(tg) -> list:
    """The families of scripts/solve_roundtrip.py."""
    return [tg.EllipticCurveBase(2), tg.FiniteSurfaceBase(3), tg.TypeII(2), tg.TypeIII(2)]


def _solve_op(tg, tmpl, tables, tag, degree, lanes_of) -> Op:
    truth = tables[tag]
    if degree is None:
        given = {t: tab for t, tab in tables.items() if t != tag}
        unknown, kind = tag, "solve_full"
    else:
        given, unknown, kind = tables, (tag, degree), "solve_degree"

    def run(tr):
        return tr.call(f"solver.{kind}", tg.solve_unknown, tmpl, given, unknown)

    def check(result):
        where = f"{tmpl.name} -{tag} n={truth.space.n}" + (
            "" if degree is None else f" k={degree}")
        return [f"{where}: {e}" for e in solve_errors(result, truth, degree)]

    def probe(tr, result):
        box = tr.call("solver.support_box", tg.support_box, truth.space, degree)
        n_open = len(result.underdetermined)
        tr.add("solver.solves", 1)
        tr.add("solver.box_cells", len(box))
        tr.add("solver.open_cells", n_open)
        tr.add("solver.determined_cells", len(box) - n_open)
        tr.add("solver.iterations", result.iterations)
        tr.add("solver.lane_sweeps", result.iterations * lanes_of())

    return Op(kind, run, check, probe)


def _exactness_check(tg, tmpl, tables, label):
    def check():
        rep = tg.check_sequence(tmpl, tables)
        return [] if rep.passed else [f"{label}: product is not exact"]
    return check


def _mutation_check(tg, tmpl, tables, tag, quad, label):
    def check():
        mutated = dict(tables)
        mutated[tag] = bumped(tables[tag], quad)
        if tg.check_sequence(tmpl, mutated).passed:
            return [f"{label}: +1 at {tag}{quad} passes"]
        return []
    return check


def _lane_count(tg, tmpl, tables) -> int:
    return len(tg.extract_lanes(tmpl, tables))


def setup_solve_products(tg, rng, workdir) -> Prepared:
    """Delete each table of each applicable template on the Kunneth products
    with a genus-g curve, t = 1..4 factors, and re-solve it once as a full
    solve and once per degree.  The seed picks g; shapes depend only on t."""
    g = rng.randint(1, 9)
    templates = tg.builtin_templates()
    ops, input_checks = [], []
    for fam in product_families(tg):
        base = tg.family_tables(fam)
        for t in PRODUCT_POWERS:
            tables = product_tables(base, g, t)
            label = f"{tg.family_spec(fam)} x C_{g}^{t}"
            for name, tmpl in applicable(templates, tables):
                input_checks.append(_exactness_check(tg, tmpl, tables, f"{label} {name}"))
                lanes_of = functools.cache(functools.partial(_lane_count, tg, tmpl, tables))
                for tag in tmpl.spaces():
                    quad = rng.choice(sorted(tables[tag].entries))
                    input_checks.append(
                        _mutation_check(tg, tmpl, tables, tag, quad, f"{label} {name}"))
                    ops.append(_solve_op(tg, tmpl, tables, tag, None, lanes_of))
                    k_lo, k_hi = tables[tag].space.degree_range()
                    for k in range(k_lo, k_hi + 1):
                        ops.append(_solve_op(tg, tmpl, tables, tag, k, lanes_of))
    return Prepared(ops, input_checks)


# -- cli ------------------------------------------------------------------

def cli_env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_process(argv, root, env):
    return subprocess.run([sys.executable, *argv], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)


def _cli_op(kind, args, expected: str, code: int, root, env) -> Op:
    argv = ["-m", "trigrade.cli", kind, *args]
    want = expected.encode()

    def run(tr):
        return run_process(argv, root, env)

    def check(proc):
        errors = []
        if proc.returncode != code:
            errors.append(f"{' '.join(argv[2:])}: exit {proc.returncode}, want {code}: "
                          + proc.stderr.decode(errors="replace").strip()[-200:])
        if proc.stdout != want:
            errors.append(f"{' '.join(argv[2:])}: stdout differs from the in-process result")
        return errors

    return Op(kind, run, check)


def _solve_output(tg, result) -> tuple[str, int]:
    """What `trigrade solve` prints for a result, and its exit code."""
    obj = {
        "table": None if result.table is None else result.table.to_json_obj(),
        "determined": result.determined,
        "underdetermined": [
            {"entry": {"k": k, "l": l, "q": q, "p": p}, "lo": lo, "hi": hi}
            for (k, l, q, p), lo, hi in result.underdetermined],
        "report": result.report.to_json_obj(),
    }
    return tg.canonical_json(obj), 0 if result.report.passed else 1


def _write(workdir, name, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(json.dumps(obj))
    return path


def setup_cli(tg, rng, workdir) -> Prepared:
    """One process per subcommand use, run one at a time.  Product instances
    (t = CLI_POWER factors) are written as files; the expected stdout of
    every process is computed in-process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = cli_env(root)
    r, k, g = rng.randint(2, 8), rng.randint(1, 6), rng.randint(1, 9)
    mu, comps = rng.randint(2, 8), rng.randint(2, 9)
    templates = tg.builtin_templates()
    elliptic, finite = tg.EllipticCurveBase(r), tg.FiniteSurfaceBase(k + 1)
    type2, type3 = tg.TypeII(r), tg.TypeIII(k)
    ops = []

    def add(kind, args, text, code=0):
        ops.append(_cli_op(kind, args, text, code, root, env))

    for fam in (elliptic, type3):
        spec = tg.family_spec(fam)
        add("generate", [spec], _to_json(tg, tg.family_tables(fam), spec))
    add("generate", [tg.family_spec(finite), "--format", "grid"],
        tg.render_tables(tg.family_tables(finite)))

    fib = product_tables(tg.family_tables(finite), g, CLI_POWER)
    deg = product_tables(tg.family_tables(type2), g, CLI_POWER)
    fib_set = tg.tables_to_json_obj(fib)
    rep = tg.check_sequence(templates["mirror-cs"], fib)
    add("check", [_write(workdir, "check-pass.json",
                         {"template": "mirror-cs", "tables": [fib_set]})],
        tg.canonical_json(rep.to_json_obj()), 0 if rep.passed else 1)
    bad = dict(deg)
    bad["Xlim"] = bumped(deg["Xlim"], rng.choice(sorted(deg["Xlim"].entries)))
    rep = tg.check_sequence(templates["cs"], bad)
    add("check", [_write(workdir, "check-fail.json",
                         {"template": "cs", "tables": [tg.tables_to_json_obj(bad)]})],
        tg.canonical_json(rep.to_json_obj()), 0 if rep.passed else 1)

    known = {t: tab for t, tab in fib.items() if t != "U"}
    add("solve", [_write(workdir, "solve-full.json",
                         {"template": "loc1", "unknown": "U",
                          "tables": [tg.tables_to_json_obj(known)]})],
        *_solve_output(tg, tg.solve_unknown(templates["loc1"], known, "U")))
    degree = rng.choice(range(*deg["Xlim"].space.degree_range()))
    add("solve", [_write(workdir, "solve-degree.json",
                         {"template": "cs", "unknown": {"space": "Xlim", "k": degree},
                          "tables": [tg.tables_to_json_obj(deg)]})],
        *_solve_output(tg, tg.solve_unknown(templates["cs"], deg, ("Xlim", degree))))

    rep = tg.stability_check(tg.MirrorPair.from_families(elliptic, type2), mu)
    add("mirror", ["--fibration", tg.family_spec(elliptic),
                   "--degeneration", tg.family_spec(type2), "--mu", str(mu)],
        tg.canonical_json(rep.to_json_obj()), 0 if rep.passed else 1)
    add("basechange", ["--topology", "chain", "--components", str(comps), "--mu", str(mu)],
        tg.canonical_json(tg.base_change(tg.chain_counts(comps), mu).to_json_obj()))
    add("basechange", ["--topology", "sphere", "--triple-points", str(2 * k), "--mu", str(mu)],
        tg.canonical_json(tg.base_change(tg.type_iii_counts(2 * k), mu).to_json_obj()))
    return Prepared(ops)


SETUPS = {
    "sweep": setup_sweep,
    "solve-products": setup_solve_products,
    "cli": setup_cli,
}
