#!/usr/bin/env python3
"""Benchmark of trigrade, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``sweep`` checks every builtin family and
mirror pair, ``solve-products`` re-solves deleted tables of Kunneth
products, ``cli`` runs ``python -m trigrade.cli`` processes one at a time;
``all`` runs the three in turn.  Everything runs in this one process and
thread, in a closed loop with one client.

With ``--trace 0`` a workload is set up several times (fresh import of
trigrade plus input generation; the median is ``setup_s``), then its
operations run in whole passes, each in a seeded shuffled order, until
``--seconds`` have passed.
Every output is checked; the end-to-end metrics are printed by name and
unit.  With ``--trace 1`` every workload runs in whole passes in which
each op runs twice, back to back: untraced, and recording spans around
each call into trigrade.  The per-layer metrics come from the spans, which
are written to ``.perfbench/trace-*.json``, and the tracing overhead is the
difference in mean op latency between the two runs.  Each layer is measured on
the workload that exercises it, so a traced run covers every workload
whatever ``--workload`` names.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed, even if outputs were wrong (``correct`` says so),
and 2 when trigrade cannot be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(HERE)]

from spans import NullTracer, Tracer  # noqa: E402
from workloads import SETUPS, cli_env, run_process  # noqa: E402

SETUP_REPEATS = 21
PROBE_REPEATS = 5
MAX_REPORTED_ERRORS = 5


def fresh_import():
    """Import trigrade from this checkout's src, dropping any earlier import
    so that every set-up pays for it."""
    for name in [m for m in sys.modules if m == "trigrade" or m.startswith("trigrade.")]:
        del sys.modules[name]
    tg = importlib.import_module("trigrade")
    if Path(tg.__file__).resolve().parent != SRC / "trigrade":
        raise ImportError(f"trigrade imported from {tg.__file__}, not from {SRC}")
    return tg


class Tally:
    """Attempted and failed operations and input checks, with the first few
    error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:MAX_REPORTED_ERRORS - len(self.errors)])


def prepare(name, seed, workdir, repeats):
    """Set the workload up ``repeats`` times; the last set-up is used."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        tg = fresh_import()
        prepared = SETUPS[name](tg, random.Random(seed), str(workdir))
        times.append(perf_counter() - start)
    return prepared, statistics.median(times)


def run_input_checks(prepared, tally):
    for check in prepared.input_checks:
        try:
            errors = check()
        except Exception as exc:  # a crash in the program counts as a failure
            errors = [f"input check raised {exc!r}"]
        tally.record(errors)


def measure(ops, tracers, seconds, rng, tally):
    """Run the operations in whole passes, each in a fresh shuffled order,
    until ``seconds`` have passed (at least one pass).  Every pass holds the
    same operations, so runs of any length measure the same mix.  Each op
    runs once under every tracer given, back to back and in alternating
    order, so that an untraced and a traced run of one input see the same
    machine.  Returns, per tracer, (kind, latency in s) per completed op,
    and the number of passes."""
    latencies = [[] for _ in tracers]
    runs = list(zip(tracers, latencies))
    order = list(range(len(ops)))
    passes = 0
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        rng.shuffle(order)
        for i in order:
            op = ops[i]
            runs.reverse()
            for tr, lat in runs:
                tr.op = tally.attempted
                try:
                    start = perf_counter()
                    out = tr.call(f"op.{op.kind}", op.run, tr)
                    elapsed = perf_counter() - start
                    errors = op.check(out)
                except Exception as exc:  # a crash in the program counts as a failure
                    tally.record([f"{op.kind}: raised {exc!r}"])
                    continue
                tally.record(errors)
                lat.append((op.kind, elapsed))
                if tr.enabled and op.probe is not None:
                    op.probe(tr, out)
        passes += 1
    return latencies, passes


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(name, seed, seconds, workdir, tally) -> tuple[dict, int]:
    prepared, setup_s = prepare(name, seed, workdir, SETUP_REPEATS)
    run_input_checks(prepared, tally)
    (lat,), _ = measure(prepared.ops, [NullTracer()], seconds, random.Random(seed), tally)
    times = [s for _kind, s in lat]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(children=name == "cli"), "MB"),
    }, len(times)


# -- per-layer metrics from a traced run ------------------------------------

def _ms(st, name):
    return statistics.fmean(st[name]) * 1e3


def sweep_layers(tr, passes) -> dict:
    st, c = tr.self_times(), tr.counters
    out = {
        "catalog.family_tables.calls": (len(st["catalog.family_tables"]) / passes, "count"),
        "tables.to_json.bytes": (c["tables.to_json.bytes"] / passes, "B"),
        "checks.entries": (c["checks.entries"] / passes, "count"),
        "sequences.lanes": (c["sequences.lanes"] / passes, "count"),
        "sequences.lane_entries": (c["sequences.lane_entries"] / passes, "count"),
        "sequences.exactness_est.ms": (
            _ms(st, "sequences.check_sequence") - _ms(st, "sequences.extract_lanes"), "ms"),
    }
    for name in ("catalog.family_tables", "tables.to_json", "tables.from_json",
                 "render.grid_roundtrip", "checks.validate_table",
                 "checks.hard_lefschetz_check", "checks.check_subvariety_constraints",
                 "sequences.extract_lanes", "sequences.check_sequence",
                 "mirror.mirror_check", "mirror.stability_check"):
        out[f"{name}.ms"] = (_ms(st, name), "ms")
    return out


def solve_layers(tr, passes) -> dict:
    st, c = tr.self_times(), tr.counters
    return {
        "solver.solve_full.ms": (_ms(st, "solver.solve_full"), "ms"),
        "solver.solve_degree.ms": (_ms(st, "solver.solve_degree"), "ms"),
        "solver.support_box.ms": (_ms(st, "solver.support_box"), "ms"),
        "solver.box_cells": (c["solver.box_cells"] / passes, "count"),
        "solver.iterations": (c["solver.iterations"] / c["solver.solves"], "count"),
        "solver.lane_sweeps": (c["solver.lane_sweeps"] / passes, "count"),
        "solver.determined_ratio": (c["solver.determined_cells"] / c["solver.box_cells"], "ratio"),
        "solver.open_cells": (c["solver.open_cells"] / passes, "count"),
    }


def cli_layers(tr, passes) -> dict:
    env = cli_env(str(ROOT))
    for _ in range(PROBE_REPEATS):
        tr.call("cli.interpreter", run_process, ["-c", "pass"], str(ROOT), env)
        tr.call("cli.import", run_process, ["-c", "import trigrade.cli"], str(ROOT), env)
    st = tr.self_times()
    out = {"cli.interpreter_ms": (statistics.median(st["cli.interpreter"]) * 1e3, "ms"),
           "cli.import_ms": (statistics.median(st["cli.import"]) * 1e3, "ms")}
    for kind in ("generate", "check", "solve", "mirror", "basechange"):
        out[f"cli.process_ms.{kind}"] = (statistics.median(st[f"op.{kind}"]) * 1e3, "ms")
    return out


LAYERS = {"sweep": sweep_layers, "solve-products": solve_layers, "cli": cli_layers}


def traced(seed, seconds, workdir, tally) -> dict:
    """Every workload in whole passes for about seconds / 3 each (at least
    one pass), every op run untraced and traced.  The per-layer metrics of
    each layer come from the workload that exercises it."""
    metrics = {}
    for name in SETUPS:
        prepared, _ = prepare(name, seed, workdir, 1)
        run_input_checks(prepared, tally)
        tr = Tracer()
        (plain, spanned), passes = measure(
            prepared.ops, [NullTracer(), tr], seconds / len(SETUPS), random.Random(seed), tally)
        metrics.update(LAYERS[name](tr, passes))
        overhead = (statistics.fmean(s for _k, s in spanned)
                    / statistics.fmean(s for _k, s in plain) - 1) * 100
        metrics[f"trace.overhead_pct.{name}"] = (overhead, "%")
        tr.write(OUT / f"trace-{name}-seed{seed}.json")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*SETUPS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        fresh_import()
    except ImportError as exc:
        print(f"error: cannot import trigrade from {SRC}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(args.seed, args.seconds, workdir, tally)
            rows = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
        else:
            names = list(SETUPS) if args.workload == "all" else [args.workload]
            metrics, rows = {}, []
            for name in names:
                before = (tally.attempted, tally.failed)
                found, samples = end_to_end(name, args.seed, args.seconds, workdir, tally)
                attempted, failed = (tally.attempted - before[0], tally.failed - before[1])
                found["error_rate"] = (failed / attempted, "ratio")
                prefix = "" if len(names) == 1 else f"{name}."
                for metric, (value, unit) in found.items():
                    note = {"op_p50_ms": f"n={samples}", "op_p90_ms": f"n={samples}",
                            "error_rate": f"{failed}/{attempted}"}.get(metric, "")
                    rows.append((f"{prefix}{metric}", value, unit, note))
                    if metric != "error_rate":
                        metrics[f"{prefix}{metric}"] = (value, unit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    width = max(len(name) for name, *_ in rows)
    for name, value, unit, note in rows:
        print(f"{name:{width}s}  {value:14.6f} {unit:6s} {note}".rstrip())
    for error in tally.errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
