#!/usr/bin/env python3
"""Repeat mode: run each workload several times, one seed per run, and
report each end-to-end metric's median, quartiles and spread.

    python3 perfbench/repeat.py --runs 10 --seconds 20
    python3 perfbench/repeat.py --workload cli --runs 5 --first-seed 100

The spread of a metric is the distance between its first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of its median;
it is printed beside the metric's regression bound from BENCHMARK.json.
The runs are separate processes, started one at a time.  ``--baseline
FILE`` also writes the figures as JSON, with the label given by
``--label``, the number of processors and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]],
                    help="workload to run (repeatable; default: every workload)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--baseline", type=Path, help="write the figures to this JSON file")
    ap.add_argument("--label", default="", help="what was measured, for the baseline")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    figures: dict[str, dict] = {}
    all_correct = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        all_correct &= all(r["correct"] for r in runs)
        figures[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: dict(summarize([r["metrics"][name]["value"] for r in runs]),
                                   unit=runs[0]["metrics"][name]["unit"])
                        for name in bounds},
        }
        print(f"{workload}: {args.runs} runs of {args.seconds} s, "
              f"{figures[workload]['failed']}/{figures[workload]['attempted']} failed")
        for name, fig in figures[workload]["metrics"].items():
            mark = "" if name == "setup_s" or fig["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"  {name:12s} median {fig['median']:12.4f} {fig['unit']:5s} "
                  f"q1 {fig['q1']:12.4f} q3 {fig['q3']:12.4f} "
                  f"spread {fig['spread']:.4f} bound {bounds[name]}{mark}")
    if args.baseline:
        args.baseline.write_text(json.dumps({
            "label": args.label,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "runs": args.runs,
            "first_seed": args.first_seed,
            "seconds": args.seconds,
            "workloads": figures,
        }, indent=2, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
