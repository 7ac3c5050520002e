#!/usr/bin/env python3
"""Run one workload of the benchmark N times and print, for every metric,
the median, the quartiles and the spread (interquartile range over the
median), as Python's statistics.quantiles(values, n=4) gives them.

    python3 perfbench/steady.py --workload run-heavy --runs 10
    python3 perfbench/steady.py --workload run-heavy --runs 10 --other ../parent

With --other, the same runs are made in a second checkout too, in pairs
that alternate which build goes first; the table then holds both sides
and, per metric, how many pairs the second build won.  Run i uses seed
first_seed + i on both sides, and every run lasts BENCHMARK.json's
run_seconds.  A run whose metrics differ from BENCHMARK.json's stops the
command.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BETTER = {}
EXPECTED = {}


def load_spec(checkout):
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"] + spec["per_layer"]:
        BETTER[m["name"]] = m["better"]
    EXPECTED[0] = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    EXPECTED[1] = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    return spec["run_seconds"]


def run_once(checkout, args, seed):
    cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if sorted(printed) != sorted(EXPECTED[args.trace]):
        sys.exit(f"{checkout}: the metrics printed differ from BENCHMARK.json's")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--other", type=Path, help="a second checkout to compare against")
    args = p.parse_args()
    here = Path(__file__).resolve().parent.parent
    args.seconds = load_spec(here)
    sides = [here] + ([args.other.resolve()] if args.other else [])
    results = {s: [] for s in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        for s in order:
            results[s].append(run_once(s, args, seed))
        print(f"run {i + 1}/{args.runs} (seed {seed}) done", file=sys.stderr)

    for s in sides:
        rs = results[s]
        failed = [r["failed"] / r["attempted"] for r in rs]
        print(f"== {s}  correct: {all(r['correct'] for r in rs)}  "
              f"failed share per run: {sorted(set(failed))}")
    names = list(results[here][0]["metrics"])
    header = f"{'metric':28} {'unit':10} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}"
    if args.other:
        header += f" {'other median':>14} {'change':>8} {'other won':>9}"
    print(header)
    for name in names:
        unit = results[here][0]["metrics"][name]["unit"]
        a = [r["metrics"][name]["value"] for r in results[here]]
        med, q1, q3, spread = summary(a)
        line = f"{name:28} {unit:10} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}"
        if args.other:
            b = [r["metrics"][name]["value"] for r in results[args.other.resolve()]]
            bmed = summary(b)[0]
            lower = BETTER.get(name, "lower") == "lower"
            won = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
            change = (bmed - med) / med if med else float("nan")
            line += f" {bmed:14.6g} {change:8.4f} {won:4}/{len(a)}"
        print(line)


if __name__ == "__main__":
    main()
