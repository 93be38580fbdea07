#!/usr/bin/env python3
"""Alternating pairs of two builds of the repository benchmark.

Runs a parent and a change binary of `benchmark/` (the `crafty-benchmark`
executable) in alternating pairs, a fresh `--seed` per pair, each run under
`setarch -R` (ASLR off) with an empty environment, and prints for every
end-to-end metric of `BENCHMARK.json`: each side's median and quartiles,
the change against the parent, the pairs the change won and a verdict.

The verdict follows the pair rule for claiming a gain: the change wins at
least nine tenths of the pairs (ties count for neither side) and the two
medians differ by more than the parent's interquartile range. A change
median worse than the parent's by more than the metric's bound in
`BENCHMARK.json` reads `WORSE`. When the parent's interquartile range is
wider than the bound, anything else reads `unresolved`, unless every run of
the change is better than every run of the parent.

Build each side once, in checkouts whose paths have the same length, and
copy both binaries before the first run (a binary's file and its build
path move `rss_mb` and placement):

    scripts/bench_pairs.py --parent /path/parent-bin --change /path/change-bin \\
        --workload kv-update --pairs 10 --seconds 22 --seed 101

`--control BIN` adds a third side to every pair: the parent with a no-op
edit to a cold path (a dropped `Debug` field, say), built the same way. It
runs in the same alternation, and beside each verdict the report prints
how far the control's median sits from the parent's: the placement floor,
what a change that does nothing moves the metric by.

Every run's output is appended to `--log` (JSON lines) as it finishes.
Exits 1 if a run fails or reports a failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_metrics(path):
    with open(path) as f:
        spec = json.load(f)
    return spec["end_to_end"]


def run_once(binary, workload, seed, seconds):
    cmd = ["env", "-i", "setarch", "x86_64", "-R", binary,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.exit(f"{' '.join(cmd)}: incorrect run or failed operations: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric, parent, change):
    better = metric["better"]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    iqr = pq3 - pq1
    gap = sign * (cmed - pmed)
    bound = metric["bound"] * pmed
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins * 10 >= 9 * len(parent) and gap > iqr:
        word = "GAIN"
    elif -gap > bound:
        word = "WORSE"
    elif iqr > bound and not every_run_better:
        word = "unresolved"
    else:
        word = "no worse"
    return wins, losses, iqr, word


def relative(median, parent_median):
    return (median / parent_median - 1) * 100 if parent_median else float("nan")


def report(workload, metrics, runs):
    print(f"\n{workload}: {len(runs)} pairs")
    print(f"{'metric':<10} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'change':>8} {'won':>6} {'verdict':>10}")
    control = "control" in runs[0]
    for m in metrics:
        name = m["name"]
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        wins, losses, iqr, word = verdict(m, parent, change)
        floor = ""
        if control:
            kmed = statistics.median(r["control"][name] for r in runs)
            floor = f", control {relative(kmed, pmed):+.2f}%"
        print(f"{name:<10} {pmed:>12.5g} [{pq1:.5g}, {pq3:.5g}]".ljust(45)
              + f" {cmed:>12.5g} [{cq1:.5g}, {cq3:.5g}]".ljust(35)
              + f" {relative(cmed, pmed):>+7.2f}% {wins:>2}/{len(runs):<3} {word:>10}"
              + f"  (parent IQR {iqr:.4g}, {losses} lost{floor})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent benchmark binary")
    ap.add_argument("--change", required=True, help="change benchmark binary")
    ap.add_argument("--control",
                    help="parent binary with a no-op cold-path edit: the placement floor")
    ap.add_argument("--workload", required=True,
                    help="workload name, or a comma-separated list")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--log", help="append every run as a JSON line here")
    args = ap.parse_args()

    metrics = load_metrics(args.spec)
    binaries = {"parent": args.parent, "change": args.change}
    if args.control:
        binaries["control"] = args.control
    sides = list(binaries)
    for workload in args.workload.split(","):
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            # Two sides swap every pair; three take turns at going first.
            order = sides[i % len(sides):] + sides[:i % len(sides)]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(binaries[side], workload, seed, args.seconds)
            runs.append(pair)
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps(pair) + "\n")
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{m['name']} " + " -> ".join(f"{pair[side][m['name']]:.5g}" for side in sides)
                for m in metrics), flush=True)
        report(workload, metrics, runs)


if __name__ == "__main__":
    main()
