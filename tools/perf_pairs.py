#!/usr/bin/env python3
"""Same-host speed gate: the repository benchmark on a base tree and a change.

Usage:

    python3 tools/perf_pairs.py BASE_TREE CHANGE_TREE

Both arguments are checkouts of the repository (CI makes BASE_TREE with
`git worktree add` at the base commit). For every workload in the base
tree's BENCHMARK.json, `perfbench/run.py --trace 0` runs on both trees in
PAIRS alternating pairs: the tree that runs first swaps every pair, and both
runs of pair i use seed i + 1. Each tree builds under its own `.bench_build/`.
The table on stdout gives, per (workload, end-to-end metric), both medians,
their ratio and the base's interquartile range; a metric whose base IQR is
wider than its bound is marked unresolved. The metrics, their `better`
directions and their bounds come from the base's BENCHMARK.json, so a change
cannot loosen the gate it is judged by.

Then one `--trace 1` sharded-cell run on the change must read
`core.shard_speedup` >= SHARD_SPEEDUP_FLOOR. The floor is skipped when the
host has fewer than 4 CPUs, where the workload's four shards cannot all run
at once.

Exits 1 when a change median is worse than the base's by more than the
metric's bound, when the change's failed/attempted cell share grows, or when
the shard-speedup floor is missed; exits 2 when a benchmark run fails.
"""

import json
import os
import statistics
import subprocess
import sys

# Five pairs of 20-second runs over the three workloads, plus both builds and
# the traced run, take about 15 minutes on a 4-vCPU runner.
PAIRS = 5
SECONDS = 20
SHARD_SPEEDUP_FLOOR = 2.0
SHARD_MIN_CPUS = 4


def fail(message):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def run(tree, workload, seed, trace):
    """One run.py invocation; its result object (build output passes through)."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{' '.join(command)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def is_worse(metric, base, change):
    if metric["better"] == "lower":
        return change > base * (1 + metric["bound"])
    return change < base * (1 - metric["bound"])


def failed_share(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(spec, base_tree, change_tree):
    """Runs the pairs; prints the table and returns the failure messages."""
    failures = []
    print("| workload | metric | base median | change median | change/base | base IQR "
          "| bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in [w["name"] for w in spec["workloads"]]:
        results = {"base": [], "change": []}
        for pair in range(PAIRS):
            sides = [("base", base_tree), ("change", change_tree)]
            for side, tree in sides if pair % 2 == 0 else reversed(sides):
                result = run(tree, workload, pair + 1, 0)
                results[side].append(result)
                print(f"perf_pairs: {workload} pair {pair + 1}/{PAIRS} {side}: "
                      f"wall_s {result['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in results["base"]]
            change = [r["metrics"][name]["value"] for r in results["change"]]
            base_median = statistics.median(base)
            change_median = statistics.median(change)
            ratio = change_median / base_median if base_median else float("nan")
            worse = is_worse(metric, base_median, change_median)
            # A base spread wider than the bound cannot show a regression of
            # the bound's size; the metric passes but is reported unresolved.
            q1, _, q3 = statistics.quantiles(base, n=4)
            spread = q3 - q1
            verdict = ("WORSE" if worse else
                       "unresolved" if spread > metric["bound"] * abs(base_median) else "ok")
            print(f"| {workload} | {name} | {base_median:.6g} | {change_median:.6g} "
                  f"| {ratio:.3f} | {spread:.3g} | {metric['bound']} | {verdict} |")
            if worse:
                failures.append(f"{workload} {name}: change median {change_median:.6g} is "
                                f"worse than base {base_median:.6g} by more than "
                                f"{metric['bound']:.0%} ({metric['better']} is better)")
        base_share, change_share = failed_share(results["base"]), failed_share(results["change"])
        if change_share > base_share:
            failures.append(f"{workload}: the failed cell share grew from {base_share:.2%} "
                            f"to {change_share:.2%}")
    return failures


def check_shard_speedup(change_tree):
    """The host-relative floor on one traced sharded-cell run of the change."""
    cpus = os.cpu_count() or 1
    if cpus < SHARD_MIN_CPUS:
        print(f"perf_pairs: shard-speedup floor skipped (nproc={cpus} < {SHARD_MIN_CPUS})")
        return []
    speedup = run(change_tree, "sharded-cell", 1, 1)["metrics"]["core.shard_speedup"]["value"]
    print(f"perf_pairs: sharded-cell core.shard_speedup {speedup:.2f}x "
          f"(floor {SHARD_SPEEDUP_FLOOR}x)")
    if speedup < SHARD_SPEEDUP_FLOOR:
        return [f"sharded-cell core.shard_speedup: {speedup:.2f}x is below the "
                f"{SHARD_SPEEDUP_FLOOR}x floor"]
    return []


def main():
    if len(sys.argv) != 3:
        fail("usage: perf_pairs.py BASE_TREE CHANGE_TREE")
    base_tree, change_tree = (os.path.abspath(tree) for tree in sys.argv[1:])
    with open(os.path.join(base_tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = compare(spec, base_tree, change_tree) + check_shard_speedup(change_tree)
    for failure in failures:
        print(f"perf_pairs: FAIL {failure}")
    if failures:
        sys.exit(1)
    print("perf_pairs: ok")


if __name__ == "__main__":
    main()
