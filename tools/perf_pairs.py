#!/usr/bin/env python3
"""Same-host speed gate: the repository benchmark on a base tree and a change.

Usage:

    python3 tools/perf_pairs.py BASE_TREE CHANGE_TREE

Both arguments are checkouts of the repository (CI makes BASE_TREE with
`git worktree add` at the base commit). For every workload in the base
tree's BENCHMARK.json, `perfbench/run.py --trace 0` runs on both trees in
PAIRS alternating pairs: the tree that runs first swaps every pair, and both
runs of pair i use seed i + 1. Each tree builds under its own `.bench_build/`.
A metric is unresolved while the base's interquartile range (IQR) is wider
than its bound, or its median ratio lies within one IQR of the bound; the
workload then runs one more pair at a time, up to MAX_PAIRS, before it is
ruled (`rule`). The table on stdout gives, per (workload, end-to-end metric),
both medians, their ratio, the base IQR, the pairs run, the smallest worse
ratio the base spread can resolve, and the verdict. The metrics, their
`better` directions and their bounds come from the base's BENCHMARK.json, so
a change cannot loosen the gate it is judged by; no bound is widened and no
metric dropped.

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
# the traced run, take about 15 minutes on a 4-vCPU runner; each extra pair
# an unresolved workload runs adds about 40 s.
PAIRS = 5
MAX_PAIRS = 15
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


def rule(metric, base, change):
    """The ruling on one metric from its base and change samples.

    Returns a dict: `worse` when the change median is worse than the base's
    by more than the bound; `unresolved` when the base IQR (`spread`)
    exceeds the bound or the median `ratio` lies within one IQR of the
    bound, so more pairs are needed before either verdict holds;
    `resolvable`, the smallest worse change/base ratio the spread can tell
    from noise; and `verdict`, "WORSE", "unresolved" or "ok" in that order.
    """
    bound, lower = metric["bound"], metric["better"] == "lower"
    base_median, change_median = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = q3 - q1
    ratio = change_median / base_median if base_median else float("nan")
    relative = spread / abs(base_median) if base_median else float("inf")
    limit = 1 + bound if lower else 1 - bound
    worse = (change_median > base_median * limit if lower
             else change_median < base_median * limit)
    unresolved = relative > bound or abs(ratio - limit) <= relative
    return {"worse": worse, "unresolved": unresolved, "ratio": ratio, "spread": spread,
            "resolvable": 1 + relative if lower else max(0.0, 1 - relative),
            "verdict": "WORSE" if worse else "unresolved" if unresolved else "ok"}


def samples(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def run_pairs(metrics, run_pair):
    """Runs PAIRS pairs, then one more at a time while any metric is
    unresolved, up to MAX_PAIRS. run_pair(i) returns pair i's (base result,
    change result); the lists of base and change results are returned."""
    base, change = [], []
    while len(base) < PAIRS or (len(base) < MAX_PAIRS and any(
            rule(m, samples(base, m["name"]), samples(change, m["name"]))["unresolved"]
            for m in metrics)):
        pair = run_pair(len(base))
        base.append(pair[0])
        change.append(pair[1])
    return base, change


def failed_share(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(spec, base_tree, change_tree):
    """Runs the pairs; prints the table and returns the failure messages."""
    failures = []
    print("| workload | metric | base median | change median | change/base | base IQR "
          "| pairs | resolves | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload in [w["name"] for w in spec["workloads"]]:
        def run_pair(pair, workload=workload):
            sides = [("base", base_tree), ("change", change_tree)]
            out = {}
            for side, tree in sides if pair % 2 == 0 else reversed(sides):
                out[side] = run(tree, workload, pair + 1, 0)
                print(f"perf_pairs: {workload} pair {pair + 1} {side}: "
                      f"wall_s {out[side]['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
            return out["base"], out["change"]

        base_runs, change_runs = run_pairs(spec["end_to_end"], run_pair)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, change = samples(base_runs, name), samples(change_runs, name)
            ruling = rule(metric, base, change)
            base_median, change_median = statistics.median(base), statistics.median(change)
            print(f"| {workload} | {name} | {base_median:.6g} | {change_median:.6g} "
                  f"| {ruling['ratio']:.3f} | {ruling['spread']:.3g} | {len(base)} "
                  f"| {ruling['resolvable']:.3f} | {metric['bound']} | {ruling['verdict']} |")
            if ruling["worse"]:
                failures.append(f"{workload} {name}: change median {change_median:.6g} is "
                                f"worse than base {base_median:.6g} by more than "
                                f"{metric['bound']:.0%} ({metric['better']} is better)")
        base_share, change_share = failed_share(base_runs), failed_share(change_runs)
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
