#!/usr/bin/env python3
"""The benchmark's own self-test, at smoke size (about 20 s once built).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * BENCHMARK.json has the expected keys, and its names, units, bounds and
    workload descriptions keep to their length and character limits;
  * for every workload, `--trace 0` prints exactly the end-to-end metrics and
    `--trace 1` exactly the per-layer metrics of BENCHMARK.json, each with its
    unit, with correct=true and no failed cell;
  * the sim.* metrics repeat exactly across two runs with the same seed;
  * the per-layer time fractions plus core.unattributed_frac sum to 1;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.

Smoke runs are a few tiny epochs: their figures are meaningless, only their
shape and determinism are tested. Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Time fractions of the layer split; runner.busy_frac is pool utilisation,
# not part of it.
SPLIT_EXCLUDE = {"runner.busy_frac", "core.unattributed_frac"}

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def run(args, script=RUN):
    proc = subprocess.run([sys.executable, script] + args, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def check_spec(spec):
    check(sorted(spec) == ["command", "end_to_end", "paths", "per_layer", "run_seconds",
                           "workloads"], "BENCHMARK.json has exactly the expected keys")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in [1, 60]")
    check(all(not p.startswith("/") and ".." not in p.split("/") and os.path.isdir(
        os.path.join(ROOT, p)) for p in spec["paths"]), "paths are relative directories")
    check(2 <= len(spec["workloads"]) <= 8 and all(
        sorted(w) == ["name", "why"] and NAME.match(w["name"]) and len(w["why"]) <= 200
        and "\n" not in w["why"] for w in spec["workloads"]), "workloads are well-formed")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
          "metric names are valid and unique")
    check(all(sorted(m) == ["better", "bound", "name", "unit"] and UNIT.match(m["unit"])
              and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
              for m in spec["end_to_end"]), "end-to-end metrics are well-formed")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]), "setup_s is an end-to-end metric")
    check(all(sorted(m) == ["better", "name", "unit"] and UNIT.match(m["unit"])
              and m["better"] in ("lower", "higher") for m in spec["per_layer"]),
          "per-layer metrics are well-formed")


def check_metrics(result, expected, label):
    if result is None:
        check(False, f"{label}: prints a JSON result")
        return
    check(result.get("correct") is True and result.get("failed") == 0
          and result.get("attempted", 0) >= 1, f"{label}: correct, no failed cell")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    check(got == want, f"{label}: every named metric present with its unit")
    check(all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()),
          f"{label}: every value is a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--smoke"]
        code, first = run(base + ["--trace", "0"])
        check(code == 0, f"{workload}: --trace 0 exits 0")
        check_metrics(first, spec["end_to_end"], f"{workload} --trace 0")
        code, second = run(base + ["--trace", "0"])
        if first and second:
            sim = [n for n in first["metrics"] if n.startswith("sim.")]
            check(sim and all(first["metrics"][n]["value"] == second["metrics"][n]["value"]
                              for n in sim), f"{workload}: sim.* repeat exactly across runs")
        code, traced = run(base + ["--trace", "1"])
        check(code == 0, f"{workload}: --trace 1 exits 0")
        check_metrics(traced, spec["per_layer"], f"{workload} --trace 1")
        if traced:
            metrics = traced["metrics"]
            split = sum(m["value"] for n, m in metrics.items()
                        if n.endswith("frac") and n not in SPLIT_EXCLUDE)
            total = split + metrics["core.unattributed_frac"]["value"]
            check(abs(total - 1.0) < 1e-9,
                  f"{workload}: layer fractions + core.unattributed_frac = {total:.12f}")

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None, "without the sources: non-zero exit, no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
