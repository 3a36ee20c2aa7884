#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute after the build).

    python3 perfbench/selftest.py

Run it from the repository root. It checks that:
  - every metric BENCHMARK.json names is printed, with its unit, by the run
    of each workload with --trace 0 (end-to-end) and --trace 1 (per-layer);
  - every rep's output check passes (correct, failed == 0);
  - the P = 1 fib(27) sync-op counts repeat exactly across two processes:
    ws makes 317,810 pushes and 635,620 fences, uslcws 0 fences;
  - a run with a perturbing knob such as LCWS_NO_PARKING set is refused.
Exits 1 and names each failed check otherwise.
"""
import json
import os
import pathlib
import subprocess
import sys

import run

ROOT = run.HERE.parent
FIB27_PUSHES = 317810
FIB27_WS_FENCES = 635620


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    binary = str(run.build(build_dir))
    problems = []

    def call(*args):
        out = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                             text=True, timeout=run.RUN_TIMEOUT_S, check=True)
        return json.loads(out.stdout.strip().split("\n")[-1])

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = call("--workload", w["name"], "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
            where = f"{w['name']} --trace {trace}"
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{where}: correct={r['correct']} "
                                f"failed={r['failed']}/{r['attempted']}")
            for m in spec[key]:
                got = r["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{where}: {m['name']} missing")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit "
                                    f"{got.get('unit')} != {m['unit']}")

    first, second = call("--counts"), call("--counts")
    if first != second:
        problems.append(f"P=1 counts differ between runs: {first} {second}")
    for sched, c in first.items():
        if c["pushes"] != FIB27_PUSHES:
            problems.append(f"{sched}: {c['pushes']} pushes")
    if first["ws"]["fences"] != FIB27_WS_FENCES:
        problems.append(f"ws: {first['ws']['fences']} fences")
    if first["uslcws"]["fences"] != 0:
        problems.append(f"uslcws: {first['uslcws']['fences']} fences")

    refused = subprocess.run(
        [binary, "--workload", "spawn_fine", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--tiny"], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env={**os.environ, "LCWS_NO_PARKING": "1"},
        timeout=run.RUN_TIMEOUT_S)
    if refused.returncode == 0 or refused.stdout:
        problems.append("ran with LCWS_NO_PARKING set")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "OK")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
