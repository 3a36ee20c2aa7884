#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs it once.

    python3 perfbench/run.py --workload spawn_fine --seed 1 --seconds 35 --trace 0

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Each run also
writes its provenance, result and spans to results/ under that directory.
The last line on stdout is the result object; build output goes to stderr.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
# The binary's own limit; with the build check the run stays under 180 s.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then (re)builds the perfbench binary; returns it."""
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "3"],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["spawn_fine", "pbbs_mix", "skew_rounds"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = pathlib.Path(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(results)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: exited with code {proc.returncode}")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: the last line is not a result object")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
