#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload load|serve_mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
(the first run of a fresh checkout compiles the whole library), runs it,
and relays its output; the last line of standard output is the result
JSON.  Result and span files go to .perfbench/ in the checkout.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("load", "serve_mixed")
OUT_DIR = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        die("run from the root of a natix checkout (dune-project and lib/ missing)")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./perfbench/bench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=880,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die(f"build failed (exit {proc.returncode})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT_DIR,
    ]
    # A failing request dumps the store's flight ring; keep it with the results.
    env = dict(os.environ, NATIX_FLIGHT_PATH=os.path.join(OUT_DIR, "natix-flight.jsonl"))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175, env=env)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
