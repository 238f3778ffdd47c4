#!/usr/bin/env python3
"""Checks that each single-cell workload runs the same cell as the CLI.

    python3 perfbench/cli_match.py [--seed N] [--smoke]

Run from the repository root. For each single-cell workload it runs the
untraced benchmark, then
`experiments --scenario SPEC --trials N --seed S --threads 1 --json FILE`
with the benchmark's own spec and trial count, and compares the two results
files once the timing fields (`elapsed_ms`, `trial_elapsed_ms`) are removed.
Exits 1 on any difference.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HEADER = re.compile(r"^workload (\S+) \((.+)\): 1 cell\(s\) x (\d+) trials, seed (\d+)", re.M)
RESULTS = re.compile(r"^results file (.+)$", re.M)


def strip_timing(doc):
    for cell in doc["cells"]:
        cell.pop("elapsed_ms", None)
        cell.pop("trial_elapsed_ms", None)
    return doc


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=20170725)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    failed = False
    for workload in ["bcast_rgg", "le_grid", "decay_dense"]:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(args.seed)]
        out = subprocess.run(cmd + (["--smoke"] if args.smoke else []), capture_output=True, text=True, check=True)
        _, spec, trials, seed = HEADER.search(out.stdout).groups()
        bench_file = RESULTS.search(out.stdout).group(1)
        cli_file = bench_file.replace(".json", "-cli.json")
        subprocess.run(
            ["cargo", "run", "--release", "--quiet", "-p", "rn_bench", "--bin", "experiments", "--",
             "--scenario", spec, "--trials", trials, "--seed", seed, "--threads", "1",
             "--json", cli_file, "--no-table"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        with open(bench_file) as a, open(cli_file) as b:
            same = strip_timing(json.load(a)) == json.load(b)
        print(f"{workload}: {spec} x {trials} trials, seed {seed}: {'match' if same else 'DIFFER'}")
        failed |= not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
