#!/usr/bin/env python3
"""Runs the untraced benchmark several times per workload and records the spread.

    python3 perfbench/record.py [--runs 10] [--first-seed 1] [--workloads a,b] [--out FILE]

Run from the repository root. Rounds are interleaved (every workload once
per seed, then the next seed), so a slow phase of a shared host shows up in
all workloads of a round rather than in one workload's runs. For each
end-to-end metric it reports the median and quartiles over the runs, as
`statistics.quantiles(values, n=4)` gives them, and the spread: the
quartile distance as a share of the median, next to the metric's bound from
BENCHMARK.json. Per run it also lists the host-noise readings each run
prints outside its metrics. Writes markdown to --out (default: standard
output) and exits 1 when a run fails or a spread other than setup_s
exceeds its bound.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
NOISE = re.compile(r"worker run-queue wait ([\d.]+|n/a)( ms)?, host steal ([\d.]+|n/a)")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - started
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    noise = NOISE.search(out.stdout)
    runq, steal = (noise.group(1), noise.group(3)) if noise else ("n/a", "n/a")
    return result, runq, steal, took


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="")
    args = p.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        manifest = json.load(f)
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    seconds = manifest["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            result, runq, steal, took = run_once(w, seed, seconds)
            runs[w].append((seed, result, runq, steal, took))
            print(f"{w} seed {seed}: {took:.1f} s", file=sys.stderr)

    ok = True
    out = [f"# Benchmark record: {args.runs} runs per workload",
           "",
           f"Host: {os.cpu_count()} CPUs ({cpu_model()}), {platform.system()} {platform.release()}. "
           f"Seeds {seeds[0]}..{seeds[-1]}, `--seconds {seconds}`, rounds interleaved across workloads.",
           ""]
    for w in workloads:
        out += [f"## {w}", "",
                "| metric | unit | median | Q1 | Q3 | spread | bound |",
                "|---|---|---|---|---|---|---|"]
        for m in manifest["end_to_end"]:
            values = [r[1]["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            if m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
            out.append(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                       f"{spread:.2%} | {m['bound']:.0%} |")
        out += ["", "| seed | trials/s | worker run-queue wait ms | host steal ms | wall s | failed |",
                "|---|---|---|---|---|---|"]
        for seed, result, runq, steal, took in runs[w]:
            tps = result["metrics"]["trials_per_s"]["value"]
            out.append(f"| {seed} | {tps:.4g} | {runq} | {steal} | {took:.1f} | "
                       f"{result['failed']}/{result['attempted']} |")
            ok &= result["correct"] and result["failed"] == 0
        out.append("")
    text = "\n".join(out)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
