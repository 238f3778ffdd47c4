#!/usr/bin/env python3
"""Builds and runs one benchmark run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]

`--trace 0` (the default) runs the untraced binary `perfbench`; `--trace 1`
runs `perfbench-trace`. Each binary is built on its own, so a change to the
layer APIs the traced binary calls cannot stop untraced runs from building.
Cargo's output goes to standard error; the run's last line of standard
output is its JSON result. Exits with the run's exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    args = sys.argv[1:]
    traced = any(a == "--trace" and args[i + 1 : i + 2] == ["1"] for i, a in enumerate(args))
    binary = "perfbench-trace" if traced else "perfbench"
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest, "--bin", binary],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return subprocess.run([os.path.join(target, "release", binary)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
