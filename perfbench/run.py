#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile_zoo --seed 1 --seconds 45 --trace 0

The benchmark executable is built with dune into the checkout's _build
directory (the dune cache is disabled, so nothing is written outside the
checkout), then run with the same arguments. Its last line of standard
output is the result JSON. Exits nonzero when the build fails, when a
correctness check fails, or when the run overruns its time limit.
"""

import os
import signal
import subprocess
import sys

RUN_LIMIT_S = 170


def main() -> int:
    # On SIGTERM, unwind through subprocess.run, which kills and waits for
    # the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ, DUNE_CACHE="disabled")
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.isfile(exe):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
