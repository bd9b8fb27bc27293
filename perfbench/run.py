#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune
(progress and errors go to stderr), then runs it with the same arguments;
its last line of standard output is the JSON result.  Exits nonzero when
the checkout is incomplete, the build fails, or the benchmark does.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124


def main():
    # The benchmark links the repository's libraries: without them (a
    # directory holding only the benchmark) there is nothing to build.
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at the checkout root", file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/main.exe"]
    code = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return run([exe] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
