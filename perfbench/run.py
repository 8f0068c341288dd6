#!/usr/bin/env python3
"""Build the jstar benchmark from source and run it.

    python3 perfbench/run.py --workload pvwatts|closure|serve-sensors|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a jstar source tree.  It builds the benchmark
and the jstar-serve binary with dune, then runs the benchmark executable
(perfbench/main.ml), whose last line of standard output is the JSON
result of one workload; `all` runs the three in turn and exits non-zero
if any of them does.  Build output goes to standard error.  Outside a
source tree it exits with status 2 and prints no result.
"""

import os
import subprocess
import sys

NEEDED = ["dune-project", "lib", "bin/jstar_serve_cli.ml", "perfbench/dune"]
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
SERVE = os.path.join("_build", "default", "bin", "jstar_serve_cli.exe")
WORKLOADS = ["pvwatts", "closure", "serve-sensors"]


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("perfbench: not a jstar source tree, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    # keep dune's shared cache out of the home directory
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/jstar_serve_cli.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        status = 0
        for workload in WORKLOADS:
            one = list(args)
            one[one.index("--workload") + 1] = workload
            run = subprocess.run([MAIN, *one, "--serve-bin", SERVE])
            status = max(status, run.returncode)
        return status
    sys.stdout.flush()
    os.execv(MAIN, [MAIN, *args, "--serve-bin", SERVE])


if __name__ == "__main__":
    sys.exit(main())
