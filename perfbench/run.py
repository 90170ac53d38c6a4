#!/usr/bin/env python3
"""Build and run pinscope's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports the
repository's packages through a replace directive. This script builds it
into .bench_build/ with a build cache there too, so the run reads and writes
nothing outside the checkout, then replaces itself with the built binary.
The last line on stdout is the JSON result; build output goes to stderr.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for need in ("go.mod", "BENCHMARK.json", "dataset_paper_scale.json"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOMODCACHE=os.path.join(build, "gomodcache"),
               GOPATH=os.path.join(build, "gopath"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off")
    done = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                          stdout=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return done.returncode
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
