#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go program in perfbench/ is built
from the checkout's sources into .bench_build/ (build cache and
temporary files included, so nothing is written outside the checkout),
then run with the given arguments; its output and exit code are passed
through. A failed build exits 2 without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
