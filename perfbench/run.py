#!/usr/bin/env python3
"""Build and run the faircc benchmark (the Go program in this directory).

Usage, from the repository root:

    python3 perfbench/run.py --workload fig10-medium --seed 1 --seconds 40 --trace 0

The Go program is built from source into .bench_build/ at the repository
root, with every Go cache and temporary directory kept there too, so a run
reads and writes nothing outside the checkout. All arguments are passed to
the program, whose last line of standard output is the JSON result. The
exit code is the program's, or 1 when the build fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        HOME=os.path.join(out, "home"),
        XDG_CONFIG_HOME=os.path.join(out, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(out, "home", ".cache"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    for d in ("gocache", "gopath", "tmp", "home"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
