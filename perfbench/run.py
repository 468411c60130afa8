#!/usr/bin/env python3
"""Build and run the DE-Sword benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload audit-hot --seed 1 --seconds 20 --trace 0

The Go program lives in perfbench/ as its own module whose `replace`
directive points at the repository root, so it builds the program under
test from source. Everything the build and the run write stays in
.bench_build/ under the current directory: the Go build cache, the binary,
the per-run scratch directories and the run records. Arguments are passed
through to the binary, whose last stdout line is the JSON result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    for sub in ("gocache", "gotmp", "gopath", "config"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "gotmp"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=src, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
