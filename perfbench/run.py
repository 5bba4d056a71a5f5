#!/usr/bin/env python3
"""Build the perfbench harness from this checkout and run one benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The harness is a Go module of its own (perfbench/go.mod) that imports the
repository's packages through a local replace directive, so it builds from
the checkout's sources and nothing else. Build outputs, the Go build cache
and the traced run's files all go under .bench_build/ in the checkout. The
last line of standard output is the run's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    # The harness fixes GOMAXPROCS and GOGC itself; a caller's runtime
    # settings must not leak into the measurement.
    for key in ("GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG", "GOFLAGS"):
        env.pop(key, None)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--out", os.path.join(BUILD, "perfbench")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
