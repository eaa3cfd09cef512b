#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

The arguments are passed to the binary unchanged (see perfbench/main.go).
Everything the build and the run write stays inside the repository:
the Go build cache and the binary go to .bench_build/, profiles and span
dumps to .bench_out/. The load runs in one process with GOMAXPROCS at most
2 and at most the number of CPUs.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
    }
    for key, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    # Build offline with the installed toolchain and the repository's own
    # module only.
    env.update(GOWORK="off", GOPROXY="off", GOTOOLCHAIN="local",
               GOTELEMETRY="off", GOFLAGS="-mod=readonly")
    return env


def main():
    binary = os.path.join(BUILD, "perfbench")
    env = build_env()
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["GOMAXPROCS"] = str(max(1, min(2, os.cpu_count() or 1)))
    # Replace this process with the benchmark, so it leaves no child behind.
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
