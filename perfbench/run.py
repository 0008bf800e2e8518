#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, and a traced run's spans go under
.bench_build/ at the root. Arguments are passed through to the
benchmark; its last line of output is the JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary] + sys.argv[1:] + ["--spans-dir", os.path.join(out, "spans")]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: timed out after %ds" % TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
