#!/usr/bin/env python3
"""Build and run xvolt's fixed-work benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0

The wrapper builds the perfbench Go module (which uses the repository
through a local replace) into .bench_build/, beside the repository's own
xvolt-report command, which the campaign workload checks its reports
against. Go's build cache, temporary files and configuration stay in
.bench_build/ too, so a run reads and writes only inside the checkout.
It rebuilds when any Go source or go.mod in the repository changed, then
replaces itself with the benchmark binary; every argument is passed
through. A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
STAMP = BINARY + ".stamp"
# Binaries to build, each next to the benchmark: output name → package.
TARGETS = {"perfbench": ".", "xvolt-report": "xvolt/cmd/xvolt-report"}


def source_stamp():
    """Hash every Go source and module file under the repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(REPO):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if not (name.endswith(".go") or name in ("go.mod", "go.sum")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
        CGO_ENABLED="0",
    )
    return env


def build(stamp):
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    for name, pkg in TARGETS.items():
        dst = os.path.join(BUILD, name)
        tmp = "%s.%d.tmp" % (dst, os.getpid())
        subprocess.run(["go", "build", "-o", tmp, pkg], cwd=HERE, env=env, check=True)
        os.replace(tmp, dst)
    with open(STAMP + ".tmp", "w") as f:
        f.write(stamp)
    os.replace(STAMP + ".tmp", STAMP)


def main():
    try:
        stamp = source_stamp()
        current = None
        built = all(os.path.exists(os.path.join(BUILD, n)) for n in TARGETS)
        if built and os.path.exists(STAMP):
            with open(STAMP) as f:
                current = f.read()
        if current != stamp:
            build(stamp)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
