#!/usr/bin/env python3
"""Build gexbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|smoke]

Run from the root of a checkout. The first call configures and builds
perfbench/ (the simulator library from src/ plus gexbench) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only re-check the build. Build output goes to stderr, so the last
stdout line is the benchmark's JSON result. A traced run writes its
spans to <build dir>/spans/<workload>-seed<N>.json. The exit code is
the benchmark's: 0 when every output check passed, 1 when one failed,
2 when the benchmark could not be built or the arguments are wrong.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["occupied-memory", "paging-faults", "large-trace", "sweep-grid"]


def fail(msg):
    print("run.py: error: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    """Configure (once) and build gexbench; return the binary's path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at " + os.path.join(ROOT, "src"))
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "gexbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    args = ap.parse_args()

    exe = build()
    spans = os.path.join(build_dir(), "spans",
                         "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    sys.stdout.flush()
    r = subprocess.run([exe, "--workload", args.workload,
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--size", args.size,
                        "--spans", spans,
                        "--commit", git_commit()])
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
