#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds like run.py). For each
workload it makes one untraced and one traced run with --size smoke and
checks that
  * the run exits 0 and its output check passed;
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed, with the unit named there, and no other;
  * the report line carries the provenance fields;
  * the traced run's simulated cycles equal the untraced run's;
  * the spans are well formed: one root per workload, every child lies
    within its parent, no self time is negative, and every module call
    the workload makes has its span.
Prints one line per check group and exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (the build step and workload list)

PROVENANCE = ["host_cpus", "build_type", "compiler", "commit", "seed",
              "sweep_jobs", "sm_threads"]
DIRECT_SPANS = {"pass", "workloads.make", "func.trace", "harness.run",
                "gpu.construct", "gpu.run", "check"}
SWEEP_SPANS = DIRECT_SPANS | {"harness.trace_cache", "attribution"}
# Spans are in seconds-derived microseconds; allow float rounding.
EPS_US = 1e-3


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def bench(exe, workload, trace, spans):
    r = subprocess.run([exe, "--workload", workload, "--seed", "5",
                        "--seconds", "0", "--trace", str(trace),
                        "--size", "smoke", "--spans", spans],
                       stdout=subprocess.PIPE, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        fail("%s trace=%d exited %d" % (workload, trace, r.returncode))
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail("%s trace=%d: output check failed" % (workload, trace))
    return report, result["metrics"]


def check_metrics(workload, printed, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in printed.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in want if k in got and got[k] != want[k])
        fail("%s: missing %s, extra %s, wrong unit %s"
             % (workload, missing, extra, wrong))
    for k, v in printed.items():
        if not isinstance(v["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, k))


def check_spans(workload, path, expected):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    roots = [e for e in events if e["args"]["parent"] < 0]
    if len(roots) != 1 or roots[0]["name"] != workload:
        fail("%s: roots %s" % (workload, [e["name"] for e in roots]))
    child_us = [0.0] * len(events)
    for i, e in enumerate(events):
        if e["args"]["id"] != i or e["dur"] < 0:
            fail("%s: malformed span %s" % (workload, e))
        p = e["args"]["parent"]
        if p < 0:
            continue
        if not 0 <= p < i:
            fail("%s: span %d has parent %d" % (workload, i, p))
        par = events[p]
        if (e["ts"] < par["ts"] - EPS_US or
                e["ts"] + e["dur"] > par["ts"] + par["dur"] + EPS_US):
            fail("%s: span %s lies outside its parent %s"
                 % (workload, e["name"], par["name"]))
        child_us[p] += e["dur"]
    for i, e in enumerate(events):
        if e["dur"] - child_us[i] < -EPS_US:
            fail("%s: span %s has negative self time" % (workload, e["name"]))
    names = {e["name"] for e in events} - {workload}
    if names != expected:
        fail("%s: span names %s, expected %s"
             % (workload, sorted(names), sorted(expected)))
    return len(events)


def main():
    os.chdir(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        decl = json.load(f)
    names = [w["name"] for w in decl["workloads"]]
    if names != run.WORKLOADS:
        fail("BENCHMARK.json workloads %s != run.py's %s"
             % (names, run.WORKLOADS))
    exe = run.build()
    spans = os.path.join(run.build_dir(), "spans", "selftest.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    for w in names:
        rep0, m0 = bench(exe, w, 0, spans)
        check_metrics(w, m0, decl["end_to_end"])
        rep1, m1 = bench(exe, w, 1, spans)
        check_metrics(w, m1, decl["per_layer"])
        for rep in (rep0, rep1):
            missing = [k for k in PROVENANCE if k not in rep]
            if missing:
                fail("%s: report lacks %s" % (w, missing))
        if rep1["sim_cycles_traced"] != rep1["sim_cycles_untraced"]:
            fail("%s: traced and untraced sim_cycles differ" % w)
        if rep1["sim_cycles_untraced"] != m0["sim_cycles"]["value"]:
            fail("%s: sim_cycles differ between runs" % w)
        expected = SWEEP_SPANS if w == "sweep-grid" else DIRECT_SPANS
        n = check_spans(w, spans, expected)
        print("selftest: ok: %s (%d + %d metrics, %d spans)"
              % (w, len(m0), len(m1), n))
    print("selftest: all %d workloads passed" % len(names))


if __name__ == "__main__":
    main()
