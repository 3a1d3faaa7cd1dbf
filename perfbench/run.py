#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig2|serve-cold|serve-hot \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The program is built from source with dune under --profile release
(the profile every host-time figure of the repo uses).  With --trace 0
the set-up time is the median of twelve set-ups: six separate
set-up-only processes before the measured run, the measured run's own
set-up, and five more processes after it, so that one slow stretch of
the host cannot decide it.  The last line of stdout is the result
object.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["fig2", "serve-cold", "serve-hot"]
SETUPS_BEFORE = 6
SETUPS_AFTER = 5
DEADLINE_S = 170.0  # a run must end within 180 s once built
ACCOUNTED = (85.0, 115.0)  # perfbench.ml's accounted_min, accounted_max


class BenchError(Exception):
    pass


# Keep every file the build and the runs write inside the checkout:
# compiler temporaries and dune's cache directory go under .perfbench/.
SCRATCH = ".perfbench"


def child_env():
    tmp = os.path.abspath(os.path.join(SCRATCH, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
                XDG_CACHE_HOME=os.path.abspath(os.path.join(SCRATCH, "cache")))


def build():
    env = child_env()
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError as e:
        raise BenchError(f"cannot run dune: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("build failed")


def run_exe(args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=left,
                           env=child_env())
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(args)}")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise BenchError(f"exit {r.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, extra=()):
    """One result object; with trace 0, setup_s is the median set-up."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + list(extra)

    def setup_once():
        return run_exe(base + ["--setup-only"], deadline)["setup_s"]

    setups = []
    if trace == 0:
        setups += [setup_once() for _ in range(SETUPS_BEFORE)]
    result = run_exe(base, deadline)
    if trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        setups += [setup_once() for _ in range(SETUPS_AFTER)]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setups),
              file=sys.stderr)
    return result


# ---------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------

def check_nesting(path):
    """Independent re-check of the written trace: every child lies
    inside its parent, on its domain and request, and siblings do not
    overlap.  Returns the number of spans."""
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    last_end = {}
    for s in sorted(spans.values(), key=lambda s: s["start_us"]):
        assert s["end_us"] >= s["start_us"], s
        p = spans.get(s["parent"]) if s["parent"] >= 0 else None
        if s["parent"] >= 0:
            assert p is not None, f"missing parent: {s}"
            assert p["start_us"] <= s["start_us"] and s["end_us"] <= p["end_us"], s
            assert p["domain"] == s["domain"] and p["req"] == s["req"], s
            assert last_end.get(p["id"], -1.0) <= s["start_us"], s
            last_end[p["id"]] = s["end_us"]
    return len(spans)


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, file=sys.stderr)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            # traced serve sessions alternate 24 times: give each enough
            # jobs for the accounting check
            seconds = 12 if trace == 1 and w != "fig2" else 2
            r = measure(w, 7, seconds, trace, ["--quick"])
            for m in spec[key]:
                got = r["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{w} trace {trace}: {m['name']} [{m['unit']}]")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace {trace}: all operations correct")
            if trace == 1:
                acc = r["metrics"]["trace.accounted_pct"]["value"]
                expect(ACCOUNTED[0] <= acc <= ACCOUNTED[1],
                       f"{w}: layer self times cover {acc:.1f}% of the "
                       "untraced service time")
                try:
                    n = check_nesting(os.path.join(SCRATCH, f"trace-{w}.jsonl"))
                except AssertionError as e:
                    n = 0
                    print(f"nesting: {e}", file=sys.stderr)
                expect(n > 0, f"{w}: {n} spans nest")
        bad = measure(w, 7, 2, 0, ["--quick", "--wrong-expect"])
        expect(not bad["correct"] and bad["failed"] >= 1
               and bad["metrics"]["ok_pct"]["value"] < 100.0,
               f"{w}: a wrong expected verdict is counted as failed")
    if failures:
        raise BenchError(f"self-test: {len(failures)} checks failed")
    print("self-test passed", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    try:
        build()
        if a.self_test:
            self_test()
            return 0
        if a.workload is None:
            raise BenchError("--workload is required")
        result = measure(a.workload, a.seed, a.seconds, a.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
