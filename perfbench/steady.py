#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and report, per
end-to-end metric, the quartiles of its values and their spread (the
distance between the first and third quartile as a share of the
median), next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload serve-hot --seeds 1 2 3 4 5 \
        [--json OUT]

Run it from the root of a checkout.  Every run goes through run.py, so
each is built and measured exactly as a single benchmark run is.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--json")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in a.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             stderr=subprocess.DEVNULL, check=True).stdout
        r = json.loads(out.strip().splitlines()[-1])
        failed += r["failed"]
        for name in values:
            values[name].append(r["metrics"][name]["value"])
        print(f"seed {seed}: correct={r['correct']} "
              + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              file=sys.stderr)
    rows = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows[m["name"]] = {"q1": q1, "median": med, "q3": q3,
                           "spread": spread, "bound": m["bound"]}
        flag = "" if spread <= m["bound"] / 3 else (
            "  > bound/3" if spread <= m["bound"] else "  > BOUND")
        print(f"{m['name']:32s} q1 {q1:12.6g}  median {med:12.6g}  "
              f"q3 {q3:12.6g}  spread {spread:7.4f}  bound {m['bound']}{flag}")
    print(f"failed operations: {failed}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"workload": a.workload, "seeds": a.seeds,
                       "run_seconds": spec["run_seconds"], "metrics": rows,
                       "values": values, "failed": failed}, f, indent=1)


if __name__ == "__main__":
    main()
