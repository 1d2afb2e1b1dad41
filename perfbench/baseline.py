#!/usr/bin/env python3
"""Run the benchmark on several workload seeds and summarize its spread.

    python3 perfbench/baseline.py --label seed-commit --seeds 1-10 [--trace]

For every workload and seed it runs `perfbench/run.py` once for
run_seconds from BENCHMARK.json (and once more with --trace 1 on the first
seed when --trace is given), then writes
perfbench/baseline/<label>.json: the environment, every result line, and
per end-to-end metric the median, the quartiles and the spread (quartile
distance over the median) next to the metric's bound from BENCHMARK.json.
A later change is compared against a file written here by running the same
command on its own commit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                         check=True, timeout=300).stdout
    return json.loads(out.decode().strip().splitlines()[-1])


def summarize(lines):
    out = {}
    for m in BENCH["end_to_end"]:
        values = [ln["metrics"][m["name"]]["value"] for ln in lines]
        values = [v for v in values if v is not None]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"],
                          "n": len(values)}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    doc = {"label": args.label, "seeds": seeds,
           "seconds": BENCH["run_seconds"],
           "environment": run.environment(), "workloads": {}}
    for w in workloads.WORKLOADS:
        lines = []
        for s in seeds:
            ln = one_run(w, s, False)
            lines.append(dict(ln, seed=s))
            print("%s seed %d: %s" % (w, s, json.dumps(ln["metrics"])),
                  flush=True)
        entry = {"runs": lines, "summary": summarize(lines),
                 "failed": sum(ln["failed"] for ln in lines),
                 "attempted": sum(ln["attempted"] for ln in lines)}
        if args.trace:
            entry["trace"] = dict(one_run(w, seeds[0], True),
                                  seed=seeds[0])
        doc["workloads"][w] = entry
        for name, s in entry["summary"].items():
            print("  %-12s %-12s median %.5g spread %.3f bound %.2f%s"
                  % (w, name, s["median"], s["spread"], s["bound"],
                     "" if s["spread"] < s["bound"] / 3 else "  WIDE"))
    out = HERE / "baseline" / (args.label + ".json")
    out.parent.mkdir(exist_ok=True)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(tmp, out)
    print("wrote", out)


if __name__ == "__main__":
    main()
