#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady across seeds.

For each workload it runs the benchmark once per seed, untraced, and
reports for every end-to-end metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median. Every spread,
setup_s's included, must stay within the metric's bound in
BENCHMARK.json and should stay within a third of it (marked WIDE when
not). Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 --out steadiness.json

With --sets 2 each workload is measured twice, one whole set after the
other, and the second median of every metric must lie within the
metric's bound of the first, in either direction. The exit status is 1
when any run fails a check or any of these limits is missed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


# The line before each result gives the fastest run's times, an
# alternative to the medians the metrics report.
FASTEST = ["wall_s_min", "setup_s_min"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["fastest"] = json.loads(lines[-2])
    result["elapsed_s"] = time.time() - start
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                r = run_once(w, seed, seconds)
                if not r["correct"] or r["failed"]:
                    print(f"{w} seed {seed}: {r['failed']} of {r['attempted']} failed", file=sys.stderr)
                    ok = False
                runs.append(r)
                print(f"{w} set {s} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items()))
                      + f" ({r['elapsed_s']:.0f}s)", file=sys.stderr, flush=True)
            sets.append({name: summarize([r["metrics"][name]["value"] for r in runs])
                         for name in bounds}
                        | {name: summarize([r["fastest"][name] for r in runs]) for name in FASTEST}
                        | {"elapsed_s": max(r["elapsed_s"] for r in runs)})
        report["workloads"][w] = sets
        for name, bound in bounds.items():
            for i, cur in enumerate(sets):
                m = cur[name]
                line = (f"{w:16s} {name:18s} set {i + 1} median {m['median']:.4g} q1 {m['q1']:.4g} "
                        f"q3 {m['q3']:.4g} spread {m['spread']:.3f} (bound {bound})")
                if m["spread"] > bound:
                    line += "  OUT"
                    ok = False
                elif m["spread"] > bound / 3:
                    line += "  WIDE"
                if i > 0:
                    shift = m["median"] / sets[0][name]["median"] - 1
                    line += f"  vs set 1 {shift:+.3f}"
                    if abs(shift) > bound:
                        line += " MOVED"
                        ok = False
                print(line)
        for name in FASTEST:
            print(f"{w:16s} {name:18s} "
                  + "  ".join(f"set {i + 1} spread {cur[name]['spread']:.3f}" for i, cur in enumerate(sets))
                  + "  (fastest run of each invocation, for comparison)")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
