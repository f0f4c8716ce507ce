#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs each workload once per seed, untraced, and prints for every
end-to-end metric its median and the distance between its first and
third quartiles as a share of the median, next to the metric's bound
in BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]
        [--save FILE] [--compare FILE]

--save writes every value to FILE as JSON. --compare reads such a file
from an earlier set of runs and reports, for every metric, how far this
set's median moved from the earlier one in the worse direction, as a
share of the earlier median, against the same bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.load(open(args.compare)) if args.compare else {}
    saved = {}
    worst_spread = worst_drift = 0.0
    for w in workloads:
        values = saved.setdefault(w, {})
        for s in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(f"{w} seed {s}: FAILED\n{out.stdout}\n{out.stderr}", file=sys.stderr)
                sys.exit(1)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        print(f"== {w}")
        for name, vs in values.items():
            bound = metrics[name]["bound"]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = "ok" if spread <= bound / 3 else (
                "WITHIN BOUND" if spread <= bound else "OVER BOUND")
            worst_spread = max(worst_spread, spread / bound)
            line = (f"  {name:<14} median {med:<12.5g} spread {spread:6.3f} "
                    f"bound {bound:.2f}  {ok}")
            before = earlier.get(w, {}).get(name)
            if before:
                old = statistics.median(before)
                worse = (med - old) / old
                if metrics[name]["better"] == "higher":
                    worse = -worse
                worst_drift = max(worst_drift, worse / bound)
                line += f"  worse than earlier by {worse:+.3f}"
            print(line, flush=True)
    print(f"worst spread/bound: {worst_spread:.2f}")
    if earlier:
        print(f"worst median drift/bound: {worst_drift:.2f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
