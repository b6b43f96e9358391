#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

From the repository root:

    python3 perfbench/spread.py --runs 10 --workloads analyze,serve
    python3 perfbench/spread.py --runs 1 --trace 1        # every workload, traced

For every workload and metric it prints the median over the runs, the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, and, for end-to-end metrics, the metric's
bound from BENCHMARK.json. A spread at or above a third of the bound is
marked. --out writes every run's result plus the summary as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace, extra):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    notes = [l for l in lines[:-1] if not l.startswith("  ")]
    return res, notes, wall


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; run i uses seed+i")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reverse", action="store_true", help="run the workloads in reverse order")
    ap.add_argument("--inject", default="", help="pass -inject to every run")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    if args.reverse:
        workloads.reverse()
    extra = ["--inject", args.inject] if args.inject else []
    record = {"host": None, "platform": platform.platform(), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for i in range(args.runs):
            res, notes, wall = run_once(w, args.seed + i, args.seconds, args.trace, extra)
            steal = None
            for n in notes:
                if n.startswith("host {"):
                    record["host"] = json.loads(n[5:])
                elif n.startswith("steal: "):
                    steal = float(n.split()[1].rstrip("%"))
                elif n.startswith("FAIL") or args.runs == 1:
                    print(f"  [{w} seed {args.seed + i}] {n}")
            runs.append({"seed": args.seed + i, "wall_s": round(wall, 2), "steal_pct": steal, "result": res})
            ok = ok and res["correct"]
        print(f"{w}: {args.runs} runs, attempted {sum(r['result']['attempted'] for r in runs)}, "
              f"failed {sum(r['result']['failed'] for r in runs)}, "
              f"wall {statistics.median(r['wall_s'] for r in runs):.1f}s/run, "
              f"host steal {[r['steal_pct'] for r in runs]}%")
        summary = {}
        for name in sorted(runs[0]["result"]["metrics"]):
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            med, sp = spread(vals)
            b = bounds.get(name)
            flag = ""
            if b is not None and name != "setup_s" and sp >= b / 3:
                flag = "  <-- spread >= bound/3"
            bound = f"bound {b:.2f}" if b is not None else ""
            print(f"  {name:34s} {med:14.6g} {unit:6s} spread {sp:7.4f}  {bound}{flag}")
            summary[name] = {"median": med, "unit": unit, "spread": sp, "values": vals}
        record["workloads"][w] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    if not ok:
        print("some run reported correct=false")
        sys.exit(1)


if __name__ == "__main__":
    main()
