#!/usr/bin/env python3
"""Steadiness command: how far the benchmark's figures move between runs.

    python3 perfbench/steady.py [--workloads ingest,draw,...] [--seconds <run_seconds>]

For each workload it makes two sets of ten runs, set 1 with seeds
1000-1009 and set 2 with seeds 2000-2009, alternating which set runs
first in each pair. For every end-to-end metric of BENCHMARK.json it
prints each set's median and quartiles, the spread (quartile distance
over median, as `statistics.quantiles(values, n=4)` gives the
quartiles), and the drift (the second set's median against the first's,
either way), each against the metric's bound: a metric fails when a
spread or the drift exceeds its bound, and reads "wide" when a spread
exceeds a third of it. It also compares the share of failed operations
between the sets. A run that fails or hangs is reported and left out.
The full result is written to perfbench/out/steady-<workloads>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
# A single run may take this long, its build included, before it counts as hung.
RUN_TIMEOUT_S = 900
# Runs per set, and the first seed of set 1 (set 2 starts 1000 higher).
RUNS = 10
SEED_BASE = 1000


def one_run(workload, seed, seconds):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "hung"
    if done.returncode != 0:
        tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return None, f"exit {done.returncode}: {' '.join(tail)}"
    lines = done.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]), None


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args()
    metrics = bench["end_to_end"]
    report = {"runs": RUNS, "seconds": args.seconds, "workloads": {}}
    worst = "ok"
    for workload in args.workloads.split(","):
        sets = [[], []]
        failures = []
        for i in range(RUNS):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                seed = SEED_BASE + 1000 * s + i
                t = time.time()
                result, err = one_run(workload, seed, args.seconds)
                print(f"  {workload} set {s + 1} seed {seed}: "
                      f"{err or 'ok'} ({time.time() - t:.1f} s)", file=sys.stderr)
                if err:
                    failures.append({"set": s + 1, "seed": seed, "error": err})
                else:
                    sets[s].append(result)
        entry = {"failures": failures, "metrics": {}}
        print(f"\n{workload}: {len(sets[0])} + {len(sets[1])} runs, {len(failures)} failed runs")
        if failures:
            worst = "FAIL"
        if min(len(sets[0]), len(sets[1])) < 2:
            report["workloads"][workload] = entry
            continue
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        entry["failed_share"] = shares
        if shares[0] != shares[1] or len(shares[0]) != 1:
            print(f"  failed share differs: {shares}")
            worst = "FAIL"
        print(f"  {'metric':<15} {'median 1':>12} {'spread 1':>9} {'median 2':>12} "
              f"{'spread 2':>9} {'drift':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            a, b = summary(vals[0]), summary(vals[1])
            drift = (b["median"] - a["median"]) / a["median"]
            spread = max(a["spread"], b["spread"])
            verdict = "ok"
            if abs(drift) > bound or spread > bound:
                verdict = "FAIL"
            elif spread > bound / 3:
                verdict = "wide"
            if verdict == "FAIL":
                worst = "FAIL"
            elif verdict == "wide" and worst == "ok":
                worst = "wide"
            entry["metrics"][name] = {"set1": a, "set2": b, "drift": drift, "bound": bound,
                                      "verdict": verdict, "values": vals}
            print(f"  {name:<15} {a['median']:>12.5g} {a['spread']:>9.4f} {b['median']:>12.5g} "
                  f"{b['spread']:>9.4f} {drift:>+8.4f} {bound:>6.3f}  {verdict}")
        report["workloads"][workload] = entry
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"steady-{args.workloads.replace(',', '-')}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\noverall: {worst} (report in {os.path.relpath(out, ROOT)})")
    sys.exit(1 if worst == "FAIL" else 0)


if __name__ == "__main__":
    main()
