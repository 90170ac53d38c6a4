#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same commit.

Run from the repository root:

    python3 perfbench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads shard

Each run is `python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0` with a different seed. For every workload and end-to-end metric
it prints each set's median and quartiles and the spread (interquartile
range over the median). A metric is steady when every set's spread is
within its bound in BENCHMARK.json and the second set's median is not worse than the first's by more
than the bound. The share of failed operations must be identical in every
run. Exits 1 if anything is not steady.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed with exit code {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed-base", type=int, default=100)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    # results[set][workload] = list of result objects; workloads are
    # interleaved so slow drifts of the machine hit them all alike.
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed_base + 1000 * s + i
                r = run_once(w, seed, spec["run_seconds"])
                results[s][w].append(r)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: " +
                      " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items())),
                      file=sys.stderr, flush=True)

    steady = True
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for s in results for r in s[w]}
        if len(shares) != 1 or not all(r["correct"] for s in results for r in s[w]):
            steady = False
            print(f"{w}: failed share differs between runs or a run was incorrect: {sorted(shares)}")
        for name, m in metrics.items():
            cells = []
            ok = True
            meds = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[s][w]]
                med, q1, q3, sp = spread(vals) if len(vals) > 1 else (vals[0], vals[0], vals[0], 0.0)
                meds.append(med)
                cells.append(f"median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {sp:.3f}")
                if sp > m["bound"]:
                    ok = False
            for a, b in zip(meds, meds[1:]):
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                if worse > m["bound"]:
                    ok = False
            steady = steady and ok
            verdict = "agree" if ok else "DISAGREE"
            print(f"{w:9} {name:12} bound {m['bound']:.2f}  " + "  |  ".join(cells) + f"  -> {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
