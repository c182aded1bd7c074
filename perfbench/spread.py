#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every end-to-end metric of BENCHMARK.json this prints the median of
the runs, the quartiles (statistics.quantiles(values, n=4)), and the
spread (Q3 - Q1) / median next to the metric's bound. With --against it
also compares the medians with those of an earlier set of runs.

    python3 perfbench/spread.py --workload fleet-800 --seeds 1-5 \
        --out .bench_out/fleet-a.json
    python3 perfbench/spread.py --workload fleet-800 --seeds 1-5 \
        --out .bench_out/fleet-b.json --against .bench_out/fleet-a.json

Run from the repository root. Each run is
`cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- ...`.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = ["cargo", "run", "--release", "--offline", "-q",
           "--manifest-path", "perfbench/Cargo.toml", "--",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds, 0)
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs incorrect")
        results.append(result)
        print(f"seed {seed}: ok ({result['attempted']} ops, {result['failed']} failed)",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    worst = 0.0
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
          + ("  vs-earlier" if earlier else ""))
    for m in bench["end_to_end"]:
        name = m["name"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if name != "setup_s":
            worst = max(worst, spread / m["bound"])
        line = f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {m['bound']:>6}"
        if earlier:
            old = statistics.median(r["metrics"][name]["value"] for r in earlier)
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            line += f"  {worse:+.4f} {'ok' if worse <= m['bound'] else 'WORSE'}"
        print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
