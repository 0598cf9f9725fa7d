#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics.

Runs every workload of BENCHMARK.json several times at its run_seconds, with
a different seed each time, using the command in BENCHMARK.json. For every
end-to-end metric it prints the median, the first and third quartiles and the
spread: (q3 - q1) / median, quartiles as statistics.quantiles(values, n=4)
gives them. Every bounded metric, setup_s included, is judged by one rule: a
spread within a third of the metric's bound is "ok", a wider one "WIDE". It
also checks that each run's share of failed operations is the same. The exit
code is 0 only if every spread is ok, every run was correct and the failed
shares agree.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 101]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {p.returncode}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for w in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        shares = []
        correct = True
        for i in range(a.runs):
            seed = a.first_seed + i
            out = run_once(bench["command"], w, seed, bench["run_seconds"])
            correct = correct and out["correct"]
            shares.append((out["failed"], out["attempted"]))
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{n}={out['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        print(f"{w}: {a.runs} runs, correct={correct}, failed/attempted="
              + " ".join(f"{f}/{t}" for f, t in shares))
        steady = steady and correct
        if len({f / t for f, t in shares}) != 1:
            print(f"{w}: the share of failed operations differs between runs")
            steady = False
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= bounds[name] / 3
            steady = steady and ok
            print(f"  {name:<20} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} bound {bounds[name]} {'ok' if ok else 'WIDE'}",
                  flush=True)
    print("steady" if steady else "not steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
