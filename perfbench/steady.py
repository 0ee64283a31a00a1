#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--runs N] [--seed S] [--seconds S]
                                [--workloads a,b] [--vary-seeds]

For each workload: N untraced runs, then for every end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the spread (the
interquartile range over the median) against the metric's bound in
BENCHMARK.json, then the same for the raw wall-clock values behind the
calibrated ones. With one seed for every run (the default) it also checks
that the sim and exact metrics are bit-identical across the runs, runs the
traced run twice and compares every exact (C-tagged) per-layer number
(gc.minor_words_per_commit to one part in a million, heap_peak_mb to one
in a thousand), and
runs once more on a second seed. --vary-seeds gives each run its own seed,
as the acceptance check does, and skips the determinism checks. Exits 1 if
a check fails or a spread exceeds its bound. It also flags a calibrated
median that differs from its raw median by more than the metric's bound:
the machine ran far from the loop's nominal speed, so the calibration, not
the program, set much of the figure, and a comparison with runs made
under other load is weak.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAW_NOTE = "# raw wall clock, before calibration: "
DETERMINISTIC = ("sim_commits_per_s", "sim_commit_p50_ms", "sim_commit_p99_ms",
                 "write_amp", "heap_peak_mb")
# The OCaml runtime's minor-word count moves by a few words in 10^8
# between same-seed runs, with or without calibration and with address
# randomization off, and the peak heap follows it by up to a few parts in
# 10^4; every other sim and exact number must match bit for bit.
NEAR_EXACT = {"gc.minor_words_per_commit": 1e-6, "heap_peak_mb": 1e-3}


def same(name, a, b):
    return abs(a - b) <= NEAR_EXACT.get(name, 0.0) * abs(a)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit("steady: %s seed %d trace %d failed (exit %d)"
                 % (workload, seed, trace, r.returncode))
    lines = r.stdout.strip().splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    for line in lines:
        if line.startswith(RAW_NOTE):
            for item in line[len(RAW_NOTE):].split(", "):
                name, value = item.split()
                metrics["raw:" + name] = {"value": float(value)}
    return metrics


def exact_layer_metrics(workload, seed, seconds):
    """The C-tagged per-layer numbers of one traced run."""
    metrics = run(workload, seed, seconds, 1)
    path = os.path.join(ROOT, ".bench_out", "%s-seed%d-layers.json" % (workload, seed))
    with open(path) as f:
        clocks = {k: v["clock"] for k, v in json.load(f)["per_layer"].items()}
    return {k: v["value"] for k, v in metrics.items() if clocks.get(k) == "exact"}


def main():
    p = argparse.ArgumentParser(description="Steadiness check for the repository benchmark.")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--workloads")
    p.add_argument("--vary-seeds", action="store_true")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    for w in names:
        seeds = [a.seed + i if a.vary_seeds else a.seed for i in range(a.runs)]
        runs = [run(w, s, seconds, 0) for s in seeds]
        print("\n%s: %d untraced runs, seeds %s, %d s" % (w, a.runs, seeds, seconds))
        print("%-20s %14s %14s %14s %8s %6s  %s"
              % ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for m in bench["end_to_end"]:
            vals = [r[m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("ok" if spread <= m["bound"] / 3
                       else "wide" if spread <= m["bound"] else "OVER")
            if verdict == "OVER":
                ok = False
            print("%-20s %14.6g %14.6g %14.6g %8.4f %6.2f  %s %s"
                  % (m["name"], q1, med, q3, spread, m["bound"], verdict, m["unit"]))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for name in sorted(k for k in runs[0] if k.startswith("raw:")):
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            print("%-20s %14.6g %14.6g %14.6g %8.4f  (uncalibrated, for reference)"
                  % (name, q1, med, q3, (q3 - q1) / med if med else float("inf")))
        for name in sorted(k for k in runs[0] if k.startswith("raw:")):
            metric = name[len("raw:"):]
            cal = statistics.median(r[metric]["value"] for r in runs)
            raw = statistics.median(r[name]["value"] for r in runs)
            if raw and abs(cal - raw) / raw > bounds[metric]:
                print("  CALIBRATION SHIFT: %s calibrated median %.6g is %+.1f%% from raw %.6g, "
                      "beyond its bound of %g" % (metric, cal, 100 * (cal - raw) / raw, raw,
                                                  bounds[metric]))
        if a.vary_seeds or a.runs < 2:
            continue
        for name in DETERMINISTIC:
            vals = sorted({r[name]["value"] for r in runs})
            if not same(name, vals[0], vals[-1]):
                ok = False
                print("  NOT DETERMINISTIC: %s %s" % (name, vals))
        first = exact_layer_metrics(w, a.seed, seconds)
        second = exact_layer_metrics(w, a.seed, seconds)
        differ = sorted(k for k in first if k not in second or not same(k, first[k], second[k]))
        print("  exact per-layer numbers identical across two traced runs: %s"
              % ("yes" if not differ else "NO: " + ", ".join(differ)))
        ok = ok and not differ
        other = run(w, a.seed + 1000, seconds, 0)
        print("  second seed %d: %s" % (a.seed + 1000, ", ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in other.items())))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
