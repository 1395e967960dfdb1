#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them.

    python3 perfbench/runs.py collect --workload NAME --seeds 1-10 [--trace 1] --out SET.jsonl
    python3 perfbench/runs.py spread SET.jsonl
    python3 perfbench/runs.py diff BASE.jsonl NEW.jsonl

collect  runs perfbench/run.py once per seed, for BENCHMARK.json's
         run_seconds, and appends one JSON line per run to SET.jsonl.
spread   prints, per (workload, metric), the median, the quartiles and the
         interquartile range as a share of the median, against the metric's
         bound in BENCHMARK.json.
diff     prints each side's median and quartiles per (workload, metric) and
         flags a change beyond the metric's bound.  A pair is "unresolved"
         when either side's spread is wider than the bound, unless every
         run of one side beats every run of the other.  Exits 1 when some
         metric regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(s):
    return {m["name"]: m for m in s["end_to_end"] + s["per_layer"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    s = spec()
    for seed in parse_seeds(args.seeds):
        cmd = s["command"] + ["--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(s["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
        result = json.loads(lines[-1])
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "trace": args.trace, "result": result}) + "\n")
        print("%s seed %d: correct=%s %s" % (args.workload, seed, result["correct"], " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
            if args.trace == 0)), flush=True)


def load(path):
    """{(workload, metric): [values]} and the count of incorrect runs."""
    values, incorrect = {}, 0
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            incorrect += not run["result"]["correct"]
            for name, m in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), []).append(m["value"])
    return values, incorrect


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    rel = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, rel


def spread(args):
    specs = metric_specs(spec())
    values, incorrect = load(args.set)
    print("%-18s %-32s %5s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "runs", "median", "q1", "q3", "iqr/med", "bound"))
    for (w, name), vals in sorted(values.items()):
        med, q1, q3, rel = summary(vals)
        bound = specs.get(name, {}).get("bound")
        flag = "" if bound is None else ("ok" if rel < bound / 3 else
                                         "wide" if rel < bound else "OVER")
        print("%-18s %-32s %5d %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            w, name, len(vals), med, q1, q3, rel, "-" if bound is None else bound, flag))
    print("incorrect runs: %d" % incorrect)


def diff(args):
    specs = metric_specs(spec())
    base, base_bad = load(args.base)
    new, new_bad = load(args.new)
    regressed = False
    print("%-18s %-32s %30s %30s %8s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "verdict"))
    for key in sorted(set(base) & set(new)):
        w, name = key
        b, n = base[key], new[key]
        bm, bq1, bq3, brel = summary(b)
        nm, nq1, nq3, nrel = summary(n)
        m = specs.get(name, {})
        lower = m.get("better", "lower") == "lower"
        change = (nm - bm) / abs(bm) if bm else float("inf")
        worse = change if lower else -change
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif (max(n) < min(b)) if lower else (min(n) > max(b)):
            verdict = "better (every run)"
        elif (min(n) > max(b)) if lower else (max(n) < min(b)):
            verdict = "WORSE (every run)" if worse > bound else "worse within bound"
            regressed |= worse > bound
        elif brel > bound or nrel > bound:
            verdict = "unresolved (spread wider than bound %g)" % bound
        elif worse > bound:
            verdict = "WORSE beyond bound %g" % bound
            regressed = True
        elif -worse > bound:
            verdict = "better beyond bound %g" % bound
        else:
            verdict = "within bound %g" % bound
        print("%-18s %-32s %30s %30s %+7.1f%%  %s" % (
            w, name, "%.5g [%.5g, %.5g]" % (bm, bq1, bq3),
            "%.5g [%.5g, %.5g]" % (nm, nq1, nq3), 100 * change, verdict))
    print("incorrect runs: base %d, new %d" % (base_bad, new_bad))
    return 1 if regressed or new_bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, default=0, choices=[0, 1])
    c.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("set")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
    elif args.cmd == "spread":
        spread(args)
    else:
        return diff(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
