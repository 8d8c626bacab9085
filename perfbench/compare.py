#!/usr/bin/env python3
"""Summarises one set of benchmark runs, or compares two.

    python3 perfbench/compare.py runs/set1
    python3 perfbench/compare.py runs/parent runs/change

A set is a directory of run outputs named <workload>_s<seed>_t<trace>.out,
as perfbench/sweep.py writes them. With one set, prints per workload and
end-to-end metric the median, quartiles and spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json. With two, prints each side's
median and quartiles and a verdict per workload and end-to-end metric:

  worse      the change's median is worse than the parent's by more than
             the bound
  better     the change wins at least 9 in 10 seed-paired runs and its median
             is better by more than the parent's own spread
  unchanged  neither, and both sides' spreads are within the bound
  unresolved a spread is wider than the bound and the runs overlap

and a workload fails outright when any of its runs on either side failed its
checks or printed no result, when only one side ran it, or when a seed both
sides ran gave different virtual fingerprints: a change that shifts virtual
time or the failed-operation count is not a performance result.

Medians are compared as measured; nothing is normalised. From the traced
runs (t1) of both sets it also names, per workload, the per-layer metric
that moved most. Exits 1 if any run failed or any verdict is "worse".
"""

import collections
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^(?P<w>.+)_s(?P<seed>\d+)_t(?P<trace>[01])\.out$")


class RunSet:
    def __init__(self, path):
        self.path = path
        # (workload, trace) -> metric -> seed -> value
        self.values = collections.defaultdict(
            lambda: collections.defaultdict(dict))
        self.fingerprints = {}  # (workload, seed) -> fingerprint
        self.workloads = set()  # every workload with a run, failed or not
        self.bad = collections.defaultdict(list)  # workload -> failed runs
        for name in sorted(os.listdir(path)):
            m = NAME.match(name)
            if not m:
                continue
            self.workloads.add(m["w"])
            with open(os.path.join(path, name)) as f:
                lines = f.read().strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                self.bad[m["w"]].append(name + ": no result")
                continue
            if not result["correct"]:
                self.bad[m["w"]].append(name + ": correct=false")
                continue
            key = (m["w"], int(m["trace"]))
            seed = int(m["seed"])
            for metric, v in result["metrics"].items():
                self.values[key][metric][seed] = v["value"]
            for line in lines:
                if line.startswith("fingerprint: "):
                    fp = line.split(" ", 1)[1].split(" (")[0]
                    self.fingerprints[(m["w"], seed)] = fp


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def worse_by(a, b, better):
    """Share by which b is worse than a (negative when better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a, b, metric):
    bound, better = metric["bound"], metric["better"]
    med_a, _, _, spread_a = describe(list(a.values()))
    med_b, _, _, spread_b = describe(list(b.values()))
    all_better = all(worse_by(x, y, better) < 0
                     for x in a.values() for y in b.values())
    all_worse = all(worse_by(x, y, better) > 0
                    for x in a.values() for y in b.values())
    if max(spread_a, spread_b) > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    delta = worse_by(med_a, med_b, better)
    if delta > bound:
        return "worse"
    pairs = [worse_by(a[s], b[s], better) for s in a if s in b]
    wins = sum(1 for d in pairs if d < 0)
    if pairs and -delta > spread_a and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def fmt(v):
    return "%.6g" % v


def workload_order(spec, *sets):
    names = [w["name"] for w in spec["workloads"]]
    seen = set().union(*(s.workloads for s in sets))
    return [w for w in names if w in seen] + sorted(seen - set(names))


def summarize(runs, spec):
    print("set %s" % runs.path)
    for w in workload_order(spec, runs):
        print("\n%s" % w)
        for bad in runs.bad.get(w, []):
            print("  FAILED run %s" % bad)
        metrics = runs.values.get((w, 0))
        if not metrics:
            continue
        print("  %-22s %4s %12s %12s %12s %8s %7s" % (
            "metric", "n", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            vals = list(metrics.get(m["name"], {}).values())
            if not vals:
                continue
            med, q1, q3, spread = describe(vals)
            if m["name"] == "setup_s":
                note = "(not gated)"
            elif spread <= m["bound"] / 3:
                note = "steady"
            elif spread <= m["bound"]:
                note = "within bound"
            else:
                note = "TOO NOISY"
            print("  %-22s %4d %12s %12s %12s %7.2f%% %6.1f%%  %s" % (
                m["name"], len(vals), fmt(med), fmt(q1), fmt(q3),
                100 * spread, 100 * m["bound"], note))
    return bool(runs.bad)


def failures(a, b, w):
    """Reasons workload w cannot be compared; empty when it can."""
    out = ["%s: %s" % (s.path, bad) for s in (a, b) for bad in s.bad.get(w, [])]
    for s, other in ((a, b), (b, a)):
        if w in other.workloads and w not in s.workloads:
            out.append("%s has no runs" % s.path)
    seeds = sorted(s for (ww, s) in a.fingerprints
                   if ww == w and (w, s) in b.fingerprints)
    differ = [s for s in seeds
              if a.fingerprints[(w, s)] != b.fingerprints[(w, s)]]
    if differ:
        out.append("virtual fingerprint differs on seeds %s" % differ)
    elif seeds:
        print("  virtual fingerprint identical on %d shared seeds" % len(seeds))
    return out


def compare(a, b, spec):
    print("parent %s\nchange %s" % (a.path, b.path))
    failed = False
    for w in workload_order(spec, a, b):
        print("\n%s" % w)
        reasons = failures(a, b, w)
        for r in reasons:
            print("  FAILED: %s" % r)
        failed |= bool(reasons)
        ma, mb = a.values.get((w, 0)), b.values.get((w, 0))
        if reasons or not ma or not mb:
            continue
        print("  %-22s %-34s %-34s %8s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "worse by", "verdict"))
        for m in spec["end_to_end"]:
            va, vb = ma.get(m["name"]), mb.get(m["name"])
            if not va or not vb:
                continue
            cols = []
            for vals in (va, vb):
                med, q1, q3, _ = describe(list(vals.values()))
                cols.append("%s [%s, %s]" % (fmt(med), fmt(q1), fmt(q3)))
            delta = worse_by(statistics.median(va.values()),
                             statistics.median(vb.values()), m["better"])
            v = verdict(va, vb, m)
            failed |= v == "worse"
            print("  %-22s %-34s %-34s %7.2f%%  %s" % (
                m["name"], cols[0], cols[1], 100 * delta, v))
        la, lb = a.values.get((w, 1)), b.values.get((w, 1))
        if la and lb:
            moves = []
            for name in la:
                if name not in lb:
                    continue
                xa = statistics.median(la[name].values())
                xb = statistics.median(lb[name].values())
                if xa:
                    moves.append((abs(xb / xa - 1), name, xa, xb))
            moves.sort(reverse=True)
            for rel, name, xa, xb in moves[:3]:
                print("  per-layer moved: %-28s %s -> %s (%+.1f%%)" % (
                    name, fmt(xa), fmt(xb), 100 * (xb / xa - 1)))
    return failed


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [RunSet(p) for p in sys.argv[1:]]
    if len(sets) == 1:
        return 1 if summarize(sets[0], spec) else 0
    return 1 if compare(sets[0], sets[1], spec) else 0


if __name__ == "__main__":
    sys.exit(main())
