#!/usr/bin/env python3
"""Runs the benchmark over several seeds and keeps every run's output.

    python3 perfbench/sweep.py --out runs/set1 --seeds 1-10
    python3 perfbench/sweep.py --out runs --seeds 1-10 --parent ../parent
    python3 perfbench/sweep.py --out runs/set1 --seeds 1-3 --trace 1 \
        --workloads rr16-hdd web1m-ssd

Each run's stdout goes to <dir>/<workload>_s<seed>_t<trace>.out, the layout
perfbench/compare.py reads. Every run lasts BENCHMARK.json's run_seconds.

Without --parent, runs this checkout into OUT. With --parent, which names
another checkout (the parent commit, or this one again to measure two sets
of the same code), each seed runs on both checkouts back to back, into
OUT/parent and OUT/change, alternating which side goes first. The host's
speed drifts over minutes, so runs taken as pairs share that drift instead
of it landing between two sets.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(checkout, out_dir, workload, seed, args, seconds):
    """Runs checkout's benchmark once; returns whether it passed its checks."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s_s%d_t%d.out" % (workload, seed, args.trace))
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.record_fingerprint:
        cmd.append("--record-fingerprint")
    with open(path, "w") as out:
        rc = subprocess.run(cmd, stdout=out, cwd=checkout).returncode
    with open(path) as f:
        lines = f.read().strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    ok = rc == 0 and result is not None and result["correct"]
    print("%-14s seed %-4d %-40s %s" % (workload, seed, out_dir,
                                        "ok" if ok else "FAILED"), flush=True)
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True,
                    help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--parent", help="another checkout to run in alternation")
    ap.add_argument("--record-fingerprint", action="store_true",
                    help="passed on to run.py")
    args = ap.parse_args()

    if args.parent:
        sides = [(os.path.abspath(args.parent), os.path.join(args.out, "parent")),
                 (ROOT, os.path.join(args.out, "change"))]
    else:
        sides = [(ROOT, args.out)]
    status = 0
    for w in args.workloads:
        for i, s in enumerate(args.seeds):
            order = sides if i % 2 == 0 else sides[::-1]
            for checkout, out_dir in order:
                if not run_one(checkout, out_dir, w, s, args, spec["run_seconds"]):
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
