#!/usr/bin/env python3
"""Pipeline benchmark: trace file -> annotate -> compile -> replay -> report.

Usage (from the repository root):

    python3 perfbench/run.py --workload rr16-hdd --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library sources it compiles) into
.bench_build/perfbench, generates the workload from --seed several times to
time set-up, runs the pipeline for --seconds, checks the outputs, prints
every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 reports the per-layer metrics, adds the traced pass and
the layer probes, and leaves a Perfetto-loadable trace in .bench_build/traces/.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_pipeline")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("rr16-hdd", "web1m-ssd", "lock200k-hdd", "magritte34-x4")
# setup_s is the median of this many set-ups. Each one rewrites the whole
# input, 92 MB for web1m-ssd, so more would mostly add disk traffic.
SETUP_REPS = 3
# Everything after the build must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally; returns success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_pipeline", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def pipeline(args, deadline):
    """Runs perfbench_pipeline; returns its last stdout line parsed as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before: " + " ".join(args))
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError("perfbench_pipeline %s exited %d"
                           % (args[0], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_digest(path):
    """Content hash of every file under path, so set-up repetitions can be
    checked to produce identical inputs."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprint", action="store_true",
                    help="store this seed's virtual fingerprint in "
                         "perfbench/fingerprints.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        return 1

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    trace_out = "-"
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-s%d.json"
                                 % (args.workload, args.seed))
    try:
        setup_s = []
        digests = set()
        for _ in range(SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            out = pipeline(["setup", args.workload, str(args.seed), work],
                           deadline)
            setup_s.append(out["setup_s"])
            if len(setup_s) == 1:
                digests.add(tree_digest(work))
        # The pipeline reads the last set-up's files; they must equal the
        # first's.
        digests.add(tree_digest(work))
        # Write back the set-up's files now, not during the timed passes.
        os.sync()
        res = pipeline(["run", args.workload, str(args.seed), work,
                        repr(args.seconds), trace_out], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    if len(digests) != 1:
        problems.append("set-up repetitions produced different inputs")
    if not res["fingerprints_match"]:
        problems.append("a pass produced a different virtual fingerprint")
    oracle = res["oracle"]
    if oracle["hb_violations"] or oracle["unexecuted"]:
        problems.append("refmodel oracle: %d hb violations, %d unexecuted (%s)"
                        % (oracle["hb_violations"], oracle["unexecuted"],
                           oracle["first_violation"]))
    if oracle["ret_mismatches"] != res["failed_ops_per_pass"]:
        problems.append("oracle return mismatches %d != report failures %d"
                        % (oracle["ret_mismatches"], res["failed_ops_per_pass"]))
    recorded = load_json(FINGERPRINTS, {})
    known = recorded.get(args.workload, {}).get(str(args.seed))
    if known is not None and known != res["fingerprint"]:
        problems.append("fingerprint differs from the recorded one: %s"
                        % known)
    if args.trace:
        try:
            with open(trace_out) as f:
                json.load(f)
        except (OSError, ValueError) as e:
            problems.append("trace not written or not JSON: %s" % e)

    if args.trace:
        wanted, values = spec["per_layer"], res["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = dict(res["end_to_end"], setup_s=statistics.median(setup_s))
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            problems.append("metric %s missing" % m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if not args.trace:
        for name, m in metrics.items():
            if m["value"] <= 0:
                problems.append("end-to-end metric %s is not positive" % name)

    if args.record_fingerprint and not problems and known is None:
        recorded.setdefault(args.workload, {})[str(args.seed)] = res["fingerprint"]
        with open(FINGERPRINTS, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")

    print("workload %s seed %d: %d timed passes of %.1f s"
          % (args.workload, args.seed, res["passes"], args.seconds))
    for name, m in metrics.items():
        extra = ""
        if name == "pipeline_s":
            extra = "  (median of %d passes)" % res["passes"]
        elif name == "setup_s":
            extra = "  (median of %d set-ups)" % len(setup_s)
        print("  %-28s %-16.6g %s%s" % (name, m["value"], m["unit"], extra))
    print("  pass seconds: " + " ".join("%.3f" % s for s in res["pass_s"]))
    print("  %-28s %-16.6g share" % ("failed_op_share", res["failed_op_share"]))
    print("  %-28s %-16.6g %%" % ("replay_error_pct", res["replay_error_pct"]))
    print("fingerprint: %s (%s)" % (res["fingerprint"],
                                    "no recorded value" if known is None
                                    else "matches the recorded value"
                                    if known == res["fingerprint"]
                                    else "DIFFERS from the recorded value"))
    print("oracle: %d replays, %d hb edges, %d violations, %d unexecuted, "
          "%d return mismatches" % (oracle["replays"], oracle["hb_edges"],
                                    oracle["hb_violations"],
                                    oracle["unexecuted"],
                                    oracle["ret_mismatches"]))
    if args.trace:
        print("trace: %s (%d of the library's oldest records dropped by its "
              "ring buffers)" % (trace_out, res["trace_dropped_records"]))
    for p in problems:
        print("CHECK FAILED: " + p)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": res["passes"],
                      "failed": 0 if correct else res["passes"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
