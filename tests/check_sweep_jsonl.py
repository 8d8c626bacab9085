#!/usr/bin/env python3
"""Validator for artc_sweep's per-cell JSONL rows.

One JSON object per line, one line per grid cell, as written by
`artc_sweep --out rows.jsonl` (and by sweep::RunSweep's rows sink).
Checks, per row:

  * every required key is present with the right type (config echo axes,
    virtual end times, event counts, critical-path surface split, storage
    layer split, storage block counts, raid_member_blocks list,
    stall_by_rule map, top_stall list);
  * orig_ns and error_pct come together (a pre-traced input has neither):
    orig_ns is positive and error_pct == 100 * (end_ns - orig_ns) / orig_ns
    to the row's four decimals;
  * "cell" and "digest" are 16 lowercase hex chars;
  * the critical-path tiling invariant holds exactly:
        exec_ns + stall_ns + pacing_ns + idle_ns == end_ns;
  * stall_by_rule values are positive ints over the known rule vocabulary
    and sum to at most stall_ns;
  * top_stall is a [name, ns] list sorted by descending ns;
  * cache_mb is -1 (config default) or > 0, threads is 0 (the workload's
    own count) or positive.

Across rows: "idx" is dense 0..N-1 in emission order (the engine's
determinism contract is in-order emission regardless of --jobs) and cell
ids are unique. --cells N additionally pins the row count, so a CI grid
that should expand to N cells fails loudly if rows go missing.

Input is a file path argument or stdin. Exits 0 when clean; prints every
violation and exits 1 otherwise. --self-test runs built-in fixtures (used
by ctest so drift is caught without running a sweep).
"""

import argparse
import json
import re
import sys

HEX16_RE = re.compile(r"^[0-9a-f]{16}$")

# (key, required type). bool is an int subclass in python, so int checks
# explicitly reject bool below.
STR_KEYS = ("cell", "workload", "source", "method", "fs", "storage",
            "iosched", "schedule", "pacing", "digest")
BLOCK_KEYS = ("media_read_blocks", "media_write_blocks", "cache_hit_blocks",
              "cache_miss_blocks", "cache_evicted_blocks",
              "cache_writeback_blocks")
INT_KEYS = ("idx", "threads", "cache_mb", "seed", "end_ns", "sim_end_ns",
            "switches", "events", "failed_events", "exec_ns", "stall_ns",
            "pacing_ns", "idle_ns", "storage_ns", "storage_cache_ns",
            "storage_media_read_ns", "storage_media_write_ns",
            "storage_writeback_ns") + BLOCK_KEYS
# Host wall time is the one legitimately nondeterministic field; present
# unless the sweep ran with --no-host-ms.
OPTIONAL_INT_KEYS = ("host_us",)

RULE_VOCAB = frozenset([
    "thread_seq", "file_seq", "path_stage", "path_name", "fd_stage",
    "fd_seq", "aio_stage", "mutex", "barrier", "cond", "join", "temporal",
])


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def check_row(row, lineno, errors):
    def err(msg):
        errors.append("line %d: %s" % (lineno, msg))

    for key in STR_KEYS:
        if not isinstance(row.get(key), str):
            err("missing or non-string %r" % key)
    for key in INT_KEYS:
        if not is_int(row.get(key)):
            err("missing or non-integer %r" % key)
    for key in OPTIONAL_INT_KEYS:
        if key in row and not is_int(row[key]):
            err("non-integer %r" % key)
    known = set(STR_KEYS) | set(INT_KEYS) | set(OPTIONAL_INT_KEYS) | {
        "orig_ns", "error_pct", "raid_member_blocks", "stall_by_rule",
        "top_stall"}
    for key in row:
        if key not in known:
            err("unknown key %r" % key)

    for key in ("cell", "digest"):
        if isinstance(row.get(key), str) and not HEX16_RE.match(row[key]):
            err("%r is not 16 lowercase hex chars: %r" % (key, row[key]))

    if is_int(row.get("cache_mb")) and not (row["cache_mb"] == -1
                                            or row["cache_mb"] > 0):
        err("cache_mb must be -1 or positive, got %d" % row["cache_mb"])

    if is_int(row.get("threads")) and row["threads"] < 0:
        err("threads must be 0 or positive, got %d" % row["threads"])
    for key in BLOCK_KEYS:
        if is_int(row.get(key)) and row[key] < 0:
            err("%s is negative" % key)
    members = row.get("raid_member_blocks")
    if not isinstance(members, list) or not all(
            is_int(m) and m >= 0 for m in members):
        err("missing or malformed 'raid_member_blocks': %r" % (members,))

    if ("orig_ns" in row) != ("error_pct" in row):
        err("orig_ns and error_pct must come together")
    elif "orig_ns" in row:
        orig, pct = row["orig_ns"], row["error_pct"]
        if not is_int(orig) or orig <= 0:
            err("orig_ns must be a positive int, got %r" % (orig,))
        elif not isinstance(pct, (int, float)) or isinstance(pct, bool):
            err("error_pct must be a number, got %r" % (pct,))
        elif is_int(row.get("end_ns")):
            want = 100.0 * (row["end_ns"] - orig) / orig
            if abs(pct - want) > 0.00006:
                err("error_pct %r != 100 * (end_ns - orig_ns) / orig_ns = %.4f"
                    % (pct, want))

    surfaces = ("exec_ns", "stall_ns", "pacing_ns", "idle_ns")
    if all(is_int(row.get(k)) for k in surfaces + ("end_ns",)):
        for k in surfaces:
            if row[k] < 0:
                err("%s is negative" % k)
        tiled = sum(row[k] for k in surfaces)
        if tiled != row["end_ns"]:
            err("tiling violated: exec+stall+pacing+idle = %d != end_ns = %d"
                % (tiled, row["end_ns"]))

    rules = row.get("stall_by_rule")
    if not isinstance(rules, dict):
        err("missing or non-object 'stall_by_rule'")
    else:
        for name, ns in rules.items():
            if name not in RULE_VOCAB:
                err("unknown rule %r in stall_by_rule" % name)
            if not is_int(ns) or ns <= 0:
                err("stall_by_rule[%r] must be a positive int, got %r"
                    % (name, ns))
        if is_int(row.get("stall_ns")):
            rule_sum = sum(v for v in rules.values() if is_int(v))
            if rule_sum > row["stall_ns"]:
                err("stall_by_rule sums to %d > stall_ns %d"
                    % (rule_sum, row["stall_ns"]))

    top = row.get("top_stall")
    if not isinstance(top, list):
        err("missing or non-list 'top_stall'")
    else:
        values = []
        for entry in top:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[0], str) or not is_int(entry[1])):
                err("top_stall entry is not [name, ns]: %r" % (entry,))
                continue
            values.append(entry[1])
        if values != sorted(values, reverse=True):
            err("top_stall is not sorted by descending ns: %r" % (values,))


def check_rows(text, expected_cells=None):
    """Returns a list of violation strings for a JSONL payload."""
    errors = []
    ids = {}
    rows = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            errors.append("line %d: blank line in JSONL stream" % lineno)
            continue
        try:
            row = json.loads(line)
        except ValueError as e:
            errors.append("line %d: not JSON: %s" % (lineno, e))
            continue
        if not isinstance(row, dict):
            errors.append("line %d: row is not an object" % lineno)
            continue
        if is_int(row.get("idx")) and row["idx"] != rows:
            errors.append("line %d: idx %d out of order (expected %d)"
                          % (lineno, row["idx"], rows))
        cell = row.get("cell")
        if isinstance(cell, str):
            if cell in ids:
                errors.append("line %d: duplicate cell id %s (first on line %d)"
                              % (lineno, cell, ids[cell]))
            ids[cell] = lineno
        check_row(row, lineno, errors)
        rows += 1
    if rows == 0:
        errors.append("no rows")
    if expected_cells is not None and rows != expected_cells:
        errors.append("expected %d rows, got %d" % (expected_cells, rows))
    return errors


GOOD_ROW = {
    "cell": "7f3a1b2c4d5e6f01", "idx": 0, "workload": "random_readers",
    "threads": 8, "source": "raid0:cache_mb=96", "method": "artc",
    "fs": "ext4", "storage": "hdd", "iosched": "cfq-5ms", "cache_mb": -1,
    "schedule": "default", "seed": 1, "pacing": "afap", "end_ns": 100,
    "orig_ns": 80, "error_pct": 25.0, "sim_end_ns": 100, "switches": 7,
    "events": 12, "failed_events": 0, "digest": "00ff00ff00ff00ff",
    "exec_ns": 60, "stall_ns": 30, "pacing_ns": 0, "idle_ns": 10,
    "storage_ns": 50, "storage_cache_ns": 5, "storage_media_read_ns": 40,
    "storage_media_write_ns": 0, "storage_writeback_ns": 5,
    "media_read_blocks": 9, "media_write_blocks": 0, "cache_hit_blocks": 3,
    "cache_miss_blocks": 9, "cache_evicted_blocks": 0,
    "cache_writeback_blocks": 0, "raid_member_blocks": [5, 4],
    "stall_by_rule": {"file_seq": 20, "mutex": 10},
    "top_stall": [["disk", 25], ["mutex#3", 5]], "host_us": 1234,
}


def self_test():
    def variant(**kw):
        row = dict(GOOD_ROW)
        row.update(kw)
        return json.dumps(row)

    ok = check_rows(variant())
    assert not ok, ok
    # A pre-traced input's row has no original run.
    pretraced = {k: v for k, v in GOOD_ROW.items()
                 if k not in ("orig_ns", "error_pct")}
    ok = check_rows(json.dumps(pretraced))
    assert not ok, ok

    cases = [
        (variant(end_ns=101), "tiling"),
        (variant(digest="xyz"), "hex"),
        (variant(cache_mb=0), "cache_mb"),
        (variant(stall_by_rule={"warp": 3}), "unknown rule"),
        (variant(stall_by_rule={"mutex": 31}), "stall_by_rule sums"),
        (variant(top_stall=[["a", 1], ["b", 2]]), "descending"),
        (variant(idx=5), "out of order"),
        (variant(error_pct=24.9), "error_pct"),
        (variant(orig_ns=0), "orig_ns must be"),
        (json.dumps({k: v for k, v in GOOD_ROW.items() if k != "error_pct"}),
         "come together"),
        (variant(raid_member_blocks=[1, -2]), "raid_member_blocks"),
        (variant(threads=-1), "threads"),
        (variant(backend="fibers"), "unknown key 'backend'"),
        (json.dumps({k: v for k, v in GOOD_ROW.items()
                     if k != "cache_hit_blocks"}), "'cache_hit_blocks'"),
        (json.dumps({k: v for k, v in GOOD_ROW.items() if k != "events"}),
         "'events'"),
        ("not json", "not JSON"),
    ]
    for text, needle in cases:
        errors = check_rows(text)
        assert any(needle in e for e in errors), (needle, errors)

    dup = variant() + "\n" + variant(idx=1)
    assert any("duplicate cell id" in e for e in check_rows(dup))
    assert any("expected 3 rows" in e
               for e in check_rows(variant(), expected_cells=3))
    assert any("no rows" in e for e in check_rows(""))
    print("self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path", nargs="?", help="JSONL file (default stdin)")
    ap.add_argument("--cells", type=int, default=None,
                    help="exact number of rows required")
    ap.add_argument("--self-test", action="store_true",
                    help="run built-in fixtures and exit")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return 0

    text = open(args.path).read() if args.path else sys.stdin.read()
    errors = check_rows(text, expected_cells=args.cells)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print("FAIL: %d violation(s)" % len(errors), file=sys.stderr)
        return 1
    print("OK: sweep JSONL clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
