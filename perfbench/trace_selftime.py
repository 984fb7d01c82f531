#!/usr/bin/env python3
"""Turn a perfbench trace into per-layer self times.

    python3 perfbench/trace_selftime.py .bench_build/traces/ntt-1.jsonl

A trace is one JSON object per line, in recording order:
{"name", "layer", "start_ns", "end_ns", "parent", "req"}, where "parent" is
the line index of the enclosing span (-1 for none). A span's self time is
its duration minus the durations of its direct children. The script prints,
per layer and per span name, the span count, total time and self time, and
each layer's share of all self time.
"""

import collections
import json
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [s["end_ns"] - s["start_ns"] - c for s, c in zip(spans, child_ns)]


def summarize(spans):
    """{(layer, name): [count, total_ns, self_ns]}"""
    rows = collections.defaultdict(lambda: [0, 0, 0])
    for s, own in zip(spans, self_times(spans)):
        row = rows[(s["layer"], s["name"])]
        row[0] += 1
        row[1] += s["end_ns"] - s["start_ns"]
        row[2] += own
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = summarize(load(argv[1]))
    all_self = sum(r[2] for r in rows.values()) or 1
    by_layer = collections.defaultdict(int)
    for (layer, _), r in rows.items():
        by_layer[layer] += r[2]
    print("%-20s %-24s %8s %12s %12s %12s" %
          ("layer", "span", "count", "total_ms", "self_ms", "self_us/call"))
    for (layer, name), (n, total, own) in sorted(rows.items()):
        print("%-20s %-24s %8d %12.3f %12.3f %12.3f" %
              (layer, name, n, total / 1e6, own / 1e6, own / 1e3 / n))
    print()
    print("%-20s %12s %8s" % ("layer", "self_ms", "share"))
    for layer, own in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("%-20s %12.3f %7.1f%%" % (layer, own / 1e6, 100.0 * own / all_self))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
