#!/usr/bin/env python3
"""Tables over benchmark result files (.perfbench/*.json).

Per-layer before/after, one row per per-layer metric and workload:

    python3 perfbench/compare.py layers BASE_DIR NEW_DIR

BASE_DIR and NEW_DIR each hold the result files of traced runs
(--trace 1) of one commit, typically several seeds per workload.  Each
side shows the median over its runs; the ratio is new / base.

Tracing overhead, traced against untraced end-to-end figures of the
same code:

    python3 perfbench/compare.py overhead DIR

Self time of each span name in traced span files:

    python3 perfbench/compare.py self DIR/*.spans.jsonl
"""

import glob
import json
import os
import statistics
import sys


def results(directory, trace):
    """{workload: [result dict]} of the result files in directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, f"*-trace{trace}.json"))):
        with open(path) as f:
            r = json.load(f)
        out.setdefault(r["workload"], []).append(r)
    return out


def medians(runs, section):
    values = {}
    for r in runs:
        for name, m in r[section].items():
            if m["value"] is not None:
                values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def ratio(new, base):
    if base == 0:
        return "   =" if new == 0 else "  new"
    return f"{new / base:5.3f}"


def layers(base_dir, new_dir):
    base, new = results(base_dir, 1), results(new_dir, 1)
    print(f"{'workload':12} {'metric':30} {'base':>14} {'new':>14} {'new/base':>8}")
    for workload in sorted(set(base) | set(new)):
        b = medians(base.get(workload, []), "per_layer")
        n = medians(new.get(workload, []), "per_layer")
        for name in sorted(set(b) | set(n)):
            if name in b and name in n:
                r = ratio(n[name], b[name])
                print(f"{workload:12} {name:30} {b[name]:14.4f} {n[name]:14.4f} {r:>8}")
            else:
                side = "base" if name in b else "new"
                print(f"{workload:12} {name:30} only in {side}")


def overhead(directory):
    """Medians over the seeds that have both a traced and an untraced run."""
    traced, plain = results(directory, 1), results(directory, 0)
    print(f"{'workload':12} {'metric':22} {'untraced':>12} {'traced':>12} {'traced-untraced':>16}")
    for workload in sorted(set(traced) & set(plain)):
        seeds = {r["seed"] for r in traced[workload]} & {r["seed"] for r in plain[workload]}
        t = medians([r for r in traced[workload] if r["seed"] in seeds], "end_to_end")
        p = medians([r for r in plain[workload] if r["seed"] in seeds], "end_to_end")
        for name in sorted(set(t) & set(p)):
            d = t[name] - p[name]
            print(f"{workload:12} {name:22} {p[name]:12.4f} {t[name]:12.4f} {d:16.4f}")


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """{span id: self ms}: duration minus the part its children cover.
    Children of one parent never overlap (one domain runs them in turn),
    so the covered part is the sum of their durations."""
    covered = {}
    for s in spans:
        if s["parent"]:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end_ms"] - s["start_ms"]
    return {s["id"]: s["end_ms"] - s["start_ms"] - covered.get(s["id"], 0.0) for s in spans}


def self_table(paths):
    total, count = {}, {}
    for path in paths:
        spans = read_spans(path)
        selfs = self_times(spans)
        for s in spans:
            total[s["name"]] = total.get(s["name"], 0.0) + selfs[s["id"]]
            count[s["name"]] = count.get(s["name"], 0) + 1
    print(f"{'span':24} {'calls':>8} {'self ms':>12} {'self ms/call':>14}")
    for name in sorted(total, key=lambda n: -total[n]):
        print(f"{name:24} {count[name]:8d} {total[name]:12.3f} {total[name] / count[name]:14.4f}")


def main(argv):
    if len(argv) == 3 and argv[0] == "layers":
        layers(argv[1], argv[2])
    elif len(argv) == 2 and argv[0] == "overhead":
        overhead(argv[1])
    elif len(argv) >= 2 and argv[0] == "self":
        self_table(argv[1:])
    else:
        sys.stderr.write(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
