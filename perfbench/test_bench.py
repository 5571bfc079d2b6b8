#!/usr/bin/env python3
"""The benchmark's own tests.  From the root of a checkout:

    python3 perfbench/test_bench.py

Runs short load runs and one short serve_mixed run (about two minutes
in all) and checks that the deterministic figures repeat bit for bit
for one seed, that another seed changes the corpus, and that a traced
run's span file parses with self times that add up.  serve_mixed is only checked for a correct,
complete result: its two domains interleave differently on every run,
so none of its figures repeat.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

OUT = ".perfbench"
SEED = 7

EXACT_END_TO_END = ["load_sim_ms_per_mb", "query_sim_ms", "space_amp", "write_amp"]
EXACT_PER_LAYER = [
    "core.splits",
    "query.rows",
    "store.disk.reads",
    "store.disk.sequential_reads",
    "store.disk.writes",
    "store.disk.sim_ms",
]


def bench(workload, seed, trace):
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")) as f:
        detail = json.load(f)
    return proc.returncode, last, detail


class BenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for trace in (0, 1):
            cls.runs["load", trace] = [bench("load", SEED, trace) for _ in range(2)]
        cls.runs["load", "spans"] = compare.read_spans(os.path.join(OUT, f"load-seed{SEED}.spans.jsonl"))
        cls.other_seed = bench("load", SEED + 1, 0)
        cls.runs["serve_mixed", 0] = [bench("serve_mixed", SEED, 0)]

    def test_runs_are_correct(self):
        for key, runs in self.runs.items():
            if key[1] == "spans":
                continue
            for code, last, _ in runs:
                self.assertEqual(code, 0, key)
                self.assertTrue(last["correct"], key)
                self.assertEqual(last["failed"], 0, key)
                self.assertGreaterEqual(last["attempted"], 1, key)

    def test_result_line_reports_every_metric(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        for key, section in (
            (("load", 0), "end_to_end"),
            (("load", 1), "per_layer"),
            (("serve_mixed", 0), "end_to_end"),
        ):
            _, last, _ = self.runs[key][0]
            names = sorted(m["name"] for m in spec[section])
            self.assertEqual(sorted(last["metrics"]), names, key)

    def test_deterministic_figures_repeat(self):
        (_, _, a), (_, _, b) = self.runs["load", 0]
        for name in EXACT_END_TO_END:
            self.assertEqual(a["end_to_end"][name], b["end_to_end"][name], name)
        (_, _, a), (_, _, b) = self.runs["load", 1]
        for name in EXACT_PER_LAYER:
            self.assertEqual(a["per_layer"][name], b["per_layer"][name], name)

    def test_another_seed_changes_the_corpus(self):
        _, _, a = self.runs["load", 0][0]
        _, _, b = self.other_seed
        self.assertNotEqual(a["extra"]["xml_mb"]["value"], b["extra"]["xml_mb"]["value"])
        sim = "load_sim_ms_per_mb"
        self.assertNotEqual(a["end_to_end"][sim]["value"], b["end_to_end"][sim]["value"])

    def test_load_self_times_sum_to_root(self):
        spans = self.runs["load", "spans"]
        self.assertTrue(spans)
        selfs = compare.self_times(spans)
        by_op = {}
        for s in spans:
            by_op.setdefault(s["op"], []).append(s)
        loads = 0
        for op, members in by_op.items():
            root = [s for s in members if s["id"] == op]
            self.assertEqual(len(root), 1, op)
            root = root[0]
            self.assertEqual(root["parent"], 0)
            total = sum(selfs[s["id"]] for s in members)
            self.assertAlmostEqual(total, root["end_ms"] - root["start_ms"], delta=1e-3)
            if root["name"] == "op.load":
                loads += 1
                names = sorted(s["name"] for s in members)
                self.assertEqual(names, ["core.store", "op.load", "xml.parse"])
        self.assertGreater(loads, 0)


if __name__ == "__main__":
    unittest.main()
