#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout. Checks that every metric
BENCHMARK.json names is printed with its unit, that the counts repeat
exactly across two runs, that the reference check rejects a wrongly
pinned value, and that the benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TINY = {"storm": 20, "bulk": 5, "fleet": 5}
SEED = 1234

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)


def bench(workload, trace, reference=None, cwd="."):
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", str(TINY[workload]),
    ]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    records = [json.loads(l)["record"] for l in lines if l.startswith('{"record"')]
    summary = json.loads(lines[-1]) if lines and not lines[-1].startswith('{"record"') else None
    return proc.returncode, records, summary


class Perfbench(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in TINY:
            for trace in (0, 1):
                cls.runs[w, trace] = [bench(w, trace), bench(w, trace)]

    def test_every_metric_printed_with_unit(self):
        for (w, trace), runs in self.runs.items():
            code, _, summary = runs[0]
            self.assertEqual(code, 0, (w, trace))
            self.assertTrue(summary["correct"], (w, trace))
            self.assertEqual(sorted(summary), ["attempted", "correct", "failed", "metrics"])
            spec = SPEC["per_layer" if trace else "end_to_end"]
            expected = {m["name"]: m["unit"] for m in spec}
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            self.assertEqual(got, expected, (w, trace))

    def test_counts_repeat(self):
        time_like = ("host", "setup", "overhead", "gc.pause", "gc.share")
        for (w, trace), ((_, rec_a, sum_a), (_, rec_b, sum_b)) in self.runs.items():
            # the first untraced record and, with --trace 1, the first traced one
            for a, b in zip(rec_a[: 1 + trace], rec_b[: 1 + trace]):
                for key in ("ops", "failed", "domains_left", "minor_words", "major_words",
                            "promoted_words", "top_heap_words", "reference", "counters", "dpath",
                            "sim_pending_max"):
                    self.assertEqual(a.get(key), b.get(key), (w, trace, key))
            for name, v in sum_a["metrics"].items():
                if not any(t in name for t in time_like):
                    self.assertEqual(v, sum_b["metrics"][name], (w, trace, name))

    def test_reference_rejects_wrong_pin(self):
        tmp = tempfile.mkdtemp(dir="_build")
        try:
            for w in TINY:
                _, records, _ = self.runs[w, 0][0]
                good = records[0]["reference"]
                key = sorted(good)[-1]
                bad = dict(good, **{key: good[key] + 1})
                for pinned, ok in ((good, True), (bad, False)):
                    ref = os.path.join(tmp, "reference.json")
                    with open(ref, "w") as f:
                        json.dump({"sizes": TINY, "held_out_seed": 0,
                                   "pinned": {"%s/%d" % (w, TINY[w]): {str(SEED): pinned}}}, f)
                    for trace in (0, 1):
                        code, recs, summary = bench(w, trace, reference=ref)
                        self.assertEqual(code, 0)
                        self.assertEqual(summary["correct"], ok, (w, trace, pinned))
                        self.assertTrue(all(r["pinned"] for r in recs))
                        if not ok:
                            self.assertEqual(summary["failed"], summary["attempted"])
        finally:
            shutil.rmtree(tmp)

    def test_refuses_without_sources(self):
        tmp = tempfile.mkdtemp(dir="_build")
        try:
            shutil.copy("BENCHMARK.json", tmp)
            shutil.copytree("perfbench", os.path.join(tmp, "perfbench"))
            code, records, summary = bench("storm", 0, cwd=tmp)
            self.assertNotEqual(code, 0)
            self.assertEqual((records, summary), ([], None))
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
