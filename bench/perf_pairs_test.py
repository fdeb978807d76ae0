#!/usr/bin/env python3
"""Offline tests of bench/perf_pairs.py: the verdict rule and the digest check.

    python3 bench/perf_pairs_test.py

Runs nothing but the pure functions; needs no build, git or benchmark run.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402

LOWER = {"name": "ns_per_bit", "better": "lower", "bound": 0.25}
HIGHER = {"name": "units_per_sec", "better": "higher", "bound": 0.25}
TIGHT_BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def wins_of(metric, base, change):
    lower = metric["better"] == "lower"
    return sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))


def verdict(metric, base, change):
    return perf_pairs.verdict(metric, base, change, wins_of(metric, base, change), len(base))


class VerdictTest(unittest.TestCase):
    def test_too_few_pairs_even_when_every_pair_wins(self):
        base = TIGHT_BASE[:5]
        change = [x * 0.5 for x in base]
        self.assertEqual(verdict(LOWER, base, change), "too few pairs")

    def test_gain_when_lower_is_better(self):
        change = [x * 0.7 for x in TIGHT_BASE]
        self.assertEqual(verdict(LOWER, TIGHT_BASE, change), "gain")

    def test_gain_when_higher_is_better(self):
        change = [x * 1.4 for x in TIGHT_BASE]
        self.assertEqual(verdict(HIGHER, TIGHT_BASE, change), "gain")

    def test_gain_needs_nine_of_ten_wins(self):
        change = [x * 1.4 for x in TIGHT_BASE]
        change[0] = change[1] = 1.0  # two lost pairs: 8/10
        self.assertEqual(wins_of(HIGHER, TIGHT_BASE, change), 8)
        self.assertNotEqual(verdict(HIGHER, TIGHT_BASE, change), "gain")

    def test_gain_needs_the_median_beyond_the_base_spread(self):
        base = [80.0, 90.0, 100.0, 110.0, 120.0, 80.0, 90.0, 100.0, 110.0, 120.0]
        change = [x + 5.0 for x in base]  # wins every pair, but 5 < Q3 - Q1
        self.assertEqual(wins_of(HIGHER, base, change), 10)
        self.assertNotEqual(verdict(HIGHER, base, change), "gain")

    def test_worse_beyond_the_bound(self):
        change = [x * 1.5 for x in TIGHT_BASE]
        self.assertEqual(verdict(LOWER, TIGHT_BASE, change), "worse")
        change = [x * 0.5 for x in TIGHT_BASE]
        self.assertEqual(verdict(HIGHER, TIGHT_BASE, change), "worse")

    def test_unresolved_when_the_base_spread_exceeds_the_bound(self):
        base = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 100.0, 100.0]
        self.assertEqual(verdict(LOWER, base, list(base)), "unresolved")

    def test_no_claim_when_flat(self):
        self.assertEqual(verdict(LOWER, TIGHT_BASE, list(TIGHT_BASE)), "no claim")
        change = [x * 1.1 for x in TIGHT_BASE]  # worse, but inside the bound
        self.assertEqual(verdict(LOWER, TIGHT_BASE, change), "no claim")


RECORDED = "digest ok: 49cc2a76d78b972e (recorded 49cc2a76d78b972e)"
HELD_OUT = "digest 0703971b8187c8de (no recorded digest for this seed and scale)"
OTHER = "digest 1111111111111111 (no recorded digest for this seed and scale)"
MISMATCH = "digest MISMATCH: 1111111111111111 (recorded 49cc2a76d78b972e)"


class DigestTest(unittest.TestCase):
    def test_digest_value_reads_every_form(self):
        self.assertEqual(perf_pairs.digest_value(RECORDED), "49cc2a76d78b972e")
        self.assertEqual(perf_pairs.digest_value(HELD_OUT), "0703971b8187c8de")
        self.assertEqual(perf_pairs.digest_value(MISMATCH), "1111111111111111")
        self.assertIsNone(perf_pairs.digest_value("digest ?"))

    def test_agreeing_pairs_pass(self):
        self.assertEqual(perf_pairs.pair_problems((0, RECORDED), (0, RECORDED)), [])
        self.assertEqual(perf_pairs.pair_problems((0, HELD_OUT), (0, HELD_OUT)), [])

    def test_held_out_seed_digests_must_agree(self):
        problems = perf_pairs.pair_problems((0, HELD_OUT), (0, OTHER))
        self.assertEqual(len(problems), 1)
        self.assertIn("digests differ", problems[0])

    def test_missing_digest_fails(self):
        self.assertNotEqual(perf_pairs.pair_problems((0, "digest ?"), (0, "digest ?")), [])

    def test_recorded_mismatch_fails(self):
        problems = perf_pairs.pair_problems((0, RECORDED), (0, MISMATCH))
        self.assertTrue(any("change digest mismatches" in p for p in problems))
        self.assertTrue(any("digests differ" in p for p in problems))

    def test_failed_units_fail(self):
        problems = perf_pairs.pair_problems((3, RECORDED), (0, RECORDED))
        self.assertEqual(problems, ["base reported 3 failed units"])


class JsonOutTest(unittest.TestCase):
    SPEC = {"end_to_end": [LOWER, HIGHER]}

    def test_summary_rows_carry_quartiles_wins_and_verdict(self):
        samples = {
            "base": [{"ns_per_bit": b, "units_per_sec": b} for b in TIGHT_BASE],
            "change": [{"ns_per_bit": b * 0.7, "units_per_sec": b * 0.7} for b in TIGHT_BASE],
        }
        rows = perf_pairs.summarize(self.SPEC, samples, len(TIGHT_BASE))
        self.assertEqual([r["metric"] for r in rows], ["ns_per_bit", "units_per_sec"])
        lower, higher = rows
        q1, med, q3 = perf_pairs.quartiles(TIGHT_BASE)
        self.assertEqual(lower["base"], {"median": med, "q1": q1, "q3": q3})
        self.assertAlmostEqual(lower["change"]["median"], med * 0.7)
        self.assertAlmostEqual(lower["ratio"], 0.7)
        self.assertEqual(lower["wins"], 10)
        self.assertEqual(lower["verdict"], "gain")
        self.assertEqual(higher["wins"], 0)
        self.assertEqual(higher["verdict"], "worse")

    def test_written_file_round_trips(self):
        class Args:
            workload, seed, pairs, seconds = "adversary_search", 2, 10, 20
        samples = {"base": [{"ns_per_bit": 1.0, "units_per_sec": 1.0}],
                   "change": [{"ns_per_bit": 0.5, "units_per_sec": 2.0}]}
        rows = perf_pairs.summarize(self.SPEC, samples, 1)
        self.assertEqual(rows[0]["verdict"], "too few pairs")
        digests = [{"base": "0703971b8187c8de", "change": "0703971b8187c8de"}]
        record = perf_pairs.trajectory_record(Args, "abc123", rows, digests, False)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.json")
            perf_pairs.write_json(path, record)
            with open(path) as f:
                back = json.load(f)
        self.assertEqual(back, record)
        self.assertEqual(back["base_commit"], "abc123")
        self.assertEqual(back["run_seconds"], 20)
        self.assertEqual(back["digests"], digests)
        self.assertEqual(back["metrics"][1]["ratio"], 2.0)


if __name__ == "__main__":
    unittest.main()
