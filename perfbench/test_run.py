"""Tests of run.py's statistics and output checks.

    python3 perfbench/run.py --selftest          # with the C++ tests
    python3 -m unittest discover -s perfbench    # these alone
"""

import copy
import statistics
import unittest

import run


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q[0], q[2]))

    def test_known_values(self):
        # Exclusive method: positions (n + 1) * k / 4 on 1..8 -> 2.25, 6.75.
        self.assertEqual(run.quartiles([1, 2, 3, 4, 5, 6, 7, 8]), (2.25, 6.75))
        self.assertEqual(run.median([5, 1, 3]), 3)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)

    def test_single_sample(self):
        self.assertEqual(run.quartiles([7.5]), (7.5, 7.5))

    def test_summary(self):
        s = run.summary([2.0, 4.0, 6.0])
        self.assertEqual((s["median"], s["n"]), (4.0, 3))
        self.assertLessEqual(s["q1"], s["median"])
        self.assertGreaterEqual(s["q3"], s["median"])


def call(digest="00000000000000aa", traced=False, role="timed", **exact):
    return {"role": role, "traced": traced, "wall_s": 1.0, "ops": 10,
            "digest": digest, "exact": exact, "layers": {}}


def proc(pool, calls):
    return {"provenance": {"pool": pool}, "calls": calls}


SERVE = {"serve.jobs": 10, "serve.decisions": 10, "serve.finished": 10,
         "serve.pair": 1, "serve.solo": 2, "serve.backfill": 3,
         "serve.degraded": 4, "serve.deadline": 0,
         "p99_placement_wait_n": 10}


class CheckTest(unittest.TestCase):
    def test_agreeing_calls_pass(self):
        main = proc(1, [call(**SERVE), call(traced=True, **SERVE)])
        probe = proc(2, [call(role="warmup", **SERVE)])
        self.assertEqual(run.check("serve_16", 1, main, probe, {}), [])

    def test_digest_mismatch_fails(self):
        main = proc(1, [call(**SERVE), call(digest="bb", traced=True,
                                             **SERVE)])
        probe = proc(2, [call(**SERVE)])
        problems = run.check("serve_16", 1, main, probe, {})
        self.assertEqual(len(problems), 1)
        self.assertIn("traced", problems[0])

    def test_other_pool_mismatch_fails(self):
        main = proc(1, [call(**SERVE)])
        other = dict(SERVE, **{"serve.solo": 3, "serve.backfill": 2})
        probe = proc(2, [call(**other)])
        problems = run.check("serve_16", 1, main, probe, {})
        self.assertIn("pool 2", problems[0])

    def test_broken_decision_mix_fails(self):
        bad = dict(SERVE, **{"serve.degraded": 5})
        main = proc(1, [call(**bad)])
        problems = run.check("serve_16", 1, main, proc(2, [call(**bad)]), {})
        self.assertTrue(any("mix" in p for p in problems))

    def test_default_seed_compares_expected(self):
        expected = {"workloads": {"serve_16": {
            "counts": {"serve.solo": 2}, "simulated": {"serve.x": 1.0}}}}
        good = dict(SERVE, **{"serve.x": 1.0 + 1e-12})
        main = proc(1, [call(**good)])
        self.assertEqual(run.check("serve_16", run.DEFAULT_SEED, main,
                                   proc(2, [call(**good)]), expected), [])
        worse = copy.deepcopy(expected)
        worse["workloads"]["serve_16"]["counts"]["serve.solo"] = 3
        self.assertEqual(len(run.check("serve_16", run.DEFAULT_SEED, main,
                                       proc(2, [call(**good)]), worse)), 1)
        # Other seeds are not held to the default seed's outputs.
        self.assertEqual(run.check("serve_16", 7, main,
                                   proc(2, [call(**good)]), worse), [])


if __name__ == "__main__":
    unittest.main()
