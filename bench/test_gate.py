"""The correctness gate must trip on a wrong verdict.

Run from the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import dataclasses
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ctxdrt import tableau  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from operation import load_background, run_discourse  # noqa: E402


def checked_run(workload, bg, discourse):
    """Run one discourse and record its proofs, as the benchmark's gate pass does."""
    with Gate(workload, bg).recording() as proofs:
        out = run_discourse(discourse.text, bg)
    return out, proofs


def hank():
    discourse = workloads.wide_context_text(random.Random(0), 0)
    bg = load_background((workloads.MARRIAGE_POSTULATE,))
    return (discourse, bg) + checked_run("wide_context", bg, discourse)


def gate_errors(workload, bg, discourse, out, proofs):
    gate = Gate(workload, bg)
    gate.check(0, discourse, out, proofs)
    return gate.errors


class GateTest(unittest.TestCase):
    def test_hank_passes(self):
        discourse, bg, out, proofs = hank()
        self.assertTrue(proofs)
        self.assertEqual(gate_errors("wide_context", bg, discourse, out, proofs), [])

    def test_flipped_shared_verdict_trips(self):
        discourse, bg, out, proofs = hank()
        # the oracle decides the open tasks (it finds countermodels) but not
        # the closed ones, whose premise has an existential under a universal
        statuses = list(out.verdict.statuses)
        i = next(i for i, (_, s) in enumerate(statuses) if s == tableau.OPEN_SATURATED)
        statuses[i] = (statuses[i][0], tableau.CLOSED)
        out.verdict = tableau.Verdict(tuple(statuses))
        errors = gate_errors("wide_context", bg, discourse, out, proofs)
        self.assertTrue(any("oracle" in e for e in errors), errors)

    def test_flipped_proof_status_trips(self):
        discourse, bg, out, proofs = hank()
        i = next(i for i, (_, s) in enumerate(proofs) if s == tableau.OPEN_SATURATED)
        proofs[i] = (proofs[i][0], tableau.CLOSED)
        errors = gate_errors("wide_context", bg, discourse, out, proofs)
        self.assertTrue(any("reading" in e and "oracle" in e for e in errors), errors)

    def test_flipped_reading_verdict_trips(self):
        discourse, bg, out, proofs = hank()
        checks = list(out.readings.checks)
        i = next(i for i, c in enumerate(checks) if c.verdict.informative == "pass")
        checks[i] = dataclasses.replace(
            checks[i], verdict=dataclasses.replace(checks[i].verdict, informative="fail")
        )
        out.readings = dataclasses.replace(out.readings, checks=tuple(checks))
        errors = gate_errors("wide_context", bg, discourse, out, proofs)
        self.assertTrue(any("reported fail" in e for e in errors), errors)

    def test_missing_survivor_trips(self):
        discourse, bg, out, proofs = hank()
        out.readings = dataclasses.replace(out.readings, survivors=out.readings.survivors[:1])
        self.assertTrue(gate_errors("wide_context", bg, discourse, out, proofs))

    def test_chain_of_one_needs_two_survivors(self):
        batch = workloads.chain_batch(0, ks=(1,))
        bg = load_background(batch.background)
        (discourse,) = batch.discourses
        out, proofs = checked_run("discourse_chain", bg, discourse)
        self.assertEqual(gate_errors("discourse_chain", bg, discourse, out, proofs), [])
        out.readings = dataclasses.replace(out.readings, survivors=())
        self.assertTrue(gate_errors("discourse_chain", bg, discourse, out, proofs))


class StatisticsTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        for n, level in ((20, 50), (100, 90), (200, 95), (999, 95), (1000, 99)):
            stats = run.latency([i / 1000.0 for i in range(n)])
            self.assertEqual(stats["tail_percentile"], level, n)
            self.assertGreaterEqual(stats["beyond_tail"], 10)


if __name__ == "__main__":
    unittest.main()
