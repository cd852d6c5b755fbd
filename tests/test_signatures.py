"""One pinned digest of everything the program decides on the benchmark's inputs.

A change that only makes the program faster must leave its outputs
byte-identical.  This test runs the first 300 discourses of the corpus
workload and the whole ``wide_context`` and ``discourse_chain`` batches,
all at seed 1 (``bench/workloads.py``, read, never changed), through both
halves of the benchmark's timed operation (``bench/operation.py``) and
through ``tableau.compare_cost``, and hashes, per discourse:

* ``Outcome.signature()``;
* every reading check: its reading, verdict and result box;
* every survivor with its trail, and every blocked reading;
* the extracted formula and its tasks;
* the verdicts and rule counts of ``compare_cost``.

The digest is pinned, and it must not depend on string hashing: the test
computes it in two fresh interpreters at once, under two fixed
``PYTHONHASHSEED`` values.  Run this file as a script to print the digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from operation import load_background, run_discourse  # noqa: E402
from run import CORPUS_SIZE  # noqa: E402

from ctxdrt.drs import path_str  # noqa: E402
from ctxdrt.tableau import compare_cost  # noqa: E402
from ctxdrt.text import print_drs, print_lcon  # noqa: E402

CORPUS_PREFIX = 300
PINNED = "afb843b84852f5ff79678f05b6f1754a99bba0bf0d00f8c33db1940bc5b5a66b"


def batches():
    corpus = workloads.corpus_batch(1, CORPUS_SIZE)
    yield corpus.background, corpus.discourses[:CORPUS_PREFIX]
    for batch in (workloads.wide_context_batch(1, 24), workloads.chain_batch(1)):
        yield batch.background, batch.discourses


def reading_lines(reading):
    return [reading.ref, path_str(reading.alpha_path), print_drs(reading.accommodated)]


def discourse_lines(out, bg):
    lines = [repr(out.signature())]
    for check in out.checks:
        lines += reading_lines(check.reading)
        lines += [repr(check.verdict), print_drs(check.result)]
    for survivor in out.survivors:
        lines.append(print_drs(survivor.drs))
        for step in survivor.trail:
            lines.append("%s %s %s" % (path_str(step.alpha_path), step.action, step.detail))
    if out.readings is not None and not out.no_reading:
        for blocked in out.readings.blocked:
            lines += reading_lines(blocked)
            lines.append(repr((blocked.free, blocked.inaccessible)))
    if out.extraction is not None:
        formula = out.extraction.formula
        lines.append(print_lcon(formula) if formula is not None else "no formula")
        for task in out.extraction.tasks:
            lines += [task.tag, repr(task.position), print_drs(task.conclusion)]
            lines += [r.ref for r in task.readings]
    if out.box is not None:
        report = compare_cost(out.box, bg)
        lines += [
            repr(report.shared_verdicts),
            repr(report.naive_verdicts),
            repr(sorted(report.shared_stats.per_rule.items())),
            repr(sorted(report.naive_stats.per_rule.items())),
            repr(report.per_condition_ratio),
            repr(report.overall_ratio),
        ]
    return lines


def digest() -> str:
    sha = hashlib.sha256()
    for background, discourses in batches():
        bg = load_background(background)
        for discourse in discourses:
            out = run_discourse(discourse.text, bg)
            for line in [discourse.text] + discourse_lines(out, bg):
                sha.update(line.encode("utf-8") + b"\n")
    return sha.hexdigest()


def test_outputs_match_the_pinned_digest_under_two_hash_seeds():
    runs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        runs.append(
            subprocess.Popen(
                [sys.executable, __file__], env=env, stdout=subprocess.PIPE, text=True
            )
        )
    digests = [run.communicate()[0].strip() for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert digests == [PINNED, PINNED]


if __name__ == "__main__":
    print(digest())
