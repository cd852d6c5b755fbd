"""Correctness gate, run on an untimed pass after the timed passes.

The independent reference is the finite-model oracle ``models.model_check``
on each informativity task.  Where it answers entailed or refuted, every
decided tableau verdict must match it (the rule of acceptance criterion 7):
the shared proof's per-task statuses, and the per-task proofs that
``project`` makes, which ``Gate.recording`` captures by wrapping
``tableau.naive_prove``.  Each reading check must report what its proof
decided.  The gate also requires the two routes to agree wherever both
decided, checks the expected survivors of families M and K, and requires
extraction to state no context condition twice.  Undecided verdicts are
never judged wrong; they are counted by the caller.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager

from ctxdrt import lcon, models, projection, tableau

EXPECTED_STATUS = {"entailed": tableau.CLOSED, "refuted": tableau.OPEN_SATURATED}
INFORMATIVE = {
    tableau.CLOSED: "fail",
    tableau.OPEN_SATURATED: "pass",
    tableau.OPEN_BOUNDED: "unknown",
}


class Gate:
    def __init__(self, workload: str, bg: projection.BackgroundTheory) -> None:
        self.workload = workload
        self.bg = bg
        self.errors: list[str] = []
        self.counts: Counter = Counter()
        self._oracle: dict = {}

    def fail(self, index: int, message: str, *args) -> None:
        self.errors.append("discourse %d: %s" % (index, message % args))

    def oracle(self, task: projection.InferenceTask) -> str:
        key = (task.premise, task.conclusion)
        if key not in self._oracle:
            try:
                status = models.model_check(task.premise, task.conclusion, max_domain=3).status
            except models.ResourceLimit:
                status = "unknown"
            self._oracle[key] = status
            self.counts["gate.oracle_" + status] += 1
        return self._oracle[key]

    @contextmanager
    def recording(self):
        """Record each informativity proof ``project`` makes, as (task, status)."""
        proofs: list = []
        original = tableau.naive_prove

        def naive_prove(task, *args, **kwargs):
            status, stats = original(task, *args, **kwargs)
            proofs.append((task, status))
            return status, stats

        tableau.naive_prove = naive_prove
        try:
            yield proofs
        finally:
            tableau.naive_prove = original

    def check(self, index: int, discourse, out, proofs: list) -> None:
        """Judge one discourse's outcome and the proofs recorded while it ran."""
        self._oracle.clear()
        if out.error is None:
            self._shared_vs_oracle(index, out)
            self._readings_vs_oracle(index, out, proofs)
            self._routes_agree(index, out)
            self._sharing(index, out)
        self._survivors(index, discourse, out)

    # -- verdicts against the oracle -------------------------------------------------

    def _shared_vs_oracle(self, index: int, out) -> None:
        if out.verdict is None:
            return
        statuses = out.verdict.as_dict()
        for tagged in out.extraction.tasks:
            status = statuses[tagged.tag]
            for reading in tagged.readings:
                self.counts["gate.shared_checks"] += 1
                oracle = self.oracle(projection.build_tasks(reading, out.box, self.bg)[0])
                expected = EXPECTED_STATUS.get(oracle, status)
                if status != tableau.OPEN_BOUNDED and status != expected:
                    self.fail(index, "shared %s for %s, oracle: %s", status, reading.ref, oracle)

    def _readings_vs_oracle(self, index: int, out, proofs: list) -> None:
        if len(proofs) != len(out.checks):
            self.fail(index, "%d reading checks, %d proofs", len(out.checks), len(proofs))
            return
        for record, (task, status) in zip(out.checks, proofs):
            self.counts["gate.reading_checks"] += 1
            ref, verdict = record.reading.ref, record.verdict.informative
            if task.reading_ref != ref or verdict != INFORMATIVE[status]:
                message = "reading %s reported %s, proof of %s: %s"
                self.fail(index, message, ref, verdict, task.reading_ref, status)
            oracle = self.oracle(task)
            if status != tableau.OPEN_BOUNDED and status != EXPECTED_STATUS.get(oracle, status):
                self.fail(index, "reading %s %s, oracle: %s", ref, status, oracle)

    # -- the two routes, and extraction ------------------------------------------------

    def _routes_agree(self, index: int, out) -> None:
        report = tableau.compare_cost(out.box, self.bg)
        self.counts["compare.naive_rules"] += report.naive_stats.rule_applications
        self.counts["compare.shared_rules"] += report.shared_stats.rule_applications
        timed = Counter()
        if out.verdict is not None:
            statuses = out.verdict.as_dict()
            for tagged in out.extraction.tasks:
                for reading in tagged.readings:
                    timed[(reading.ref, statuses[tagged.tag])] += 1
        if timed != Counter(report.shared_verdicts):
            self.fail(index, "shared verdicts differ between the timed run and compare_cost")
        shared, naive = defaultdict(list), defaultdict(list)
        for ref, status in report.shared_verdicts:
            shared[ref].append(status)
        for ref, status in report.naive_verdicts:
            naive[ref].append(status)
        for ref in shared.keys() & naive.keys():
            if tableau.OPEN_BOUNDED in shared[ref] + naive[ref]:
                continue
            if sorted(shared[ref]) != sorted(naive[ref]):
                self.fail(index, "routes disagree on %s: %s, %s", ref, shared[ref], naive[ref])

    def _sharing(self, index: int, out) -> None:
        stats = lcon.context_sharing_depth(out.extraction.formula)
        self.counts["lcon.tasks"] += len(out.extraction.tasks)
        self.counts["lcon.in_wrappers"] += stats.in_wrappers
        self.counts["lcon.context_conditions"] += stats.context_conditions
        self.counts["lcon.duplicated_conditions"] += stats.duplicated_conditions
        if stats.duplicated_conditions:
            self.fail(index, "%d context conditions stated twice", stats.duplicated_conditions)

    # -- expected survivors of the families ------------------------------------------------

    def _survivors(self, index: int, discourse, out) -> None:
        if self.workload == "wide_context":
            want = "%s->%s" % (discourse.facts["owner"], discourse.facts["man"])
            details = sorted(step.detail for s in out.survivors for step in s.trail)
            kinds = [d.split("@")[0] for d in details]
            bindings = {d.split(";")[1] for d in details}
            if kinds != ["intermediate", "local"] or bindings != {want}:
                self.fail(index, "want intermediate and local binding %s: %s", want, details)
        elif self.workload == "discourse_chain":
            k = discourse.facts["k"]
            unknown = out.error is not None or any(c.verdict.unknown for c in out.checks)
            if not unknown and len(out.survivors) != 2**k:
                self.fail(index, "k=%d decided with %d survivors", k, len(out.survivors))
