"""Per-layer tracing by wrapping public functions from outside the program.

A span records name, start, end and the index of its parent span; spans
stay in memory until the run ends.  A layer is named after the module the
wrapped function lives in, and its self time is the time its spans cover
minus the time their child spans cover.  ``tableau.unify`` is only counted.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter

from ctxdrt import lcon, models, projection, tableau, text

# (module, attribute) pairs that get a span; the span name is "<module>.<attribute>".
SPANNED = (
    (text, "parse_drs"),
    (projection, "project"),
    (projection, "resolve_alpha"),
    (projection, "candidate_readings"),
    (tableau, "naive_prove"),
    (tableau, "prove_lcon"),
    (models, "model_check"),
    (lcon, "extract"),
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()

    def parent_name(self, index: int) -> str:
        parent = self.spans[index][3]
        return self.spans[parent][0] if parent >= 0 else ""

    # -- wrappers --------------------------------------------------------------------

    def install(self) -> None:
        for module, attr in SPANNED:
            self._wrap(module, attr)
        original_unify = tableau.unify
        counts = self.counts

        def unify(a, b, subst=None):
            counts["tableau.unify_calls"] += 1
            result = original_unify(a, b, subst)
            if result is not None:
                counts["tableau.unify_hits"] += 1
            return result

        self._saved.append((tableau, "unify", original_unify))
        tableau.unify = unify

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = "%s.%s" % (_short(module), attr)
        observe = getattr(self, "_observe_" + attr, None)
        limit = "models.resource_limits" if module is models else None

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except models.ResourceLimit:
                if limit:
                    self.counts[limit] += 1
                raise
            finally:
                self.end(index)
            if observe is not None:
                observe(index, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- what the returned values say ---------------------------------------------------

    def _observe_naive_prove(self, index: int, result) -> None:
        status, stats = result
        self.counts["tableau.naive_rules"] += stats.rule_applications
        self.counts["tableau.context_expansions_naive"] += sum(
            stats.context_condition_expansions.values()
        )
        self.counts["tableau." + status] += 1

    def _observe_prove_lcon(self, index: int, result) -> None:
        if self.parent_name(index) == "tableau.naive_prove":
            return  # counted by the per-task route
        verdict, stats = result
        self.counts["tableau.shared_rules"] += stats.rule_applications
        self.counts["tableau.shared_branches"] += stats.branches
        self.counts["tableau.shared_closures"] += stats.closures
        self.counts["tableau.context_expansions_shared"] += sum(
            stats.context_condition_expansions.values()
        )
        for _, status in verdict.statuses:
            self.counts["tableau." + status] += 1

    def _observe_model_check(self, index: int, result) -> None:
        self.counts["models." + result.status] += 1

    # -- aggregation -------------------------------------------------------------------

    def times(self) -> dict[str, float]:
        """Seconds per span name, inclusive ("<name>") and self ("<name>:self").

        ``tableau.prove_lcon`` is split by route: under ``naive_prove`` it
        belongs to the per-task route, anywhere else to the shared proof.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == "tableau.prove_lcon" and self.parent_name(i) == "tableau.naive_prove":
                name = "tableau.prove_lcon[naive]"
            out[name] += end - start
            out[name + ":self"] += end - start - child_time[i]
            out["layer." + name.split(".")[0] + ":self"] += end - start - child_time[i]
        return dict(out)

    def write(self, path) -> None:
        """All spans as tab-separated text: index, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (i, name, start, end, parent))
