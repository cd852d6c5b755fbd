"""The timed operation: one discourse through both halves of the public API.

* readings: ``text.parse_drs`` then ``projection.project(box, bg)`` with the
  default prover, as ``ctxdrt readings`` computes it;
* shared: ``lcon.extract`` then ``tableau.prove_lcon``, the one shared
  labeled proof that ``ctxdrt extract``/``prove`` compute.

Every call goes through the module attribute, so a tracer that replaces
those attributes sees the top-level calls as well as the internal ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from ctxdrt import lcon, projection, tableau, text


@dataclass
class Outcome:
    """What one discourse produced, with the latency of each half in seconds."""

    readings_s: float
    shared_s: float
    box: Any = None
    readings: Any = None  # ProjectOutcome | NoAdmissibleReading
    extraction: Any = None
    verdict: Any = None
    stats: Any = None
    error: Optional[str] = None  # an exception other than NoAdmissibleReading

    @property
    def no_reading(self) -> bool:
        return isinstance(self.readings, projection.NoAdmissibleReading)

    @property
    def checks(self) -> tuple:
        return self.readings.checks if self.readings is not None else ()

    @property
    def survivors(self) -> tuple:
        if self.readings is None or self.no_reading:
            return ()
        return self.readings.survivors

    @property
    def undecided(self) -> bool:
        """Any unknown reading check, open_bounded task or exception."""
        if self.error is not None:
            return True
        if any(c.verdict.unknown for c in self.checks):
            return True
        return self.verdict is not None and any(
            status == tableau.OPEN_BOUNDED for _, status in self.verdict.statuses
        )

    def signature(self) -> tuple:
        """Everything the program decided, for comparing repeated runs."""
        return (
            self.error,
            self.no_reading,
            tuple(
                (c.reading.ref, c.verdict.informative, c.verdict.consistent)
                for c in self.checks
            ),
            len(self.survivors),
            self.verdict.statuses if self.verdict is not None else None,
            self.stats.rule_applications if self.stats is not None else None,
        )


def run_discourse(source: str, bg: projection.BackgroundTheory, tracer=None) -> Outcome:
    """Run both halves on one discourse; exceptions are recorded, never raised."""
    out = Outcome(0.0, 0.0)
    span = tracer.begin("bench.readings") if tracer else None
    t0 = time.perf_counter()
    try:
        out.box = text.parse_drs(source)
        try:
            out.readings = projection.project(out.box, bg)
        except projection.NoAdmissibleReading as exc:
            out.readings = exc
    except Exception as exc:  # the benchmark keeps running and counts the failure
        out.error = "readings: %s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter()
    if tracer:
        tracer.end(span)
        span = tracer.begin("bench.shared")
    t2 = time.perf_counter()
    if out.box is not None:
        try:
            out.extraction = lcon.extract(out.box, bg)
            if out.extraction.formula is not None:
                out.verdict, out.stats = tableau.prove_lcon(
                    out.extraction.formula, out.extraction.tag_positions()
                )
        except Exception as exc:  # as above
            out.error = out.error or "shared: %s: %s" % (type(exc).__name__, exc)
    t3 = time.perf_counter()
    if tracer:
        tracer.end(span)
    out.readings_s = t1 - t0
    out.shared_s = t3 - t2
    return out


def load_background(postulates: tuple[str, ...]) -> projection.BackgroundTheory:
    return projection.BackgroundTheory(tuple(text.parse_drs(p) for p in postulates))
