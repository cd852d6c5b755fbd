"""A fixed stdlib-only workload that gauges the machine's speed.

On a shared virtual machine the CPU speed drifts by up to 40% over
minutes, which moves every timing of a run together.  The benchmark runs
this probe between discourses, outside the timed region, and divides each
discourse's timings by the speed factor of the probes made within
``WINDOW_S`` of it, so that drift within a run is corrected too.  The
probe does the same kind of interpreter work as the prover (frozen
dataclasses, tuples, dict copies, isinstance dispatch, recursion) and
shares no code with ``ctxdrt``, so a change to the program cannot move it.

How strongly a workload's timings follow the probe was measured on a
2-vCPU VM by regressing the log of each 35-second run's raw timings on the
log of its probe median.  The slope was 0.74 to 0.76 over twenty runs of
``corpus`` (correlation 0.98 to 0.99), 0.89 to 0.91 over twenty runs of
``wide_context`` (0.98 to 0.99) and 0.38 to 0.54 over ten runs of
``discourse_chain`` (0.55 to 0.84).  The factor is the probe's slowdown
against ``REFERENCE_S`` raised to the workload's ``EXPONENTS``.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

# The probe's median time on the 2-vCPU machine the bounds were set on.
REFERENCE_S = 0.005
EXPONENTS = {"corpus": 0.75, "wide_context": 0.9, "discourse_chain": 0.5}
INTERVAL_S = 0.25  # least wall time between two probes
WINDOW_S = 2.0  # a discourse is corrected by the probes this close to its end


@dataclass(frozen=True)
class _Term:
    fn: str
    args: tuple


_TERM = _Term("f", ("x", _Term("g", ("y", "z")), _Term("h", (_Term("g", ("x", "x")),))))


def _walk(term, env: dict):
    if isinstance(term, _Term):
        return _Term(term.fn, tuple(_walk(a, env) for a in term.args))
    return env.get(term, term)


def probe() -> float:
    """Seconds for one run of the fixed workload."""
    t0 = time.perf_counter()
    env: dict = {}
    for i in range(300):
        env = dict(env)
        env["v%d" % (i % 7)] = "c%d" % i
        out = _walk(_TERM, env)
        len({out, _TERM, _Term("f", (str(i),))})
    return time.perf_counter() - t0


class Gauge:
    """Probes at most every INTERVAL_S when ``tick`` is called."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # when each probe ended
        self._last = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            self.samples.append(probe())
            self._last = time.perf_counter()
            self.times.append(self._last)

    def speed_factor(self, workload: str) -> float:
        """How much slower than the reference the workload ran (above 1 is slower)."""
        return (statistics.median(self.samples) / REFERENCE_S) ** EXPONENTS[workload]

    def local_factors(self, stamps: list, workload: str) -> list[float]:
        """The speed factor at each time in ``stamps``, from the probes within
        WINDOW_S of it (from all probes where there are none)."""
        out = []
        for t in stamps:
            lo = bisect_left(self.times, t - WINDOW_S)
            hi = bisect_right(self.times, t + WINDOW_S)
            near = self.samples[lo:hi] or self.samples
            out.append((statistics.median(near) / REFERENCE_S) ** EXPONENTS[workload])
        return out
