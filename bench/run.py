"""Benchmark for ctxdrt: seeded discourse workloads through the public API.

Usage (from the repository root):

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

One process, one client, closed loop over the workload's batch: each
discourse runs through both halves of the timed operation (see
``operation.py``).  A few untimed discourses warm up the interpreter;
then whole timed passes run until the pass boundary nearest to
``--seconds``, and at least 20 discourses.  The peak resident memory is
read after them, before an untimed pass feeds every output to the
correctness gate (``gate.py``).  Timings are divided by the machine's
speed factor (``probe.py``).  Cold starts in fresh interpreters come last.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics
(``tracing.py``).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it,
starting with "report", holds the details (seed, Python version, core
count, percentiles and sample counts, gate tallies).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"

WORKLOADS = ("corpus", "wide_context", "discourse_chain")
CORPUS_SIZE = 3000
WIDE_SIZE = 24
MIN_SAMPLES = 20
WARM_UP = 100  # untimed discourses before the first timed pass
# The gated tail is the highest of these percentiles with at least 10 samples
# beyond it: p99 on corpus, p95 on wide_context, p50 on discourse_chain.
TAIL_LADDER = (99, 95, 90, 50)
COLD_STARTS = 15
# A bare interpreter's start on the 2-vCPU machine the bounds were set on.
# Cold starts with ctxdrt followed bare starts made between them with a
# slope of 0.98 (correlation 0.90) as the machine's speed drifted, so
# setup_s is scaled by this time over the bare starts' median.
BARE_REFERENCE_S = 0.07

END_TO_END_UNITS = {
    "discourses_per_s": "1/s",
    "readings_p50_ms": "ms",
    "readings_tail_ms": "ms",
    "shared_p50_ms": "ms",
    "shared_tail_ms": "ms",
    "decided_share": "ratio",
    "rule_saving_x": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def make_batch(workload: str, seed: int):
    import workloads

    if workload == "corpus":
        return workloads.corpus_batch(seed, CORPUS_SIZE)
    if workload == "wide_context":
        return workloads.wide_context_batch(seed, WIDE_SIZE)
    return workloads.chain_batch(seed)


# -- statistics ---------------------------------------------------------------------


def nearest_rank(sorted_values: list, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def latency(values: list) -> dict:
    """Median and the highest ladder percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    level = next(
        (p for p in TAIL_LADDER if n - math.ceil(p / 100.0 * n) >= 10), 100
    )
    return {
        "p50_ms": nearest_rank(ordered, 50) * 1e3,
        "tail_ms": nearest_rank(ordered, level) * 1e3,
        "tail_percentile": level,
        "samples": n,
        "beyond_tail": n - math.ceil(level / 100.0 * n),
        "p95_ms": nearest_rank(ordered, 95) * 1e3,
        "p99_ms": nearest_rank(ordered, 99) * 1e3,
    }


def throughput(passes: list) -> float:
    """Median over whole passes of discourses per second of operation time."""
    return statistics.median(
        len(p.readings) / (sum(p.readings) + sum(p.shared)) for p in passes
    )


def timings(passes: list) -> tuple[dict, dict, dict]:
    """The timed end-to-end metrics, and the latency details of each half."""
    readings = latency([t for p in passes for t in p.readings])
    shared = latency([t for p in passes for t in p.shared])
    metrics = {
        "discourses_per_s": throughput(passes),
        "readings_p50_ms": readings["p50_ms"],
        "readings_tail_ms": readings["tail_ms"],
        "shared_p50_ms": shared["p50_ms"],
        "shared_tail_ms": shared["tail_ms"],
    }
    return metrics, readings, shared


# -- the closed loop ------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    readings: list
    shared: list
    counts: Counter  # tracer counts of this pass; empty when untraced
    stamps: list  # when each discourse ended

    def divided(self, factors: list) -> "Pass":
        """This pass with each discourse's timings divided by its factor."""
        return Pass(
            self.traced,
            [t / f for t, f in zip(self.readings, factors)],
            [t / f for t, f in zip(self.shared, factors)],
            self.counts,
            self.stamps,
        )


class Loop:
    """Closed loop over the batch.

    ``warm_up`` runs the first WARM_UP discourses untimed.  ``run`` then
    makes whole timed passes for about the given time; with a tracer they
    alternate untraced and traced, so both kinds see the same spells of
    machine speed.  ``verify`` makes one more untimed pass whose outputs,
    and the proofs made for them, the gate checks.  Every pass must decide
    every discourse as the first timed pass did.
    """

    def __init__(self, batch, bg, gate) -> None:
        from probe import Gauge

        self.batch = batch
        self.bg = bg
        self.gate = gate
        self.gauge = Gauge()
        self.signatures: list = []
        self.undecided = 0
        self.errors: list[str] = []
        self.counts: Counter = Counter()  # projection counts of one pass
        self.mismatches = 0

    def warm_up(self) -> None:
        from operation import run_discourse

        for discourse in self.batch.discourses[:WARM_UP]:
            run_discourse(discourse.text, self.bg)

    def verify(self) -> None:
        from operation import run_discourse

        for i, discourse in enumerate(self.batch.discourses):
            with self.gate.recording() as proofs:
                out = run_discourse(discourse.text, self.bg)
            self.gate.check(i, discourse, out, proofs)
            self.mismatches += out.signature() != self.signatures[i]
            self.undecided += out.undecided
            if out.error is not None:
                self.errors.append(out.error)
            self.counts["projection.checks"] += len(out.checks)
            self.counts["projection.unknown_checks"] += sum(c.verdict.unknown for c in out.checks)
            self.counts["projection.survivors"] += len(out.survivors)
            if out.readings is not None and not out.no_reading:
                self.counts["projection.blocked"] += len(out.readings.blocked)

    def run(self, seconds: float, tracer=None) -> list[Pass]:
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            if tracer is not None and len(passes) % 2 == 1:
                before = Counter(tracer.counts)
                tracer.install()
                try:
                    done = self._pass(tracer)
                finally:
                    tracer.uninstall()
                done.counts = Counter(tracer.counts) - before
            else:
                done = self._pass(None)
            passes.append(done)
            # Stop at the pass boundary nearest to the deadline.
            elapsed = time.perf_counter() - start
            samples = sum(len(p.readings) for p in passes)
            enough = len(passes) >= (2 if tracer else 1) and samples >= MIN_SAMPLES
            if enough and elapsed + elapsed / len(passes) / 2 >= seconds:
                return passes

    def _pass(self, tracer) -> Pass:
        from operation import run_discourse

        done = Pass(tracer is not None, [], [], Counter(), [])
        for i, discourse in enumerate(self.batch.discourses):
            out = run_discourse(discourse.text, self.bg, tracer)
            done.readings.append(out.readings_s)
            done.shared.append(out.shared_s)
            done.stamps.append(time.perf_counter())
            if i == len(self.signatures):
                self.signatures.append(out.signature())
            else:
                self.mismatches += out.signature() != self.signatures[i]
            self.gauge.tick()
        return done


# -- cold starts ------------------------------------------------------------------------


def cold_starts(background: tuple[str, ...]) -> dict:
    """Fresh interpreters, one at a time: bare, then import plus background."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    bare, setup, imports = [], [], []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        bare.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), *background],
            env=env,
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        )
        setup.append(time.perf_counter() - t0)
        import_s, _load_s, origin = done.stdout.split()
        if Path(origin).resolve().parent.parent != SRC.resolve():
            raise RuntimeError("cold start imported ctxdrt from %s" % origin)
        imports.append(float(import_s))
    return {
        "setup_s": statistics.median(setup) * BARE_REFERENCE_S / statistics.median(bare),
        "raw_setup_s": statistics.median(setup),
        "interpreter_ms": statistics.median(bare) * 1e3,
        "import_ms": statistics.median(imports) * 1e3,
        "setup_all_s": setup,
    }


# -- one workload ----------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from gate import Gate
    from operation import load_background
    from tracing import Tracer

    batch = make_batch(workload, seed)
    bg = load_background(batch.background)
    gate = Gate(workload, bg)
    loop = Loop(batch, bg, gate)
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    loop.warm_up()
    warm_up_s = time.perf_counter() - start
    passes = loop.run(seconds, tracer)
    elapsed = time.perf_counter() - start - warm_up_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    loop.verify()
    gate_s = time.perf_counter() - start
    problems = list(gate.errors)
    if loop.mismatches:
        problems.append("%d discourses decided differently on a later pass" % loop.mismatches)
    cold = cold_starts(batch.background)

    per_pass = len(batch.discourses)
    undecided, errors = loop.undecided, loop.errors
    slow = loop.gauge.speed_factor(workload)
    report: dict = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "batch": per_pass,
        "passes": len(passes),
        "elapsed_s": elapsed,
        "warm_up_s": warm_up_s,
        "gate_s": gate_s,
        "undecided_per_pass": undecided,
        "errors_per_pass": len(errors),
        "error_examples": errors[:3],
        "gate": dict(gate.counts),
        "cold_start": cold,
        "speed_factor": slow,
        "probes": len(loop.gauge.samples),
    }
    if not trace:
        corrected = [p.divided(loop.gauge.local_factors(p.stamps, workload)) for p in passes]
        timed, readings, shared = timings(corrected)
        report.update(readings=readings, shared=shared, raw=timings(passes)[0])
        naive_rules = gate.counts["compare.naive_rules"]
        shared_rules = gate.counts["compare.shared_rules"]
        metrics = {
            **timed,
            "decided_share": 1.0 - undecided / per_pass,
            "rule_saving_x": naive_rules / shared_rules if shared_rules else 1.0,
            "setup_s": cold["setup_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        extra = {"undecided_share": (undecided / per_pass, "ratio")}
    else:
        metrics = layer_metrics(tracer, passes, batch, loop, gate, cold, problems, slow)
        units = LAYER_UNITS
        extra = {}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / ("spans-%s-%d.tsv.gz" % (workload, seed))
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    report["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": per_pass * len(passes),
        "failed": len(errors) * len(passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    shown = dict(result["metrics"], **{k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    return result, {"report": report, "shown": shown}


LAYER_UNITS = {
    "text.parse_ms": "ms",
    "text.bytes": "bytes",
    "projection.project_ms": "ms",
    "projection.self_ms": "ms",
    "projection.resolve_ms": "ms",
    "projection.candidates_ms": "ms",
    "projection.checks": "count",
    "projection.blocked": "count",
    "projection.survivors": "count",
    "projection.unknown_checks": "count",
    "tableau.naive_ms": "ms",
    "tableau.naive_calls": "count",
    "tableau.naive_rules": "count",
    "tableau.shared_ms": "ms",
    "tableau.shared_rules": "count",
    "tableau.shared_branches": "count",
    "tableau.shared_closures": "count",
    "tableau.unify_calls": "count",
    "tableau.unify_hits": "count",
    "tableau.closed": "count",
    "tableau.open_saturated": "count",
    "tableau.open_bounded": "count",
    "tableau.context_expansions_shared": "count",
    "tableau.context_expansions_naive": "count",
    "lcon.extract_ms": "ms",
    "lcon.tasks": "count",
    "lcon.in_wrappers": "count",
    "lcon.context_conditions": "count",
    "lcon.duplicated_conditions": "count",
    "models.check_ms": "ms",
    "models.calls": "count",
    "models.satisfiable": "count",
    "models.refuted": "count",
    "models.unknown": "count",
    "models.resource_limits": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.accounted_pct": "%",
}

# Span counters that become per-pass call counts.
CALL_COUNTS = {"tableau.naive_calls": "tableau.naive_prove", "models.calls": "models.model_check"}


def layer_metrics(tracer, passes, batch, loop, gate, cold, problems, slow) -> dict:
    """Per-layer times (ms per discourse of the traced passes, divided by the
    machine's speed factor) and per-pass counts."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    runs = sum(len(p.readings) for p in traced)
    times = tracer.times()

    def per_discourse_ms(key: str) -> float:
        return times.get(key, 0.0) / runs * 1e3 / slow

    def op_seconds(group) -> float:
        return sum(sum(p.readings) + sum(p.shared) for p in group)

    traced_op = op_seconds(traced)
    untraced_runs = sum(len(p.readings) for p in untraced)
    module_self = sum(
        v for k, v in times.items() if k.startswith("layer.") and k != "layer.bench:self"
    )

    first = traced[0].counts
    if any(p.counts != first for p in traced[1:]):
        problems.append("per-layer counts differ between traced passes")
    counts = Counter(first)
    counts.update(loop.counts)
    counts.update({k: v for k, v in gate.counts.items() if k.startswith("lcon.")})
    counts["text.bytes"] = sum(len(d.text.encode("utf-8")) for d in batch.discourses)
    for name, span in CALL_COUNTS.items():
        counts[name] = first[span]

    metrics = {
        "text.parse_ms": per_discourse_ms("text.parse_drs"),
        "projection.project_ms": per_discourse_ms("projection.project"),
        "projection.self_ms": per_discourse_ms("layer.projection:self"),
        "projection.resolve_ms": per_discourse_ms("projection.resolve_alpha"),
        "projection.candidates_ms": per_discourse_ms("projection.candidate_readings"),
        "tableau.naive_ms": per_discourse_ms("tableau.naive_prove"),
        "tableau.shared_ms": per_discourse_ms("tableau.prove_lcon"),
        "lcon.extract_ms": per_discourse_ms("lcon.extract"),
        "models.check_ms": per_discourse_ms("models.model_check"),
        "cli.interpreter_ms": cold["interpreter_ms"],
        "cli.import_ms": cold["import_ms"],
        "trace.overhead_pct": (traced_op / runs / (op_seconds(untraced) / untraced_runs) - 1) * 100,
        "trace.accounted_pct": module_self / traced_op * 100.0,
    }
    return {name: metrics[name] if name in metrics else counts[name] for name in LAYER_UNITS}


# -- command line ------------------------------------------------------------------------------


def print_result(result: dict, shown: dict, report: dict) -> None:
    for name, metric in shown.items():
        label = report["workload"] + " " + name
        print("%-40s %14.6g %s" % (label, metric["value"], metric["unit"]))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined, sort_keys=True), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ctxdrt" / "__init__.py").is_file():
        print("error: no ctxdrt sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import ctxdrt

    if Path(ctxdrt.__file__).resolve().parent.parent != SRC.resolve():
        print("error: ctxdrt imported from %s, not %s" % (ctxdrt.__file__, SRC), file=sys.stderr)
        return 2
    result, extra = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in extra["report"]["problems"][:20]:
        print("gate: " + problem, file=sys.stderr)
    print_result(result, extra["shown"], extra["report"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
