"""Batch command line: parse, resolve, readings, extract, prove, compare.

Each command yields one result: an exit code, its JSON keys and its text.
``run`` prints the text, or with ``--json`` the keys after the envelope
``version`` (schema "ctxdrt/1") and ``command``.  Exit codes: 0 success;
1 no admissible reading; 2 input error (unreadable file, parse or
validation error, nesting too deep to walk); 3 at least one
verdict undecided within bounds.  JSON output is stable-keyed and
byte-identical across runs for a fixed input and configuration.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from typing import Optional

from .drs import DrsError, path_str, validate
from .lcon import context_sharing_depth, extract
from .models import AlphaRemaining
from .projection import (
    BackgroundTheory,
    NoAdmissibleReading,
    ProjectionError,
    accommodate,
    candidate_readings,
    eligible_alpha_paths,
    project,
    require_pure,
    resolve_alpha,
)
from .tableau import DEFAULT_BOUNDS, OPEN_BOUNDED, Bounds, compare_cost, prove_lcon
from .text import ParseError, SourceSpan, parse_drs, parse_lcon, print_drs, print_lcon

__all__ = ["RunConfig", "run", "emit_json", "main"]

SCHEMA_VERSION = "ctxdrt/1"

EXIT_OK = 0
EXIT_NO_READING = 1
EXIT_INPUT_ERROR = 2
EXIT_UNKNOWN = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    inputs: tuple[str, ...]
    background: Optional[str] = None
    gamma_limit: int = DEFAULT_BOUNDS.gamma_limit
    depth_limit: int = DEFAULT_BOUNDS.depth_limit
    model_bound: int = 3
    json_output: bool = False
    no_filter: bool = False

    def __post_init__(self) -> None:
        self.bounds  # Bounds rejects a negative gamma or non-positive depth limit
        if self.model_bound <= 0:
            raise ValueError("model size must be positive")

    @property
    def bounds(self) -> Bounds:
        return Bounds(self.gamma_limit, self.depth_limit)


def emit_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` and a newline.

    The standard library's indenting encoder is pure Python and builds
    self-recursive closures on every call, which outlive it as cyclic
    garbage; here only scalars go through ``json.dumps``.
    """
    return _render_json(payload, "") + "\n"


def _render_json(value: object, indent: str) -> str:
    """``value`` laid out as ``json.dumps(..., indent=2)`` does at ``indent``."""
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [json.dumps(key) + ": " + _render_json(item, inner) for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_render_json(item, inner) for item in value]
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_background(path: Optional[str]) -> BackgroundTheory:
    if path is None:
        return BackgroundTheory(())
    text = _read_file(path)
    postulates = []
    blank_lines = r"\n\s*\n"  # separate the postulates
    starts = [0] + [m.end() for m in re.finditer(blank_lines, text)]
    for start, block in zip(starts, re.split(blank_lines, text)):
        stripped = "\n".join(
            line for line in block.splitlines() if line.split("#", 1)[0].strip()
        )
        if stripped.strip():
            try:
                postulates.append(parse_drs(block))
            except ParseError as exc:  # offsets in the file, not in the block
                span = SourceSpan(exc.span.start + start, exc.span.end + start)
                raise ParseError(exc.message, span, exc.expected) from None
    return BackgroundTheory(tuple(postulates))


def _site_json(item) -> dict:
    """The site, path and bindings of a reading or of a blocked resolution."""
    return {
        "site": item.site_kind,
        "path": path_str(item.site_path),
        "bindings": {s.name: t.name for s, t in item.resolution.bindings},
    }


def _reading_json(reading, result, verdict=None) -> dict:
    payload = {**_site_json(reading), "drs": print_drs(result)}
    if verdict is not None:
        payload["informativity"] = verdict.informative
        payload["consistency"] = verdict.consistent
    return payload


def _blocked_json(blocked) -> dict:
    return {**_site_json(blocked), "reason": blocked.reason}


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


Result = tuple[int, dict, str]  # exit code, JSON keys without the envelope, text


def _cmd_parse(config: RunConfig) -> Result:
    box = parse_drs(_read_file(config.inputs[0]))
    report = validate(box)
    payload = {
        "drs": print_drs(box),
        "pure": report.pure,
        "free": sorted(r.name for r in report.free),
    }
    return EXIT_OK, payload, print_drs(box) + "\n"


def _cmd_resolve(config: RunConfig) -> Result:
    box = parse_drs(_read_file(config.inputs[0]))
    require_pure(box, "input")
    alphas = []
    for path in eligible_alpha_paths(box):
        resolutions = resolve_alpha(path, box)
        alphas.append(
            {
                "path": path_str(path),
                "resolutions": [
                    {s.name: t.name for s, t in r.bindings} for r in resolutions
                ],
            }
        )
    lines = [] if alphas else ["no anaphoric conditions"]
    for entry in alphas:
        lines.append("alpha at %s:" % entry["path"])
        if not entry["resolutions"]:
            lines.append("  unresolvable (projects)")
        for res in entry["resolutions"]:
            lines.append("  " + ", ".join("%s->%s" % kv for kv in sorted(res.items())))
    return EXIT_OK, {"alphas": alphas}, _text(lines)


def _cmd_readings(config: RunConfig) -> Result:
    box = parse_drs(_read_file(config.inputs[0]))
    bg = _load_background(config.background)
    if config.no_filter:
        require_pure(box, "input")
        readings, blocked_all = [], []
        for path in eligible_alpha_paths(box):
            admitted, blocked = candidate_readings(box, path)
            readings.extend(zip(admitted, accommodate(box, admitted)))
            blocked_all.extend(blocked)
        payload = {
            "filtering": False,
            "readings": [_reading_json(r, result) for r, result in readings],
            "blocked": [_blocked_json(b) for b in blocked_all],
        }
        lines = ["%s: %s" % (r.ref, print_drs(result)) for r, result in readings]
        for b in blocked_all:
            lines.append("blocked %s@%s: %s" % (b.site_kind, path_str(b.site_path), b.reason))
        return EXIT_OK, payload, _text(lines)

    try:
        outcome = project(box, bg, config.bounds, config.model_bound)
    except NoAdmissibleReading as failure:
        unknown = any(c.verdict.unknown for c in failure.checks)
        payload = {
            "readings": [],
            "checked": [_reading_json(c.reading, c.result, c.verdict) for c in failure.checks],
        }
        return (EXIT_UNKNOWN if unknown else EXIT_NO_READING), payload, "no admissible reading\n"

    admitted = [c for c in outcome.checks if c.verdict.admitted]
    rejected = [c for c in outcome.checks if not c.verdict.admitted]
    payload = {
        "readings": [_reading_json(c.reading, c.result, c.verdict) for c in admitted],
        "filtered": [_reading_json(c.reading, c.result, c.verdict) for c in rejected],
        "blocked": [_blocked_json(b) for b in outcome.blocked],
        "results": [
            {
                "drs": print_drs(r.drs),
                "trail": [
                    {"alpha": path_str(s.alpha_path), "action": s.action, "detail": s.detail}
                    for s in r.trail
                ],
            }
            for r in outcome.survivors
        ],
    }
    lines = []
    for r in outcome.survivors:
        steps = "; ".join("%s %s" % (s.action, s.detail) for s in r.trail)
        lines.append("%s\n  via %s" % (print_drs(r.drs), steps or "no anaphora"))
    for c in rejected:
        lines.append(
            "filtered %s: informativity=%s consistency=%s"
            % (c.reading.ref, c.verdict.informative, c.verdict.consistent)
        )
    return (EXIT_UNKNOWN if outcome.any_unknown else EXIT_OK), payload, _text(lines)


def _cmd_extract(config: RunConfig) -> Result:
    box = parse_drs(_read_file(config.inputs[0]))
    bg = _load_background(config.background)
    extraction = extract(box, bg)
    if extraction.formula is None:
        return EXIT_OK, {"tasks": []}, "no tasks\n"
    stats = context_sharing_depth(extraction.formula)
    payload = {
        "formula": print_lcon(extraction.formula),
        "tasks": [
            {
                "tag": t.tag,
                "position": list(t.position),
                "conclusion": print_drs(t.conclusion),
                "readings": [r.ref for r in t.readings],
            }
            for t in extraction.tasks
        ],
        "sharing": {
            "inWrappers": stats.in_wrappers,
            "contextConditions": stats.context_conditions,
            "duplicatedConditions": stats.duplicated_conditions,
        },
    }
    lines = [print_lcon(extraction.formula)]
    for t in extraction.tasks:
        refs = ", ".join(r.ref for r in t.readings)
        lines.append("%s: %s  [%s]" % (t.tag, print_drs(t.conclusion), refs))
    return EXIT_OK, payload, _text(lines)


def _cmd_prove(config: RunConfig) -> Result:
    formula = parse_lcon(_read_file(config.inputs[0]))
    verdict, stats = prove_lcon(formula, None, config.bounds)
    payload = {"verdicts": dict(verdict.statuses), "stats": stats.as_json()}
    lines = ["%s: %s" % pair for pair in verdict.statuses]
    lines.append("rule applications: %d" % stats.rule_applications)
    bounded = any(status == OPEN_BOUNDED for _, status in verdict.statuses)
    return (EXIT_UNKNOWN if bounded else EXIT_OK), payload, _text(lines)


def _cmd_compare(config: RunConfig) -> Result:
    box = parse_drs(_read_file(config.inputs[0]))
    bg = _load_background(config.background)
    report = compare_cost(box, bg, config.bounds)
    payload = {
        "shared": {**report.shared_stats.as_json(), "verdicts": dict(report.shared_verdicts)},
        "naive": {**report.naive_stats.as_json(), "verdicts": dict(report.naive_verdicts)},
        "ratio": dict(report.per_condition_ratio),
        "overallRatio": report.overall_ratio,
        "agreement": report.agreement,
    }
    lines = [
        "shared rule applications: %d" % report.shared_stats.rule_applications,
        "naive rule applications: %d" % report.naive_stats.rule_applications,
    ]
    lines += ["  %s: %.1fx" % pair for pair in report.per_condition_ratio]
    lines.append("overall context expansion ratio: %.2f" % report.overall_ratio)
    lines.append("verdict agreement: %s" % report.agreement)
    statuses = [s for _, s in report.shared_verdicts] + [s for _, s in report.naive_verdicts]
    return (EXIT_UNKNOWN if OPEN_BOUNDED in statuses else EXIT_OK), payload, _text(lines)


_COMMANDS = {
    "parse": _cmd_parse,
    "resolve": _cmd_resolve,
    "readings": _cmd_readings,
    "extract": _cmd_extract,
    "prove": _cmd_prove,
    "compare": _cmd_compare,
}


def run(config: RunConfig) -> tuple[int, str, str]:
    """Execute one command; returns (exit code, stdout text, stderr text)."""
    try:
        code, payload, text = _COMMANDS[config.command](config)
    except FileNotFoundError as exc:
        return EXIT_INPUT_ERROR, "", "error: no such file: %s\n" % exc.filename
    except OSError as exc:
        return EXIT_INPUT_ERROR, "", "error: cannot read %s: %s\n" % (exc.filename, exc.strerror)
    except RecursionError:
        # every pass over a box recurses on its nesting
        return EXIT_INPUT_ERROR, "", "error: input nested too deeply\n"
    except ParseError as exc:
        return (
            EXIT_INPUT_ERROR,
            "",
            "error: %s (offsets %d..%d)\n" % (exc.message, exc.span.start, exc.span.end),
        )
    except (AlphaRemaining, DrsError, ProjectionError, ValueError) as exc:
        return EXIT_INPUT_ERROR, "", "error: %s\n" % exc
    if config.json_output:
        text = emit_json({"version": SCHEMA_VERSION, "command": config.command, **payload})
    return code, text, ""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxdrt",
        description="Presupposition projection over discourse boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, with_bg, with_bounds in [
        ("parse", False, False),
        ("resolve", False, False),
        ("readings", True, True),
        ("extract", True, False),
        ("prove", False, True),
        ("compare", True, True),
    ]:
        # unset options stay off the namespace, so RunConfig supplies defaults
        cmd = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        cmd.add_argument("input", help="input file (.drs, or .lcon for prove)")
        cmd.add_argument("--json", action="store_true", dest="json_output")
        if with_bg:
            cmd.add_argument("--bg", dest="background")
        if with_bounds:
            cmd.add_argument("--gamma", type=int, dest="gamma_limit")
            cmd.add_argument("--depth", type=int, dest="depth_limit")
        if name == "readings":
            cmd.add_argument("--model-size", type=int, dest="model_bound")
            cmd.add_argument("--no-filter", action="store_true", dest="no_filter")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    args["inputs"] = (args.pop("input"),)
    try:
        config = RunConfig(**args)
    except ValueError as exc:
        parser.error(str(exc))
    code, stdout, stderr = run(config)
    if stdout:
        sys.stdout.write(stdout)
    if stderr:
        sys.stderr.write(stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
