"""The context language and the extraction of informativity tasks.

A context formula is a box, a conjunction, a disjunction, or ``in(K, f)``,
which asserts that the context box K entails f.  Nested ``in`` wrappers
accumulate: ``in(K1, f & in(K2, g))`` requires K1 to entail f and K1+K2 to
entail g, so material shared between several entailment questions is
stated exactly once.

``extract`` turns a box containing anaphoric material into one such
formula: each accommodation site contributes a nesting level carrying the
context material that ``projection.site_contents`` says it adds, and each
reading that ``projection.candidate_readings`` admits at that site becomes
a disjunct there, tagged as the formula is built so prover verdicts map
back to readings.  An alpha with nothing to accommodate adds no check, as
in ``projection.project``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional, Union

from .drs import ALPHA_BODY, DRS, EMPTY, DrsPath, path_str
from .projection import (
    EMPTY_BACKGROUND,
    BackgroundTheory,
    ProjectionError,
    Reading,
    candidate_readings,
    eligible_alpha_paths,
    require_pure,
    site_contents,
)

__all__ = [
    "DrsLit",
    "In",
    "Conj",
    "Disj",
    "Formula",
    "conj",
    "formula_at",
    "auto_tag_positions",
    "TaggedTask",
    "Extraction",
    "extract",
    "SharingStats",
    "context_sharing_depth",
]


@dataclass(frozen=True)
class DrsLit:
    drs: DRS


@dataclass(frozen=True)
class In:
    context: DRS
    body: "Formula"

    def __post_init__(self) -> None:
        if self.context.is_empty():
            raise ValueError("empty context boxes are represented by omitting the wrapper")


@dataclass(frozen=True)
class Conj:
    items: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("conjunctions need at least two members")


@dataclass(frozen=True)
class Disj:
    items: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("disjunctions need at least two members")


Formula = Union[DrsLit, In, Conj, Disj]


def conj(items: list[Formula]) -> Optional[Formula]:
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return Conj(tuple(items))


def formula_at(formula: Formula, position: tuple[int, ...]) -> Formula:
    """Navigate by child index; an ``in`` wrapper's body is child 0."""
    cur = formula
    for idx in position:
        if isinstance(cur, In):
            if idx != 0:
                raise IndexError("in-wrappers have a single child")
            cur = cur.body
        elif isinstance(cur, (Conj, Disj)):
            cur = cur.items[idx]
        else:
            raise IndexError("no children at %r" % (cur,))
    return cur


def auto_tag_positions(formula: Formula) -> dict[tuple[int, ...], str]:
    """Tags for every box-literal position, in depth-first order."""
    tags: dict[tuple[int, ...], str] = {}
    _tag_walk(formula, (), tags)
    return tags


def _tag_walk(f: Formula, position: tuple[int, ...], tags: dict[tuple[int, ...], str]) -> None:
    if isinstance(f, DrsLit):
        tags[position] = "t%d" % (len(tags) + 1)
    elif isinstance(f, In):
        _tag_walk(f.body, position + (0,), tags)
    elif isinstance(f, (Conj, Disj)):
        for i, item in enumerate(f.items):
            _tag_walk(item, position + (i,), tags)


@dataclass(frozen=True)
class TaggedTask:
    """One accommodation check in the extracted formula.

    ``readings`` lists every projection reading the check decides; sites
    whose context level collapsed share a single check.
    """

    tag: str
    position: tuple[int, ...]
    conclusion: DRS
    readings: tuple[Reading, ...]


@dataclass(frozen=True)
class Extraction:
    formula: Optional[Formula]
    tasks: tuple[TaggedTask, ...]

    def by_tag(self) -> dict[str, TaggedTask]:
        return {t.tag: t for t in self.tasks}

    def tag_positions(self) -> dict[tuple[int, ...], str]:
        return {t.position: t.tag for t in self.tasks}


class _Check:
    """A disjunction of accommodated alpha bodies checked at one level."""

    def __init__(self, readings: list[Reading]) -> None:
        self.disjuncts = tuple([r.accommodated for r in readings])
        self.readings = [[r] for r in readings]  # parallel to disjuncts


def _add_check(parts: list, check: _Check) -> None:
    """Append a check, or fold its readings into an equal one already there."""
    for existing in parts:
        if isinstance(existing, _Check) and existing.disjuncts == check.disjuncts:
            for mine, theirs in zip(existing.readings, check.readings):
                mine.extend(r for r in theirs if r not in mine)
            return
    parts.append(check)


class _Layer:
    """One context level: the box content a site adds, plus its checks."""

    def __init__(self, site_path: DrsPath, delta: DRS) -> None:
        self.site_path = site_path
        self.delta = delta
        self.checks: list[_Check] = []
        self.children: list[_Layer] = []

    def child(self, site_path: DrsPath, delta: DRS) -> "_Layer":
        for existing in self.children:
            if existing.site_path == site_path:
                return existing
        layer = _Layer(site_path, delta)
        self.children.append(layer)
        return layer


def extract(root: DRS, bg: BackgroundTheory = EMPTY_BACKGROUND) -> Extraction:
    """Restate every informativity task of ``root`` as one nested formula.

    The checks are the readings ``candidate_readings`` admits, grouped by
    accommodation site, and the levels are what ``site_contents`` says
    each site adds.  Each level is emitted once, as one ``in`` wrapper,
    and a level that adds nothing collapses into its parent.  A site at
    which the free-variable constraint admits no binding contributes no
    check, and an alpha with nothing to accommodate contributes none at
    all.  Anaphoric material nested inside an alpha body is rejected.
    """
    require_pure(root, "input")
    paths = eligible_alpha_paths(root)
    for path in paths:
        if any(sel == ALPHA_BODY for _, sel in path[:-1]):
            raise ProjectionError(
                "cannot extract anaphoric material nested inside other "
                "anaphoric material at %s" % path_str(path)
            )
    # The root's level hangs under an empty top, so it collapses like any other.
    top = _Layer((), EMPTY)
    for alpha_path in paths:
        readings = candidate_readings(root, alpha_path)[0]
        layer = top
        for site_path, content in site_contents(root, alpha_path, bg):
            layer = layer.child(site_path, content)
            at_site = [r for r in readings if r.site_path == site_path]
            if at_site:
                _add_check(layer.checks, _Check(at_site))

    formula, found = _realize(_emit(top), ())
    return Extraction(formula, tuple([TaggedTask("t%d" % n, *f) for n, f in enumerate(found, 1)]))


# Assembly: each layer becomes an in-wrapper around its checks and its
# children; empty-delta layers splice into their parent, merging any check
# that is already present there.
_Part = Union[_Check, tuple]  # _Check | (context box, list[_Part])


def _emit(layer: _Layer) -> list[_Part]:
    parts: list[_Part] = list(layer.checks)
    for child in layer.children:
        inner = _emit(child)
        if not inner:
            continue
        if not child.delta.is_empty():
            parts.append((child.delta, inner))
            continue
        for part in inner:
            if isinstance(part, _Check):
                _add_check(parts, part)
            else:
                parts.append(part)
    return parts


def _realize(parts: list[_Part], position: tuple[int, ...]) -> tuple[Optional[Formula], list]:
    """The formula of assembled parts at ``position``, and its box literals.

    Each literal is listed as it is built, as (position, box, readings), in
    the depth-first order in which ``auto_tag_positions`` numbers tags.
    """
    items: list[Formula] = []
    found: list[tuple[tuple[int, ...], DRS, tuple[Reading, ...]]] = []
    for i, part in enumerate(parts):
        at = position + (i,) if len(parts) > 1 else position
        if isinstance(part, _Check):
            many = len(part.disjuncts) > 1
            for j, (drs, readings) in enumerate(zip(part.disjuncts, part.readings)):
                found.append((at + (j,) if many else at, drs, tuple(readings)))
            lits = tuple([DrsLit(d) for d in part.disjuncts])
            items.append(Disj(lits) if many else lits[0])
        else:
            delta, inner = part
            body, inner_found = _realize(inner, at + (0,))
            items.append(In(delta, body))
            found.extend(inner_found)
    return conj(items), found


@dataclass(frozen=True)
class SharingStats:
    in_wrappers: int
    context_conditions: int
    duplicated_conditions: int


def context_sharing_depth(formula: Optional[Formula]) -> SharingStats:
    """How much context material the formula states, and how often twice.

    ``duplicated_conditions`` counts condition occurrences whose value
    shows up under more than one context wrapper; a correctly extracted
    formula scores zero.
    """
    contexts: list[DRS] = []
    if formula is not None:
        _collect_contexts(formula, contexts)
    occurrences: Counter = Counter()
    containing: defaultdict = defaultdict(set)
    for i, ctx in enumerate(contexts):
        for cond in ctx.conditions:
            occurrences[cond] += 1
            containing[cond].add(i)
    duplicated = sum(n for cond, n in occurrences.items() if len(containing[cond]) > 1)
    return SharingStats(
        in_wrappers=len(contexts),
        context_conditions=sum(len(c.conditions) for c in contexts),
        duplicated_conditions=duplicated,
    )


def _collect_contexts(f: Formula, contexts: list[DRS]) -> None:
    if isinstance(f, In):
        contexts.append(f.context)
        _collect_contexts(f.body, contexts)
    elif isinstance(f, (Conj, Disj)):
        for item in f.items:
            _collect_contexts(item, contexts)
