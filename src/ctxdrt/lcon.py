"""The context language and the extraction of informativity tasks.

A context formula is a box, a conjunction, a disjunction, or ``in(K, f)``,
which asserts that the context box K entails f.  Nested ``in`` wrappers
accumulate: ``in(K1, f & in(K2, g))`` requires K1 to entail f and K1+K2 to
entail g, so material shared between several entailment questions is
stated exactly once.

``extract`` turns a box containing anaphoric material into one such
formula: each accommodation site contributes a nesting level carrying only
the context material that level adds, and each reading that
``projection.candidate_readings`` admits at that site becomes a disjunct
there, tagged so prover verdicts map back to readings.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional, Union

from .drs import (
    ALPHA_BODY,
    DRS,
    DrsPath,
    condition_contains_alpha,
    is_simple_anaphor,
    merge,
    path_str,
    presupposed_referents,
    sub_drs_at,
    validate,
)
from .projection import (
    EMPTY_BACKGROUND,
    BackgroundTheory,
    ProjectionError,
    Reading,
    _alpha_body_at,
    _task_content,
    accommodation_sites,
    candidate_readings,
    eligible_alpha_paths,
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

    def walk(f: Formula, position: tuple[int, ...]) -> None:
        if isinstance(f, DrsLit):
            tags[position] = "t%d" % (len(tags) + 1)
        elif isinstance(f, In):
            walk(f.body, position + (0,))
        elif isinstance(f, (Conj, Disj)):
            for i, item in enumerate(f.items):
                walk(item, position + (i,))

    walk(formula, ())
    return tags


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
        self.disjuncts = tuple(r.accommodated for r in readings)
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
    accommodation site.  Alpha-free conditions fold into the context level
    of the box that carries them; each level is emitted once, as one
    ``in`` wrapper, and a level that adds nothing collapses into its
    parent.  A site at which the free-variable constraint admits no
    binding contributes no check.
    """
    if not validate(root).pure:
        raise ValueError("impure input")
    presupposed = presupposed_referents(root)
    alphas = []
    for path in eligible_alpha_paths(root):
        body = _alpha_body_at(path, root)
        if len(body.universe) == 1 and not body.conditions:
            continue  # resolution-only material: nothing to accommodate
        if any(sel == ALPHA_BODY for _, sel in path[:-1]):
            raise ProjectionError(
                "cannot extract anaphoric material nested inside other "
                "anaphoric material at %s" % path_str(path)
            )
        for cond in body.conditions:
            if condition_contains_alpha(cond) and not is_simple_anaphor(cond):
                raise ProjectionError(
                    "alpha body at %s carries nested anaphoric material" % path_str(path)
                )
        alphas.append(path)

    root_layer = _Layer((), merge(bg.merged_for(root), _task_content(root, presupposed)))
    for alpha_path in alphas:
        by_site: defaultdict[DrsPath, list[Reading]] = defaultdict(list)
        for reading in candidate_readings(root, alpha_path)[0]:
            by_site[reading.site_path].append(reading)
        layer = root_layer
        for _, site_path in accommodation_sites(alpha_path, root):
            if site_path != ():
                site_box = sub_drs_at(site_path, root)
                layer = layer.child(site_path, _task_content(site_box, presupposed))
            if site_path in by_site:
                _add_check(layer.checks, _Check(by_site[site_path]))

    # Assemble: each layer becomes an in-wrapper around its checks and its
    # children; empty-delta layers splice into their parent, merging any
    # check that is already present there.
    _Part = Union[_Check, tuple]  # _Check | (context box, list[_Part])

    def emit(layer: _Layer) -> list[_Part]:
        parts: list[_Part] = list(layer.checks)
        for child in layer.children:
            inner = emit(child)
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

    readings_of: dict[int, list[Reading]] = {}

    def realize(parts: list[_Part]) -> Optional[Formula]:
        items: list[Formula] = []
        for part in parts:
            if isinstance(part, _Check):
                lits = [DrsLit(d) for d in part.disjuncts]
                for lit, readings in zip(lits, part.readings):
                    readings_of[id(lit)] = readings
                items.append(lits[0] if len(lits) == 1 else Disj(tuple(lits)))
            else:
                delta, inner = part
                items.append(In(delta, realize(inner)))
        return conj(items)

    body = realize(emit(root_layer))
    if body is None:
        return Extraction(None, ())
    formula = body if root_layer.delta.is_empty() else In(root_layer.delta, body)
    tasks: list[TaggedTask] = []
    for position, tag in auto_tag_positions(formula).items():
        lit = formula_at(formula, position)
        tasks.append(TaggedTask(tag, position, lit.drs, tuple(readings_of[id(lit)])))
    return Extraction(formula, tuple(tasks))


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

    def go(f: Formula) -> None:
        if isinstance(f, In):
            contexts.append(f.context)
            go(f.body)
        elif isinstance(f, (Conj, Disj)):
            for item in f.items:
                go(item)

    if formula is not None:
        go(formula)
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
