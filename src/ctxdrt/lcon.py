"""The context language and the extraction of informativity tasks.

A context formula is a box, a conjunction, a disjunction, or ``in(K, f)``,
which asserts that the context box K entails f.  Nested ``in`` wrappers
accumulate: ``in(K1, f & in(K2, g))`` requires K1 to entail f and K1+K2 to
entail g, so material shared between several entailment questions is
stated exactly once.

``extract`` turns a box containing anaphoric material into one such
formula in one walk over the accommodation sites of its alphas.  Each
alpha's scope chain is walked once (``projection._AlphaWalk``), and its
site contents and its readings are both read off that walk.  A site that
adds context material (``projection.site_contents``) opens a nesting
level, shared by every alpha that passes it; a site that adds nothing
shares the level of the site before it.  Each reading that ``projection.candidate_readings``
admits at a site becomes a disjunct at its level.  The finished formula
is tagged by ``auto_tag_positions``, the numbering the prover uses, so
prover verdicts map back to readings.  An alpha with nothing to
accommodate adds no check, as in ``projection.project``.
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
    _walk_alpha,
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

    ``readings`` lists every projection reading the check decides; a site
    that adds no context shares the check of the site before it.
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


class _Layer:
    """One context level: the box content its site adds, the checks made
    at it, and the levels nested in it, keyed by site path.

    A check is its disjuncts, the accommodated boxes it offers, and its
    readings grouped by site, in the order the walk first reaches each
    site, every group parallel to the disjuncts: a task lists the readings
    of a site before those of the empty sites below it.
    """

    def __init__(self, delta: DRS) -> None:
        self.delta = delta
        self.checks: list[tuple[tuple[DRS, ...], dict[DrsPath, list[list[Reading]]]]] = []
        self.children: dict[DrsPath, _Layer] = {}

    def add_check(self, site_path: DrsPath, readings: list[Reading]) -> None:
        """Add a check, or fold its readings into an equal one already here."""
        disjuncts = tuple([r.accommodated for r in readings])
        for known, by_site in self.checks:
            if known == disjuncts:
                break
        else:
            by_site = {}
            self.checks.append((disjuncts, by_site))
        by_site.setdefault(site_path, []).append(readings)

    def child(self, site_path: DrsPath, delta: DRS) -> "_Layer":
        layer = self.children.get(site_path)
        if layer is None:
            layer = self.children[site_path] = _Layer(delta)
        return layer


def extract(root: DRS, bg: BackgroundTheory = EMPTY_BACKGROUND) -> Extraction:
    """Restate every informativity task of ``root`` as one nested formula.

    The checks are the readings ``candidate_readings`` admits, grouped by
    accommodation site, and the levels are what ``site_contents`` says
    each site adds; each level is built once, by the first alpha whose
    walk reaches it, and becomes one ``in`` wrapper.  A site that adds
    nothing adds no level: its empty universe admits the readings of the
    site before it, so its check folds into that site's.  A site at which
    the free-variable constraint admits no binding contributes no check,
    and an alpha with nothing to accommodate contributes none at all.
    Anaphoric material nested inside an alpha body is rejected.
    """
    require_pure(root, "input")
    paths = eligible_alpha_paths(root)
    for path in paths:
        if any(sel == ALPHA_BODY for _, sel in path[:-1]):
            raise ProjectionError(
                "cannot extract anaphoric material nested inside other "
                "anaphoric material at %s" % path_str(path)
            )
    top = _Layer(EMPTY)
    for alpha_path in paths:
        walk = _walk_alpha(root, alpha_path)
        readings = candidate_readings(root, alpha_path, walk)[0]
        layer = top
        for site_path, content in site_contents(root, alpha_path, bg, walk):
            if not content.is_empty():
                layer = layer.child(site_path, content)
            at_site = [r for r in readings if r.site_path == site_path]
            if at_site:
                layer.add_check(site_path, at_site)

    found: list[tuple[DRS, tuple[Reading, ...]]] = []
    formula = _realize(top, found)
    tags = auto_tag_positions(formula) if formula is not None else {}
    tasks = [TaggedTask(tag, position, *lit) for (position, tag), lit in zip(tags.items(), found)]
    return Extraction(formula, tuple(tasks))


def _realize(layer: _Layer, found: list) -> Optional[Formula]:
    """The formula of a layer: its checks, then an ``in`` wrapper per child.

    Each box literal is listed in ``found`` as it is built, as (box,
    readings), in the depth-first order in which ``auto_tag_positions``
    numbers tags.  A layer with no check anywhere below it yields None.
    """
    items: list[Formula] = []
    for disjuncts, by_site in layer.checks:
        groups = [group for at_site in by_site.values() for group in at_site]
        found.extend(zip(disjuncts, zip(*groups)))
        lits = tuple([DrsLit(d) for d in disjuncts])
        items.append(Disj(lits) if len(lits) > 1 else lits[0])
    for child in layer.children.values():
        body = _realize(child, found)
        if body is not None:
            items.append(In(child.delta, body))
    return conj(items)


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
