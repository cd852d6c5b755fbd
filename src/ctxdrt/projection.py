"""Generate-and-test presupposition projection.

Anaphoric boxes are resolved against their context when possible; otherwise
accommodation readings are enumerated over the global, intermediate, and
local sites, filtered by the free-variable constraint, and checked for
local informativity (the context must not already entail the accommodated
material) and local consistency (the result must be satisfiable).  As with
resolution (``resolve_alpha`` enumerates, ``apply_resolution`` applies), a
reading only says where and what to accommodate: ``candidate_readings``
enumerates them and ``accommodate`` builds the boxes they yield.

Everything asked about one alpha of one box is read off one record, an
``_AlphaWalk``, built from a single ``scope_chain`` walk: the body split
into inner simple anaphors and core conditions, the referents the alpha
sees (what its presupposed referents may be bound to), and the
accommodation sites with their kinds.
``resolve_alpha``, ``accommodation_sites``, ``candidate_readings``,
``site_contents`` and ``site_premises`` are views of it: each builds the
record when called alone, and ``project``, ``lcon.extract`` and
``tableau.compare_cost`` build it once per alpha and pass it to every
view.  A view reads the box-wide facts it needs itself: resolution the
context's condition set, the readings the box's free referents, the
site contents its presupposed referents.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional

from .drs import (
    ALPHA_BODY,
    DRS,
    Atom,
    Condition,
    DrsPath,
    Referent,
    Scope,
    _box,
    chain_conditions,
    chain_referents,
    condition_children,
    condition_contains_alpha,
    condition_mentions,
    delete_alpha,
    extend_drs_at,
    is_simple_anaphor,
    merge,
    merge_all,
    path_str,
    presupposed_referents,
    rename_apart,
    scope_chain,
    substitute_condition,
    substitute_free,
    validate,
)

if TYPE_CHECKING:
    from .tableau import Bounds

__all__ = [
    "ProjectionError",
    "NotAnAlpha",
    "NoAdmissibleReading",
    "Resolution",
    "Reading",
    "BlockedReading",
    "InferenceTask",
    "BackgroundTheory",
    "ReadingVerdict",
    "CheckRecord",
    "ProjectionResult",
    "ProjectOutcome",
    "GLOBAL",
    "INTERMEDIATE",
    "LOCAL",
    "accommodation_sites",
    "require_pure",
    "eligible_alpha_paths",
    "resolve_alpha",
    "apply_resolution",
    "accommodate",
    "candidate_readings",
    "site_contents",
    "site_premises",
    "build_tasks",
    "check_reading",
    "project",
]

GLOBAL = "global"
INTERMEDIATE = "intermediate"
LOCAL = "local"


class ProjectionError(Exception):
    pass


class NotAnAlpha(ProjectionError):
    """The path does not address an anaphoric condition."""


class NoAdmissibleReading(ProjectionError):
    """Every reading failed resolution, the free-variable constraint, or a check."""

    def __init__(self, checks: tuple["CheckRecord", ...]) -> None:
        super().__init__("no admissible reading survives")
        self.checks = checks


@dataclass(frozen=True)
class Resolution:
    """Bindings from anaphoric referents to accessible antecedents.

    Built only by resolution/enumeration, which check accessibility of
    every target at the site where the binding is used.
    """

    bindings: tuple[tuple[Referent, Referent], ...]

    def as_dict(self) -> dict[Referent, Referent]:
        return dict(self.bindings)

    def describe(self) -> str:
        if not self.bindings:
            return "none"
        return ",".join("%s->%s" % (s.name, t.name) for s, t in self.bindings)


@dataclass(frozen=True)
class Reading:
    """One way of accommodating an alpha box: where, and what."""

    site_kind: str  # global | intermediate | local
    site_path: DrsPath
    alpha_path: DrsPath
    resolution: Resolution
    accommodated: DRS

    @cached_property
    def ref(self) -> str:
        """The reading's name in checks and trails, computed once."""
        return "%s@%s;%s" % (self.site_kind, path_str(self.site_path), self.resolution.describe())


@dataclass(frozen=True)
class BlockedReading(Reading):
    """A site/binding pair the free-variable constraint rules out.

    Either the accommodated material would use a referent freely, or an
    anaphor was bound to a referent that is not accessible at the site.
    """

    free: tuple[Referent, ...]
    inaccessible: tuple[Referent, ...] = ()

    @property
    def reason(self) -> str:
        if self.free:
            return "free occurrence of %s" % ", ".join(r.name for r in self.free)
        return "antecedent %s not accessible at this site" % ", ".join(
            r.name for r in self.inaccessible
        )


@dataclass(frozen=True)
class InferenceTask:
    kind: str  # informativity | consistency
    premise: DRS
    conclusion: Optional[DRS]
    reading_ref: str

    def __post_init__(self) -> None:
        require_pure(self.premise, "task premise")


@dataclass(frozen=True)
class BackgroundTheory:
    """World-knowledge postulates merged into the global context."""

    postulates: tuple[DRS, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "postulates", tuple(self.postulates))
        for p in self.postulates:
            require_pure(p, "background postulate")
            if any(condition_contains_alpha(c) for c in p.conditions):
                raise ValueError("anaphoric background postulate")

    def merged_for(self, root: DRS) -> DRS:
        """All postulates as one box, renamed apart from the root's referents."""
        taken = {r.name for r in _all_referents(root)}
        out = []
        for p in self.postulates:
            renamed = rename_apart(p, taken)
            taken |= {r.name for r in _all_referents(renamed)}
            out.append(renamed)
        return merge_all(out)


EMPTY_BACKGROUND = BackgroundTheory(())


def _all_referents(box: DRS) -> frozenset[Referent]:
    report = validate(box)
    return report.free | report.bound


def _split_body(body: DRS) -> tuple[list[Referent], list]:
    """Inner simple-anaphor referents and the remaining core conditions."""
    anaphors: list[Referent] = []
    core = []
    for cond in body.conditions:
        if is_simple_anaphor(cond):
            anaphors.append(cond.body.universe[0])
        else:
            core.append(cond)
    return anaphors, core


class _AlphaWalk(NamedTuple):
    """One alpha of one box, as a single walk down its scope chain sees it."""

    root: DRS
    path: DrsPath
    chain: list[Scope]  # the sites, then the alpha body
    anaphors: list[Referent]  # the body's inner simple anaphors
    core: list[Condition]  # the body's other conditions
    pool: tuple[Referent, ...]  # what the presupposed referents may be bound to
    sites: list[tuple[str, Scope]]  # the accommodation sites, outermost first

    @property
    def body(self) -> DRS:
        return self.chain[-1].box


def _walk_alpha(root: DRS, alpha_path: DrsPath) -> _AlphaWalk:
    """Walk the scope chain of the alpha body at ``alpha_path``, once."""
    if not alpha_path or alpha_path[-1][1] != ALPHA_BODY:
        raise NotAnAlpha("path %s does not end at an alpha body" % path_str(alpha_path))
    chain = scope_chain(alpha_path, root)
    anaphors, core = _split_body(chain[-1].box)
    # a lone site is global: zip stops at the one site
    kinds = [GLOBAL] + [INTERMEDIATE] * (len(chain) - 3) + [LOCAL]
    sites = list(zip(kinds, chain[:-1]))
    return _AlphaWalk(root, alpha_path, chain, anaphors, core, chain_referents(chain), sites)


def _walk_of(root: DRS, alpha_path: DrsPath, walk: Optional[_AlphaWalk]) -> _AlphaWalk:
    """The given walk, which must be of this alpha of this box, or a new one."""
    if walk is None:
        return _walk_alpha(root, alpha_path)
    if walk.root is not root or walk.path != alpha_path:
        raise ValueError("the walk is of another alpha or box")
    return walk


def accommodation_sites(alpha_path: DrsPath, root: DRS) -> list[tuple[str, DrsPath]]:
    """Sites an alpha at this path may be accommodated at, outermost first.

    These are the boxes the alpha sees: its ``scope_chain`` without the
    alpha body itself.  The outermost is the global site, the alpha's own
    box the local one, and any box between them an intermediate one.
    """
    return [(kind, site.path) for kind, site in _walk_alpha(root, alpha_path).sites]


def resolve_alpha(
    alpha_path: DrsPath, root: DRS, walk: Optional[_AlphaWalk] = None
) -> list[Resolution]:
    """All bindings making the substituted body part of the context.

    The presupposed referents (the body universe plus inner simple
    anaphors) are bound to accessible referents; a binding succeeds when
    every substituted condition already occurs in the context box.  The
    context is read as the set of its conditions (``chain_conditions``),
    not merged into a box.
    """
    walk = _walk_of(root, alpha_path, walk)
    context = chain_conditions(walk.chain)
    to_bind = list(walk.body.universe) + walk.anaphors
    out: list[Resolution] = []
    for combo in itertools.product(walk.pool, repeat=len(to_bind)):
        theta = dict(zip(to_bind, combo))
        if all(substitute_condition(c, theta) in context for c in walk.core):
            out.append(Resolution(tuple(zip(to_bind, combo))))
    return out


def apply_resolution(root: DRS, alpha_path: DrsPath, resolution: Resolution) -> DRS:
    """Delete the resolved alpha and rename its referents to their antecedents."""
    pruned = delete_alpha(root, alpha_path)
    return substitute_free(pruned, resolution.as_dict())


def accommodate(root: DRS, readings: list[Reading]) -> list[DRS]:
    """The boxes the readings of one alpha yield: the alpha deleted, and
    each reading's accommodated box merged into its site."""
    if not readings:
        return []
    pruned = delete_alpha(root, readings[0].alpha_path)
    return [extend_drs_at(pruned, r.site_path, r.accommodated) for r in readings]


def candidate_readings(
    root: DRS, alpha_path: DrsPath, walk: Optional[_AlphaWalk] = None
) -> tuple[list[Reading], list[BlockedReading]]:
    """Accommodation candidates split into admitted and free-variable-blocked.

    Candidates are the product of the ``accommodation_sites`` with bindings
    of the inner simple anaphors; a candidate is blocked when accommodation
    would leave a referent free that was not free in the input.  An alpha
    with nothing to accommodate (no condition besides simple anaphors) has
    no candidates.  This only enumerates: ``accommodate`` builds the boxes
    that admitted readings yield.

    Only the moved conditions can gain free occurrences (deleting the
    alpha removes occurrences, and the site's universe only grows), so the
    constraint is checked on the accommodated box against the referents
    bound at the site: the universes of every site up to and including it,
    scoped as ``validate`` scopes them.  A binding's accommodated box does
    not depend on the site, so it is built and validated once and every
    site's reading of that binding shares it.
    """
    walk = _walk_of(root, alpha_path, walk)
    if not walk.core:
        return [], []
    root_free = validate(root).free
    bindings = []
    for combo in itertools.product(walk.pool, repeat=len(walk.anaphors)):
        theta = dict(zip(walk.anaphors, combo))
        accommodated = _box(
            walk.body.universe, tuple([substitute_condition(c, theta) for c in walk.core])
        )
        free = validate(accommodated).free - root_free
        bindings.append((Resolution(tuple(zip(walk.anaphors, combo))), accommodated, free, combo))
    admitted: list[Reading] = []
    blocked: list[BlockedReading] = []
    site_refs: set[Referent] = set()
    for kind, (site_path, site_box, _) in walk.sites:
        site_refs.update(site_box.universe)
        for resolution, accommodated, free, combo in bindings:
            new_free = free - site_refs
            outside = tuple(sorted(set(combo) - site_refs))
            fields = (kind, site_path, alpha_path, resolution, accommodated)
            if new_free or outside:
                blocked.append(BlockedReading(*fields, tuple(sorted(new_free)), outside))
            else:
                admitted.append(Reading(*fields))
    return admitted, blocked


def _task_content(box: DRS, presupposed: frozenset[Referent]) -> DRS:
    """The box's assertable content: conditions that neither contain an
    anaphoric sub-box nor mention a still-unresolved presupposed referent."""
    return _box(
        box.universe,
        tuple(
            [
                c
                for c in box.conditions
                if not condition_contains_alpha(c) and not condition_mentions(c, presupposed)
            ]
        ),
    )


def site_contents(
    root: DRS,
    alpha_path: DrsPath,
    bg: BackgroundTheory = EMPTY_BACKGROUND,
    walk: Optional[_AlphaWalk] = None,
) -> list[tuple[DrsPath, DRS]]:
    """What each of the ``accommodation_sites`` of one alpha adds to its
    context, outermost first: the root adds the background theory and its
    own assertable content, every other site its box's assertable content."""
    walk = _walk_of(root, alpha_path, walk)
    presupposed = presupposed_referents(root)
    contents: list[tuple[DrsPath, DRS]] = []
    for _, (site_path, site_box, _) in walk.sites:
        content = _task_content(site_box, presupposed)
        if site_path == ():
            content = merge(bg.merged_for(root), content)
        contents.append((site_path, content))
    return contents


def site_premises(
    root: DRS,
    alpha_path: DrsPath,
    bg: BackgroundTheory = EMPTY_BACKGROUND,
    walk: Optional[_AlphaWalk] = None,
) -> dict[DrsPath, DRS]:
    """The task premise of every accommodation site of one alpha.

    A site's premise is the background theory, the site's context box and
    the site's own assertable content: the running merge of
    ``site_contents``.  The condition housing the alpha at each level is
    not assertable, and an antecedent is listed before its consequent, so
    this is the context box's content in its order.  Each content is
    validated before the merge, so every later premise, and every merge
    of a premise with a validated box, carries the report its merge
    derives instead of being walked.
    """
    contents = site_contents(root, alpha_path, bg, walk)
    for _, content in contents:
        validate(content)
    premises = itertools.accumulate([content for _, content in contents], merge)
    return dict(zip([site_path for site_path, _ in contents], premises))


def _informativity_task(reading: Reading, premise: DRS) -> InferenceTask:
    return InferenceTask("informativity", premise, reading.accommodated, reading.ref)


def _consistency_task(reading: Reading, premise: DRS) -> InferenceTask:
    return InferenceTask("consistency", merge(premise, reading.accommodated), None, reading.ref)


def build_tasks(
    reading: Reading, root: DRS, bg: BackgroundTheory = EMPTY_BACKGROUND
) -> tuple[InferenceTask, InferenceTask]:
    """The informativity and consistency tasks for one reading.

    The premise is the reading's site premise (see ``site_premises``).
    Informativity asks whether that premise already entails the
    accommodated material; consistency asks whether premise plus
    accommodated material is satisfiable.  ``project`` builds the site
    premises once per alpha instead of once per reading, and a
    consistency task only for the readings it searches.
    """
    premise = site_premises(root, reading.alpha_path, bg)[reading.site_path]
    return _informativity_task(reading, premise), _consistency_task(reading, premise)


@dataclass(frozen=True)
class ReadingVerdict:
    informative: str  # pass | fail | unknown
    consistent: str  # pass | fail | unknown

    @property
    def admitted(self) -> bool:
        return self.informative == "pass" and self.consistent == "pass"

    @property
    def unknown(self) -> bool:
        return "unknown" in (self.informative, self.consistent)


def _informative(task: InferenceTask, bounds: Optional["Bounds"]) -> str:
    """``check_reading``'s informativity verdict."""
    from . import tableau  # tableau imports this module

    status, _ = tableau.naive_prove(task, tableau.DEFAULT_BOUNDS if bounds is None else bounds)
    return {"closed": "fail", "open_saturated": "pass", "open_bounded": "unknown"}[status]


def _consistent(task: InferenceTask, model_bound: int) -> str:
    """``check_reading``'s consistency verdict."""
    from . import models

    try:
        status = models.model_check(task.premise, None, max_domain=model_bound).status
    except models.ResourceLimit:
        status = "unknown"
    return {"satisfiable": "pass", "refuted": "fail", "unknown": "unknown"}[status]


def check_reading(
    tasks: tuple[InferenceTask, InferenceTask],
    bounds: Optional["Bounds"] = None,
    model_bound: int = 3,
) -> ReadingVerdict:
    """Decide one reading on its own: tableau for entailment, model search
    for consistency.

    The informativity task goes to ``tableau.naive_prove`` under ``bounds``
    (default ``tableau.DEFAULT_BOUNDS``); a closed task means the
    accommodation is redundant and the reading fails.  A consistency search
    that hits the model checker's resource ceiling leaves the reading
    undecided.  ``project`` gives every reading the verdict this gives it,
    but searches once per binding rather than once per reading (see
    ``project``).
    """
    informativity, consistency = tasks
    return ReadingVerdict(
        _informative(informativity, bounds), _consistent(consistency, model_bound)
    )


def _check_readings(
    readings: list[Reading],
    premises: dict[DrsPath, DRS],
    bounds: Optional["Bounds"],
    model_bound: int,
) -> list[ReadingVerdict]:
    """The verdicts of one alpha's readings, in their order, with one
    consistency search per binding (see ``project``).

    ``candidate_readings`` lists the readings site by site, outermost
    first, so a binding's readings in reverse are its sites innermost first.
    """
    consistent = ["pass"] * len(readings)
    by_binding: dict[Resolution, list[int]] = {}
    for i, reading in enumerate(readings):
        by_binding.setdefault(reading.resolution, []).append(i)
    for indices in by_binding.values():
        for i in reversed(indices):  # innermost site first
            reading = readings[i]
            task = _consistency_task(reading, premises[reading.site_path])
            consistent[i] = _consistent(task, model_bound)
            if consistent[i] == "pass":
                break  # and so is the question at every site further out
    return [
        ReadingVerdict(_informative(_informativity_task(r, premises[r.site_path]), bounds), c)
        for r, c in zip(readings, consistent)
    ]


@dataclass(frozen=True)
class CheckRecord:
    reading: Reading
    verdict: ReadingVerdict
    result: DRS  # the box the reading yields


@dataclass(frozen=True)
class ProjectionStep:
    alpha_path: DrsPath
    action: str  # resolved | accommodated
    detail: str


@dataclass(frozen=True)
class ProjectionResult:
    drs: DRS
    trail: tuple[ProjectionStep, ...]


@dataclass(frozen=True)
class ProjectOutcome:
    survivors: tuple[ProjectionResult, ...]
    checks: tuple[CheckRecord, ...]
    blocked: tuple[BlockedReading, ...]

    @property
    def any_unknown(self) -> bool:
        return any(c.verdict.unknown for c in self.checks)


def require_pure(box: DRS, what: str) -> None:
    """Reject a ``what`` box that introduces a referent twice, naming each such referent."""
    report = validate(box)
    if not report.pure:
        raise ValueError(
            "impure %s: %s introduced twice" % (what, ",".join(r.name for r in report.duplicates))
        )


def eligible_alpha_paths(box: DRS) -> list[DrsPath]:
    """Alpha conditions processed on their own.

    Simple anaphors sitting directly inside another alpha body ride along
    with their host (they are bound during the host's resolution or
    accommodation); everything else, including contentful alphas nested
    inside presupposed material, is processed individually.
    """
    out: list[DrsPath] = []
    _eligible_paths(box, (), False, out)
    return out


def _eligible_paths(box: DRS, prefix: DrsPath, in_alpha: bool, out: list[DrsPath]) -> None:
    """Add the eligible alpha paths inside ``box``, at ``prefix``, depth-first
    as ``alpha_condition_paths`` lists them; ``in_alpha`` when ``box`` is an
    alpha body."""
    for i, cond in enumerate(box.conditions):
        if type(cond) is Atom:
            continue
        for sel, child in condition_children(cond):
            path = prefix + ((i, sel),)
            is_alpha = sel == ALPHA_BODY
            if is_alpha and not (in_alpha and is_simple_anaphor(cond)):
                out.append(path)
            _eligible_paths(child, path, is_alpha, out)


def project(
    root: DRS,
    bg: BackgroundTheory = EMPTY_BACKGROUND,
    bounds: Optional["Bounds"] = None,
    model_bound: int = 3,
) -> ProjectOutcome:
    """Resolve or accommodate every alpha, innermost first.

    Resolution is preferred: a resolvable alpha is deleted and its
    referents renamed, without generating accommodation readings.  An
    unresolvable alpha is accommodated every admissible way; readings
    failing informativity or consistency are dropped.  Each alpha is
    walked once (``_AlphaWalk``), and its resolutions, readings and site
    premises are read off that walk.  The site premises are built once per
    accommodated alpha and shared by every reading at a site, so each is
    validated once.  Every box taken from the queue is searched for its
    alphas once (``eligible_alpha_paths``, one walk), and ``accommodate``
    builds the boxes an alpha's readings yield.  All surviving alpha-free
    boxes are returned with their decision trails.

    Each reading gets the verdict ``check_reading`` gives it on its own
    tasks under ``bounds`` and ``model_bound``.  Informativity is one
    ``tableau.naive_prove`` per reading, in reading order.  Consistency is
    one ``models.model_check`` per binding of the inner anaphors, not per
    reading: a binding's readings are searched from its innermost site
    outward until a search says ``satisfiable``, and every reading of that
    binding at a site further out passes unsearched.  A ``refuted`` or
    ``unknown`` search decides only its own reading.  This is exact.  An
    outer site's premise is a sub-box of an inner site's (``site_premises``
    merges each site's content onto the premise of the site outside it),
    and both questions merge the same accommodated box, so the outer
    question's referents and conditions are among the inner one's.  A
    model of the inner question, found at some domain size, restricts to a
    model of the outer one on the same domain, and ``model_check`` decides
    each size exactly, smallest first; the outer question's predicates are
    among the inner one's, so its ground-atom ceiling cannot trip at a
    size the inner search passed.  So ``model_check`` would itself answer
    ``satisfiable`` on the outer question.  Inner means later in the order
    of the sites, not a longer path: an antecedent and its consequent have
    paths of equal length, and the consequent sees the antecedent.
    """
    require_pure(root, "input")
    checks: list[CheckRecord] = []
    blocked_all: list[BlockedReading] = []
    survivors: list[ProjectionResult] = []
    pending: deque[tuple[DRS, tuple[ProjectionStep, ...]]] = deque([(root, ())])
    while pending:
        box, trail = pending.popleft()
        paths = eligible_alpha_paths(box)
        if not paths:
            survivors.append(ProjectionResult(box, trail))
            continue
        target = max(paths, key=len)  # innermost first; DFS order breaks ties
        walk = _walk_alpha(box, target)
        resolutions = resolve_alpha(target, box, walk)
        if resolutions:
            for res in resolutions:
                step = ProjectionStep(target, "resolved", res.describe())
                pending.append((apply_resolution(box, target, res), trail + (step,)))
            continue
        readings, blocked = candidate_readings(box, target, walk)
        blocked_all.extend(blocked)
        if not readings:
            continue
        premises = site_premises(box, target, bg, walk)
        verdicts = _check_readings(readings, premises, bounds, model_bound)
        for reading, verdict, result in zip(readings, verdicts, accommodate(box, readings)):
            checks.append(CheckRecord(reading, verdict, result))
            if verdict.admitted:
                step = ProjectionStep(target, "accommodated", reading.ref)
                pending.append((result, trail + (step,)))
    if not survivors:
        raise NoAdmissibleReading(tuple(checks))
    return ProjectOutcome(tuple(survivors), tuple(checks), tuple(blocked_all))
