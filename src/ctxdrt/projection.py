"""Generate-and-test presupposition projection.

Anaphoric boxes are resolved against their context when possible; otherwise
accommodation readings are enumerated over the global, intermediate, and
local sites, filtered by the free-variable constraint, and checked for
local informativity (the context must not already entail the accommodated
material) and local consistency (the result must be satisfiable).  As with
resolution (``resolve_alpha`` enumerates, ``apply_resolution`` applies), a
reading only says where and what to accommodate: ``candidate_readings``
enumerates them and ``accommodate`` builds the boxes they yield.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .drs import (
    ALPHA_BODY,
    DRS,
    DrsPath,
    Referent,
    Scope,
    alpha_condition_paths,
    chain_context,
    chain_referents,
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
    sub_drs_at,
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

    @property
    def ref(self) -> str:
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


def _alpha_chain(alpha_path: DrsPath, root: DRS) -> list[Scope]:
    """The scope chain of an alpha body: its sites, then the body itself."""
    if not alpha_path or alpha_path[-1][1] != ALPHA_BODY:
        raise NotAnAlpha("path %s does not end at an alpha body" % path_str(alpha_path))
    return scope_chain(alpha_path, root)


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


def _sites(chain: list[Scope]) -> list[tuple[str, Scope]]:
    """The accommodation sites of an alpha's scope chain, with their kinds.

    A lone site is global: ``zip`` stops at the one site.
    """
    kinds = [GLOBAL] + [INTERMEDIATE] * (len(chain) - 3) + [LOCAL]
    return list(zip(kinds, chain[:-1]))


def accommodation_sites(alpha_path: DrsPath, root: DRS) -> list[tuple[str, DrsPath]]:
    """Sites an alpha at this path may be accommodated at, outermost first.

    These are the boxes the alpha sees: its ``scope_chain`` without the
    alpha body itself.  The outermost is the global site, the alpha's own
    box the local one, and any box between them an intermediate one.
    """
    return [(kind, site.path) for kind, site in _sites(_alpha_chain(alpha_path, root))]


def resolve_alpha(alpha_path: DrsPath, root: DRS) -> list[Resolution]:
    """All bindings making the substituted body part of the context.

    The presupposed referents (the body universe plus inner simple
    anaphors) are bound to accessible referents; a binding succeeds when
    every substituted condition already occurs in the context box.
    """
    chain = _alpha_chain(alpha_path, root)
    body = chain[-1].box
    anaphors, core = _split_body(body)
    ctx_conditions = set(chain_context(chain).conditions)
    pool = chain_referents(chain)
    to_bind = list(body.universe) + anaphors
    out: list[Resolution] = []
    for combo in itertools.product(pool, repeat=len(to_bind)):
        theta = dict(zip(to_bind, combo))
        if all(substitute_condition(c, theta) in ctx_conditions for c in core):
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
    root: DRS, alpha_path: DrsPath
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
    scoped as ``validate`` scopes them.
    """
    chain = _alpha_chain(alpha_path, root)
    body = chain[-1].box
    anaphors, core = _split_body(body)
    if not core:
        return [], []
    pool = chain_referents(chain)
    root_free = validate(root).free
    admitted: list[Reading] = []
    blocked: list[BlockedReading] = []
    site_refs: set[Referent] = set()
    for kind, (site_path, site_box, _) in _sites(chain):
        site_refs |= set(site_box.universe)
        for combo in itertools.product(pool, repeat=len(anaphors)):
            theta = dict(zip(anaphors, combo))
            conditions = tuple([substitute_condition(c, theta) for c in core])
            accommodated = DRS(body.universe, conditions)
            new_free = validate(accommodated).free - site_refs - root_free
            outside = tuple(sorted(set(combo) - site_refs))
            resolution = Resolution(tuple(zip(anaphors, combo)))
            fields = (kind, site_path, alpha_path, resolution, accommodated)
            if new_free or outside:
                blocked.append(BlockedReading(*fields, tuple(sorted(new_free)), outside))
            else:
                admitted.append(Reading(*fields))
    return admitted, blocked


def _task_content(box: DRS, presupposed: frozenset[Referent]) -> DRS:
    """The box's assertable content: conditions that neither contain an
    anaphoric sub-box nor mention a still-unresolved presupposed referent."""
    return DRS(
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
    root: DRS, alpha_path: DrsPath, bg: BackgroundTheory = EMPTY_BACKGROUND
) -> list[tuple[DrsPath, DRS]]:
    """What each of the ``accommodation_sites`` of one alpha adds to its
    context, outermost first: the root adds the background theory and its
    own assertable content, every other site its box's assertable content."""
    presupposed = presupposed_referents(root)
    contents: list[tuple[DrsPath, DRS]] = []
    for _, (site_path, site_box, _) in _sites(_alpha_chain(alpha_path, root)):
        content = _task_content(site_box, presupposed)
        if site_path == ():
            content = merge(bg.merged_for(root), content)
        contents.append((site_path, content))
    return contents


def site_premises(
    root: DRS, alpha_path: DrsPath, bg: BackgroundTheory = EMPTY_BACKGROUND
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
    contents = site_contents(root, alpha_path, bg)
    for _, content in contents:
        validate(content)
    premises = itertools.accumulate([content for _, content in contents], merge)
    return dict(zip([site_path for site_path, _ in contents], premises))


def _reading_tasks(reading: Reading, premise: DRS) -> tuple[InferenceTask, InferenceTask]:
    informativity = InferenceTask("informativity", premise, reading.accommodated, reading.ref)
    consistency = InferenceTask(
        "consistency", merge(premise, reading.accommodated), None, reading.ref
    )
    return informativity, consistency


def build_tasks(
    reading: Reading, root: DRS, bg: BackgroundTheory = EMPTY_BACKGROUND
) -> tuple[InferenceTask, InferenceTask]:
    """The informativity and consistency tasks for one reading.

    The premise is the reading's site premise (see ``site_premises``).
    Informativity asks whether that premise already entails the
    accommodated material; consistency asks whether premise plus
    accommodated material is satisfiable.  ``project`` builds the site
    premises once per alpha instead of once per reading.
    """
    premises = site_premises(root, reading.alpha_path, bg)
    return _reading_tasks(reading, premises[reading.site_path])


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


def check_reading(
    tasks: tuple[InferenceTask, InferenceTask],
    bounds: Optional["Bounds"] = None,
    model_bound: int = 3,
) -> ReadingVerdict:
    """Decide a reading: tableau for entailment, model search for consistency.

    The informativity task goes to ``tableau.naive_prove`` under ``bounds``
    (default ``tableau.DEFAULT_BOUNDS``); a closed task means the
    accommodation is redundant and the reading fails.  A consistency search
    that hits the model checker's resource ceiling leaves the reading
    undecided.
    """
    from . import models, tableau  # tableau imports this module

    informativity, consistency = tasks
    status, _ = tableau.naive_prove(
        informativity, tableau.DEFAULT_BOUNDS if bounds is None else bounds
    )
    informative = {"closed": "fail", "open_saturated": "pass", "open_bounded": "unknown"}[
        status
    ]
    try:
        mc_status = models.model_check(consistency.premise, None, max_domain=model_bound).status
    except models.ResourceLimit:
        mc_status = "unknown"
    consistent = {"satisfiable": "pass", "refuted": "fail", "unknown": "unknown"}[mc_status]
    return ReadingVerdict(informative, consistent)


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
    for p in alpha_condition_paths(box):
        if len(p) >= 2 and p[-2][1] == ALPHA_BODY:
            parent = sub_drs_at(p[:-1], box)
            if is_simple_anaphor(parent.conditions[p[-1][0]]):
                continue
        out.append(p)
    return out


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
    failing informativity or consistency are dropped.  The site premises
    are built once per accommodated alpha and shared by every reading at
    a site, so each is validated once.  Each reading is checked by
    ``check_reading`` under ``bounds`` and ``model_bound``.  All surviving
    alpha-free boxes are returned with their decision trails.
    """
    require_pure(root, "input")
    checks: list[CheckRecord] = []
    blocked_all: list[BlockedReading] = []
    survivors: list[ProjectionResult] = []
    pending: list[tuple[DRS, tuple[ProjectionStep, ...]]] = [(root, ())]
    while pending:
        box, trail = pending.pop(0)
        paths = eligible_alpha_paths(box)
        if not paths:
            survivors.append(ProjectionResult(box, trail))
            continue
        target = max(paths, key=len)  # innermost first; DFS order breaks ties
        resolutions = resolve_alpha(target, box)
        if resolutions:
            for res in resolutions:
                step = ProjectionStep(target, "resolved", res.describe())
                pending.append((apply_resolution(box, target, res), trail + (step,)))
            continue
        readings, blocked = candidate_readings(box, target)
        blocked_all.extend(blocked)
        premises = site_premises(box, target, bg) if readings else {}
        for reading, result in zip(readings, accommodate(box, readings)):
            tasks = _reading_tasks(reading, premises[reading.site_path])
            verdict = check_reading(tasks, bounds, model_bound)
            checks.append(CheckRecord(reading, verdict, result))
            if verdict.admitted:
                step = ProjectionStep(target, "accommodated", reading.ref)
                pending.append((result, trail + (step,)))
    if not survivors:
        raise NoAdmissibleReading(tuple(checks))
    return ProjectOutcome(tuple(survivors), tuple(checks), tuple(blocked_all))
