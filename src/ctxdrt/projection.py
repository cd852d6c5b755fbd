"""Generate-and-test presupposition projection.

Anaphoric boxes are resolved against their context when possible; otherwise
accommodation readings are enumerated over the global, intermediate, and
local sites, filtered by the free-variable constraint, and checked for
local informativity (the context must not already entail the accommodated
material) and local consistency (the result must be satisfiable).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .drs import (
    ALPHA_BODY,
    DRS,
    Alpha,
    DrsPath,
    IMP_ANTECEDENT,
    IMP_CONSEQUENT,
    Referent,
    accessible_referents,
    alpha_condition_paths,
    condition_children,
    condition_contains_alpha,
    condition_mentions,
    context_drs,
    delete_alpha,
    extend_drs_at,
    is_simple_anaphor,
    merge,
    merge_all,
    path_str,
    presupposed_referents,
    rename_apart,
    sub_drs_at,
    substitute_condition,
    substitute_free,
    validate,
)

__all__ = [
    "ProjectionError",
    "NotAnAlpha",
    "NotAccommodatable",
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
    "eligible_alpha_paths",
    "resolve_alpha",
    "apply_resolution",
    "candidate_readings",
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


class NotAccommodatable(ProjectionError):
    """The alpha body places no conditions on its referent."""


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
    """One way of accommodating an alpha box."""

    site_kind: str  # global | intermediate | local
    site_path: DrsPath
    alpha_path: DrsPath
    resolution: Resolution
    accommodated: DRS
    result: DRS

    @property
    def ref(self) -> str:
        return "%s@%s;%s" % (self.site_kind, path_str(self.site_path), self.resolution.describe())


@dataclass(frozen=True)
class BlockedReading:
    """A site/binding pair the free-variable constraint rules out.

    Either the accommodated material would use a referent freely, or an
    anaphor was bound to a referent that is not accessible at the site.
    """

    site_kind: str
    site_path: DrsPath
    alpha_path: DrsPath
    resolution: Resolution
    accommodated: DRS
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
        report = validate(self.premise)
        if not report.pure:
            raise ValueError(
                "impure task premise; duplicated: %s"
                % ",".join(r.name for r in report.duplicates)
            )


@dataclass(frozen=True)
class BackgroundTheory:
    """World-knowledge postulates merged into the global context."""

    postulates: tuple[DRS, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "postulates", tuple(self.postulates))
        for p in self.postulates:
            if not validate(p).pure:
                raise ValueError("impure background postulate")

    def merged_for(self, root: DRS) -> DRS:
        """All postulates as one box, renamed apart from the root's referents."""
        taken = {r.name for r in _all_referents(root)}
        out = []
        for p in self.postulates:
            renamed, _ = rename_apart(p, taken)
            taken |= {r.name for r in _all_referents(renamed)}
            out.append(renamed)
        return merge_all(out)


EMPTY_BACKGROUND = BackgroundTheory(())


def _all_referents(box: DRS) -> set[Referent]:
    refs: set[Referent] = set(validate(box).free)

    def go(b: DRS) -> None:
        refs.update(b.universe)
        for cond in b.conditions:
            for _, child in condition_children(cond):
                go(child)

    go(box)
    return refs


def _alpha_body_at(alpha_path: DrsPath, root: DRS) -> DRS:
    if not alpha_path or alpha_path[-1][1] != ALPHA_BODY:
        raise NotAnAlpha("path %s does not end at an alpha body" % path_str(alpha_path))
    parent = sub_drs_at(alpha_path[:-1], root)
    idx = alpha_path[-1][0]
    cond = parent.conditions[idx]
    if not isinstance(cond, Alpha):
        raise NotAnAlpha("condition at %s is not anaphoric" % path_str(alpha_path))
    return cond.body


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


def accommodation_sites(alpha_path: DrsPath, root: DRS) -> list[tuple[str, DrsPath]]:
    """Sites an alpha at this path may be accommodated at, outermost first.

    These are exactly the boxes the context computation walks through:
    the root, every box on the path, and every implication antecedent
    passed by way of its consequent.
    """
    _alpha_body_at(alpha_path, root)
    chain: list[DrsPath] = [()]
    prefix: DrsPath = ()
    cur = root
    for idx, sel in alpha_path[:-1]:
        cond = cur.conditions[idx]
        if sel == IMP_CONSEQUENT:
            chain.append(prefix + ((idx, IMP_ANTECEDENT),))
        prefix = prefix + ((idx, sel),)
        chain.append(prefix)
        cur = dict(condition_children(cond))[sel]
    if len(chain) == 1:
        return [(GLOBAL, chain[0])]
    return [
        (GLOBAL if i == 0 else LOCAL if i == len(chain) - 1 else INTERMEDIATE, p)
        for i, p in enumerate(chain)
    ]


def resolve_alpha(alpha_path: DrsPath, root: DRS) -> list[Resolution]:
    """All bindings making the substituted body part of the context.

    The presupposed referents (the body universe plus inner simple
    anaphors) are bound to accessible referents; a binding succeeds when
    every substituted condition already occurs in the context box.
    """
    body = _alpha_body_at(alpha_path, root)
    anaphors, core = _split_body(body)
    ctx = context_drs(alpha_path, root)
    ctx_conditions = set(ctx.conditions)
    pool = accessible_referents(alpha_path, root)
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


def candidate_readings(
    root: DRS, alpha_path: DrsPath
) -> tuple[list[Reading], list[BlockedReading]]:
    """Accommodation candidates split into admitted and free-variable-blocked.

    Candidates are the product of sites with bindings of the inner simple
    anaphors; a candidate is blocked when accommodation would leave a
    referent free that was not free in the input.
    """
    body = _alpha_body_at(alpha_path, root)
    anaphors, core = _split_body(body)
    if not core:
        raise NotAccommodatable(
            "alpha body at %s has no conditions to accommodate" % path_str(alpha_path)
        )
    pool = accessible_referents(alpha_path, root)
    sites = accommodation_sites(alpha_path, root)
    root_free = validate(root).free
    pruned = delete_alpha(root, alpha_path)
    admitted: list[Reading] = []
    blocked: list[BlockedReading] = []
    site_refs: set[Referent] = set()
    for kind, site_path in sites:
        site_refs |= set(sub_drs_at(site_path, root).universe)
        for combo in itertools.product(pool, repeat=len(anaphors)):
            theta = dict(zip(anaphors, combo))
            accommodated = DRS(
                body.universe, tuple(substitute_condition(c, theta) for c in core)
            )
            result = extend_drs_at(pruned, site_path, accommodated)
            new_free = validate(result).free - root_free
            outside = tuple(sorted(set(combo) - site_refs))
            resolution = Resolution(tuple(zip(anaphors, combo)))
            if new_free or outside:
                blocked.append(
                    BlockedReading(
                        kind,
                        site_path,
                        alpha_path,
                        resolution,
                        accommodated,
                        tuple(sorted(new_free)),
                        outside,
                    )
                )
            else:
                admitted.append(
                    Reading(kind, site_path, alpha_path, resolution, accommodated, result)
                )
    return admitted, blocked


def _task_content(box: DRS, presupposed: frozenset[Referent]) -> DRS:
    """The box's assertable content: conditions that neither contain an
    anaphoric sub-box nor mention a still-unresolved presupposed referent."""
    return DRS(
        box.universe,
        tuple(
            c
            for c in box.conditions
            if not condition_contains_alpha(c) and not condition_mentions(c, presupposed)
        ),
    )


def build_tasks(
    reading: Reading, root: DRS, bg: BackgroundTheory = EMPTY_BACKGROUND
) -> tuple[InferenceTask, InferenceTask]:
    """The informativity and consistency tasks for one reading.

    The shared premise is the background theory, the site's context box,
    and the site's own assertable content.  Informativity asks whether
    that premise already entails the accommodated material; consistency
    asks whether premise plus accommodated material is satisfiable.
    """
    presupposed = presupposed_referents(root)
    site_box = sub_drs_at(reading.site_path, root)
    ctx = context_drs(reading.site_path, root)
    premise = merge_all(
        [
            bg.merged_for(root),
            _task_content(ctx, presupposed),
            _task_content(site_box, presupposed),
        ]
    )
    informativity = InferenceTask("informativity", premise, reading.accommodated, reading.ref)
    consistency = InferenceTask(
        "consistency", merge(premise, reading.accommodated), None, reading.ref
    )
    return informativity, consistency


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
    prover: Callable[[InferenceTask], str],
    model_bound: int = 3,
) -> ReadingVerdict:
    """Decide a reading: prover for entailment, model search for consistency.

    The prover returns "closed", "open_saturated", or "open_bounded" for
    the informativity task; a closed task means the accommodation is
    redundant and the reading fails.  A consistency search that hits the
    model checker's resource ceiling leaves the reading undecided.
    """
    from .models import ResourceLimit, model_check

    informativity, consistency = tasks
    status = prover(informativity)
    informative = {"closed": "fail", "open_saturated": "pass", "open_bounded": "unknown"}[
        status
    ]
    try:
        mc_status = model_check(consistency.premise, None, max_domain=model_bound).status
    except ResourceLimit:
        mc_status = "unknown"
    consistent = {"satisfiable": "pass", "refuted": "fail", "unknown": "unknown"}[mc_status]
    return ReadingVerdict(informative, consistent)


@dataclass(frozen=True)
class CheckRecord:
    alpha_path: DrsPath
    reading: Reading
    verdict: ReadingVerdict


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
    prover: Optional[Callable[[InferenceTask], str]] = None,
    model_bound: int = 3,
) -> ProjectOutcome:
    """Resolve or accommodate every alpha, innermost first.

    Resolution is preferred: a resolvable alpha is deleted and its
    referents renamed, without generating accommodation readings.  An
    unresolvable alpha is accommodated every admissible way; readings
    failing informativity or consistency are dropped.  All surviving
    alpha-free boxes are returned with their decision trails.
    """
    if prover is None:
        from .tableau import default_task_prover

        prover = default_task_prover()
    report = validate(root)
    if not report.pure:
        raise ValueError(
            "impure input: %s introduced twice" % ",".join(r.name for r in report.duplicates)
        )
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
        try:
            readings, blocked = candidate_readings(box, target)
        except NotAccommodatable:
            readings, blocked = [], []
        blocked_all.extend(blocked)
        for reading in readings:
            verdict = check_reading(build_tasks(reading, box, bg), prover, model_bound)
            checks.append(CheckRecord(target, reading, verdict))
            if verdict.admitted:
                step = ProjectionStep(target, "accommodated", reading.ref)
                pending.append((reading.result, trail + (step,)))
    if not survivors:
        raise NoAdmissibleReading(tuple(checks))
    return ProjectOutcome(tuple(survivors), tuple(checks), tuple(blocked_all))
