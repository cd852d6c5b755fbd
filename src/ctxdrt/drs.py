"""Immutable discourse boxes and their structural algebra.

A box pairs a universe of referents with a list of conditions; conditions
are atoms, negations, implications, disjunctions, or anaphoric (alpha)
sub-boxes.  Everything here is a pure function over hashable values:
merging, sub-box addressing, accessibility, context computation,
substitution, and well-formedness reporting.

Boxes compare equal up to the order of their universe and condition lists
(both are set-like); the stored order is still meaningful because printing
and merging preserve it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Union

__all__ = [
    "Referent",
    "Atom",
    "Neg",
    "Imp",
    "Or",
    "Alpha",
    "Condition",
    "DRS",
    "EMPTY",
    "DrsPath",
    "Step",
    "NEG_BODY",
    "IMP_ANTECEDENT",
    "IMP_CONSEQUENT",
    "OR_LEFT",
    "OR_RIGHT",
    "ALPHA_BODY",
    "DrsError",
    "OverlappingUniverses",
    "InvalidPath",
    "BoundReferent",
    "ValidationReport",
    "merge",
    "merge_all",
    "sub_drs_at",
    "is_sub_drs",
    "enumerate_sub_drss",
    "accessible_referents",
    "context_drs",
    "substitute",
    "substitute_free",
    "substitute_condition",
    "validate",
    "rename_apart",
    "condition_children",
    "condition_contains_alpha",
    "condition_mentions",
    "is_simple_anaphor",
    "presupposed_referents",
    "alpha_condition_paths",
    "delete_alpha",
    "extend_drs_at",
    "path_str",
]

_IDENT = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class DrsError(Exception):
    """Base class for structural errors raised by this module."""


class OverlappingUniverses(DrsError):
    """A merge would introduce the same referent twice."""

    def __init__(self, referent: "Referent") -> None:
        super().__init__(
            "referent %r is introduced by both merge operands" % referent.name
        )
        self.referent = referent


class InvalidPath(DrsError):
    """A path does not address a sub-box of the given root."""


class BoundReferent(DrsError):
    """Refused to substitute a referent that some universe introduces."""

    def __init__(self, referent: "Referent") -> None:
        super().__init__("referent %r is bound by a universe" % referent.name)
        self.referent = referent


@dataclass(frozen=True, order=True)
class Referent:
    """A discourse referent, named by a lowercase identifier."""

    name: str

    def __post_init__(self) -> None:
        if not _IDENT.match(self.name):
            raise ValueError("bad referent name: %r" % (self.name,))

    def __repr__(self) -> str:
        return "Referent(%r)" % self.name


@dataclass(frozen=True)
class Atom:
    """A predicate applied to one or more referents."""

    predicate: str
    args: tuple[Referent, ...]

    def __post_init__(self) -> None:
        if not _IDENT.match(self.predicate):
            raise ValueError("bad predicate name: %r" % (self.predicate,))
        if not self.args:
            raise ValueError("atoms need at least one argument")
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Neg:
    body: "DRS"


@dataclass(frozen=True)
class Imp:
    antecedent: "DRS"
    consequent: "DRS"


@dataclass(frozen=True)
class Or:
    left: "DRS"
    right: "DRS"


@dataclass(frozen=True)
class Alpha:
    """Anaphoric/presupposed material awaiting resolution or accommodation."""

    body: "DRS"


Condition = Union[Atom, Neg, Imp, Or, Alpha]


@dataclass(frozen=True, eq=False)
class DRS:
    """A box: ordered, duplicate-free universe plus ordered conditions.

    Equality and hashing use the set views of both fields, per the merge
    semantics; tests that care about order compare the tuples directly.
    """

    universe: tuple[Referent, ...] = ()
    conditions: tuple[Condition, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "universe", tuple(self.universe))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        seen: set[Referent] = set()
        for ref in self.universe:
            if ref in seen:
                raise ValueError("referent %r repeated in universe" % ref.name)
            seen.add(ref)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DRS):
            return NotImplemented
        return frozenset(self.universe) == frozenset(other.universe) and frozenset(
            self.conditions
        ) == frozenset(other.conditions)

    def __hash__(self) -> int:
        return hash((frozenset(self.universe), frozenset(self.conditions)))

    def is_empty(self) -> bool:
        return not self.universe and not self.conditions


EMPTY = DRS((), ())

# A path addresses a sub-box: each step picks a condition by index and a
# branch inside it.
Step = tuple[int, str]
DrsPath = tuple[Step, ...]

NEG_BODY = "neg"
IMP_ANTECEDENT = "ante"
IMP_CONSEQUENT = "cons"
OR_LEFT = "left"
OR_RIGHT = "right"
ALPHA_BODY = "alpha"


def condition_children(cond: Condition) -> tuple[tuple[str, DRS], ...]:
    """All (selector, sub-box) pairs directly inside a condition."""
    if isinstance(cond, Atom):
        return ()
    if isinstance(cond, Neg):
        return ((NEG_BODY, cond.body),)
    if isinstance(cond, Imp):
        return ((IMP_ANTECEDENT, cond.antecedent), (IMP_CONSEQUENT, cond.consequent))
    if isinstance(cond, Or):
        return ((OR_LEFT, cond.left), (OR_RIGHT, cond.right))
    if isinstance(cond, Alpha):
        return ((ALPHA_BODY, cond.body),)
    raise TypeError("not a condition: %r" % (cond,))


def _child_at(cond: Condition, selector: str) -> DRS:
    for sel, child in condition_children(cond):
        if sel == selector:
            return child
    raise InvalidPath("selector %r does not apply to %s" % (selector, type(cond).__name__))


def sub_drs_at(path: DrsPath, root: DRS) -> DRS:
    """The sub-box a path addresses; raises InvalidPath otherwise."""
    cur = root
    for step in path:
        try:
            idx, sel = step
        except (TypeError, ValueError):
            raise InvalidPath("malformed step %r" % (step,))
        if not isinstance(idx, int) or idx < 0 or idx >= len(cur.conditions):
            raise InvalidPath("condition index %r out of range" % (idx,))
        cur = _child_at(cur.conditions[idx], sel)
    return cur


def is_sub_drs(path: DrsPath, root: DRS) -> bool:
    try:
        sub_drs_at(path, root)
    except InvalidPath:
        return False
    return True


def enumerate_sub_drss(root: DRS) -> list[DrsPath]:
    """Every sub-box occurrence, depth-first and left-to-right, root first."""
    out: list[DrsPath] = []

    def go(box: DRS, prefix: DrsPath) -> None:
        out.append(prefix)
        for i, cond in enumerate(box.conditions):
            for sel, child in condition_children(cond):
                go(child, prefix + ((i, sel),))

    go(root, ())
    return out


def merge(k1: DRS, k2: DRS) -> DRS:
    """Union of universes and conditions; universes must be disjoint."""
    left = set(k1.universe)
    for ref in k2.universe:
        if ref in left:
            raise OverlappingUniverses(ref)
    conds: list[Condition] = []
    seen: set[Condition] = set()
    for cond in k1.conditions + k2.conditions:
        if cond not in seen:
            seen.add(cond)
            conds.append(cond)
    return DRS(k1.universe + k2.universe, tuple(conds))


def merge_all(boxes: Iterable[DRS]) -> DRS:
    return reduce(merge, boxes, EMPTY)


def accessible_referents(at: DrsPath, root: DRS) -> tuple[Referent, ...]:
    """Referents visible from a position, outermost first.

    Walks the path: the target box, its ancestors, and every implication
    antecedent whose consequent the path passes through contribute their
    universes.  Alpha bodies do not: their referents are presupposed
    material, not yet part of the discourse.
    """
    sub_drs_at(at, root)  # validate
    acc: list[Referent] = []

    def add(universe: tuple[Referent, ...]) -> None:
        for ref in universe:
            if ref not in acc:
                acc.append(ref)

    cur = root
    via_alpha = False
    for idx, sel in at:
        if not via_alpha:
            add(cur.universe)
        cond = cur.conditions[idx]
        if sel == IMP_CONSEQUENT and isinstance(cond, Imp):
            add(cond.antecedent.universe)
        cur = _child_at(cond, sel)
        via_alpha = sel == ALPHA_BODY
    if not via_alpha:
        add(cur.universe)
    return tuple(acc)


def context_drs(at: DrsPath, root: DRS) -> DRS:
    """The merge of everything accessible from a position.

    Accumulates sibling conditions and universes above the target, plus
    implication antecedents when the target sits in the consequent.  The
    condition housing the target itself is excluded at each level, so the
    context of the root is empty.
    """
    sub_drs_at(at, root)  # validate

    def through_box(box: DRS, path: DrsPath) -> DRS:
        if not path:
            return EMPTY
        (idx, sel), rest = path[0], path[1:]
        cond = box.conditions[idx]
        siblings = DRS(
            box.universe,
            tuple(c for j, c in enumerate(box.conditions) if j != idx),
        )
        return merge(siblings, through_condition(cond, sel, rest))

    def through_condition(cond: Condition, sel: str, rest: DrsPath) -> DRS:
        if isinstance(cond, Imp) and sel == IMP_CONSEQUENT:
            return merge(cond.antecedent, through_box(cond.consequent, rest))
        return through_box(_child_at(cond, sel), rest)

    return through_box(root, at)


def _collect_universes(box: DRS, out: list[Referent]) -> None:
    out.extend(box.universe)
    for cond in box.conditions:
        for _, child in condition_children(cond):
            _collect_universes(child, out)


def substitute_condition(
    cond: Condition, mapping: dict[Referent, Referent]
) -> Condition:
    """Replace free argument occurrences in one condition.

    Keys shadowed by an inner universe are left alone inside that box.
    """
    if isinstance(cond, Atom):
        return Atom(cond.predicate, tuple(mapping.get(a, a) for a in cond.args))
    if isinstance(cond, Neg):
        return Neg(_substitute_box(cond.body, mapping))
    if isinstance(cond, Imp):
        inner = _substitute_box(cond.antecedent, mapping)
        shadow = {k: v for k, v in mapping.items() if k not in cond.antecedent.universe}
        return Imp(inner, _substitute_box(cond.consequent, shadow))
    if isinstance(cond, Or):
        return Or(_substitute_box(cond.left, mapping), _substitute_box(cond.right, mapping))
    if isinstance(cond, Alpha):
        return Alpha(_substitute_box(cond.body, mapping))
    raise TypeError("not a condition: %r" % (cond,))


def _substitute_box(box: DRS, mapping: dict[Referent, Referent]) -> DRS:
    live = {k: v for k, v in mapping.items() if k not in box.universe}
    if not live:
        return box
    return DRS(box.universe, tuple(substitute_condition(c, live) for c in box.conditions))


def substitute_free(box: DRS, mapping: dict[Referent, Referent]) -> DRS:
    """Replace free occurrences of several referents at once."""
    return _substitute_box(box, dict(mapping))


def substitute(box: DRS, source: Referent, target: Referent) -> DRS:
    """Replace free occurrences of ``source`` by ``target``.

    Raises BoundReferent when some universe inside ``box`` introduces
    ``source``: only free occurrences may be renamed this way.
    """
    bound: list[Referent] = []
    _collect_universes(box, bound)
    if source in bound:
        raise BoundReferent(source)
    if source == target:
        return box
    return substitute_free(box, {source: target})


@dataclass(frozen=True)
class ValidationReport:
    pure: bool
    free: frozenset[Referent]
    duplicates: tuple[Referent, ...]
    bound: frozenset[Referent] = frozenset()


def validate(box: DRS) -> ValidationReport:
    """Purity and free-occurrence diagnostics.

    A box is pure when no referent is introduced by two universes.  A
    referent occurs free when an atom uses it at a position where no
    accessible universe introduces it; ``bound`` holds every referent some
    universe introduces.

    The report is computed once per box instance and kept on it (boxes
    are immutable).  It is not shared between equal boxes: equality
    ignores order, and ``duplicates`` follows the stored order.
    """
    report = box.__dict__.get("_report")
    if report is None:
        report = _validation_report(box)
        object.__setattr__(box, "_report", report)
    return report


def _validation_report(box: DRS) -> ValidationReport:
    all_refs: list[Referent] = []
    _collect_universes(box, all_refs)
    seen: set[Referent] = set()
    dups: list[Referent] = []
    for ref in all_refs:
        if ref in seen and ref not in dups:
            dups.append(ref)
        seen.add(ref)

    free: set[Referent] = set()

    def walk(b: DRS, env: frozenset[Referent]) -> None:
        env = env | frozenset(b.universe)
        for cond in b.conditions:
            if isinstance(cond, Atom):
                free.update(a for a in cond.args if a not in env)
            elif isinstance(cond, Neg):
                walk(cond.body, env)
            elif isinstance(cond, Imp):
                walk(cond.antecedent, env)
                walk(cond.consequent, env | frozenset(cond.antecedent.universe))
            elif isinstance(cond, Or):
                walk(cond.left, env)
                walk(cond.right, env)
            elif isinstance(cond, Alpha):
                walk(cond.body, env)

    walk(box, frozenset())
    return ValidationReport(
        pure=not dups, free=frozenset(free), duplicates=tuple(dups), bound=frozenset(seen)
    )


def rename_apart(box: DRS, taken: Iterable[str]) -> tuple[DRS, dict[str, str]]:
    """Freshen every bound referent whose name collides with ``taken``.

    Free referents keep their names; purity of the input guarantees a
    bound name is introduced exactly once, so a global rename is safe.
    """
    taken_names = set(taken)
    bound: list[Referent] = []
    _collect_universes(box, bound)
    used = taken_names | {r.name for r in bound}
    mapping: dict[str, str] = {}
    renamed: dict[Referent, Referent] = {}
    for ref in bound:
        if ref.name in taken_names and ref not in renamed:
            n = 1
            while "%s_%d" % (ref.name, n) in used:
                n += 1
            fresh = "%s_%d" % (ref.name, n)
            used.add(fresh)
            mapping[ref.name] = fresh
            renamed[ref] = Referent(fresh)
    if not renamed:
        return box, {}

    def rebuild(b: DRS) -> DRS:
        universe = tuple(renamed.get(r, r) for r in b.universe)
        conds: list[Condition] = []
        for cond in b.conditions:
            if isinstance(cond, Atom):
                conds.append(
                    Atom(cond.predicate, tuple(renamed.get(a, a) for a in cond.args))
                )
            elif isinstance(cond, Neg):
                conds.append(Neg(rebuild(cond.body)))
            elif isinstance(cond, Imp):
                conds.append(Imp(rebuild(cond.antecedent), rebuild(cond.consequent)))
            elif isinstance(cond, Or):
                conds.append(Or(rebuild(cond.left), rebuild(cond.right)))
            elif isinstance(cond, Alpha):
                conds.append(Alpha(rebuild(cond.body)))
        return DRS(universe, tuple(conds))

    return rebuild(box), mapping


def condition_contains_alpha(cond: Condition) -> bool:
    if isinstance(cond, Alpha):
        return True
    for _, child in condition_children(cond):
        if any(condition_contains_alpha(c) for c in child.conditions):
            return True
    return False


def condition_mentions(cond: Condition, refs: frozenset[Referent]) -> bool:
    """True when any atom argument inside the condition is one of ``refs``."""
    if isinstance(cond, Atom):
        return any(a in refs for a in cond.args)
    for _, child in condition_children(cond):
        if any(condition_mentions(c, refs) for c in child.conditions):
            return True
    return False


def is_simple_anaphor(cond: Condition) -> bool:
    """An alpha box introducing one referent and saying nothing about it."""
    return (
        isinstance(cond, Alpha)
        and len(cond.body.universe) == 1
        and not cond.body.conditions
    )


def presupposed_referents(root: DRS) -> frozenset[Referent]:
    """Referents introduced by any alpha body anywhere in the box."""
    out: set[Referent] = set()

    def go(box: DRS, inside_alpha: bool) -> None:
        if inside_alpha:
            out.update(box.universe)
        for cond in box.conditions:
            for sel, child in condition_children(cond):
                go(child, inside_alpha or sel == ALPHA_BODY)

    go(root, False)
    return frozenset(out)


def alpha_condition_paths(root: DRS) -> list[DrsPath]:
    """Paths of every alpha condition (each path ends inside its body)."""
    return [p for p in enumerate_sub_drss(root) if p and p[-1][1] == ALPHA_BODY]


def _rebuild_at(root: DRS, path: DrsPath, replacement: DRS) -> DRS:
    if not path:
        return replacement
    (idx, sel), rest = path[0], path[1:]
    cond = root.conditions[idx]
    child = _child_at(cond, sel)
    new_child = _rebuild_at(child, rest, replacement)
    if isinstance(cond, Neg):
        new_cond: Condition = Neg(new_child)
    elif isinstance(cond, Imp):
        new_cond = (
            Imp(new_child, cond.consequent)
            if sel == IMP_ANTECEDENT
            else Imp(cond.antecedent, new_child)
        )
    elif isinstance(cond, Or):
        new_cond = Or(new_child, cond.right) if sel == OR_LEFT else Or(cond.left, new_child)
    elif isinstance(cond, Alpha):
        new_cond = Alpha(new_child)
    else:
        raise InvalidPath("cannot rebuild through an atom")
    conds = list(root.conditions)
    conds[idx] = new_cond
    return DRS(root.universe, tuple(conds))


def delete_alpha(root: DRS, alpha_path: DrsPath) -> DRS:
    """Remove the alpha condition a path addresses."""
    if not alpha_path or alpha_path[-1][1] != ALPHA_BODY:
        raise InvalidPath("path does not address an alpha condition")
    sub_drs_at(alpha_path, root)  # validate
    parent_path, (idx, _) = alpha_path[:-1], alpha_path[-1]
    parent = sub_drs_at(parent_path, root)
    conds = tuple(c for j, c in enumerate(parent.conditions) if j != idx)
    return _rebuild_at(root, parent_path, DRS(parent.universe, conds))


def extend_drs_at(root: DRS, path: DrsPath, extra: DRS) -> DRS:
    """Merge ``extra`` into the sub-box a path addresses."""
    target = sub_drs_at(path, root)
    return _rebuild_at(root, path, merge(target, extra))


def path_str(path: DrsPath) -> str:
    """Stable textual form of a path, used in identifiers and reports."""
    if not path:
        return "-"
    return "/".join("%d.%s" % (idx, sel) for idx, sel in path)
