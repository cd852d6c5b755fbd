"""Immutable discourse boxes and their structural algebra.

A box pairs a universe of referents with a list of conditions; conditions
are atoms, negations, implications, disjunctions, or anaphoric (alpha)
sub-boxes.  Everything here is a pure function over hashable values:
merging, sub-box addressing, accessibility, context computation,
substitution, and well-formedness reporting.

Scope: a sub-box sees the universes of every box around it, and an
implication's consequent also sees its antecedent.  ``_scoped_children``
is the one place that states this; substitution, validation, renaming and
``scope_chain`` all walk through it.  ``scope_chain`` lists the boxes one
position sees, outermost first; the accessible referents and the context
box of a position are read off that chain, as are the accommodation sites
of an alpha in ``projection``.

Boxes compare equal up to the order of their universe and condition lists
(both are set-like); the stored order is still meaningful because printing
and merging preserve it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, NamedTuple, Optional, Union

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
    "Scope",
    "scope_chain",
    "chain_referents",
    "chain_context",
    "chain_conditions",
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


class _ReferentFields(NamedTuple):
    name: str


class Referent(_ReferentFields):
    """A discourse referent, named by a lowercase identifier.

    A one-field named tuple, so hashing, equality and ordering run in C:
    it hashes as ``(name,)`` and orders by name.  Being a tuple, it equals
    any 1-tuple of its name (``Referent("x") == ("x",) == tableau.Const("x")``),
    so a dict or set that holds referents must hold no other tuples.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Referent":
        if not _IDENT.match(name):
            raise ValueError("bad referent name: %r" % (name,))
        return tuple.__new__(cls, (name,))

    def __repr__(self) -> str:
        return "Referent(%r)" % self.name


class _AtomFields(NamedTuple):
    predicate: str
    args: tuple[Referent, ...]


class Atom(_AtomFields):
    """A predicate applied to one or more referents.

    A two-field named tuple, so merging, box equality and every set of
    conditions hash and compare it in C; it hashes as ``(predicate, args)``,
    as the frozen dataclass it replaces did.  Being a tuple, it equals any
    2-tuple of its fields, so a dict or set that holds conditions must hold
    no other tuples.
    """

    __slots__ = ()

    def __new__(cls, predicate: str, args: tuple[Referent, ...]) -> "Atom":
        if not _IDENT.match(predicate):
            raise ValueError("bad predicate name: %r" % (predicate,))
        args = tuple(args)
        if not args:
            raise ValueError("atoms need at least one argument")
        return tuple.__new__(cls, (predicate, args))

    def __repr__(self) -> str:
        return "Atom(predicate=%r, args=%r)" % self


def _atom(predicate: str, args: tuple[Referent, ...]) -> Atom:
    """An atom rebuilt from a checked atom's predicate and as many arguments,
    without ``Atom``'s checks."""
    return tuple.__new__(Atom, (predicate, args))


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
        if type(self.universe) is not tuple:
            object.__setattr__(self, "universe", tuple(self.universe))
        if type(self.conditions) is not tuple:
            object.__setattr__(self, "conditions", tuple(self.conditions))
        if len(set(self.universe)) < len(self.universe):
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

_new = object.__new__


def _box(universe: tuple[Referent, ...], conditions: tuple[Condition, ...]) -> DRS:
    """A box from a universe tuple known to repeat no referent and a
    condition tuple, without ``DRS``'s checks: for boxes rebuilt from parts
    of checked boxes."""
    box = _new(DRS)
    fields = box.__dict__
    fields["universe"] = universe
    fields["conditions"] = conditions
    return box

# A path addresses a sub-box: each step picks a condition by index and a
# branch inside it.
Step = tuple[int, str]
DrsPath = tuple[Step, ...]
# The sibling a sub-box also sees, as a (selector, sub-box) pair, if any.
_Sibling = Optional[tuple[str, DRS]]

NEG_BODY = "neg"
IMP_ANTECEDENT = "ante"
IMP_CONSEQUENT = "cons"
OR_LEFT = "left"
OR_RIGHT = "right"
ALPHA_BODY = "alpha"


def condition_children(cond: Condition) -> tuple[tuple[str, DRS], ...]:
    """All (selector, sub-box) pairs directly inside a condition.

    The fields of ``Neg``, ``Imp``, ``Or`` and ``Alpha`` are exactly their
    sub-boxes, in this order, so ``type(cond)(*boxes)`` rebuilds a
    compound condition from new sub-boxes.
    """
    children = _CHILDREN.get(type(cond))
    if children is None:
        raise TypeError("not a condition: %r" % (cond,))
    return children(cond)


# The children of each kind of condition, looked up by its exact type.
_CHILDREN = {
    Atom: lambda cond: (),
    Neg: lambda cond: ((NEG_BODY, cond.body),),
    Imp: lambda cond: ((IMP_ANTECEDENT, cond.antecedent), (IMP_CONSEQUENT, cond.consequent)),
    Or: lambda cond: ((OR_LEFT, cond.left), (OR_RIGHT, cond.right)),
    Alpha: lambda cond: ((ALPHA_BODY, cond.body),),
}


def _scoped_children(cond: Condition) -> Iterator[tuple[str, DRS, _Sibling]]:
    """(selector, sub-box, the sibling sub-box it also sees) per sub-box.

    The scope rule lives here: a sub-box sees the universes of the boxes
    around it, and an implication's consequent also sees its antecedent.
    """
    for sel, child in condition_children(cond):
        yield sel, child, ((IMP_ANTECEDENT, cond.antecedent) if sel == IMP_CONSEQUENT else None)


def _universe_of(sibling: _Sibling) -> tuple[Referent, ...]:
    return sibling[1].universe if sibling else ()


class Scope(NamedTuple):
    """A box on a scope chain, with its path and the index of the condition
    by which the position's path leaves it (None where the path does not)."""

    path: DrsPath
    box: DRS
    leave: Optional[int]


def scope_chain(at: DrsPath, root: DRS) -> list[Scope]:
    """The boxes a position sees, outermost first, ending with its own box.

    These are the root, every box on the path, and every sibling a box on
    the path sees (an implication's antecedent, just before its
    consequent).  Raises InvalidPath when the path addresses no sub-box.
    """
    chain: list[Scope] = []
    box, prefix = root, ()
    for step in at:
        try:
            idx, sel = step
        except (TypeError, ValueError):
            raise InvalidPath("malformed step %r" % (step,))
        if not isinstance(idx, int) or idx < 0 or idx >= len(box.conditions):
            raise InvalidPath("condition index %r out of range" % (idx,))
        chain.append(Scope(prefix, box, idx))
        cond = box.conditions[idx]
        for child_sel, child, sibling in _scoped_children(cond):
            if child_sel == sel:
                if sibling:
                    chain.append(Scope(prefix + ((idx, sibling[0]),), sibling[1], None))
                box, prefix = child, prefix + ((idx, sel),)
                break
        else:
            raise InvalidPath("selector %r does not apply to %s" % (sel, type(cond).__name__))
    chain.append(Scope(prefix, box, None))
    return chain


def sub_drs_at(path: DrsPath, root: DRS) -> DRS:
    """The sub-box a path addresses, the last box of its scope chain."""
    return scope_chain(path, root)[-1].box


def is_sub_drs(path: DrsPath, root: DRS) -> bool:
    try:
        sub_drs_at(path, root)
    except InvalidPath:
        return False
    return True


def enumerate_sub_drss(root: DRS) -> list[DrsPath]:
    """Every sub-box occurrence, depth-first and left-to-right, root first."""
    out: list[DrsPath] = []
    _sub_drs_paths(root, (), out)
    return out


def _sub_drs_paths(box: DRS, prefix: DrsPath, out: list[DrsPath]) -> None:
    out.append(prefix)
    for i, cond in enumerate(box.conditions):
        for sel, child in condition_children(cond):
            _sub_drs_paths(child, prefix + ((i, sel),), out)


def merge(k1: DRS, k2: DRS) -> DRS:
    """Union of universes and conditions; universes must be disjoint.

    When both operands carry a validation report (see ``validate``), both
    are pure and no referent is bound in both, the merge carries the
    report it derives from theirs: pure, bound by either, and free where
    free in one operand and not in the other's top universe.  That is
    exact: every condition of the merge sees both top universes, and a
    condition dropped as a duplicate equals one that is kept, with the
    same free referents and, as no binder is shared, no universe of its
    own.  Otherwise ``validate`` walks the merge when asked.
    """
    left = set(k1.universe)
    for ref in k2.universe:
        if ref in left:
            raise OverlappingUniverses(ref)
    out = _box(k1.universe + k2.universe, tuple(dict.fromkeys(k1.conditions + k2.conditions)))
    r1, r2 = k1.__dict__.get("_report"), k2.__dict__.get("_report")
    if r1 is not None and r2 is not None and r1.pure and r2.pure and r1.bound.isdisjoint(r2.bound):
        free = r1.free.difference(k2.universe) | r2.free.difference(k1.universe)
        object.__setattr__(out, "_report", ValidationReport(True, free, (), r1.bound | r2.bound))
    return out


def merge_all(boxes: Iterable[DRS]) -> DRS:
    return reduce(merge, boxes, EMPTY)


def chain_referents(chain: list[Scope]) -> tuple[Referent, ...]:
    """The referents a scope chain's position sees, outermost first.

    Alpha bodies add none: their referents are presupposed material, not
    yet part of the discourse.
    """
    universes = [box.universe for path, box, _ in chain if not path or path[-1][1] != ALPHA_BODY]
    return tuple(dict.fromkeys([ref for universe in universes for ref in universe]))


def chain_context(chain: list[Scope]) -> DRS:
    """The merge of everything a scope chain's position sees.

    A box on the path adds all but the condition the path leaves it by, an
    antecedent adds all of itself, and the position's own box adds nothing,
    so the context of the root is empty.  Merging innermost first, as the
    nesting does, decides which referent an impure box's overlap names.
    """
    context = EMPTY
    for _, box, idx in reversed(chain[:-1]):
        if idx is not None:
            box = _box(box.universe, box.conditions[:idx] + box.conditions[idx + 1 :])
        context = merge(box, context)
    return context


def chain_conditions(chain: list[Scope]) -> set[Condition]:
    """The conditions of ``chain_context``, as a set, without merging.

    Raises OverlappingUniverses where that merge would, naming the
    referent it would name.
    """
    conditions: set[Condition] = set()
    inner: tuple[Referent, ...] = ()  # the universes merged so far, outermost first
    for _, box, idx in reversed(chain[:-1]):
        if inner and box.universe:
            outer = set(box.universe)
            for ref in inner:
                if ref in outer:
                    raise OverlappingUniverses(ref)
        inner = box.universe + inner
        if idx is None:
            conditions.update(box.conditions)
        else:
            conditions.update(box.conditions[:idx])
            conditions.update(box.conditions[idx + 1 :])
    return conditions


def accessible_referents(at: DrsPath, root: DRS) -> tuple[Referent, ...]:
    """Referents visible from a position, outermost first."""
    return chain_referents(scope_chain(at, root))


def context_drs(at: DrsPath, root: DRS) -> DRS:
    """The merge of everything accessible from a position."""
    return chain_context(scope_chain(at, root))


def substitute_condition(
    cond: Condition, mapping: dict[Referent, Referent]
) -> Condition:
    """Replace free argument occurrences in one condition.

    Keys shadowed by an inner universe are left alone inside that box.
    """
    if type(cond) is Atom:
        return _atom(cond.predicate, tuple([mapping.get(a, a) for a in cond.args]))
    return type(cond)(
        *[_substitute_box(child, mapping, sib) for _, child, sib in _scoped_children(cond)]
    )


def _substitute_box(
    box: DRS, mapping: dict[Referent, Referent], sibling: _Sibling = None
) -> DRS:
    shadowed = box.universe + _universe_of(sibling)
    live = {k: v for k, v in mapping.items() if k not in shadowed}
    if not live:
        return box
    return _box(box.universe, tuple([substitute_condition(c, live) for c in box.conditions]))


def substitute_free(box: DRS, mapping: dict[Referent, Referent]) -> DRS:
    """Replace free occurrences of several referents at once."""
    return _substitute_box(box, dict(mapping))


def substitute(box: DRS, source: Referent, target: Referent) -> DRS:
    """Replace free occurrences of ``source`` by ``target``.

    Raises BoundReferent when some universe inside ``box`` introduces
    ``source``: only free occurrences may be renamed this way.
    """
    if source in validate(box).bound:
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
    universes: list[Referent] = []
    free: set[Referent] = set()
    _scope_walk(box, frozenset(), None, universes, free)
    seen: set[Referent] = set()
    dups: list[Referent] = []
    for ref in universes:
        if ref in seen and ref not in dups:
            dups.append(ref)
        seen.add(ref)
    return ValidationReport(
        pure=not dups, free=frozenset(free), duplicates=tuple(dups), bound=frozenset(seen)
    )


def _scope_walk(
    box: DRS,
    env: frozenset[Referent],
    sibling: _Sibling,
    universes: list[Referent],
    free: set[Referent],
) -> None:
    """Collect the universes in order and the arguments no accessible universe binds."""
    universes.extend(box.universe)
    env = env.union(_universe_of(sibling), box.universe)
    for cond in box.conditions:
        if isinstance(cond, Atom):
            for arg in cond.args:
                if arg not in env:
                    free.add(arg)
        else:
            for _, child, sibling in _scoped_children(cond):
                _scope_walk(child, env, sibling, universes, free)


def rename_apart(box: DRS, taken: Iterable[str]) -> DRS:
    """Freshen every bound referent whose name collides with ``taken``.

    A referent is renamed only inside the scope of the universe that
    introduces it; free occurrences keep their names.  A fresh name is the
    old one plus ``_n``, unused anywhere in the box, so no two referents
    compete for one and the order they are renamed in does not matter.
    """
    taken_names = set(taken)
    report = validate(box)
    colliding = [ref for ref in report.bound if ref.name in taken_names]
    if not colliding:
        return box
    used = taken_names | {r.name for r in report.bound | report.free}
    renamed: dict[Referent, Referent] = {}
    for ref in colliding:
        n = 1
        while "%s_%d" % (ref.name, n) in used:
            n += 1
        fresh = "%s_%d" % (ref.name, n)
        used.add(fresh)
        renamed[ref] = Referent(fresh)
    return _rename(box, renamed, {})


def _rename(
    box: DRS,
    renamed: dict[Referent, Referent],
    live: dict[Referent, Referent],
    sibling: _Sibling = None,
) -> DRS:
    """Apply ``renamed`` to the referents the universes in scope introduce."""
    binders = [r for r in _universe_of(sibling) + box.universe if r in renamed]
    if binders:
        live = {**live, **{r: renamed[r] for r in binders}}
    conds: list[Condition] = []
    for cond in box.conditions:
        if type(cond) is Atom:
            conds.append(_atom(cond.predicate, tuple([live.get(a, a) for a in cond.args])))
        else:
            boxes = [
                _rename(child, renamed, live, sib) for _, child, sib in _scoped_children(cond)
            ]
            conds.append(type(cond)(*boxes))
    # fresh names are unused in the box, so the renamed universe repeats no referent
    return _box(tuple([live.get(r, r) for r in box.universe]), tuple(conds))


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
    _presupposed(root, False, out)
    return frozenset(out)


def _presupposed(box: DRS, inside_alpha: bool, out: set[Referent]) -> None:
    if inside_alpha:
        out.update(box.universe)
    for cond in box.conditions:
        for sel, child in condition_children(cond):
            _presupposed(child, inside_alpha or sel == ALPHA_BODY, out)


def alpha_condition_paths(root: DRS) -> list[DrsPath]:
    """Paths of every alpha condition (each path ends inside its body)."""
    return [p for p in enumerate_sub_drss(root) if p and p[-1][1] == ALPHA_BODY]


def _rebuild_at(root: DRS, path: DrsPath, replacement: DRS) -> DRS:
    if not path:
        return replacement
    (idx, sel), rest = path[0], path[1:]
    cond = root.conditions[idx]
    boxes = [
        _rebuild_at(child, rest, replacement) if s == sel else child
        for s, child in condition_children(cond)
    ]
    return _box(
        root.universe,
        root.conditions[:idx] + (type(cond)(*boxes),) + root.conditions[idx + 1 :],
    )


def delete_alpha(root: DRS, alpha_path: DrsPath) -> DRS:
    """Remove the alpha condition a path addresses."""
    if not alpha_path or alpha_path[-1][1] != ALPHA_BODY:
        raise InvalidPath("path does not address an alpha condition")
    parent_path, parent, idx = scope_chain(alpha_path, root)[-2]
    conds = parent.conditions[:idx] + parent.conditions[idx + 1 :]
    return _rebuild_at(root, parent_path, _box(parent.universe, conds))


def extend_drs_at(root: DRS, path: DrsPath, extra: DRS) -> DRS:
    """Merge ``extra`` into the sub-box a path addresses."""
    target = sub_drs_at(path, root)
    return _rebuild_at(root, path, merge(target, extra))


def path_str(path: DrsPath) -> str:
    """Stable textual form of a path, used in identifiers and reports."""
    if not path:
        return "-"
    return "/".join("%d.%s" % (idx, sel) for idx, sel in path)
