"""Finite-domain model search over boxes.

Boxes translate into first-order formulas (existential closure of the
universe over the conjunction of conditions; implications become guarded
universals).  Satisfiability and entailment questions are then decided by
exhaustive search over domains of bounded size: the formula is grounded
over each candidate domain and handed to a small splitting SAT check
with unit propagation, so a box of n root facts costs a few passes over
its grounding rather than n nested ones.

Two reductions keep out of the grounding what cannot change the answer.
A predicate that occurs with one polarity only is pure (the pure-literal
rule of Davis & Putnam 1960, lifted to predicates): the formula is
monotone in it, so it has a model of a given size exactly when it has one
with that predicate true everywhere (or false everywhere, if it occurs
only negated), and its atoms are translated as that constant.  Every
name is bound by a quantifier, so any permutation of the domain maps a
model to a model; the outermost existentials therefore take only one
assignment per orbit, the least-number assignments of Zhang & Zhang
(1995), while inner quantifiers range over the whole domain.

Absence of a model up to the bound is definitive only for formulas whose
translation keeps every existential out of universal scope; in that
fragment a model, if any, exists within the number of existential
witnesses.  Everything else stays "unknown" rather than guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .drs import DRS, Alpha, Atom, Condition, Imp, Neg, Or, validate

__all__ = [
    "AlphaRemaining",
    "ResourceLimit",
    "FAtom",
    "FNot",
    "FAnd",
    "FOr",
    "FExists",
    "FForall",
    "drs_to_fol",
    "ModelCheckResult",
    "model_check",
]


class AlphaRemaining(Exception):
    """The box still contains anaphoric material and has no truth conditions."""


class ResourceLimit(Exception):
    """The interpretation space exceeds the configured ceiling."""


@dataclass(frozen=True)
class FAtom:
    pred: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class FNot:
    body: "FolFormula"


@dataclass(frozen=True)
class FAnd:
    items: tuple["FolFormula", ...]


@dataclass(frozen=True)
class FOr:
    items: tuple["FolFormula", ...]


@dataclass(frozen=True)
class FExists:
    variables: tuple[str, ...]
    body: "FolFormula"


@dataclass(frozen=True)
class FForall:
    variables: tuple[str, ...]
    body: "FolFormula"


FolFormula = Union[FAtom, FNot, FAnd, FOr, FExists, FForall]


_TRUE = FAnd(())
_FALSE = FOr(())


def _condition_to_fol(cond: Condition, fixed: dict[tuple[str, int], bool]) -> FolFormula:
    """``cond`` translated, with the atoms of the predicates in ``fixed`` as constants."""
    if isinstance(cond, Atom):
        value = fixed.get((cond.predicate, len(cond.args)))
        if value is not None:
            return _TRUE if value else _FALSE
        return FAtom(cond.predicate, tuple([a.name for a in cond.args]))
    if isinstance(cond, Neg):
        return FNot(_box_to_fol(cond.body, fixed))
    if isinstance(cond, Imp):
        guard = _conjunction(cond.antecedent.conditions, fixed)
        return FForall(
            tuple([r.name for r in cond.antecedent.universe]),
            FOr((FNot(guard), _box_to_fol(cond.consequent, fixed))),
        )
    if isinstance(cond, Or):
        return FOr((_box_to_fol(cond.left, fixed), _box_to_fol(cond.right, fixed)))
    if isinstance(cond, Alpha):
        raise AlphaRemaining("anaphoric condition has no first-order translation")
    raise TypeError("not a condition: %r" % (cond,))


def _conjunction(conditions: tuple[Condition, ...], fixed: dict[tuple[str, int], bool]) -> FAnd:
    """The conjoined translations, without the conjuncts that are true."""
    items = [_condition_to_fol(c, fixed) for c in conditions]
    return FAnd(tuple([f for f in items if f is not _TRUE]))


def _box_to_fol(box: DRS, fixed: dict[tuple[str, int], bool]) -> FolFormula:
    return FExists(tuple([r.name for r in box.universe]), _conjunction(box.conditions, fixed))


def drs_to_fol(box: DRS) -> FolFormula:
    """Existential closure of the universe over the conjoined conditions."""
    return _box_to_fol(box, {})


def _polarities(conditions: tuple[Condition, ...], sign: int, acc: dict) -> None:
    """Record in ``acc`` the signs each predicate occurs with, as bits: 1 positive, 2 negated.

    Keyed by (name, arity), so a name used with two arities names two
    predicates.  Negation and an implication's antecedent flip the sign;
    anything but a box's logical structure is left to the translation to
    reject.
    """
    for cond in conditions:
        if isinstance(cond, Atom):
            key = (cond.predicate, len(cond.args))
            acc[key] = acc.get(key, 0) | sign
        elif isinstance(cond, Neg):
            _polarities(cond.body.conditions, 3 - sign, acc)
        elif isinstance(cond, Imp):
            _polarities(cond.antecedent.conditions, 3 - sign, acc)
            _polarities(cond.consequent.conditions, sign, acc)
        elif isinstance(cond, Or):
            _polarities(cond.left.conditions, sign, acc)
            _polarities(cond.right.conditions, sign, acc)


def _scan(f: FolFormula, negated: bool, under: bool) -> tuple[bool, int]:
    """One pass over a formula's quantifiers.

    Returns ``(nested, witnesses)``: whether an existential-strength
    quantifier sits in universal scope, and how many variables
    existential-strength quantifiers bind.  Negation flips the quantifier
    force of everything below; quantifiers under an odd number of
    negations count by their effective kind.
    """
    if isinstance(f, FAtom):
        return False, 0
    if isinstance(f, FNot):
        return _scan(f.body, not negated, under)
    if isinstance(f, (FAnd, FOr)):
        nested, witnesses = False, 0
        for item in f.items:
            inner, count = _scan(item, negated, under)
            nested = nested or inner
            witnesses += count
        return nested, witnesses
    if not isinstance(f, (FExists, FForall)):
        raise TypeError
    if isinstance(f, FExists) != negated:  # existential strength
        nested, witnesses = _scan(f.body, negated, under)
        return nested or (under and bool(f.variables)), witnesses + len(f.variables)
    return _scan(f.body, negated, under or bool(f.variables))


def _fold(f: FolFormula) -> FolFormula:
    """``f`` with its constants folded away, or the constant it is.

    A quantifier over a constant is that constant, as every domain here
    has an element.
    """
    if isinstance(f, FAtom):
        return f
    if isinstance(f, FNot):
        body = _fold(f.body)
        return _FALSE if body == _TRUE else _TRUE if body == _FALSE else FNot(body)
    if isinstance(f, (FAnd, FOr)):
        absorbing, neutral = (_FALSE, _TRUE) if isinstance(f, FAnd) else (_TRUE, _FALSE)
        items = []
        for item in f.items:
            g = _fold(item)
            if g == absorbing:
                return absorbing
            if g != neutral:
                items.append(g)
        return type(f)(tuple(items))
    body = _fold(f.body)
    return body if body == _TRUE or body == _FALSE else type(f)(f.variables, body)


def _canonical(count: int, size: int) -> list[tuple[int, ...]]:
    """One assignment of ``count`` variables to ``range(size)`` per orbit of its permutations.

    The first variable takes 0 and each later one at most one more than
    the largest value so far: 41 assignments for 5 variables at size 3,
    where the product has 243.
    """
    rows: list[tuple[int, ...]] = [()]
    for _ in range(count):
        rows = [row + (v,) for row in rows for v in range(min(size, max(row, default=-1) + 2))]
    return rows


# Ground formulas: ("lit", key, positive) | ("and", tuple) | ("or", tuple)
_GTRUE = ("and", ())
_GFALSE = ("or", ())


def _ground(f: FolFormula, env: dict[str, int], domain: range, positive: bool):
    if isinstance(f, FAtom):
        key = (f.pred, tuple([env[a] for a in f.args]))
        return ("lit", key, positive)
    if isinstance(f, FNot):
        return _ground(f.body, env, domain, not positive)
    if isinstance(f, (FAnd, FOr)):
        items = tuple([_ground(i, env, domain, positive) for i in f.items])
        return ("and" if isinstance(f, FAnd) == positive else "or", items)
    if isinstance(f, (FExists, FForall)):
        branching = isinstance(f, FExists) == positive  # exists-like grounds to "or"
        items = []
        for values in itertools.product(domain, repeat=len(f.variables)):
            env2 = dict(env)
            env2.update(zip(f.variables, values))
            items.append(_ground(f.body, env2, domain, positive))
        return ("or" if branching else "and", tuple(items))
    raise TypeError


def _simplify(g, assignment: dict):
    """``g`` under ``assignment``, with constant children folded away.

    A node whose literal children include a key and its complement is
    decided outright: an "and" node is false and an "or" node true under
    every assignment, so satisfiability is unchanged and the search need
    not split on that key.
    """
    kind = g[0]
    if kind == "lit":
        _, key, positive = g
        value = assignment.get(key)
        if value is None:
            return g
        return _GTRUE if value == positive else _GFALSE
    absorbing, neutral = (_GFALSE, _GTRUE) if kind == "and" else (_GTRUE, _GFALSE)
    items = []
    signs: dict = {}
    for item in g[1]:
        s = _simplify(item, assignment)
        if s == absorbing:
            return absorbing
        if s[0] == "lit" and signs.setdefault(s[1], s[2]) != s[2]:
            return absorbing
        if s != neutral:
            items.append(s)
    if not items:
        return neutral
    if len(items) == 1:
        return items[0]
    return (kind, tuple(items))


def _first_literal(g):
    if g[0] == "lit":
        return g[1]
    for item in g[1]:
        lit = _first_literal(item)
        if lit is not None:
            return lit
    return None


def _forced(g, units: dict) -> bool:
    """Collect the literals ``g`` forces: leaves reached through "and" nodes.

    Returns False when two of them clash.
    """
    if g[0] == "lit":
        _, key, positive = g
        return units.setdefault(key, positive) == positive
    if g[0] == "and":
        return all(_forced(item, units) for item in g[1])
    return True


def _sat(g, assignment: dict) -> Optional[dict]:
    """A satisfying extension of ``assignment`` (extended in place), or None.

    Splitting search with unit propagation (Davis, Logemann & Loveland
    1962): before branching, every literal the simplified formula forces
    is assigned at once, and the formula simplified again, until none is
    left.  Every satisfying assignment makes the forced literals true, so
    propagation loses no model and the search stays complete; it only
    spares one split per forced literal.  A split tries its key true, then
    false; ``splits`` holds the splits whose false side is still to come,
    so the depth of the search is not bounded by the interpreter's stack.
    """
    splits: list[tuple] = []  # (formula, assignment, key)
    while True:
        while True:
            g = _simplify(g, assignment)
            if g == _GTRUE:
                return assignment
            units: dict = {}
            if g == _GFALSE or not _forced(g, units):
                g = _GFALSE
                break
            if not units:
                break
            assignment.update(units)
        if g != _GFALSE:
            key = _first_literal(g)
            splits.append((g, assignment, key))
            assignment = {**assignment, key: True}
        elif splits:
            g, assignment, key = splits.pop()
            assignment = {**assignment, key: False}
        else:
            return None


@dataclass(frozen=True)
class ModelCheckResult:
    status: str  # entailed | satisfiable | refuted | unknown
    domain_size: Optional[int] = None


def _free_names(box: DRS) -> list[str]:
    return sorted(r.name for r in validate(box).free)


def _combined_formula(
    premise: DRS, conclusion: Optional[DRS], fixed: Optional[dict[tuple[str, int], bool]] = None
) -> FExists:
    """Premise (and negated conclusion) under one shared scope.

    The conclusion's referents that the premise binds stay bound by the
    premise; genuinely free referents of either side become outermost
    existentials, i.e. arbitrary fixed individuals.  The atoms of the
    predicates in ``fixed`` are translated as constants.
    """
    fixed = fixed or {}
    body = _conjunction(premise.conditions, fixed)
    free = set(_free_names(premise))
    if conclusion is not None:
        body = FAnd(body.items + (FNot(_box_to_fol(conclusion, fixed)),))
        premise_scope = {r.name for r in premise.universe}
        free |= set(_free_names(conclusion)) - premise_scope
    return FExists(tuple(sorted(free)) + tuple([r.name for r in premise.universe]), body)


# the most ground atoms a domain may give before the search stops with ResourceLimit
ATOM_CEILING = 4096


def model_check(
    premise: DRS, conclusion: Optional[DRS] = None, max_domain: int = 3
) -> ModelCheckResult:
    """Search bounded domains for a model (or countermodel).

    Without a conclusion, decides satisfiability of the premise.  With
    one, searches for a countermodel of the entailment; "entailed" is
    reported only when the absence of countermodels up to the bound is
    conclusive for the formula's fragment.

    Each domain size grounds only what can decide it.  Pure predicates
    (one polarity, the negated conclusion's flipped) are fixed before
    translation: exact, as the formula is monotone in each.  The rest is
    grounded under the least-number assignments of the outermost
    existentials: exact, as the formula names no individual, so
    assignments that differ by a permutation of the domain are
    satisfiable alike.  The fragment test reads the whole quantifier
    structure, and the atom ceiling counts every predicate, fixed or not.
    """
    polarity: dict[tuple[str, int], int] = {}
    _polarities(premise.conditions, 1, polarity)
    if conclusion is not None:
        _polarities(conclusion.conditions, 2, polarity)
    fixed = {key: sign == 1 for key, sign in polarity.items() if sign != 3}
    formula = _combined_formula(premise, conclusion, fixed)
    nested, witnesses = _scan(formula, False, False)
    body = _fold(formula.body)
    for size in range(1, max_domain + 1):
        atoms = sum(size**arity for _, arity in polarity)
        if atoms > ATOM_CEILING:
            raise ResourceLimit(
                "%d ground atoms at domain size %d exceeds ceiling %d"
                % (atoms, size, ATOM_CEILING)
            )
        domain = range(size)
        grounded = (
            "or",
            tuple(
                [
                    _ground(body, dict(zip(formula.variables, row)), domain, True)
                    for row in _canonical(len(formula.variables), size)
                ]
            ),
        )
        if _sat(grounded, {}) is not None:
            return ModelCheckResult(
                "refuted" if conclusion is not None else "satisfiable", size
            )
    if not nested and max_domain >= max(1, witnesses):
        return ModelCheckResult("entailed" if conclusion is not None else "refuted")
    return ModelCheckResult("unknown")
