"""Finite-domain model search over boxes.

Boxes translate into first-order formulas (existential closure of the
universe over the conjunction of conditions; implications become guarded
universals).  Satisfiability and entailment questions are then decided by
exhaustive search over domains of bounded size: the formula is grounded
over each candidate domain and handed to a small splitting SAT check
with unit propagation, so a box of n root facts costs a few passes over
its grounding rather than n nested ones.

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


def _condition_to_fol(cond: Condition) -> FolFormula:
    if isinstance(cond, Atom):
        return FAtom(cond.predicate, tuple([a.name for a in cond.args]))
    if isinstance(cond, Neg):
        return FNot(drs_to_fol(cond.body))
    if isinstance(cond, Imp):
        guard = FAnd(tuple([_condition_to_fol(c) for c in cond.antecedent.conditions]))
        return FForall(
            tuple([r.name for r in cond.antecedent.universe]),
            FOr((FNot(guard), drs_to_fol(cond.consequent))),
        )
    if isinstance(cond, Or):
        return FOr((drs_to_fol(cond.left), drs_to_fol(cond.right)))
    if isinstance(cond, Alpha):
        raise AlphaRemaining("anaphoric condition has no first-order translation")
    raise TypeError("not a condition: %r" % (cond,))


def drs_to_fol(box: DRS) -> FolFormula:
    """Existential closure of the universe over the conjoined conditions."""
    return FExists(
        tuple([r.name for r in box.universe]),
        FAnd(tuple([_condition_to_fol(c) for c in box.conditions])),
    )


def _scan(
    f: FolFormula, preds: set[tuple[str, int]], negated: bool, under: bool
) -> tuple[bool, int]:
    """One pass over a formula's quantifiers and atoms.

    Adds each predicate to ``preds`` as (name, arity), so a name used with
    two arities names two predicates, and returns ``(nested,
    witnesses)``: whether an existential-strength quantifier sits in
    universal scope, and how many variables existential-strength
    quantifiers bind.  Negation flips the quantifier force of everything
    below; quantifiers under an odd number of negations count by their
    effective kind.
    """
    if isinstance(f, FAtom):
        preds.add((f.pred, len(f.args)))
        return False, 0
    if isinstance(f, FNot):
        return _scan(f.body, preds, not negated, under)
    if isinstance(f, (FAnd, FOr)):
        nested, witnesses = False, 0
        for item in f.items:
            inner, count = _scan(item, preds, negated, under)
            nested = nested or inner
            witnesses += count
        return nested, witnesses
    if not isinstance(f, (FExists, FForall)):
        raise TypeError
    if isinstance(f, FExists) != negated:  # existential strength
        nested, witnesses = _scan(f.body, preds, negated, under)
        return nested or (under and bool(f.variables)), witnesses + len(f.variables)
    return _scan(f.body, preds, negated, under or bool(f.variables))


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
    spares one nested call per forced literal.
    """
    while True:
        g = _simplify(g, assignment)
        if g == _GTRUE:
            return assignment
        if g == _GFALSE:
            return None
        units: dict = {}
        if not _forced(g, units):
            return None
        if not units:
            break
        assignment.update(units)
    key = _first_literal(g)
    for value in (True, False):
        found = _sat(g, {**assignment, key: value})
        if found is not None:
            return found
    return None


@dataclass(frozen=True)
class ModelCheckResult:
    status: str  # entailed | satisfiable | refuted | unknown
    domain_size: Optional[int] = None


def _free_names(box: DRS) -> list[str]:
    return sorted(r.name for r in validate(box).free)


def _combined_formula(premise: DRS, conclusion: Optional[DRS]) -> FolFormula:
    """Premise (and negated conclusion) under one shared scope.

    The conclusion's referents that the premise binds stay bound by the
    premise; genuinely free referents of either side become outermost
    existentials, i.e. arbitrary fixed individuals.
    """
    parts = [_condition_to_fol(c) for c in premise.conditions]
    free = set(_free_names(premise))
    if conclusion is not None:
        parts.append(FNot(drs_to_fol(conclusion)))
        premise_scope = {r.name for r in premise.universe}
        free |= set(_free_names(conclusion)) - premise_scope
    return FExists(
        tuple(sorted(free)) + tuple([r.name for r in premise.universe]),
        FAnd(tuple(parts)),
    )


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
    """
    formula = _combined_formula(premise, conclusion)
    preds: set[tuple[str, int]] = set()
    nested, witnesses = _scan(formula, preds, False, False)
    for size in range(1, max_domain + 1):
        atoms = sum(size**arity for _, arity in preds)
        if atoms > ATOM_CEILING:
            raise ResourceLimit(
                "%d ground atoms at domain size %d exceeds ceiling %d"
                % (atoms, size, ATOM_CEILING)
            )
        grounded = _ground(formula, {}, range(size), True)
        if _sat(grounded, {}) is not None:
            return ModelCheckResult(
                "refuted" if conclusion is not None else "satisfiable", size
            )
    if not nested and max_domain >= max(1, witnesses):
        return ModelCheckResult("entailed" if conclusion is not None else "refuted")
    return ModelCheckResult("unknown")
