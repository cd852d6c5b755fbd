"""Finite-domain model search over boxes.

Boxes translate into first-order formulas (existential closure of the
universe over the conjunction of conditions; implications become guarded
universals).  Satisfiability and entailment questions are then decided by
exhaustive search over domains of bounded size: the formula is grounded
over each candidate domain and handed to a small splitting SAT check.

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
        return FAtom(cond.predicate, tuple(a.name for a in cond.args))
    if isinstance(cond, Neg):
        return FNot(drs_to_fol(cond.body))
    if isinstance(cond, Imp):
        guard = FAnd(tuple(_condition_to_fol(c) for c in cond.antecedent.conditions))
        return FForall(
            tuple(r.name for r in cond.antecedent.universe),
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
        tuple(r.name for r in box.universe),
        FAnd(tuple(_condition_to_fol(c) for c in box.conditions)),
    )


def _exists_under_forall(f: FolFormula, negated: bool, under: bool = False) -> bool:
    """Whether an existential-strength quantifier sits in universal scope.

    Negation flips the quantifier force of everything below; quantifiers
    under an odd number of negations count by their effective kind.
    """
    if isinstance(f, FAtom):
        return False
    if isinstance(f, FNot):
        return _exists_under_forall(f.body, not negated, under)
    if isinstance(f, (FAnd, FOr)):
        return any(_exists_under_forall(i, negated, under) for i in f.items)
    if isinstance(f, (FExists, FForall)):
        if isinstance(f, FExists) != negated:  # existential strength
            if under and f.variables:
                return True
            return _exists_under_forall(f.body, negated, under)
        return _exists_under_forall(f.body, negated, under or bool(f.variables))
    raise TypeError


def _witness_count(f: FolFormula, negated: bool) -> int:
    if isinstance(f, FAtom):
        return 0
    if isinstance(f, FNot):
        return _witness_count(f.body, not negated)
    if isinstance(f, (FAnd, FOr)):
        return sum(_witness_count(i, negated) for i in f.items)
    if isinstance(f, FExists):
        own = 0 if negated else len(f.variables)
        return own + _witness_count(f.body, negated)
    if isinstance(f, FForall):
        own = len(f.variables) if negated else 0
        return own + _witness_count(f.body, negated)
    raise TypeError


def _predicates(f: FolFormula, acc: dict[str, int]) -> None:
    if isinstance(f, FAtom):
        prev = acc.get(f.pred)
        if prev is not None and prev != len(f.args):
            raise ValueError("predicate %r used with two arities" % f.pred)
        acc[f.pred] = len(f.args)
    elif isinstance(f, FNot):
        _predicates(f.body, acc)
    elif isinstance(f, (FAnd, FOr)):
        for i in f.items:
            _predicates(i, acc)
    elif isinstance(f, (FExists, FForall)):
        _predicates(f.body, acc)


# Ground formulas: ("lit", key, positive) | ("and", tuple) | ("or", tuple)
_GTRUE = ("and", ())
_GFALSE = ("or", ())


def _ground(f: FolFormula, env: dict[str, int], domain: range, positive: bool):
    if isinstance(f, FAtom):
        key = (f.pred, tuple(env[a] for a in f.args))
        return ("lit", key, positive)
    if isinstance(f, FNot):
        return _ground(f.body, env, domain, not positive)
    if isinstance(f, FAnd):
        items = tuple(_ground(i, env, domain, positive) for i in f.items)
        return ("and" if positive else "or", items)
    if isinstance(f, FOr):
        items = tuple(_ground(i, env, domain, positive) for i in f.items)
        return ("or" if positive else "and", items)
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
    kind = g[0]
    if kind == "lit":
        _, key, positive = g
        value = assignment.get(key)
        if value is None:
            return g
        return _GTRUE if value == positive else _GFALSE
    items = []
    for item in g[1]:
        s = _simplify(item, assignment)
        if kind == "and":
            if s == _GFALSE:
                return _GFALSE
            if s != _GTRUE:
                items.append(s)
        else:
            if s == _GTRUE:
                return _GTRUE
            if s != _GFALSE:
                items.append(s)
    if not items:
        return _GTRUE if kind == "and" else _GFALSE
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


def _sat(g, assignment: dict) -> Optional[dict]:
    g = _simplify(g, assignment)
    if g == _GTRUE:
        return assignment
    if g == _GFALSE:
        return None
    key = _first_literal(g)
    for value in (True, False):
        trial = dict(assignment)
        trial[key] = value
        found = _sat(g, trial)
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
        tuple(sorted(free)) + tuple(r.name for r in premise.universe),
        FAnd(tuple(parts)),
    )


def model_check(
    premise: DRS,
    conclusion: Optional[DRS] = None,
    max_domain: int = 3,
    atom_ceiling: int = 4096,
) -> ModelCheckResult:
    """Search bounded domains for a model (or countermodel).

    Without a conclusion, decides satisfiability of the premise.  With
    one, searches for a countermodel of the entailment; "entailed" is
    reported only when the absence of countermodels up to the bound is
    conclusive for the formula's fragment.
    """
    formula = _combined_formula(premise, conclusion)
    preds: dict[str, int] = {}
    _predicates(formula, preds)
    for size in range(1, max_domain + 1):
        atoms = sum(size**arity for arity in preds.values())
        if atoms > atom_ceiling:
            raise ResourceLimit(
                "%d ground atoms at domain size %d exceeds ceiling %d"
                % (atoms, size, atom_ceiling)
            )
        grounded = _ground(formula, {}, range(size), True)
        if _sat(grounded, {}) is not None:
            return ModelCheckResult(
                "refuted" if conclusion is not None else "satisfiable", size
            )
    if not _exists_under_forall(formula, False):
        needed = max(1, _witness_count(formula, False))
        if max_domain >= needed:
            return ModelCheckResult("entailed" if conclusion is not None else "refuted")
    return ModelCheckResult("unknown")
