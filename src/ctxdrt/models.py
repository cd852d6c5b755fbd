"""Finite-domain model search over boxes.

Boxes translate into first-order formulas (existential closure of the
universe over the conjunction of conditions; implications become guarded
universals).  Satisfiability and entailment questions are then decided by
exhaustive search over domains of bounded size: the formula is grounded
over each candidate domain and handed to a small splitting SAT check
with unit propagation, so a box of n root facts costs a few passes over
its grounding rather than n nested ones.

Each question is one box (``_combined_box``), which ``_shape`` reads for
two reductions before ``_box_to_fol`` translates it; the reductions keep
out of the grounding what cannot change the answer.  A predicate that
occurs with one polarity only is pure (the pure-literal rule of Davis &
Putnam 1960, lifted to predicates): the formula is monotone in it, so it
has a model of a given size exactly when it has one with that predicate
true everywhere (or false everywhere, if it occurs only negated), and
its atoms are translated as that constant.  Every name is bound by a
quantifier, so any permutation of the domain maps a model to a model;
the outermost existentials therefore take only one assignment per orbit,
the least-number assignments of Zhang & Zhang (1995), grounded and
searched one at a time until one has a model, while inner quantifiers
range over the whole domain.  The ground formula is kept
flat, so a clash is found wherever along a chain of conjunctions its two
literals sit.

Absence of a model up to the bound is definitive only for formulas whose
translation keeps every existential out of universal scope; in that
fragment a model, if any, exists within the number of existential
witnesses.  Everything else stays "unknown" rather than guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Union

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
    """``cond`` translated, with the atoms in ``fixed`` as constants below it.

    ``_conjunction``, the one caller, decides a fixed atom ``cond`` itself.
    """
    if isinstance(cond, Atom):
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
    """The conjoined translations, without the conjuncts that are true.

    Only a fixed atom translates to a constant, so it is read off here: a
    true one is left out and a false one is ``_FALSE``.
    """
    items = []
    for c in conditions:
        if isinstance(c, Atom):
            value = fixed.get((c.predicate, len(c.args)))
            if value is not None:
                if not value:
                    items.append(_FALSE)
                continue
        items.append(_condition_to_fol(c, fixed))
    return FAnd(tuple(items))


def _box_to_fol(box: DRS, fixed: dict[tuple[str, int], bool]) -> FolFormula:
    return FExists(tuple([r.name for r in box.universe]), _conjunction(box.conditions, fixed))


def drs_to_fol(box: DRS) -> FolFormula:
    """Existential closure of the universe over the conjoined conditions."""
    return _box_to_fol(box, {})


def _shape(box: DRS, sign: int, under: bool, acc: dict) -> tuple[bool, int]:
    """One walk over a box: its predicates' signs and its quantifier shape.

    Records in ``acc`` the signs of each (name, arity) as bits, 1 positive
    and 2 negated.  Returns ``(nested, witnesses)`` of the box's
    translation read at ``sign``, in universal scope if ``under``: whether
    an existential-strength quantifier sits in universal scope, and how
    many variables such quantifiers bind.  A universe is existential at a
    positive sign and universal at a negated one, where it puts the
    conditions in universal scope.  Negation and an implication's
    antecedent flip the sign; the consequent sits in the scope of the
    antecedent's universe, as in the guarded universal it translates to.
    Anything but a box's logical structure is left to the translation.
    """
    if sign == 1:
        nested, witnesses = under and bool(box.universe), len(box.universe)
    else:
        nested, witnesses = False, 0
        under = under or bool(box.universe)
    for cond in box.conditions:
        if isinstance(cond, Atom):
            key = (cond.predicate, len(cond.args))
            acc[key] = acc.get(key, 0) | sign
            continue
        if isinstance(cond, Neg):
            parts = ((cond.body, 3 - sign, under),)
        elif isinstance(cond, Imp):
            scope = under or (sign == 1 and bool(cond.antecedent.universe))
            parts = ((cond.antecedent, 3 - sign, under), (cond.consequent, sign, scope))
        elif isinstance(cond, Or):
            parts = ((cond.left, sign, under), (cond.right, sign, under))
        else:
            continue
        for sub, sub_sign, sub_under in parts:
            inner, count = _shape(sub, sub_sign, sub_under, acc)
            nested, witnesses = nested or inner, witnesses + count
    return nested, witnesses


def _canonical(count: int, size: int) -> Iterator[tuple[int, ...]]:
    """One assignment of ``count`` variables to ``range(size)`` per orbit of
    its permutations, in lexicographic order, each made when it is asked for.

    The first variable takes 0 and each later one at most one more than
    the largest value so far: 41 assignments for 5 variables at size 3,
    where the product has 243.
    """
    row = [0] * count
    while True:
        yield tuple(row)
        # the last place that can still grow, with the places after it reset to 0
        i = count - 1
        while i > 0 and row[i] >= min(size - 1, max(row[:i]) + 1):
            i -= 1
        if i <= 0:
            return
        row[i] += 1
        row[i + 1 :] = [0] * (count - i - 1)


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
        if f.body == _TRUE or f.body == _FALSE:
            # the same constant under every assignment, and the domain is never empty
            return _ground(f.body, env, domain, positive)
        branching = isinstance(f, FExists) == positive  # exists-like grounds to "or"
        items = []
        for values in itertools.product(domain, repeat=len(f.variables)):
            env2 = dict(env)
            env2.update(zip(f.variables, values))
            items.append(_ground(f.body, env2, domain, positive))
        return ("or" if branching else "and", tuple(items))
    raise TypeError


def _simplify(g, assignment: dict):
    """``g`` under ``assignment``, flat, with constant children folded away.

    A simplified child of its node's own kind is merged into it, keeping
    the order of the leaves, so a chain of "and" (or of "or") nodes becomes
    one node.  A node whose literal children include a key and its
    complement is then decided outright, wherever along the chain the two
    sat: an "and" node is false and an "or" node true under every
    assignment, so satisfiability is unchanged and the search need not
    split on that key.
    """
    kind = g[0]
    if kind == "lit":
        _, key, positive = g
        value = assignment.get(key)
        if value is None:
            return g
        return _GTRUE if value == positive else _GFALSE
    absorbing = _GFALSE if kind == "and" else _GTRUE
    items = []
    signs: dict = {}
    for item in g[1]:
        s = _simplify(item, assignment)
        if s == absorbing:
            return absorbing
        for t in s[1] if s[0] == kind else (s,):
            if t[0] == "lit" and signs.setdefault(t[1], t[2]) != t[2]:
                return absorbing
            items.append(t)
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


def _forced(g) -> dict:
    """The literals a simplified formula forces, as ``{key: value}``.

    These are ``g`` itself if it is a literal, else the literal children
    of an "and" root: ``_simplify`` has merged every "and" below into the
    root and decided the root if two of them clash.
    """
    if g[0] == "lit":
        return {g[1]: g[2]}
    if g[0] == "and":
        return {t[1]: t[2] for t in g[1] if t[0] == "lit"}
    return {}


def _sat(g, assignment: dict) -> Optional[dict]:
    """A satisfying extension of ``assignment`` (extended in place), or None.

    Splitting search with unit propagation (Davis, Logemann & Loveland
    1962): before branching, every literal the simplified formula forces
    is assigned at once, and the formula simplified again, until none is
    left.  Every satisfying assignment makes the forced literals true, so
    propagation loses no model and the search stays complete; it only
    spares one split per forced literal.  The formula is flat, so a clash
    among forced literals has already made it false.  A split tries its
    key true, then false; ``splits`` holds the splits whose false side is
    still to come, so the depth of the search is not bounded by the
    interpreter's stack.
    """
    splits: list[tuple] = []  # (formula, assignment, key)
    while True:
        while True:
            g = _simplify(g, assignment)
            if g == _GTRUE:
                return assignment
            units = _forced(g)
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


def _combined_box(premise: DRS, conclusion: Optional[DRS]) -> DRS:
    """Premise (and negated conclusion) under one shared scope.

    The conclusion's referents that the premise binds stay bound by the
    premise; genuinely free referents of either side come first in the
    universe, sorted: outermost existentials, i.e. arbitrary individuals.
    """
    free = validate(premise).free
    conditions = premise.conditions
    if conclusion is not None:
        free = free | (validate(conclusion).free - set(premise.universe))
        conditions += (Neg(conclusion),)
    return DRS(tuple(sorted(free)) + premise.universe, conditions)


# the most ground atoms a domain may give, and the most assignments of the
# outermost referents grounded at one domain size, before the search stops
# with ResourceLimit
ATOM_CEILING = 4096


def model_check(
    premise: DRS, conclusion: Optional[DRS] = None, max_domain: int = 3
) -> ModelCheckResult:
    """Search bounded domains for a model (or countermodel).

    Without a conclusion, decides satisfiability of the premise.  With
    one, searches for a countermodel of the entailment; "entailed" is
    reported only when the absence of countermodels up to the bound is
    conclusive for the formula's fragment.

    One walk over the question's box (``_shape``) gives the predicates'
    signs and the quantifier shape, the outermost block's witnesses too;
    its translation (``_box_to_fol``) and one grounding per domain size
    follow.  Pure predicates (one polarity, the negated conclusion's
    flipped) are fixed before translation: exact, as the formula is
    monotone in each.  The rest is grounded under the least-number
    assignments of the outermost existentials, one at a time, and the
    search stops at the first that has a model: exact, as the formula
    names no individual, so assignments that differ by a permutation of
    the domain are satisfiable alike.  The fragment test reads the whole
    quantifier structure, which fixing a predicate leaves in place; the
    atom ceiling counts every predicate, fixed or not, and also bounds
    the assignments grounded at one domain size.
    """
    box = _combined_box(premise, conclusion)
    signs: dict[tuple[str, int], int] = {}
    nested, witnesses = _shape(box, 1, False, signs)
    fixed = {key: bits == 1 for key, bits in signs.items() if bits != 3}
    formula = _box_to_fol(box, fixed)
    for size in range(1, max_domain + 1):
        # a list, not a generator resumed once per predicate
        atoms = sum([size**arity for _, arity in signs])
        if atoms > ATOM_CEILING:
            raise ResourceLimit(
                "%d ground atoms at domain size %d exceeds ceiling %d"
                % (atoms, size, ATOM_CEILING)
            )
        domain = range(size)
        for rows, row in enumerate(_canonical(len(formula.variables), size), 1):
            if rows > ATOM_CEILING:
                raise ResourceLimit(
                    "more than %d assignments of %d outermost referents at domain size %d"
                    % (ATOM_CEILING, len(formula.variables), size)
                )
            grounded = _ground(formula.body, dict(zip(formula.variables, row)), domain, True)
            if _sat(grounded, {}) is not None:
                return ModelCheckResult(
                    "refuted" if conclusion is not None else "satisfiable", size
                )
    if not nested and max_domain >= max(1, witnesses):
        return ModelCheckResult("entailed" if conclusion is not None else "refuted")
    return ModelCheckResult("unknown")
