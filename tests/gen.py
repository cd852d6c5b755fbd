"""Generators for property suites: seeded random corpora and hypothesis strategies.

The corpus generator builds pure boxes with one anaphoric condition in a
randomly chosen position (root, implication antecedent or consequent,
negation body, or a disjunct), at most two nesting levels and about three
discourse referents, so the resulting tasks stay inside what the finite
model search can decide.  Atom values are kept distinct across each box:
the non-redundancy statistic counts repeated condition values across
context wrappers, and a duplicated input condition would show up there.
"""

from __future__ import annotations

import random
import string

from hypothesis import strategies as st

from ctxdrt.drs import DRS, Alpha, Atom, Imp, Neg, Or, Referent
from ctxdrt.lcon import Conj, Disj, DrsLit, In

PREDICATES = [("p", 1), ("q", 2), ("r", 1), ("s", 2)]


class _Names:
    def __init__(self) -> None:
        self._iter = iter(string.ascii_lowercase)

    def fresh(self) -> Referent:
        return Referent(next(self._iter))


def _atoms(rng: random.Random, env: list[Referent], count: int, used: set) -> list[Atom]:
    out: list[Atom] = []
    if not env:
        return out
    for _ in range(count):
        for _attempt in range(25):
            pred, arity = PREDICATES[rng.randrange(len(PREDICATES))]
            args = tuple(env[rng.randrange(len(env))] for _ in range(arity))
            atom = Atom(pred, args)
            if atom not in used:
                used.add(atom)
                out.append(atom)
                break
    return out


def _alpha(rng: random.Random, names: _Names, used: set) -> Alpha:
    head = names.fresh()
    body_env = [head]
    inner = None
    if rng.random() < 0.6:
        anaphor = names.fresh()
        body_env.append(anaphor)
        inner = Alpha(DRS((anaphor,), ()))
    conds: list = _atoms(rng, body_env, rng.randrange(1, 3), used)
    while not conds:  # accommodation needs at least one core condition
        conds = _atoms(rng, body_env, 1, used)
    if inner is not None:
        conds.insert(rng.randrange(len(conds) + 1), inner)
    return Alpha(DRS((head,), tuple(conds)))


def corpus_drs(rng: random.Random) -> DRS:
    """One pure box with a single anaphoric condition somewhere inside."""
    names = _Names()
    used: set = set()
    u0 = [names.fresh() for _ in range(rng.randrange(0, 3))]
    root_atoms = _atoms(rng, u0, rng.randrange(0, 3), used)
    alpha = _alpha(rng, names, used)

    shape = rng.randrange(6)
    extra: list = []
    if shape == 0:
        # alpha directly at root level
        conditions = root_atoms + [alpha]
    else:
        u1 = [names.fresh() for _ in range(rng.randrange(0, 2))]
        inner_atoms = _atoms(rng, u0 + u1, rng.randrange(0, 2), used)
        if shape == 1:
            # alpha in an implication consequent
            u2 = [names.fresh() for _ in range(rng.randrange(0, 2))]
            cons_atoms = _atoms(rng, u0 + u1 + u2, rng.randrange(0, 2), used)
            cond = Imp(
                DRS(tuple(u1), tuple(inner_atoms)),
                DRS(tuple(u2), tuple(cons_atoms) + (alpha,)),
            )
        elif shape == 2:
            # alpha in an implication antecedent
            cond = Imp(
                DRS(tuple(u1), tuple(inner_atoms) + (alpha,)),
                DRS((), tuple(_atoms(rng, u0 + u1, 1, used))),
            )
        elif shape == 3:
            # alpha under negation
            cond = Neg(DRS(tuple(u1), tuple(inner_atoms) + (alpha,)))
        elif shape == 4:
            # alpha in a disjunct
            cond = Or(
                DRS(tuple(u1), tuple(inner_atoms) + (alpha,)),
                DRS((), tuple(_atoms(rng, u0, 1, used))),
            )
        else:
            # alpha in a consequent, with a second nesting level beside it
            u2 = [names.fresh() for _ in range(rng.randrange(0, 2))]
            side = Neg(DRS((), tuple(_atoms(rng, u0 + u1 + u2, 1, used))))
            cond = Imp(
                DRS(tuple(u1), tuple(inner_atoms)),
                DRS(tuple(u2), (side, alpha) if rng.random() < 0.5 else (alpha, side)),
            )
        conditions = root_atoms + [cond]
        if rng.random() < 0.3:
            # a universal postulate in the root context exercises the
            # repeatable-instantiation machinery
            m = names.fresh()
            w = names.fresh()
            guard = _atoms(rng, [m], 1, used)
            head = _atoms(rng, [m, w], 1, used)
            if guard and head:
                extra = [Imp(DRS((m,), tuple(guard)), DRS((w,), tuple(head)))]
    return DRS(tuple(u0), tuple(conditions + extra))


# -- hypothesis strategies (round-trip suites) ---------------------------------

# [a-z][a-z0-9_]{0,3} without the keywords; built from plain text strategies
# because a regex strategy costs most of the round-trip suites' time
_ident = st.builds(
    str.__add__,
    st.sampled_from(string.ascii_lowercase),
    st.text(alphabet=string.ascii_lowercase + string.digits + "_", max_size=3),
).filter(lambda s: s not in {"not", "or", "alpha", "in"})
_referent = st.builds(Referent, _ident)
_atom = st.builds(
    Atom, _ident, st.lists(_referent, min_size=1, max_size=3).map(tuple)
)


def _boxes(
    conditions: st.SearchStrategy, referents: st.SearchStrategy = _referent, size: int = 3
) -> st.SearchStrategy[DRS]:
    return st.builds(
        DRS,
        st.lists(referents, max_size=size, unique_by=lambda r: r.name).map(tuple),
        st.lists(conditions, max_size=size).map(tuple),
    )


def _drs_strategy(alphas: bool = True) -> st.SearchStrategy[DRS]:
    return st.recursive(
        _boxes(_atom),
        lambda inner: _boxes(
            st.one_of(
                _atom,
                st.builds(Neg, inner),
                st.builds(Imp, inner, inner),
                st.builds(Or, inner, inner),
                *([st.builds(Alpha, inner)] if alphas else []),
            )
        ),
        max_leaves=6,
    )


drs_boxes = _drs_strategy()
alpha_free_boxes = _drs_strategy(alphas=False)


def _nested_alpha_strategy() -> st.SearchStrategy[DRS]:
    """Boxes with one alpha nested under implications, negations and
    disjunctions, and assertable content beside it at every level, so the
    alpha has several accommodation sites that each add premise content.

    A level may also deny an atom or the empty box, so some consistency
    questions are refuted.  The model search decides a refuted question
    only after trying one assignment per orbit of all its referents at
    every domain size, so the referents are drawn from eight names: the
    boxes' universes then overlap (the tests assume purity) and their
    atoms mention the referents the universes bind.
    """
    referent = st.builds(Referent, st.sampled_from("abcdefgh"))
    atom = st.builds(Atom, _ident, st.lists(referent, min_size=1, max_size=3).map(tuple))
    universe = st.lists(referent, max_size=2, unique_by=lambda r: r.name).map(tuple)
    atoms = st.lists(atom, min_size=1, max_size=2)
    plain = st.builds(DRS, universe, atoms.map(tuple))
    denial = st.one_of(
        st.builds(lambda a: Neg(DRS((), (a,))), atom), st.just(Neg(DRS((), ())))
    )
    level = st.builds(list.__add__, atoms, st.lists(denial, max_size=1))

    def beside(housing):
        # the housing condition at a random place among the level's conditions
        return st.builds(
            lambda u, xs, h, i: DRS(u, tuple(xs[:i] + [h] + xs[i:])),
            universe,
            level,
            housing,
            st.integers(0, 3),
        )

    return st.recursive(
        beside(st.builds(Alpha, plain)),
        lambda inner: beside(
            st.one_of(
                st.builds(Neg, inner),
                st.builds(Imp, plain, inner),
                st.builds(Imp, inner, plain),
                st.builds(Or, inner, plain),
            )
        ),
        max_leaves=4,
    )


nested_alpha_boxes = _nested_alpha_strategy()


def _lcon_strategy(boxes: st.SearchStrategy[DRS]) -> st.SearchStrategy:
    nonempty_box = st.builds(
        DRS,
        st.lists(_referent, min_size=1, max_size=3, unique_by=lambda r: r.name).map(tuple),
        st.lists(_atom, max_size=2).map(tuple),
    )
    base = st.one_of(
        st.builds(DrsLit, boxes),
        st.builds(In, nonempty_box, st.builds(DrsLit, boxes)),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(In, nonempty_box, inner),
            st.builds(Conj, st.lists(inner, min_size=2, max_size=3).map(tuple)),
            st.builds(Disj, st.lists(inner, min_size=2, max_size=3).map(tuple)),
        ),
        max_leaves=5,
    )


# The leaves of ``lcon_formulas``: boxes at most two levels deep that still
# hold every condition type, over a few names with keyword prefixes.  The
# formula round trips spent their time drawing the recursive ``drs_boxes``
# and fresh identifiers here; the box round trips cover identifiers.
_leaf_names = st.sampled_from(["a", "b1", "x_", "in1", "ora", "nota", "alph", "k9_z"])
_leaf_referent = st.builds(Referent, _leaf_names)
_leaf_atom = st.builds(
    Atom, _leaf_names, st.lists(_leaf_referent, min_size=1, max_size=3).map(tuple)
)
_leaf_atom_boxes = _boxes(_leaf_atom, _leaf_referent, 2)
_leaf_boxes = _boxes(
    st.one_of(
        _leaf_atom,
        st.builds(Neg, _leaf_atom_boxes),
        st.builds(Imp, _leaf_atom_boxes, _leaf_atom_boxes),
        st.builds(Or, _leaf_atom_boxes, _leaf_atom_boxes),
        st.builds(Alpha, _leaf_atom_boxes),
    ),
    _leaf_referent,
    2,
)

lcon_formulas = _lcon_strategy(_leaf_boxes)
alpha_free_lcon_formulas = _lcon_strategy(alpha_free_boxes)
