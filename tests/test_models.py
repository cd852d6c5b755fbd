import itertools
import random
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxdrt import models
from ctxdrt.drs import DRS, Neg, Referent, validate
from ctxdrt.models import (
    AlphaRemaining,
    FAnd,
    FAtom,
    FExists,
    FForall,
    FNot,
    FOr,
    ModelCheckResult,
    ResourceLimit,
    drs_to_fol,
    model_check,
)
from ctxdrt.projection import (
    EMPTY_BACKGROUND,
    BackgroundTheory,
    build_tasks,
    candidate_readings,
    eligible_alpha_paths,
)
from ctxdrt.text import parse_drs

from conftest import MARRIAGE_POSTULATE, family_m
from gen import alpha_free_boxes, corpus_drs


def test_translation_of_simple_box():
    assert drs_to_fol(parse_drs("[x | man(x)]")) == FExists(
        ("x",), FAnd((FAtom("man", ("x",)),))
    )


def test_translation_of_implication():
    formula = drs_to_fol(parse_drs("[ | [x | man(x)] => [ | mortal(x)]]"))
    assert formula == FExists(
        (),
        FAnd(
            (
                FForall(
                    ("x",),
                    FOr(
                        (
                            FNot(FAnd((FAtom("man", ("x",)),))),
                            FExists((), FAnd((FAtom("mortal", ("x",)),))),
                        )
                    ),
                ),
            )
        ),
    )


def test_translation_keeps_free_referents_free(hank):
    from ctxdrt.drs import delete_alpha
    from ctxdrt.projection import eligible_alpha_paths

    pruned = delete_alpha(hank, eligible_alpha_paths(hank)[0])
    formula = drs_to_fol(pruned)
    assert formula.variables == ("x",)  # u stays free

    def mentions_u(f):
        if isinstance(f, FAtom):
            return "u" in f.args
        if isinstance(f, FNot):
            return mentions_u(f.body)
        if isinstance(f, (FAnd, FOr)):
            return any(mentions_u(i) for i in f.items)
        return mentions_u(f.body)

    assert mentions_u(formula)


def test_translation_rejects_alphas(hank):
    with pytest.raises(AlphaRemaining):
        drs_to_fol(hank)


def test_entailment_refuted_by_tiny_countermodel():
    premise = parse_drs("[x | hank(x), married(x)]")
    conclusion = parse_drs("[u | wife(u), of(u,x)]")
    result = model_check(premise, conclusion, max_domain=1)
    assert result.status == "refuted"
    assert result.domain_size == 1


def test_empty_box_is_satisfiable():
    result = model_check(parse_drs("[ | ]"), None, max_domain=1)
    assert result.status == "satisfiable"


def test_contradiction_is_refuted_definitively():
    box = parse_drs("[ | p(a), not [ | p(a)]]")
    assert model_check(box, None, max_domain=3).status == "refuted"


def test_entailment_decided_in_controllable_fragment():
    premise = parse_drs("[ | p(a)]")
    conclusion = parse_drs("[ | p(a)]")
    assert model_check(premise, conclusion, max_domain=1).status == "entailed"


def test_unknown_outside_controllable_fragment():
    # the entailment holds via the postulate, so no countermodel exists; the
    # postulate puts an existential under a universal, so exhausting the
    # bound proves nothing and the checker must not claim "entailed"
    premise = parse_drs("[x | p(x), [m | p(m)] => [w | q(w,m)]]")
    conclusion = parse_drs("[u | q(u,x)]")
    assert model_check(premise, conclusion, max_domain=2).status == "unknown"


def test_postulate_consistency_found_by_search(hank, marriage_bg):
    from ctxdrt.projection import build_tasks, candidate_readings, eligible_alpha_paths

    (path,) = eligible_alpha_paths(hank)
    for reading in candidate_readings(hank, path)[0]:
        _, consistency = build_tasks(reading, hank, marriage_bg)
        assert model_check(consistency.premise, None, max_domain=3).status == "satisfiable"


def test_resource_limit_is_signalled():
    # unsatisfiable below 3 individuals, so the search reaches domain size 3,
    # where the 8-place w alone gives 3**8 = 6,561 ground atoms
    box = parse_drs(
        "[a, b, c | p(a), not [ | p(b)], q(b), not [ | q(c)], r(a), not [ | r(c)],"
        " w(a,a,a,a,a,a,a,a)]"
    )
    assert model_check(box, None, max_domain=2).status == "unknown"
    with pytest.raises(ResourceLimit, match="6570 ground atoms at domain size 3"):
        model_check(box, None, max_domain=3)


def _count_searches(monkeypatch) -> list:
    """Records one entry per ``models._sat`` call: one per grounded assignment."""
    calls = []
    sat = models._sat

    def counting(g, assignment):
        calls.append(1)
        return sat(g, assignment)

    monkeypatch.setattr(models, "_sat", counting)
    return calls


def test_many_outermost_referents_stop_at_the_ceiling(monkeypatch):
    # refuted at every size: at size 2 the 20 referents have 2**19
    # least-number assignments, at size 3 about 5.8 * 10**8, which the search
    # built in full before it grounded any, until memory ran out
    names = ["a%d" % i for i in range(20)]
    box = parse_drs(
        "[%s | p(a0), not [ | p(a0)], %s]"
        % (", ".join(names), ", ".join("q(%s)" % n for n in names))
    )
    searches = _count_searches(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(
        ResourceLimit,
        match="more than %d assignments of 20 outermost referents at domain size 2"
        % models.ATOM_CEILING,
    ):
        model_check(box, None, max_domain=3)
    assert len(searches) == 1 + models.ATOM_CEILING  # size 1, then size 2 up to the ceiling
    # about 0.05 s on a 2-vCPU x86 machine; the generous bound only catches
    # a grounding of every assignment, which ran out of memory
    assert time.perf_counter() - start < 10.0


def test_the_search_stops_at_the_first_assignment_with_a_model(monkeypatch):
    # no model at size 1; at size 2 the second least-number assignment, the
    # first to set a19 apart, has one, though 2**19 assignments are left
    names = ["a%d" % i for i in range(20)]
    box = parse_drs("[%s | p(a0), not [ | p(a19)]]" % ", ".join(names))
    searches = _count_searches(monkeypatch)
    assert model_check(box, None, max_domain=3) == ModelCheckResult("satisfiable", 2)
    assert len(searches) == 1 + 2


FACTS = ", ".join("f%d(x)" % i for i in range(300))
FACT_BOX = "[x | hank(x), married(x), %s, [m | married(m)] => [w | wife(w), of(w,m)]]" % FACTS


def _count_splits(monkeypatch) -> list:
    """Records one entry per split of ``models._sat``: each split picks its key once."""
    calls = []
    first_literal = models._first_literal

    def counting(g):
        calls.append(1)
        return first_literal(g)

    monkeypatch.setattr(models, "_first_literal", counting)
    return calls


def test_unit_propagation_assigns_root_facts_at_once(monkeypatch):
    box = parse_drs(FACT_BOX)
    assert model_check(box, None, max_domain=3) == ModelCheckResult("satisfiable", 1)
    # model_check fixes the pure facts; ground them all, so that the search has to assign them
    grounded = models._ground(drs_to_fol(models._combined_box(box, None)), {}, range(1), True)
    splits = _count_splits(monkeypatch)
    assert models._sat(grounded, {}) is not None
    assert len(splits) <= 1  # one split per root fact without propagation


def test_pure_facts_build_no_atoms(monkeypatch):
    built = []

    class Recording(FAtom):
        def __init__(self, pred, args):
            built.append(pred)
            super().__init__(pred, args)

    monkeypatch.setattr(models, "FAtom", Recording)
    assert model_check(parse_drs(FACT_BOX), None, max_domain=3).status == "satisfiable"
    # married(x) and the postulate's guard: married occurs negated there, so
    # it is not pure; hank, the facts and the postulate's head are
    assert built == ["married", "married"]


def test_complementary_children_decide_their_node(monkeypatch):
    # every disjunct at domain size 3 holds r(f) and not r(f)
    box = parse_drs("[a,b,e,f,c | q(a,b), p(a), not [ | r(f)], r(c), r(f)]")
    splits = _count_splits(monkeypatch)
    assert model_check(box, None, max_domain=3).status == "unknown"
    assert not splits  # splitting through the clashes took 1,217 calls of the search


@pytest.mark.parametrize("names, status", [(3, "entailed"), (5, "unknown")])
def test_a_clash_one_level_down_decides_its_row(monkeypatch, names, status):
    # each outer row at size 3 grounds to and(not w(r), and(w(r), ... 27 copies));
    # while the clash was one "and" level down, the 3-name box took 66 splits
    # and the 5-name box did not finish in 60 s
    atom = "w(%s)" % ",".join("a%d" % i for i in range(names))
    premise = parse_drs("[ | not [ | %s]]" % atom)
    conclusion = parse_drs("[u0, u1, u2 | not [ | %s]]" % atom)
    splits = _count_splits(monkeypatch)
    assert model_check(premise, conclusion, 3).status == status
    assert not splits


@pytest.mark.parametrize("quantifier", [FExists, FForall])
@pytest.mark.parametrize("body", [FAnd(()), FOr(())], ids=["true", "false"])
@pytest.mark.parametrize("positive", [True, False])
def test_a_quantifier_over_a_constant_grounds_once(monkeypatch, quantifier, body, positive):
    # the domain is never empty, so the constant under every assignment is the constant
    constant = models._ground(body, {}, range(3), positive)
    assert constant == (("and", ()) if isinstance(body, FAnd) == positive else ("or", ()))
    calls = []
    ground = models._ground

    def counting(*args):
        calls.append(args)
        return ground(*args)

    monkeypatch.setattr(models, "_ground", counting)
    assert models._ground(quantifier(("w",), body), {}, range(3), positive) == constant
    assert len(calls) == 2  # the quantifier and its body, not one body per assignment


def test_sat_finds_a_clash_along_an_and_chain(monkeypatch):
    k, j = ("k", (0,)), ("j", (0,))
    chain = ("and", (("lit", k, False), ("and", (("lit", k, True), ("lit", j, True)))))
    flipped = ("and", (("lit", k, True), ("and", (("lit", j, False), ("lit", k, False)))))
    splits = _count_splits(monkeypatch)
    assert models._sat(chain, {}) is None
    assert models._sat(("or", (chain, flipped)), {}) is None
    assert not splits


def test_canonical_assignments_are_one_per_orbit():
    assert len(list(models._canonical(5, 3))) == 41  # the product has 3**5 = 243
    assert list(models._canonical(5, 1)) == [(0, 0, 0, 0, 0)]
    assert list(models._canonical(0, 3)) == [()]
    assert list(models._canonical(1500, 1)) == [(0,) * 1500]  # wider than the recursion limit
    assert list(models._canonical(3, 3)) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    ]


def test_search_depth_is_not_bounded_by_the_stack():
    # both polarities of every predicate occur, so each pair costs the search one split
    pair = "[ | p%d(x)] or [ | q%d(x)], not [ | p%d(x), q%d(x)]"
    pairs = (pair % (i, i, i, i) for i in range(400))
    box = parse_drs("[x | %s]" % ", ".join(pairs))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        result = model_check(box, None, max_domain=1)
    finally:
        sys.setrecursionlimit(limit)
    assert result == ModelCheckResult("satisfiable", 1)


def test_unit_propagation_finds_clash_among_root_facts():
    box = parse_drs("[x | %s, not [ | f7(x)]]" % FACTS)
    assert model_check(box, None, max_domain=3).status == "refuted"


def _random_ground(rng, keys, depth):
    if depth == 0 or rng.random() < 0.3:
        return ("lit", rng.choice(keys), rng.random() < 0.5)
    items = tuple(_random_ground(rng, keys, depth - 1) for _ in range(rng.randrange(4)))
    return (rng.choice(("and", "or")), items)


def _truth(g, values):
    if g[0] == "lit":
        return values[g[1]] == g[2]
    if g[0] == "and":
        return all(_truth(i, values) for i in g[1])
    return any(_truth(i, values) for i in g[1])


def _plant_clash(rng, g, kind, key):
    """``g`` with one node replaced by a ``kind`` node over it, ``key`` and its complement."""
    if g[0] != "lit" and g[1] and rng.random() < 0.6:
        i = rng.randrange(len(g[1]))
        items = list(g[1])
        items[i] = _plant_clash(rng, items[i], kind, key)
        return (g[0], tuple(items))
    items = [g, ("lit", key, True), ("lit", key, False)]
    rng.shuffle(items)
    return (kind, tuple(items))


def test_sat_agrees_with_truth_tables():
    rng = random.Random(5)
    plant = random.Random(6)
    keys = [("p", (i,)) for i in range(4)]
    for _ in range(2000):
        plain = _random_ground(rng, keys, 4)
        key = plant.choice(keys)
        for g in (
            plain,
            _plant_clash(plant, plain, "and", key),
            _plant_clash(plant, plain, "or", key),
        ):
            satisfiable = any(
                _truth(g, dict(zip(keys, row)))
                for row in itertools.product((True, False), repeat=len(keys))
            )
            found = models._sat(g, {})
            assert (found is not None) == satisfiable
            if found is not None:
                assert models._simplify(g, found) == models._GTRUE


# Walks over the translation, the reference for what ``models._shape`` reads
# off the box: where existentials sit, how many witnesses they bind, and
# (below) the signs each predicate occurs with.


def _exists_under_forall(f, negated, under=False):
    if isinstance(f, FAtom):
        return False
    if isinstance(f, FNot):
        return _exists_under_forall(f.body, not negated, under)
    if isinstance(f, (FAnd, FOr)):
        return any(_exists_under_forall(i, negated, under) for i in f.items)
    if isinstance(f, FExists) != negated:  # existential strength
        if under and f.variables:
            return True
        return _exists_under_forall(f.body, negated, under)
    return _exists_under_forall(f.body, negated, under or bool(f.variables))


def _witness_count(f, negated):
    if isinstance(f, FAtom):
        return 0
    if isinstance(f, FNot):
        return _witness_count(f.body, not negated)
    if isinstance(f, (FAnd, FOr)):
        return sum(_witness_count(i, negated) for i in f.items)
    if isinstance(f, FExists):
        return (0 if negated else len(f.variables)) + _witness_count(f.body, negated)
    return (len(f.variables) if negated else 0) + _witness_count(f.body, negated)


def _predicates(f, acc):
    if isinstance(f, FAtom):
        acc.add((f.pred, len(f.args)))
    elif isinstance(f, FNot):
        _predicates(f.body, acc)
    elif isinstance(f, (FAnd, FOr)):
        for i in f.items:
            _predicates(i, acc)
    else:
        _predicates(f.body, acc)


def _reference_scan(f, negated):
    preds = set()
    _predicates(f, preds)
    return preds, _exists_under_forall(f, negated), _witness_count(f, negated)


def _reference_signs(f, negated, acc):
    if isinstance(f, FAtom):
        key = (f.pred, len(f.args))
        acc[key] = acc.get(key, 0) | (2 if negated else 1)
    elif isinstance(f, FNot):
        _reference_signs(f.body, not negated, acc)
    elif isinstance(f, (FAnd, FOr)):
        for i in f.items:
            _reference_signs(i, negated, acc)
    else:
        _reference_signs(f.body, negated, acc)
    return acc


def _one_scan(premise, conclusion, negated):
    """``models._shape`` over the box whose translation ``_combined_box`` gives."""
    formula = drs_to_fol(models._combined_box(premise, conclusion))
    tail = () if conclusion is None else (Neg(conclusion),)
    box = DRS(tuple(Referent(v) for v in formula.variables), premise.conditions + tail)
    assert drs_to_fol(box) == formula
    signs = {}
    nested, witnesses = models._shape(box, 2 if negated else 1, False, signs)
    return signs, nested, witnesses


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_boxes, st.one_of(st.none(), alpha_free_boxes), st.booleans())
def test_scan_agrees_with_the_three_walks(premise, conclusion, negated):
    formula = drs_to_fol(models._combined_box(premise, conclusion))
    preds, nested, witnesses = _reference_scan(formula, negated)
    signs = _reference_signs(formula, negated, {})
    assert set(signs) == preds
    assert _one_scan(premise, conclusion, negated) == (signs, nested, witnesses)


def test_scan_examples():
    nested = parse_drs("[x | p(x), [m | p(m)] => [w | q(w,m)]]")
    assert _one_scan(nested, None, False) == ({("p", 1): 3, ("q", 2): 1}, True, 2)
    # read negated, x and w are universal and m is the one witness, in their scope
    assert _one_scan(nested, None, True) == ({("p", 1): 3, ("q", 2): 2}, True, 1)
    flat = (parse_drs("[x | p(x)]"), parse_drs("[u | q(u,x)]"))
    assert _one_scan(*flat, False) == ({("p", 1): 1, ("q", 2): 2}, False, 1)
    # a name used with two arities names two predicates
    two = parse_drs("[x | p(x), p(x,x)]")
    assert _one_scan(two, None, False) == ({("p", 1): 1, ("p", 2): 1}, False, 1)


def test_a_name_with_two_arities_names_two_predicates():
    assert model_check(parse_drs("[x | p(x), not [ | p(x,x)]]")).status == "satisfiable"
    assert model_check(parse_drs("[x | p(x)]"), parse_drs("[ | p(x,x)]")).status == "refuted"


# The search before pure predicates were fixed and the outermost existentials
# taken up to symmetry: the whole formula grounded over every assignment.


def _reference_ground(f, env, domain, positive):
    if isinstance(f, FAtom):
        return ("lit", (f.pred, tuple(env[a] for a in f.args)), positive)
    if isinstance(f, FNot):
        return _reference_ground(f.body, env, domain, not positive)
    if isinstance(f, (FAnd, FOr)):
        items = tuple(_reference_ground(i, env, domain, positive) for i in f.items)
        return ("and" if isinstance(f, FAnd) == positive else "or", items)
    items = []
    for values in itertools.product(domain, repeat=len(f.variables)):
        env2 = {**env, **dict(zip(f.variables, values))}
        items.append(_reference_ground(f.body, env2, domain, positive))
    return ("or" if isinstance(f, FExists) == positive else "and", tuple(items))


def reference_model_check(premise, conclusion=None, max_domain=3):
    parts = drs_to_fol(DRS((), premise.conditions)).body.items
    free = {r.name for r in validate(premise).free}
    if conclusion is not None:
        parts += (FNot(drs_to_fol(conclusion)),)
        free |= {r.name for r in validate(conclusion).free} - {r.name for r in premise.universe}
    formula = FExists(
        tuple(sorted(free)) + tuple(r.name for r in premise.universe), FAnd(parts)
    )
    preds, nested, witnesses = _reference_scan(formula, False)
    for size in range(1, max_domain + 1):
        atoms = sum(size**arity for _, arity in preds)
        if atoms > models.ATOM_CEILING:
            raise ResourceLimit(
                "%d ground atoms at domain size %d exceeds ceiling %d"
                % (atoms, size, models.ATOM_CEILING)
            )
        if models._sat(_reference_ground(formula, {}, range(size), True), {}) is not None:
            return ModelCheckResult("refuted" if conclusion is not None else "satisfiable", size)
    if not nested and max_domain >= max(1, witnesses):
        return ModelCheckResult("entailed" if conclusion is not None else "refuted")
    return ModelCheckResult("unknown")


def _outcome(check, premise, conclusion, max_domain):
    try:
        result = check(premise, conclusion, max_domain)
    except ResourceLimit as limit:
        return str(limit)
    return result.status, result.domain_size


def assert_matches_reference(premise, conclusion, max_domains=(1, 2, 3), max_work=None):
    """The same outcome as the reference at every bound in ``max_domains``.

    With ``max_work``, the bounds stop before one at which the reference
    might do more than that: ground the formula under more assignments of
    its outermost block, or split its search into more leaves (2 to the
    number of ground atoms).
    """
    formula = drs_to_fol(models._combined_box(premise, conclusion))
    preds, _, _ = _reference_scan(formula, False)
    for max_domain in max_domains:
        atoms = sum(max_domain**arity for _, arity in preds)
        if max_work is not None and max(max_domain ** len(formula.variables), 2**atoms) > max_work:
            break
        expected = _outcome(reference_model_check, premise, conclusion, max_domain)
        assert _outcome(model_check, premise, conclusion, max_domain) == expected, (
            premise,
            conclusion,
            max_domain,
        )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_boxes, alpha_free_boxes)
def test_model_check_matches_reference_on_generated_boxes(premise, conclusion):
    # most generated names are distinct, so the outermost block can bind 20
    # names and a 3-place predicate gives 27 ground atoms at size 3: the
    # reference would ground 3**20 assignments, or split 2**27 ways where
    # the reduced search splits over 5 least-number assignments
    for question in (None, conclusion):
        assert_matches_reference(premise, question, max_work=2**9)


def _tasks(root, bg):
    """(premise, conclusion) of the informativity and consistency task of every reading."""
    tasks = []
    for path in eligible_alpha_paths(root):
        for reading in candidate_readings(root, path)[0]:
            for task in build_tasks(reading, root, bg):
                tasks.append((task.premise, task.conclusion))
    return tasks


def test_model_check_matches_reference_on_the_corpus():
    rng = random.Random(20260808)
    marriage = BackgroundTheory((parse_drs(MARRIAGE_POSTULATE),))
    tasks = 0
    for i in range(2000):
        root = corpus_drs(rng)
        # under the postulate, the reference takes about 0.1 s to refute all
        # of size 3 for each entailment that holds; size 3 is checked there
        # on the first 100 boxes only
        marriage_domains = (1, 2, 3) if i < 100 else (1, 2)
        for bg, max_domains in ((EMPTY_BACKGROUND, (1, 2, 3)), (marriage, marriage_domains)):
            for premise, conclusion in _tasks(root, bg):
                assert_matches_reference(premise, conclusion, max_domains)
                tasks += 1
    assert tasks > 8000


@pytest.mark.parametrize("m", [0, 40, 320])
def test_model_check_matches_reference_on_family_m(m):
    # hank, the marriage postulate and m extra root facts
    root = parse_drs(family_m(m))
    tasks = _tasks(root, BackgroundTheory((parse_drs(MARRIAGE_POSTULATE),)))
    assert len(tasks) == 10
    for premise, conclusion in tasks:
        assert_matches_reference(premise, conclusion)
