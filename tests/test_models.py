import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctxdrt import models
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
from ctxdrt.text import parse_drs

from gen import alpha_free_boxes


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


FACTS = ", ".join("f%d(x)" % i for i in range(300))


def test_unit_propagation_assigns_root_facts_at_once(monkeypatch):
    box = parse_drs(
        "[x | hank(x), married(x), %s, [m | married(m)] => [w | wife(w), of(w,m)]]" % FACTS
    )
    calls = []
    search = models._sat

    def counting(g, assignment):
        calls.append(1)
        return search(g, assignment)

    monkeypatch.setattr(models, "_sat", counting)
    assert model_check(box, None, max_domain=3) == ModelCheckResult("satisfiable", 1)
    assert len(calls) <= 3  # one nested call per root fact without propagation


def test_complementary_children_decide_their_node(monkeypatch):
    # every one of the 3^5 disjuncts at domain size 3 holds r(f) and not r(f)
    box = parse_drs("[a,b,e,f,c | q(a,b), p(a), not [ | r(f)], r(c), r(f)]")
    calls = []
    search = models._sat

    def counting(g, assignment):
        calls.append(1)
        return search(g, assignment)

    monkeypatch.setattr(models, "_sat", counting)
    assert model_check(box, None, max_domain=3).status == "unknown"
    assert len(calls) <= 3  # one per domain size; splitting through the clashes took 1,217


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


# The three walks ``models._scan`` replaced, kept as its reference.


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


def _one_scan(f, negated):
    preds = set()
    nested, witnesses = models._scan(f, preds, negated, False)
    return preds, nested, witnesses


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(alpha_free_boxes, st.one_of(st.none(), alpha_free_boxes), st.booleans())
def test_scan_agrees_with_the_three_walks(premise, conclusion, negated):
    formula = models._combined_formula(premise, conclusion)
    assert _one_scan(formula, negated) == _reference_scan(formula, negated)


def test_scan_examples():
    nested = models._combined_formula(parse_drs("[x | p(x), [m | p(m)] => [w | q(w,m)]]"), None)
    assert _one_scan(nested, False) == ({("p", 1), ("q", 2)}, True, 2)
    flat = models._combined_formula(parse_drs("[x | p(x)]"), parse_drs("[u | q(u,x)]"))
    assert _one_scan(flat, False) == ({("p", 1), ("q", 2)}, False, 1)
    # a name used with two arities names two predicates
    two = models._combined_formula(parse_drs("[x | p(x), p(x,x)]"), None)
    assert _one_scan(two, False) == ({("p", 1), ("p", 2)}, False, 1)


def test_a_name_with_two_arities_names_two_predicates():
    assert model_check(parse_drs("[x | p(x), not [ | p(x,x)]]")).status == "satisfiable"
    assert model_check(parse_drs("[x | p(x)]"), parse_drs("[ | p(x,x)]")).status == "refuted"
