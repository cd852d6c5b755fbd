import itertools
import random

import pytest

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
    # unsatisfiable, so the search cannot stop early at a small domain
    box = parse_drs("[ | p(a), not [ | p(a)], q(a,a)]")
    with pytest.raises(ResourceLimit):
        model_check(box, None, max_domain=3, atom_ceiling=3)


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
