import pytest

from ctxdrt.models import (
    AlphaRemaining,
    FAnd,
    FAtom,
    FExists,
    FForall,
    FNot,
    FOr,
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
