import random
from collections import Counter

import pytest

from ctxdrt.drs import Atom, Referent, validate
from ctxdrt.projection import (
    BackgroundTheory,
    NoAdmissibleReading,
    NotAccommodatable,
    NotAnAlpha,
    build_tasks,
    candidate_readings,
    check_reading,
    eligible_alpha_paths,
    project,
    resolve_alpha,
)
from ctxdrt.tableau import default_task_prover
from ctxdrt.text import parse_drs, print_drs

from gen import corpus_drs


def alpha_of(box):
    (path,) = eligible_alpha_paths(box)
    return path


def test_unresolvable_trigger_projects(every_man):
    assert resolve_alpha(alpha_of(every_man), every_man) == []


def test_resolution_found_when_context_supplies_it(every_man_with_wife):
    resolutions = resolve_alpha(alpha_of(every_man_with_wife), every_man_with_wife)
    assert len(resolutions) == 1
    assert resolutions[0].as_dict() == {
        Referent("u"): Referent("y"),
        Referent("v"): Referent("x"),
    }


def test_bare_anaphor_resolves_to_sole_accessible_referent():
    box = parse_drs("[x | man(x), alpha:[v | ]]")
    resolutions = resolve_alpha(alpha_of(box), box)
    assert [r.as_dict() for r in resolutions] == [{Referent("v"): Referent("x")}]


def test_resolve_requires_an_alpha(hank):
    with pytest.raises(NotAnAlpha):
        resolve_alpha(((2, "ante"),), hank)


def test_five_readings_and_blocked_global(hank):
    readings, blocked = candidate_readings(hank, alpha_of(hank))
    assert len(readings) == 5
    kinds = Counter(r.site_kind for r in readings)
    assert kinds == {"global": 1, "intermediate": 2, "local": 2}
    assert [b.site_kind for b in blocked] == ["global"]
    assert blocked[0].resolution.as_dict() == {Referent("v"): Referent("y")}
    assert "free occurrence of y" == blocked[0].reason


def test_global_accommodation_blocked_by_free_variable(every_man):
    readings, blocked = candidate_readings(every_man, alpha_of(every_man))
    assert {r.site_kind for r in readings} == {"intermediate", "local"}
    assert len(blocked) == 1 and blocked[0].site_kind == "global"
    assert blocked[0].free == (Referent("x"),)


def test_contentless_alpha_not_accommodatable():
    box = parse_drs("[x | man(x), alpha:[v | ]]")
    with pytest.raises(NotAccommodatable):
        candidate_readings(box, alpha_of(box))


def test_reading_results_are_pure_and_alpha_free(hank):
    root_free = validate(hank).free
    for reading in candidate_readings(hank, alpha_of(hank))[0]:
        report = validate(reading.result)
        assert report.pure
        assert report.free <= root_free
        assert parse_drs(print_drs(reading.result)) == reading.result
        assert eligible_alpha_paths(reading.result) == []


def test_build_tasks_instantiates_site_rows(hank):
    readings = candidate_readings(hank, alpha_of(hank))[0]
    by_ref = {r.ref: r for r in readings}
    global_reading = by_ref["global@-;v->x"]
    informativity, consistency = build_tasks(global_reading, hank)
    assert print_drs(informativity.premise) == "[x | hank(x), married(x)]"
    assert print_drs(informativity.conclusion) == "[u | wife(u), of(u,x)]"
    assert consistency.conclusion is None
    assert (
        print_drs(consistency.premise) == "[x, u | hank(x), married(x), wife(u), of(u,x)]"
    )

    intermediate = by_ref["intermediate@2.ante;v->x"]
    informativity, _ = build_tasks(intermediate, hank)
    assert print_drs(informativity.premise) == "[x, y | hank(x), married(x), man(y)]"
    assert print_drs(informativity.conclusion) == "[u | wife(u), of(u,x)]"


def test_premises_grow_inward_along_sites():
    rng = random.Random(91)
    for _ in range(50):
        root = corpus_drs(rng)
        for path in eligible_alpha_paths(root):
            try:
                readings = candidate_readings(root, path)[0]
            except NotAccommodatable:
                continue
            by_site: dict = {}
            for reading in readings:
                task, _ = build_tasks(reading, root)
                by_site.setdefault(reading.site_path, Counter(task.premise.conditions))
            ordered = [by_site[r.site_path] for r in readings]
            for earlier, later in zip(ordered, ordered[1:]):
                assert earlier <= later


def test_exactly_five_task_pairs(hank):
    tasks = [build_tasks(r, hank) for r in candidate_readings(hank, alpha_of(hank))[0]]
    assert len(tasks) == 5
    assert all(inf.kind == "informativity" and con.kind == "consistency" for inf, con in tasks)


def test_check_reading_filters_redundant_accommodation(hank, marriage_bg):
    prover = default_task_prover()
    verdicts = {}
    for reading in candidate_readings(hank, alpha_of(hank))[0]:
        verdicts[reading.ref] = check_reading(
            build_tasks(reading, hank, marriage_bg), prover
        )
    binding_x = [ref for ref in verdicts if "v->x" in ref]
    binding_y = [ref for ref in verdicts if "v->y" in ref]
    assert binding_x and binding_y
    assert all(verdicts[r].informative == "fail" for r in binding_x)
    assert all(verdicts[r].informative == "pass" for r in binding_y)
    assert all(v.consistent == "pass" for v in verdicts.values())


def test_project_resolves_without_projection(every_man_with_wife):
    outcome = project(every_man_with_wife)
    assert len(outcome.survivors) == 1
    survivor = outcome.survivors[0]
    assert (
        print_drs(survivor.drs)
        == "[ | [x, y | man(x), wife(y), of(y,x)] => [ | likes(x,y)]]"
    )
    assert [s.action for s in survivor.trail] == ["resolved"]
    assert outcome.checks == ()


def test_project_keeps_two_accommodations(hank, marriage_bg):
    outcome = project(hank, marriage_bg)
    assert len(outcome.survivors) == 2
    sites = [r.trail[0].detail.split("@")[0] for r in outcome.survivors]
    assert sites == ["intermediate", "local"]
    bindings = {r.trail[0].detail.split(";")[1] for r in outcome.survivors}
    assert bindings == {"v->y"}
    assert not outcome.any_unknown


def test_project_without_background_keeps_inner_sites(every_man):
    outcome = project(every_man)
    assert len(outcome.survivors) == 2
    assert {r.trail[0].detail.split("@")[0] for r in outcome.survivors} == {
        "intermediate",
        "local",
    }


def test_project_raises_when_nothing_survives():
    # the accommodated content contradicts its own context at every site
    box = parse_drs("[x | p(x), not [ | q(x)], alpha:[u | q(x), r(u)]]")
    with pytest.raises(NoAdmissibleReading) as err:
        project(box)
    assert all(c.verdict.consistent == "fail" for c in err.value.checks)


def test_project_handles_nested_contentful_alpha():
    nested = parse_drs("[x | p(x), alpha:[u | q(u,x), alpha:[w | p(w)]]]")
    outcome = project(nested)
    assert [print_drs(r.drs) for r in outcome.survivors] == ["[x, u | p(x), q(u,x)]"]
    actions = [s.action for s in outcome.survivors[0].trail]
    assert actions == ["resolved", "accommodated"]


def test_background_theory_renames_apart(hank):
    clashing = BackgroundTheory((parse_drs("[ | [x | married(x)] => [y | wife(y), of(y,x)]]"),))
    merged = clashing.merged_for(hank)
    assert validate(merged).pure
    readings = candidate_readings(hank, alpha_of(hank))[0]
    task, _ = build_tasks(readings[0], hank, clashing)
    assert validate(task.premise).pure


def test_background_theory_rejects_impure_postulates():
    from ctxdrt.drs import DRS, Imp

    x = Referent("x")
    impure = DRS((x,), (Atom("p", (x,)), Imp(DRS((x,), ()), DRS((), (Atom("q", (x,)),)))))
    with pytest.raises(ValueError):
        BackgroundTheory((impure,))
