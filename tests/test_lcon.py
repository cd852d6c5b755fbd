import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ctxdrt.drs import merge_all, validate
from ctxdrt.lcon import (
    Conj,
    Disj,
    DrsLit,
    Extraction,
    In,
    auto_tag_positions,
    context_sharing_depth,
    extract,
    formula_at,
)
from ctxdrt.projection import (
    BackgroundTheory,
    ProjectionError,
    build_tasks,
    candidate_readings,
    eligible_alpha_paths,
    project,
    site_premises,
)
from ctxdrt.text import parse_drs, parse_lcon, print_drs, print_lcon

from conftest import CONTENTLESS, HANK, HANK_FORMULA, MARRIAGE_POSTULATE
from gen import corpus_drs, drs_boxes, nested_alpha_boxes


def test_extraction_matches_reference_formula(hank):
    extraction = extract(hank)
    assert print_lcon(extraction.formula) == HANK_FORMULA
    assert parse_lcon(print_lcon(extraction.formula)) == extraction.formula


def test_extraction_tags_map_back_to_readings(hank):
    extraction = extract(hank)
    assert [t.tag for t in extraction.tasks] == ["t1", "t2", "t3"]
    by_tag = extraction.by_tag()
    assert [r.ref for r in by_tag["t1"].readings] == ["global@-;v->x"]
    # the local site adds no context of its own, so its check shares the
    # intermediate level
    assert [r.ref for r in by_tag["t2"].readings] == [
        "intermediate@2.ante;v->x",
        "local@2.cons;v->x",
    ]
    assert [r.ref for r in by_tag["t3"].readings] == [
        "intermediate@2.ante;v->y",
        "local@2.cons;v->y",
    ]
    # two alphas whose readings share site kind, site and bindings: each
    # task must still name the readings of its own alpha
    two_alphas = parse_drs("[x | p(x), alpha:[u | q(u)], alpha:[w | r(w)]]")
    for box in (hank, two_alphas):
        extraction = extract(box)
        for task in extraction.tasks:
            node = formula_at(extraction.formula, task.position)
            assert isinstance(node, DrsLit)
            assert node.drs == task.conclusion
            assert task.readings
            for r in task.readings:
                assert r.accommodated == task.conclusion
    assert [r.alpha_path for t in extraction.tasks for r in t.readings] == [
        ((1, "alpha"),),
        ((2, "alpha"),),
    ]


def test_extraction_blocks_inadmissible_bindings(every_man):
    # no referent is visible at the global site, so no global check is emitted
    extraction = extract(every_man)
    assert isinstance(extraction.formula, In)
    assert print_drs(extraction.formula.context) == "[x | man(x)]"
    assert isinstance(extraction.formula.body, DrsLit)
    (task,) = extraction.tasks
    assert {r.site_kind for r in task.readings} == {"intermediate", "local"}


def test_extraction_without_alphas_reports_no_tasks():
    extraction = extract(parse_drs("[x | man(x), [y | dog(y)] => [ | likes(x,y)]]"))
    assert extraction.formula is None
    assert extraction.tasks == ()


def test_root_level_alpha_with_no_context_is_bare():
    extraction = extract(parse_drs("[ | alpha:[u | rain(u)]]"))
    assert isinstance(extraction.formula, DrsLit)
    assert print_lcon(extraction.formula) == "[u | rain(u)]"


def test_extraction_rejects_nested_contentful_alpha():
    nested = parse_drs("[x | p(x), alpha:[u | q(u,x), alpha:[w | p(w)]]]")
    with pytest.raises(ProjectionError):
        extract(nested)


def test_sharing_statistics_on_reference_formula(hank):
    stats = context_sharing_depth(extract(hank).formula)
    assert stats.in_wrappers == 2
    assert stats.context_conditions == 3  # hank, married, man
    assert stats.duplicated_conditions == 0
    assert context_sharing_depth(None) == type(stats)(0, 0, 0)


def test_naive_restatement_duplicates_context(hank):
    # restating every informativity task separately repeats the shared
    # premise material once per task
    (path,) = eligible_alpha_paths(hank)
    tasks = [build_tasks(r, hank)[0] for r in candidate_readings(hank, path)[0]]
    naive = Conj(tuple(In(t.premise, DrsLit(t.conclusion)) for t in tasks))
    stats = context_sharing_depth(naive)
    assert stats.in_wrappers == 5
    # hank(x) and married(x) occur in all five premises, man(y) in four
    assert stats.duplicated_conditions == 5 + 5 + 4


MARRIAGE_BG = BackgroundTheory((parse_drs(MARRIAGE_POSTULATE),))
FAMILY_K2 = parse_drs(
    "[x | hank(x), married(x),"
    " [y0 | man0(y0)] => [ | likes(y0,u0), alpha:[u0 | wife(u0), of(u0,v0), alpha:[v0 | ]]],"
    " [y1 | man1(y1)] => [ | likes(y1,u1), alpha:[u1 | wife(u1), of(u1,v1), alpha:[v1 | ]]]]"
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(nested_alpha_boxes, drs_boxes), st.booleans())
@example(parse_drs(HANK), False)
@example(parse_drs(HANK), True)
@example(FAMILY_K2, True)
def test_extracted_contexts_accumulate_to_task_premises(root, with_bg):
    # each task sits at its tag's position, and the in-contexts above it
    # merge to the site premise of every reading it decides
    assume(validate(root).pure)
    bg = MARRIAGE_BG if with_bg else BackgroundTheory()
    try:
        extraction = extract(root, bg)
    except ProjectionError as exc:
        assert "nested inside other anaphoric material" in str(exc)
        return
    formula = extraction.formula
    if formula is None:
        assert extraction.tasks == ()
        return
    assert extraction.tag_positions() == auto_tag_positions(formula)
    for task in extraction.tasks:
        assert formula_at(formula, task.position) == DrsLit(task.conclusion)
        above = [formula_at(formula, task.position[:i]) for i in range(len(task.position))]
        accumulated = merge_all([node.context for node in above if isinstance(node, In)])
        for r in task.readings:
            assert accumulated == site_premises(root, r.alpha_path, bg)[r.site_path]


@pytest.mark.parametrize("text", CONTENTLESS)
def test_alpha_with_nothing_to_accommodate_adds_no_task(text):
    root = parse_drs(text)
    assert project(root).survivors  # resolved, never accommodated
    assert extract(root) == Extraction(None, ())
    # beside a contentful alpha, only that alpha's readings are checked
    beside = parse_drs(text[:-1] + ", alpha:[w | q(w)]]")
    contentful = eligible_alpha_paths(beside)[-1]
    extraction = extract(beside)
    assert extraction.tasks
    assert {r.alpha_path for t in extraction.tasks for r in t.readings} == {contentful}


def test_non_redundant_extraction_on_corpus():
    rng = random.Random(17)
    for _ in range(80):
        root = corpus_drs(rng)
        extraction = extract(root)
        assert context_sharing_depth(extraction.formula).duplicated_conditions == 0
        if extraction.formula is not None:
            assert parse_lcon(print_lcon(extraction.formula)) == extraction.formula


def test_extraction_contexts_are_input_material():
    rng = random.Random(29)
    for _ in range(60):
        root = corpus_drs(rng)
        extraction = extract(root)
        if extraction.formula is None:
            continue
        input_conditions = set()

        def collect(box):
            for cond in box.conditions:
                input_conditions.add(cond)
                from ctxdrt.drs import condition_children

                for _, child in condition_children(cond):
                    collect(child)

        collect(root)
        contexts = []

        def walk(f):
            if isinstance(f, In):
                contexts.append(f.context)
                walk(f.body)
            elif isinstance(f, (Conj, Disj)):
                for item in f.items:
                    walk(item)

        walk(extraction.formula)
        for ctx in contexts:
            assert set(ctx.conditions) <= input_conditions


def test_conj_disj_arity_invariants():
    lit = DrsLit(parse_drs("[ | p(a)]"))
    with pytest.raises(ValueError):
        Conj((lit,))
    with pytest.raises(ValueError):
        Disj((lit,))
    with pytest.raises(ValueError):
        In(parse_drs("[ | ]"), lit)


def test_extraction_inputs_must_be_pure():
    from ctxdrt.drs import DRS, Atom, Imp, Referent

    x = Referent("x")
    impure = DRS((x,), (Atom("p", (x,)), Imp(DRS((x,), ()), DRS((), (Atom("q", (x,)),)))))
    assert not validate(impure).pure
    with pytest.raises(ValueError):
        extract(impure)
