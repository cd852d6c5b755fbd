import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ctxdrt.drs import ALPHA_BODY, DRS, EMPTY, Alpha, Atom, Imp, Referent, merge_all, validate
from ctxdrt.lcon import (
    Conj,
    Disj,
    DrsLit,
    Extraction,
    In,
    TaggedTask,
    auto_tag_positions,
    conj,
    context_sharing_depth,
    extract,
    formula_at,
)
from ctxdrt.projection import (
    EMPTY_BACKGROUND,
    BackgroundTheory,
    ProjectionError,
    build_tasks,
    candidate_readings,
    eligible_alpha_paths,
    project,
    require_pure,
    site_contents,
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


# -- a reference for ``extract``: the same formula assembled in two passes -----
#
# It builds a layer for every site, then splices each level that adds
# nothing into its parent (folding its checks again) and threads positions
# through the formula by hand.


class _RefCheck:
    def __init__(self, readings):
        self.disjuncts = tuple([r.accommodated for r in readings])
        self.readings = [[r] for r in readings]


def _ref_add_check(parts, check, fold=True):
    for existing in parts:
        if fold and isinstance(existing, _RefCheck) and existing.disjuncts == check.disjuncts:
            for mine, theirs in zip(existing.readings, check.readings):
                mine.extend(r for r in theirs if r not in mine)
            return
    parts.append(check)


class _RefLayer:
    def __init__(self, site_path, delta):
        self.site_path = site_path
        self.delta = delta
        self.checks = []
        self.children = []

    def child(self, site_path, delta):
        for existing in self.children:
            if existing.site_path == site_path:
                return existing
        layer = _RefLayer(site_path, delta)
        self.children.append(layer)
        return layer


def _ref_emit(layer, fold_empty=True):
    parts = list(layer.checks)
    for child in layer.children:
        inner = _ref_emit(child, fold_empty)
        if not inner:
            continue
        if not child.delta.is_empty():
            parts.append((child.delta, inner))
            continue
        for part in inner:
            if isinstance(part, _RefCheck):
                _ref_add_check(parts, part, fold_empty)
            else:
                parts.append(part)
    return parts


def _ref_realize(parts, position):
    items, found = [], []
    for i, part in enumerate(parts):
        at = position + (i,) if len(parts) > 1 else position
        if isinstance(part, _RefCheck):
            many = len(part.disjuncts) > 1
            for j, (drs, readings) in enumerate(zip(part.disjuncts, part.readings)):
                found.append((at + (j,) if many else at, drs, tuple(readings)))
            lits = tuple([DrsLit(d) for d in part.disjuncts])
            items.append(Disj(lits) if many else lits[0])
        else:
            delta, inner = part
            body, inner_found = _ref_realize(inner, at + (0,))
            items.append(In(delta, body))
            found.extend(inner_found)
    return conj(items), found


def reference_extract(root, bg=EMPTY_BACKGROUND, fold_empty=True):
    """``extract`` as two passes; ``fold_empty=False`` appends the check of a
    level that adds nothing instead of folding it into an equal one."""
    require_pure(root, "input")
    paths = eligible_alpha_paths(root)
    for path in paths:
        if any(sel == ALPHA_BODY for _, sel in path[:-1]):
            raise ProjectionError("nested inside other anaphoric material")
    top = _RefLayer((), EMPTY)
    for alpha_path in paths:
        readings = candidate_readings(root, alpha_path)[0]
        layer = top
        for site_path, content in site_contents(root, alpha_path, bg):
            layer = layer.child(site_path, content)
            at_site = [r for r in readings if r.site_path == site_path]
            if at_site:
                _ref_add_check(layer.checks, _RefCheck(at_site))
    formula, found = _ref_realize(_ref_emit(top, fold_empty), ())
    return Extraction(
        formula, tuple([TaggedTask("t%d" % n, *f) for n, f in enumerate(found, 1)])
    )


def _observed(extraction):
    """An extraction as text: formula, and per task its tag, position,
    conclusion, reading refs and alpha paths."""
    formula = None if extraction.formula is None else print_lcon(extraction.formula)
    return formula, [
        (
            t.tag,
            t.position,
            print_drs(t.conclusion),
            [r.ref for r in t.readings],
            [r.alpha_path for r in t.readings],
        )
        for t in extraction.tasks
    ]


def _observed_or_error(extract_fn, root, bg):
    try:
        return _observed(extract_fn(root, bg))
    except ProjectionError:
        return "ProjectionError"


def assert_matches_reference(root, bg=EMPTY_BACKGROUND):
    assert _observed_or_error(extract, root, bg) == _observed_or_error(
        reference_extract, root, bg
    )


# an empty antecedent level beside the corpus alpha, and a second alpha at the root
_BESIDE_EMPTY = Imp(EMPTY, DRS((), (Alpha(DRS((Referent("z"),), (Atom("r", (Referent("z"),)),))),)))
_ROOT_ALPHA = Alpha(DRS((Referent("y"),), (Atom("s", (Referent("y"), Referent("y"))),)))

# Two alphas whose checks are equal and share an empty level: a task lists
# the readings of a site before those of the empty sites folded into it.
SHARED_ACROSS_EMPTY = (
    "[x | p(x), [ | ] => [ | alpha:[ | q(v), alpha:[v | ]], alpha:[ | q(w), alpha:[w | ]]]]",
    "[x | p(x), [y | m(y)] => [ | alpha:[ | q(v), alpha:[v | ]], alpha:[ | q(w), alpha:[w | ]]]]",
    "[x | p(x), [ | ] => [ | s(x), alpha:[ | q(x)], alpha:[ | q(x)]]]",
    "[x | p(x), [ | ] => [ | [ | ] => [ | alpha:[ | q(x)]], alpha:[ | q(x)]]]",
)


def _with_empty_level(root, rng):
    conditions = list(root.conditions)
    for extra in (_BESIDE_EMPTY, _ROOT_ALPHA):
        conditions.insert(rng.randrange(len(conditions) + 1), extra)
    return DRS(root.universe, tuple(conditions))


@pytest.mark.parametrize("text", [HANK, *SHARED_ACROSS_EMPTY])
def test_extract_matches_reference_on_fixed_boxes(text):
    for bg in (EMPTY_BACKGROUND, MARRIAGE_BG):
        assert_matches_reference(parse_drs(text), bg)


def test_extract_matches_reference_on_corpus():
    rng = random.Random(41)
    for i in range(2000):
        assert_matches_reference(corpus_drs(rng), MARRIAGE_BG if i % 2 else EMPTY_BACKGROUND)


def _as_written(box):
    return box.universe, box.conditions


def assert_empty_sites_admit_what_the_site_before_admits(root, bg):
    # why ``extract`` may fold an empty site's check into the previous
    # site's: the site adds no referent, so the free-variable constraint
    # admits the same bindings, giving the same accommodated boxes
    for alpha_path in eligible_alpha_paths(root):
        readings = candidate_readings(root, alpha_path)[0]
        contents = site_contents(root, alpha_path, bg)
        for (before, _), (site, content) in zip(contents, contents[1:]):
            if content.is_empty():
                admitted = [_as_written(r.accommodated) for r in readings if r.site_path == site]
                assert admitted == [
                    _as_written(r.accommodated) for r in readings if r.site_path == before
                ]


def test_extract_matches_reference_with_an_empty_level_beside_another_alpha():
    rng = random.Random(43)
    for i in range(400):
        root = _with_empty_level(corpus_drs(rng), rng)
        assert validate(root).pure
        bg = MARRIAGE_BG if i % 2 else EMPTY_BACKGROUND
        assert_matches_reference(root, bg)
        assert_empty_sites_admit_what_the_site_before_admits(root, bg)
        # every input reaches the fold: appending the empty level's check differs
        unfolded = reference_extract(root, bg, fold_empty=False)
        assert _observed(unfolded) != _observed(extract(root, bg))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(nested_alpha_boxes, drs_boxes), st.booleans())
def test_extract_matches_reference_on_generated_boxes(root, with_bg):
    assume(validate(root).pure)
    assert_matches_reference(root, MARRIAGE_BG if with_bg else EMPTY_BACKGROUND)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(nested_alpha_boxes, drs_boxes), st.booleans())
@example(parse_drs(HANK), True)
@example(parse_drs(SHARED_ACROSS_EMPTY[3]), False)
def test_empty_site_admits_what_the_site_before_it_admits(root, with_bg):
    assume(validate(root).pure)
    assert_empty_sites_admit_what_the_site_before_admits(
        root, MARRIAGE_BG if with_bg else EMPTY_BACKGROUND
    )
