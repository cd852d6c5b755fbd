import itertools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ctxdrt import drs, projection
from ctxdrt.drs import (
    DRS,
    EMPTY,
    Atom,
    DrsError,
    Neg,
    Referent,
    accessible_referents,
    alpha_condition_paths,
    condition_children,
    context_drs,
    delete_alpha,
    enumerate_sub_drss,
    extend_drs_at,
    merge,
    merge_all,
    presupposed_referents,
    scope_chain,
    substitute_condition,
    validate,
)
from ctxdrt.lcon import extract
from ctxdrt.projection import (
    BackgroundTheory,
    NoAdmissibleReading,
    NotAnAlpha,
    _split_body,
    _task_content,
    accommodate,
    accommodation_sites,
    build_tasks,
    candidate_readings,
    check_reading,
    eligible_alpha_paths,
    project,
    resolve_alpha,
    site_premises,
)
from ctxdrt.tableau import compare_cost, prove_lcon
from ctxdrt.text import parse_drs, print_drs

from conftest import FAMILY_M_40, HANK
from gen import corpus_drs, drs_boxes, nested_alpha_boxes

CORPUS_SEED = 20260808


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
    assert candidate_readings(box, alpha_of(box)) == ([], [])


def test_reading_results_are_pure_and_alpha_free(hank):
    root_free = validate(hank).free
    results = accommodate(hank, candidate_readings(hank, alpha_of(hank))[0])
    assert len(results) == 5
    for result in results:
        report = validate(result)
        assert report.pure
        assert report.free <= root_free
        assert parse_drs(print_drs(result)) == result
        assert eligible_alpha_paths(result) == []


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
            readings = candidate_readings(root, path)[0]
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
    verdicts = {}
    for reading in candidate_readings(hank, alpha_of(hank))[0]:
        verdicts[reading.ref] = check_reading(build_tasks(reading, hank, marriage_bg))
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


def test_background_theory_rejects_anaphoric_postulates():
    # a postulate is world knowledge: it has no context to resolve against
    with pytest.raises(ValueError, match="anaphoric background postulate"):
        BackgroundTheory((parse_drs("[ | alpha:[u | p(u)]]"),))
    with pytest.raises(ValueError, match="anaphoric background postulate"):
        BackgroundTheory((parse_drs("[ | [m | married(m)] => [ | alpha:[w | wife(w)]]]"),))


# -- the scope walks as the chain replaced them, kept as references -----------------


def reference_box_at(path, root):
    """The sub-box a valid path addresses."""
    for idx, sel in path:
        root = dict(condition_children(root.conditions[idx]))[sel]
    return root


def reference_accessible_referents(at, root):
    """The referents visible from a position, by a walk down its path."""
    acc = []

    def add(universe):
        for ref in universe:
            if ref not in acc:
                acc.append(ref)

    cur = root
    via_alpha = False
    for idx, sel in at:
        if not via_alpha:
            add(cur.universe)
        cond = cur.conditions[idx]
        cur = dict(condition_children(cond))[sel]
        if sel == "cons":
            add(cond.antecedent.universe)
        via_alpha = sel == "alpha"
    if not via_alpha:
        add(cur.universe)
    return tuple(acc)


def reference_context_drs(at, root):
    """The context box of a position, by recursion down its path."""
    if not at:
        return EMPTY
    (idx, sel), rest = at[0], at[1:]
    cond = root.conditions[idx]
    siblings = DRS(root.universe, root.conditions[:idx] + root.conditions[idx + 1 :])
    inner = reference_context_drs(rest, dict(condition_children(cond))[sel])
    if sel == "cons":
        inner = merge(cond.antecedent, inner)
    return merge(siblings, inner)


def reference_accommodation_sites(alpha_path):
    """The sites of an alpha: the root, each box on its path, and each
    antecedent passed by way of its consequent."""
    chain = [()]
    prefix = ()
    for idx, sel in alpha_path[:-1]:
        if sel == "cons":
            chain.append(prefix + ((idx, "ante"),))
        prefix = prefix + ((idx, sel),)
        chain.append(prefix)
    if len(chain) == 1:
        return [("global", ())]
    kinds = ["global"] + ["intermediate"] * (len(chain) - 2) + ["local"]
    return list(zip(kinds, chain))


def outcome(function, *args):
    """A call's result, or the type and message of the structural error it raised."""
    try:
        return function(*args)
    except DrsError as exc:
        return type(exc), str(exc)


def assert_scope_walks_match_reference(root):
    for path in enumerate_sub_drss(root):
        assert accessible_referents(path, root) == reference_accessible_referents(path, root)
        got, want = outcome(context_drs, path, root), outcome(reference_context_drs, path, root)
        if isinstance(want, DRS):
            got, want = (got.universe, got.conditions), (want.universe, want.conditions)
        assert got == want
        chain = scope_chain(path, root)
        assert chain[-1].path == path
        assert all(reference_box_at(scope.path, root) is scope.box for scope in chain)
    for path in alpha_condition_paths(root):
        assert accommodation_sites(path, root) == reference_accommodation_sites(path)


def test_scope_chain_matches_reference_walks_on_corpus():
    rng = random.Random(CORPUS_SEED)
    for _ in range(2000):
        assert_scope_walks_match_reference(corpus_drs(rng))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(drs_boxes, nested_alpha_boxes))
# impure: the context merge meets y, then x, a second time, innermost first
@example(parse_drs("[x | [y | ] => [x, y | alpha:[u | q(u)]]]"))
def test_scope_chain_matches_reference_walks_on_generated_boxes(box):
    assert_scope_walks_match_reference(box)


def readings_by_whole_result(root, alpha_path):
    """The free-variable constraint as stated: validate every whole result."""
    body = reference_box_at(alpha_path, root)
    anaphors, core = _split_body(body)
    if not core:
        return [], []
    pool = reference_accessible_referents(alpha_path, root)
    root_free = validate(root).free
    pruned = delete_alpha(root, alpha_path)
    admitted, blocked = [], []
    site_refs: set = set()
    for kind, site_path in reference_accommodation_sites(alpha_path):
        site_refs |= set(reference_box_at(site_path, root).universe)
        for combo in itertools.product(pool, repeat=len(anaphors)):
            theta = dict(zip(anaphors, combo))
            accommodated = DRS(
                body.universe, tuple(substitute_condition(c, theta) for c in core)
            )
            result = extend_drs_at(pruned, site_path, accommodated)
            free = tuple(sorted(validate(result).free - root_free))
            outside = tuple(sorted(set(combo) - site_refs))
            key = (kind, site_path, tuple(zip(anaphors, combo)), print_drs(accommodated))
            if free or outside:
                blocked.append(key + (free, outside))
            else:
                admitted.append(key + (print_drs(result),))
    return admitted, blocked


def assert_readings_match_whole_result_check(root):
    for path in alpha_condition_paths(root):
        admitted, blocked = candidate_readings(root, path)
        got_admitted = [
            (
                r.site_kind,
                r.site_path,
                r.resolution.bindings,
                print_drs(r.accommodated),
                print_drs(result),
            )
            for r, result in zip(admitted, accommodate(root, admitted), strict=True)
        ]
        got_blocked = [
            (
                b.site_kind,
                b.site_path,
                b.resolution.bindings,
                print_drs(b.accommodated),
                b.free,
                b.inaccessible,
            )
            for b in blocked
        ]
        assert (got_admitted, got_blocked) == readings_by_whole_result(root, path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drs_boxes)
def test_site_free_check_matches_whole_result_on_generated_boxes(box):
    assume(validate(box).pure)
    assert_readings_match_whole_result_check(box)


def test_site_free_check_matches_whole_result_on_corpus():
    rng = random.Random(CORPUS_SEED)
    for _ in range(2000):
        assert_readings_match_whole_result_check(corpus_drs(rng))


def test_large_boxes_are_validated_once(monkeypatch, marriage_bg):
    # hank with 300 more root facts: each box of that size should be walked
    # by validate once, however many readings and tasks look at it
    facts = ", ".join("f%d(x)" % i for i in range(300))
    source = HANK.replace("married(x),", "married(x), %s," % facts, 1)
    misses = []
    compute = drs._validation_report

    def counting(box):
        if len(box.conditions) >= 300:
            misses.append(box)
        return compute(box)

    monkeypatch.setattr(drs, "_validation_report", counting)
    project(parse_drs(source), marriage_bg)
    # the input and the premise of each of the 3 sites; a reading's
    # consistency premise carries the report its merge derives
    assert 0 < len(misses) <= 4
    misses.clear()
    extraction = extract(parse_drs(source), marriage_bg)
    prove_lcon(extraction.formula, extraction.tag_positions())
    assert len(misses) <= 1
    misses.clear()
    compare_cost(parse_drs(source), marriage_bg)
    # compare_cost proves only informativity: the input and the premise of
    # each of the 3 sites, and no consistency premise
    assert 0 < len(misses) <= 4


@pytest.mark.parametrize("source", [HANK, FAMILY_M_40], ids=["hank", "family_m_40"])
def test_project_walks_ten_boxes_however_wide_the_context(monkeypatch, marriage_bg, source):
    # the input, the 6 accommodated boxes of the 3 sites and the 3 site
    # contents; the root's premise is its content, and no other premise and
    # no reading's consistency premise is walked, so the root's facts are
    # walked twice: in the input and in the root's content
    walked = []
    premises = []
    compute = drs._validation_report
    build = projection.site_premises

    def counting(box):
        walked.append(box)
        return compute(box)

    def recording(*args):
        out = build(*args)
        premises.extend(out.values())
        return out

    box = parse_drs(source)
    monkeypatch.setattr(drs, "_validation_report", counting)
    monkeypatch.setattr(projection, "site_premises", recording)
    project(box, marriage_bg)
    assert len(walked) == 10
    assert len(premises) == 3
    assert not any(premise is b for premise in premises[1:] for b in walked)
    assert sum(Atom("hank", (Referent("x"),)) in b.conditions for b in walked) == 2


def test_validation_report_is_kept_per_instance():
    # equal boxes (universes are sets) still report duplicates in their own order
    x, y = Referent("x"), Referent("y")
    first = DRS((x, y), (Neg(DRS((x, y), ())),))
    second = DRS((y, x), (Neg(DRS((y, x), ())),))
    assert first == second
    assert validate(first).duplicates == (x, y)
    assert validate(second).duplicates == (y, x)
    assert validate(first).duplicates == (x, y)


def premises_rebuilt_per_site(root, alpha_path, bg):
    """Each site's premise built from the root, as one reading's tasks state it."""
    presupposed = presupposed_referents(root)
    out = []
    for _, site_path in reference_accommodation_sites(alpha_path):
        premise = merge_all(
            [
                bg.merged_for(root),
                _task_content(reference_context_drs(site_path, root), presupposed),
                _task_content(reference_box_at(site_path, root), presupposed),
            ]
        )
        out.append((site_path, premise.universe, premise.conditions))
    return out


def assert_site_premises_match_rebuilt(root, bg):
    for path in alpha_condition_paths(root):
        premises = site_premises(root, path, bg).items()
        got = [(site, p.universe, p.conditions) for site, p in premises]
        assert got == premises_rebuilt_per_site(root, path, bg)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nested_alpha_boxes)
def test_site_premises_match_rebuilt_premises_on_generated_boxes(box):
    assume(validate(box).pure)
    assert_site_premises_match_rebuilt(box, BackgroundTheory())


def test_site_premises_match_rebuilt_premises_on_corpus(marriage_bg):
    rng = random.Random(CORPUS_SEED)
    for _ in range(2000):
        root = corpus_drs(rng)
        assert_site_premises_match_rebuilt(root, BackgroundTheory())
        assert_site_premises_match_rebuilt(root, marriage_bg)


def possessive(t):
    # every man_t likes his wife
    return (
        "[y{0} | man{0}(y{0})] => [ | likes(y{0},u{0}),"
        " alpha:[u{0} | wife(u{0}), of(u{0},v{0}), alpha:[v{0} | ]]]".format(t)
    )


def test_site_premises_match_rebuilt_premises_on_families(marriage_bg):
    rng = random.Random(5)
    texts = []
    for m in (0, 3, 40):  # family M: hank with m more root facts, shuffled
        conds = ["hank(x)", "married(x)"] + ["f%d(x)" % i for i in range(m)]
        rng.shuffle(conds)
        texts.append("[x | %s, %s]" % (", ".join(conds), possessive(0)))
    for k in range(1, 5):  # family K: hank is married, then k possessive sentences
        sentences = ", ".join(possessive(t) for t in range(k))
        texts.append("[x | hank(x), married(x), %s]" % sentences)
    for text in texts:
        root = parse_drs(text)
        # the boxes project meets after accommodating one alpha, too
        boxes = [root]
        for path in eligible_alpha_paths(root):
            boxes += accommodate(root, candidate_readings(root, path)[0])
        for box in boxes:
            assert_site_premises_match_rebuilt(box, marriage_bg)


def test_project_builds_premises_once_per_alpha(monkeypatch, marriage_bg):
    facts = ", ".join("f%d(x)" % i for i in range(300))
    box = parse_drs(HANK.replace("married(x),", "married(x), %s," % facts, 1))
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    merged_for = BackgroundTheory.merged_for
    monkeypatch.setattr(BackgroundTheory, "merged_for", counted("merged_for", merged_for))
    monkeypatch.setattr(
        projection,
        "presupposed_referents",
        counted("presupposed_referents", presupposed_referents),
    )
    outcome = project(box, marriage_bg)
    assert len(outcome.checks) == 5
    assert calls == {"merged_for": 1, "presupposed_referents": 1}


def test_only_project_builds_the_boxes_readings_yield(monkeypatch, hank, marriage_bg):
    calls = Counter()

    def counted(function):
        def wrapper(*args):
            calls[function.__name__] += 1
            return function(*args)

        return wrapper

    for module in (drs, projection):
        monkeypatch.setattr(module, "delete_alpha", counted(delete_alpha))
        monkeypatch.setattr(module, "extend_drs_at", counted(extend_drs_at))
    extraction = extract(hank, marriage_bg)
    prove_lcon(extraction.formula, extraction.tag_positions())
    compare_cost(hank, marriage_bg)
    assert calls == {}
    # the alpha is deleted once, and each of its 5 checked readings is merged once
    project(hank, marriage_bg)
    assert calls == {"delete_alpha": 1, "extend_drs_at": 5}


def test_every_survivor_is_the_result_of_an_admitted_check(hank, marriage_bg):
    outcome = project(hank, marriage_bg)
    admitted = [c.result for c in outcome.checks if c.verdict.admitted]
    assert [s.drs for s in outcome.survivors] == admitted
    for k in range(1, 4):  # family K: a survivor is what its last accommodation yielded
        sentences = ", ".join(possessive(t) for t in range(k))
        outcome = project(parse_drs("[x | hank(x), married(x), %s]" % sentences), marriage_bg)
        admitted = [c.result for c in outcome.checks if c.verdict.admitted]
        assert outcome.survivors
        assert all(any(s.drs is r for r in admitted) for s in outcome.survivors)
