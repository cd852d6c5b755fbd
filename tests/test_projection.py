import itertools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ctxdrt import drs, lcon, models, projection, tableau
from ctxdrt.drs import (
    DRS,
    EMPTY,
    Atom,
    DrsError,
    Neg,
    OverlappingUniverses,
    Referent,
    accessible_referents,
    alpha_condition_paths,
    chain_context,
    chain_referents,
    condition_children,
    context_drs,
    delete_alpha,
    enumerate_sub_drss,
    extend_drs_at,
    is_simple_anaphor,
    merge,
    merge_all,
    path_str,
    presupposed_referents,
    scope_chain,
    substitute_condition,
    validate,
)
from ctxdrt.lcon import extract
from ctxdrt.projection import (
    BackgroundTheory,
    BlockedReading,
    NoAdmissibleReading,
    NotAnAlpha,
    Reading,
    ReadingVerdict,
    Resolution,
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
    site_contents,
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
def test_project_walks_six_boxes_however_wide_the_context(monkeypatch, marriage_bg, source):
    # the input, the accommodated boxes of the 2 bindings of the inner
    # anaphor (each shared by the readings of the 3 sites) and the 3 site
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
    assert len(walked) == 6
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


# -- one walk per alpha: the views of ``_AlphaWalk`` against the parent walks -------------
#
# The enumerators as they stood before one walk per alpha served them all,
# kept as references: each builds its own scope chain, resolution merges
# the chain into a context box, and every box re-searches for its alphas.


def reference_alpha_chain(alpha_path, root):
    if not alpha_path or alpha_path[-1][1] != "alpha":
        raise NotAnAlpha("path does not end at an alpha body")
    return scope_chain(alpha_path, root)


def reference_sites(chain):
    kinds = ["global"] + ["intermediate"] * (len(chain) - 3) + ["local"]
    return list(zip(kinds, chain[:-1]))


def reference_eligible_alpha_paths(box):
    out = []
    for p in alpha_condition_paths(box):
        if len(p) >= 2 and p[-2][1] == "alpha":
            parent = reference_box_at(p[:-1], box)
            if is_simple_anaphor(parent.conditions[p[-1][0]]):
                continue
        out.append(p)
    return out


def reference_resolve_alpha(alpha_path, root):
    chain = reference_alpha_chain(alpha_path, root)
    body = chain[-1].box
    anaphors, core = _split_body(body)
    ctx_conditions = set(chain_context(chain).conditions)
    pool = chain_referents(chain)
    to_bind = list(body.universe) + anaphors
    out = []
    for combo in itertools.product(pool, repeat=len(to_bind)):
        theta = dict(zip(to_bind, combo))
        if all(substitute_condition(c, theta) in ctx_conditions for c in core):
            out.append(Resolution(tuple(zip(to_bind, combo))))
    return out


def reference_candidate_readings(root, alpha_path):
    chain = reference_alpha_chain(alpha_path, root)
    body = chain[-1].box
    anaphors, core = _split_body(body)
    if not core:
        return [], []
    pool = chain_referents(chain)
    root_free = validate(root).free
    admitted, blocked = [], []
    site_refs = set()
    for kind, (site_path, site_box, _) in reference_sites(chain):
        site_refs |= set(site_box.universe)
        for combo in itertools.product(pool, repeat=len(anaphors)):
            theta = dict(zip(anaphors, combo))
            conditions = tuple([substitute_condition(c, theta) for c in core])
            accommodated = DRS(body.universe, conditions)
            new_free = validate(accommodated).free - site_refs - root_free
            outside = tuple(sorted(set(combo) - site_refs))
            resolution = Resolution(tuple(zip(anaphors, combo)))
            fields = (kind, site_path, alpha_path, resolution, accommodated)
            if new_free or outside:
                blocked.append(BlockedReading(*fields, tuple(sorted(new_free)), outside))
            else:
                admitted.append(Reading(*fields))
    return admitted, blocked


def reference_site_contents(root, alpha_path, bg):
    presupposed = presupposed_referents(root)
    contents = []
    for _, (site_path, site_box, _) in reference_sites(reference_alpha_chain(alpha_path, root)):
        content = _task_content(site_box, presupposed)
        if site_path == ():
            content = merge(bg.merged_for(root), content)
        contents.append((site_path, content))
    return contents


def reference_site_premises(root, alpha_path, bg):
    contents = reference_site_contents(root, alpha_path, bg)
    premises = itertools.accumulate([content for _, content in contents], merge)
    return dict(zip([site_path for site_path, _ in contents], premises))


def in_order(boxes):
    """Boxes as their stored universes and conditions, which equality ignores."""
    return [(b.universe, b.conditions) for b in boxes]


def view_results(root, path, bg, views):
    resolve, readings, contents, premises = views
    readings_out = [
        (group, in_order(r.accommodated for r in group)) for group in readings(root, path)
    ]
    site_contents_out = outcome(contents, root, path, bg)
    if isinstance(site_contents_out, list):
        site_contents_out = [(site, in_order([c])) for site, c in site_contents_out]
    premises_out = outcome(premises, root, path, bg)
    if isinstance(premises_out, dict):
        premises_out = [(site, in_order([p])) for site, p in premises_out.items()]
    return outcome(resolve, path, root), readings_out, site_contents_out, premises_out


REFERENCE_VIEWS = (
    reference_resolve_alpha,
    reference_candidate_readings,
    reference_site_contents,
    reference_site_premises,
)


def shared_walk_views(root, path):
    """The views, all reading one walk of the alpha, as ``project`` calls them."""
    walk = projection._walk_alpha(root, path)
    return (
        lambda p, r: resolve_alpha(p, r, walk),
        lambda r, p: candidate_readings(r, p, walk),
        lambda r, p, bg: site_contents(r, p, bg, walk),
        lambda r, p, bg: site_premises(r, p, bg, walk),
    )


def assert_views_match_reference(root, bg):
    for path in alpha_condition_paths(root):
        want = view_results(root, path, bg, REFERENCE_VIEWS)
        alone = (resolve_alpha, candidate_readings, site_contents, site_premises)
        assert view_results(root, path, bg, alone) == want
        assert view_results(root, path, bg, shared_walk_views(root, path)) == want


def never_called(*args, **kwargs):
    raise AssertionError("a reading was proved or searched under admit_all")


def projected_boxes(root, bg=BackgroundTheory(), admit_all=False):
    """Every box ``project`` takes from its queue on ``root``, in order, with
    the alpha paths ``eligible_alpha_paths`` finds in it; ``admit_all``
    passes every reading check unproved, and fails on any proof or model
    search.  Each box is searched exactly once: the input, then every box
    a resolution or an admitted reading queued."""
    searched, resolved = [], []
    search, resolve = projection.eligible_alpha_paths, projection.apply_resolution

    def recorded_search(box):
        paths = search(box)
        searched.append((box, paths))
        return paths

    def recorded_resolution(*args):
        resolved.append(resolve(*args))
        return resolved[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projection, "eligible_alpha_paths", recorded_search)
        patch.setattr(projection, "apply_resolution", recorded_resolution)
        if admit_all:
            passed = ReadingVerdict("pass", "pass")
            patch.setattr(projection, "_check_readings", lambda rs, *args: [passed] * len(rs))
            patch.setattr(tableau, "naive_prove", never_called)
            patch.setattr(models, "model_check", never_called)
        try:
            checks = project(root, bg).checks
        except NoAdmissibleReading as exc:
            checks = exc.checks
    assert searched[0][0] is root
    queued = resolved + [c.result for c in checks if c.verdict.admitted]
    assert Counter(id(box) for box, _ in searched[1:]) == Counter(map(id, queued))
    return searched


def assert_searched_paths_match_the_reference(root, bg=BackgroundTheory(), admit_all=False):
    searched = projected_boxes(root, bg, admit_all)
    for box, alpha_paths in searched:
        assert alpha_paths == reference_eligible_alpha_paths(box)
    return searched


def family_texts():
    rng = random.Random(5)
    texts = []
    for m in (0, 3, 40):  # family M: hank with m more root facts, shuffled
        conds = ["hank(x)", "married(x)"] + ["f%d(x)" % i for i in range(m)]
        rng.shuffle(conds)
        texts.append("[x | %s, %s]" % (", ".join(conds), possessive(0)))
    for k in range(1, 5):  # family K: hank is married, then k possessive sentences
        sentences = ", ".join(possessive(t) for t in range(k))
        texts.append("[x | hank(x), married(x), %s]" % sentences)
    return texts


# accommodating at the root drops the repeated p(x), so the first alpha moves up
DROPPED_REPEAT = "[x | p(x), p(x), alpha:[y | q(y)], [ | r(x)] => [ | alpha:[z | s(z)]]]"


def test_a_merge_that_drops_a_repeated_condition_keeps_every_alpha():
    box = parse_drs(DROPPED_REPEAT)
    assert_searched_paths_match_the_reference(box)
    outcome_ = project(box)
    survivors = [
        (print_drs(s.drs), [(path_str(t.alpha_path), t.action, t.detail) for t in s.trail])
        for s in outcome_.survivors
    ]
    assert survivors == [
        (
            "[x, z, y | p(x), [ | r(x)] => [ | ], s(z), q(y)]",
            [
                ("3.cons/0.alpha", "accommodated", "global@-;none"),
                ("1.alpha", "accommodated", "global@-;none"),
            ],
        ),
        (
            "[x, y | p(x), [z | r(x), s(z)] => [ | ], q(y)]",
            [
                ("3.cons/0.alpha", "accommodated", "intermediate@3.ante;none"),
                ("2.alpha", "accommodated", "global@-;none"),
            ],
        ),
        (
            "[x, y | p(x), [ | r(x)] => [z | s(z)], q(y)]",
            [
                ("3.cons/0.alpha", "accommodated", "local@3.cons;none"),
                ("2.alpha", "accommodated", "global@-;none"),
            ],
        ),
    ]
    assert len(outcome_.checks) == 6


def test_searched_paths_and_views_match_the_references_on_corpus_and_families(marriage_bg):
    rng = random.Random(CORPUS_SEED)
    queued = []
    for _ in range(500):  # the acceptance corpus
        queued += assert_searched_paths_match_the_reference(corpus_drs(rng))
    for box, _ in queued:
        assert_views_match_reference(box, BackgroundTheory())
    for text in family_texts():
        for box, _ in assert_searched_paths_match_the_reference(parse_drs(text), marriage_bg):
            assert_views_match_reference(box, marriage_bg)
    assert len(queued) > 1000


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(drs_boxes, nested_alpha_boxes))
# an alpha body emptied down to one referent rides along with its host
@example(parse_drs("[ | alpha:[u | p(u), alpha:[v | alpha:[w | q(w)]]]]"))
@example(parse_drs("[x | alpha:[u | alpha:[v | q(v), q(v)], alpha:[w | q(w)], q(x)]]"))
# accommodating at the root drops the second of two equal negations, and its alpha
@example(
    parse_drs(
        "[x | [ | p(x)] => [ | alpha:[y | r(y)]],"
        " not [ | alpha:[ | q(x)]], not [ | alpha:[ | q(x)]]]"
    )
)
def test_searched_paths_and_views_match_the_references_on_generated_boxes(box):
    assert_views_match_reference(box, BackgroundTheory())
    assume(validate(box).pure)
    for queued, _ in assert_searched_paths_match_the_reference(box, admit_all=True):
        assert_views_match_reference(queued, BackgroundTheory())


def test_resolution_reads_the_context_without_merging_it_yet_raises_as_the_merge_did():
    # the consequent introduces x again: merging the chain into a context box fails
    box = parse_drs("[x | p(x), [ | q(x)] => [x | alpha:[y | r(y)]]]")
    (path,) = eligible_alpha_paths(box)
    for resolve in (resolve_alpha, reference_resolve_alpha):
        with pytest.raises(OverlappingUniverses, match="referent 'x' is introduced by both"):
            resolve(path, box)


def test_a_walk_serves_only_its_own_alpha(hank):
    (path,) = eligible_alpha_paths(hank)
    walk = projection._walk_alpha(hank, path)
    other = parse_drs(HANK)
    with pytest.raises(ValueError, match="another alpha"):
        candidate_readings(other, path, walk)
    with pytest.raises(ValueError, match="another alpha"):
        resolve_alpha(path[:-1] + ((0, "alpha"),), hank, walk)


WALKS = (
    (projection, "scope_chain"),
    (drs, "enumerate_sub_drss"),
    (projection, "eligible_alpha_paths"),
    (lcon, "eligible_alpha_paths"),
    (projection, "resolve_alpha"),
)


def count_calls(run, targets=WALKS):
    """Calls of the ``targets`` while ``run`` runs, by where they are made;
    by default the chain and box walks."""
    calls = Counter()

    def counted(module, name):
        function = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls["%s.%s" % (module.__name__.rsplit(".", 1)[-1], name)] += 1
            return function(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for module, name in targets:
            patch.setattr(module, name, counted(module, name))
        run()
    return dict(calls)


FAMILY_K_3 = "[x | hank(x), married(x), %s]" % ", ".join(possessive(t) for t in range(3))


@pytest.mark.parametrize(
    "source, processed, searched, alphas",
    [(HANK, 1, 3, 1), (FAMILY_K_3, 7, 15, 3)],
    ids=["hank", "family_k_3"],
)
def test_one_chain_per_alpha_and_one_search_for_alphas(
    marriage_bg, source, processed, searched, alphas
):
    # project builds one alpha chain per (box, alpha) it processes, one
    # resolve_alpha call each, and searches each box it queues for alphas
    # once: the processed boxes and the alpha-free survivors
    box = parse_drs(source)
    calls = count_calls(lambda: project(box, marriage_bg))
    assert calls == {
        "projection.scope_chain": processed,
        "projection.eligible_alpha_paths": searched,
        "projection.resolve_alpha": processed,
    }
    # extract builds one chain per alpha
    calls = count_calls(lambda: extract(box, marriage_bg))
    assert calls == {"projection.scope_chain": alphas, "lcon.eligible_alpha_paths": 1}


# -- one model search per binding ---------------------------------------------------------


def checks_with_their_boxes(root, bg):
    """``project``'s checks on ``root``, each with the box its reading was read off."""
    boxes = {}
    enumerate_readings = projection.candidate_readings

    def recorded(box, alpha_path, walk=None):
        admitted, blocked = enumerate_readings(box, alpha_path, walk)
        boxes.update((id(reading), box) for reading in admitted)
        return admitted, blocked

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projection, "candidate_readings", recorded)
        try:
            checks = project(root, bg).checks
        except NoAdmissibleReading as exc:
            checks = exc.checks
    return [(check, boxes[id(check.reading)]) for check in checks]


def assert_verdicts_match_the_per_reading_search(root, bg=BackgroundTheory()):
    """Every check's verdict is ``check_reading``'s on its reading's own tasks."""
    for check, box in checks_with_their_boxes(root, bg):
        per_reading = check_reading(build_tasks(check.reading, box, bg))
        assert check.verdict == per_reading, check.reading.ref


# The consequent denies the empty box, so only the local reading is
# inconsistent; the antecedent's path is as long as the consequent's.
LOCAL_REFUTED = "[ | [ | ] => [ | alpha:[a | s(a,a)], not [ | ]]]"


def test_one_search_per_binding_decides_as_the_per_reading_search(marriage_bg):
    rng = random.Random(CORPUS_SEED)
    for _ in range(500):  # the acceptance corpus
        assert_verdicts_match_the_per_reading_search(corpus_drs(rng))
    for text in family_texts():
        assert_verdicts_match_the_per_reading_search(parse_drs(text), marriage_bg)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nested_alpha_boxes)
@example(parse_drs(LOCAL_REFUTED))
def test_one_search_per_binding_decides_as_the_per_reading_search_on_generated_boxes(box):
    assume(validate(box).pure)
    assert_verdicts_match_the_per_reading_search(box)


PROOFS = ((models, "model_check"), (tableau, "naive_prove"))


def test_a_refuted_inner_site_leaves_each_outer_site_to_its_own_search():
    box = parse_drs(LOCAL_REFUTED)
    outcomes = []
    calls = count_calls(lambda: outcomes.append(project(box)), PROOFS)
    checks = [(c.reading.site_kind, c.verdict.consistent) for c in outcomes[0].checks]
    assert checks == [("global", "pass"), ("intermediate", "pass"), ("local", "fail")]
    # local refuted, then intermediate satisfiable, which decides global too
    assert calls == {"models.model_check": 2, "tableau.naive_prove": 3}


FAMILY_K_4 = "[x | hank(x), married(x), %s]" % ", ".join(possessive(t) for t in range(4))


@pytest.mark.parametrize(
    "source, searches, proofs", [(HANK, 2, 5), (FAMILY_K_4, 30, 75)], ids=["hank", "family_k_4"]
)
def test_one_model_search_per_binding_and_one_proof_per_reading(
    marriage_bg, source, searches, proofs
):
    box = parse_drs(source)
    calls = count_calls(lambda: project(box, marriage_bg), PROOFS)
    assert calls == {"models.model_check": searches, "tableau.naive_prove": proofs}
