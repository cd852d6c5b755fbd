import random

import pytest

from ctxdrt.lcon import DrsLit, In, extract
from ctxdrt.projection import InferenceTask
from ctxdrt.tableau import (
    CLOSED,
    OPEN_BOUNDED,
    OPEN_SATURATED,
    Bounds,
    Const,
    FreeVar,
    Label,
    LitNode,
    SkolemApp,
    close_branch,
    compare_cost,
    labels_compatible,
    naive_prove,
    prove_lcon,
    unify,
)
from ctxdrt.text import parse_drs, parse_lcon

from gen import corpus_drs


def lit(ctx, acc, pol, pred, *args):
    return LitNode(Label(ctx, frozenset(acc), pol), pred, tuple(args), 0)


A = Const("a")
X = FreeVar(99)


def test_closure_same_context():
    pair = close_branch([lit(1, {0}, "+", "p", A), lit(1, {0}, "-", "p", X)])
    assert pair is not None
    subst, (pos, neg) = pair
    assert subst == {X: A}
    assert pos.label.polarity == "+" and neg.label.polarity == "-"


def test_closure_across_accessible_context():
    pair = close_branch([lit(1, {0}, "+", "p", A), lit(2, {0, 1}, "-", "p", A)])
    assert pair is not None
    assert pair[0] == {}


def test_no_closure_between_mutually_inaccessible_contexts():
    assert close_branch([lit(1, {0}, "+", "p", A), lit(2, {0}, "-", "p", A)]) is None


def test_closure_compatibility_is_symmetric():
    rng = random.Random(4)
    for _ in range(200):
        a = Label(rng.randrange(4), frozenset(rng.sample(range(4, 9), rng.randrange(3))), "+")
        b = Label(rng.randrange(4), frozenset(rng.sample(range(4, 9), rng.randrange(3))), "-")
        assert labels_compatible(a, b) == labels_compatible(b, a)


def test_unify_occurs_check():
    f_of_x = SkolemApp(1, (X,))
    assert unify(X, f_of_x) is None
    assert unify(f_of_x, SkolemApp(1, (A,))) == {X: A}
    assert unify(SkolemApp(1, ()), SkolemApp(2, ())) is None


def test_self_entailment_through_one_context():
    formula = parse_lcon("in([x | man(x)], [y | man(y)])")
    verdict, stats = prove_lcon(formula)
    assert verdict["t1"] == CLOSED
    assert stats.closures >= 1


def test_reference_formula_without_background(hank):
    extraction = extract(hank)
    verdict, _ = prove_lcon(extraction.formula, extraction.tag_positions())
    assert verdict.as_dict() == {
        "t1": OPEN_SATURATED,
        "t2": OPEN_SATURATED,
        "t3": OPEN_SATURATED,
    }


def test_reference_formula_with_background(hank, marriage_bg):
    extraction = extract(hank, marriage_bg)
    verdict, _ = prove_lcon(extraction.formula, extraction.tag_positions())
    assert verdict.as_dict() == {"t1": CLOSED, "t2": CLOSED, "t3": OPEN_SATURATED}


def test_naive_self_entailment_is_cheap():
    task = InferenceTask("informativity", parse_drs("[ | p(a)]"), parse_drs("[ | p(a)]"), "t")
    status, stats = naive_prove(task)
    assert status == CLOSED
    assert stats.rule_applications <= 3


def test_nothing_entails_an_existential():
    task = InferenceTask("informativity", parse_drs("[ | ]"), parse_drs("[x | p(x)]"), "t")
    assert naive_prove(task)[0] == OPEN_SATURATED


def test_empty_conclusion_is_entailed_by_anything():
    task = InferenceTask("informativity", parse_drs("[x | p(x)]"), parse_drs("[ | ]"), "t")
    assert naive_prove(task)[0] == CLOSED


def test_inconsistent_premise_entails_anything():
    task = InferenceTask(
        "informativity",
        parse_drs("[ | p(a), not [ | p(a)]]"),
        parse_drs("[ | weird(a)]"),
        "t",
    )
    assert naive_prove(task)[0] == CLOSED


def test_exhausted_budget_reports_open_bounded(hank, marriage_bg):
    extraction = extract(hank, marriage_bg)
    verdict, _ = prove_lcon(extraction.formula, extraction.tag_positions(), Bounds(gamma_limit=0))
    assert OPEN_BOUNDED in verdict.as_dict().values()


def test_positive_in_rule_branches():
    from ctxdrt.tableau import _Branch, _Engine

    engine = _Engine(Bounds())
    label = Label(0, frozenset(), "+")
    payload = In(parse_drs("[x | p(x)]"), DrsLit(parse_drs("[ | q(x)]")))
    alternatives = engine._step((label, payload, {}), _Branch([], (), []))
    assert len(alternatives) == 2
    (ctx_item,), (body_item,) = alternatives
    assert ctx_item[0].polarity == "-" and body_item[0].polarity == "+"
    assert ctx_item[0].context == body_item[0].context == 1
    assert ctx_item[0].accessible == frozenset({0})


def test_label_edges_grow_sigma_and_fresh_ids(hank, marriage_bg):
    from ctxdrt.tableau import _Engine, _Shared

    extraction = extract(hank, marriage_bg)
    verdict, _ = prove_lcon(extraction.formula, extraction.tag_positions())
    # re-run on an inspectable engine
    engine = _Engine(Bounds())
    shared = _Shared()
    l0 = Label(0, frozenset(), "-")
    j1 = engine.fresh_context()
    l1 = Label(j1, frozenset({0}), "+")
    engine.label_edges.append((l0, l1))
    engine.expand_context(l1, extraction.formula.context, shared)
    j2 = engine.fresh_context()
    l2 = Label(j2, frozenset({0, j1}), "+")
    engine.label_edges.append((l1, l2))
    for parent, child in engine.label_edges:
        assert parent.accessible <= child.accessible
        assert child.context > parent.context


def test_deterministic_statistics(hank, marriage_bg):
    extraction = extract(hank, marriage_bg)
    runs = [prove_lcon(extraction.formula, extraction.tag_positions()) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].as_json() == runs[1][1].as_json()


def test_compare_shares_context_expansions(hank, marriage_bg):
    report = compare_cost(hank, marriage_bg)
    assert report.ratio_of("hank(x)") == 5.0
    assert report.ratio_of("married(x)") == 5.0
    assert report.ratio_of("man(y)") == 4.0
    assert report.shared_stats.context_condition_expansions["hank(x)"] == 1
    assert report.naive_stats.context_condition_expansions["hank(x)"] == 5
    assert report.agreement


def test_compare_ratio_is_one_without_shared_context():
    report = compare_cost(parse_drs("[ | alpha:[u | rain(u)]]"))
    assert report.overall_ratio == 1.0
    assert report.per_condition_ratio == ()


def test_compare_ratios_never_below_one():
    rng = random.Random(53)
    for _ in range(30):
        report = compare_cost(corpus_drs(rng))
        for _, ratio in report.per_condition_ratio:
            assert ratio >= 1.0
        assert report.overall_ratio >= 1.0


def test_naive_rejects_consistency_tasks():
    task = InferenceTask("consistency", parse_drs("[ | p(a)]"), None, "t")
    with pytest.raises(ValueError):
        naive_prove(task)


def test_skolem_ids_unique_per_attempt():
    from ctxdrt.tableau import _Engine

    engine = _Engine(Bounds())
    seen = {engine.fresh_skolem(()).fn for _ in range(50)}
    assert len(seen) == 50


def test_closing_survives_premise_growth():
    # entailment is monotone: anything a premise proves, a larger premise
    # proves too (no nonmonotonic operators in the language)
    rng = random.Random(61)
    grown = 0
    for _ in range(40):
        root = corpus_drs(rng)
        report = compare_cost(root)
        for ref, status in report.naive_verdicts:
            if status != CLOSED:
                continue
            from ctxdrt.projection import build_tasks, candidate_readings, eligible_alpha_paths
            from ctxdrt.drs import merge, validate
            for path in eligible_alpha_paths(root):
                for reading in candidate_readings(root, path)[0]:
                    if reading.ref != ref:
                        continue
                    task, _ = build_tasks(reading, root)
                    extra = parse_drs("[zq | zp(zq)]")
                    bigger = InferenceTask(
                        task.kind, merge(task.premise, extra), task.conclusion, ref
                    )
                    assert naive_prove(bigger)[0] == CLOSED
                    grown += 1
    assert grown > 3


def test_disjunction_of_in_formulas_gets_independent_verdicts():
    formula = parse_lcon("in([x | p(x)], [y | p(y)]) | in([z | q(z,z)], [ | p(z)])")
    verdict, _ = prove_lcon(formula)
    assert verdict.as_dict() == {"t1": CLOSED, "t2": OPEN_SATURATED}


def test_verdict_agreement_shared_vs_naive_on_corpus():
    rng = random.Random(77)
    for _ in range(60):
        root = corpus_drs(rng)
        report = compare_cost(root)
        shared = dict(report.shared_verdicts)
        naive = dict(report.naive_verdicts)
        assert set(shared) == set(naive)
        for ref, status in shared.items():
            if OPEN_BOUNDED in (status, naive[ref]):
                continue
            assert status == naive[ref], (ref, status, naive[ref])
