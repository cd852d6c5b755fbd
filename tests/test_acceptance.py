"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random

from hypothesis import HealthCheck, given, settings

from ctxdrt.cli import RunConfig, run
from ctxdrt.lcon import context_sharing_depth, extract
from ctxdrt.models import ResourceLimit, model_check
from ctxdrt.projection import (
    NotAccommodatable,
    build_tasks,
    candidate_readings,
    eligible_alpha_paths,
    project,
    resolve_alpha,
)
from ctxdrt.tableau import (
    CLOSED,
    OPEN_BOUNDED,
    OPEN_SATURATED,
    Const,
    FreeVar,
    Label,
    LitNode,
    close_branch,
    naive_prove,
    prove_lcon,
)
from ctxdrt.text import parse_drs, parse_lcon, print_drs, print_lcon

from conftest import HANK, HANK_FORMULA, MARRIAGE_POSTULATE
from gen import corpus_drs, drs_boxes, lcon_formulas

CORPUS_SEED = 20260808
CORPUS_SIZE = 500


def _corpus():
    rng = random.Random(CORPUS_SEED)
    return [corpus_drs(rng) for _ in range(CORPUS_SIZE)]


def test_criterion_1_unresolvable_trigger_and_blocked_global(every_man):
    (path,) = eligible_alpha_paths(every_man)
    assert resolve_alpha(path, every_man) == []
    readings, blocked = candidate_readings(every_man, path)
    assert all(r.site_kind != "global" for r in readings)
    assert len(blocked) == 1
    assert blocked[0].site_kind == "global"
    assert blocked[0].free == (parse_drs("[x | ]").universe[0],)
    print("criterion 1 (unresolvable trigger, blocked global site): PASS")


def test_criterion_2_unique_resolution_no_projection(every_man_with_wife):
    (path,) = eligible_alpha_paths(every_man_with_wife)
    assert len(resolve_alpha(path, every_man_with_wife)) == 1
    outcome = project(every_man_with_wife)
    assert len(outcome.survivors) == 1
    survivor = outcome.survivors[0]
    assert [s.action for s in survivor.trail] == ["resolved"]
    assert eligible_alpha_paths(survivor.drs) == []
    print("criterion 2 (unique resolution, presupposition does not project): PASS")


def test_criterion_3_five_readings_two_survivors(hank, marriage_bg):
    (path,) = eligible_alpha_paths(hank)
    readings, blocked = candidate_readings(hank, path)
    assert len(readings) == 5
    assert [(b.site_kind, b.resolution.describe()) for b in blocked] == [("global", "v->y")]
    outcome = project(hank, marriage_bg)
    assert len(outcome.survivors) == 2
    details = [r.trail[0].detail for r in outcome.survivors]
    assert [d.split("@")[0] for d in details] == ["intermediate", "local"]
    assert len({d.split(";")[1] for d in details}) == 1
    print("criterion 3 (five readings, two survivors sharing one binding): PASS")


def test_criterion_4_extraction_prints_reference_formula(hank):
    assert print_lcon(extract(hank).formula) == HANK_FORMULA
    print("criterion 4 (extraction prints the reference context formula): PASS")


def test_criterion_5_fivefold_context_expansion_ratio(hank, marriage_bg):
    from ctxdrt.tableau import compare_cost

    report = compare_cost(hank, marriage_bg)
    shared = report.shared_stats.context_condition_expansions
    naive = report.naive_stats.context_condition_expansions
    for condition in ("hank(x)", "married(x)"):
        assert shared[condition] == 1
        assert naive[condition] == 5
        assert report.ratio_of(condition) == 5.0
    print("criterion 5 (5.0x context expansion ratio on the global conditions): PASS")


def test_criterion_6_branch_closure_unit_suite():
    a, x = Const("a"), FreeVar(1)

    def lit(ctx, acc, pol, *args):
        return LitNode(Label(ctx, frozenset(acc), pol), "p", tuple(args), 0)

    same = close_branch([lit(1, {0}, "+", a), lit(1, {0}, "-", x)])
    assert same is not None and same[0] == {x: a}
    accessible = close_branch([lit(1, {0}, "+", a), lit(2, {0, 1}, "-", a)])
    assert accessible is not None
    assert close_branch([lit(1, {0}, "+", a), lit(2, {0}, "-", a)]) is None
    print("criterion 6 (closure unit suite: same, accessible, incompatible): PASS")


def test_criterion_7_oracle_equivalence_on_corpus():
    tasks = 0
    bounded = 0
    decided = 0
    for root in _corpus():
        extraction = extract(root)
        shared = {}
        if extraction.formula is not None:
            verdict, _ = prove_lcon(extraction.formula, extraction.tag_positions())
            by_tag = verdict.as_dict()
            for tagged in extraction.tasks:
                for reading in tagged.readings:
                    shared[reading.ref] = by_tag[tagged.tag]
        for path in eligible_alpha_paths(root):
            try:
                readings = candidate_readings(root, path)[0]
            except NotAccommodatable:
                continue
            for reading in readings:
                informativity, _ = build_tasks(reading, root)
                naive_status, _ = naive_prove(informativity)
                tasks += 1
                statuses = [naive_status]
                if reading.ref in shared:
                    statuses.append(shared[reading.ref])
                    both = {naive_status, shared[reading.ref]}
                    if both <= {CLOSED, OPEN_SATURATED}:
                        assert naive_status == shared[reading.ref], reading.ref
                if OPEN_BOUNDED in statuses:
                    bounded += 1
                try:
                    oracle = model_check(
                        informativity.premise, informativity.conclusion, max_domain=3
                    )
                except ResourceLimit:
                    continue
                if oracle.status not in ("entailed", "refuted"):
                    continue
                decided += 1
                for status in statuses:
                    if status == OPEN_BOUNDED:
                        continue
                    expected = CLOSED if oracle.status == "entailed" else OPEN_SATURATED
                    assert status == expected, (reading.ref, oracle.status, status)
    assert tasks >= 500
    assert bounded <= 0.05 * tasks
    assert decided > tasks // 2
    print(
        "criterion 7 (oracle equivalence: %d tasks, %d oracle-decided, %d bounded): PASS"
        % (tasks, decided, bounded)
    )


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drs_boxes)
def test_criterion_8a_box_roundtrip(box):
    rendered = print_drs(box)
    back = parse_drs(rendered)
    assert back == box
    assert back.universe == box.universe and back.conditions == box.conditions


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lcon_formulas)
def test_criterion_8b_formula_roundtrip(formula):
    assert parse_lcon(print_lcon(formula)) == formula


def test_criterion_8_report():
    print("criterion 8 (parse/print round trip, 500 boxes + 500 formulas): PASS")


def test_criterion_9_extraction_never_duplicates_context():
    for root in _corpus():
        stats = context_sharing_depth(extract(root).formula)
        assert stats.duplicated_conditions == 0, print_drs(root)
    print("criterion 9 (zero duplicated context conditions on %d boxes): PASS" % CORPUS_SIZE)


def test_criterion_10_compare_is_deterministic(tmp_path):
    drs_path = tmp_path / "hank.drs"
    drs_path.write_text(HANK, encoding="utf-8")
    bg_path = tmp_path / "marriage.bg"
    bg_path.write_text(MARRIAGE_POSTULATE, encoding="utf-8")
    config = RunConfig(
        "compare", (str(drs_path),), background=str(bg_path), json_output=True
    )
    first = run(config)
    second = run(config)
    assert first[0] == second[0] == 0
    assert first[1].encode("utf-8") == second[1].encode("utf-8")
    json.loads(first[1])  # well-formed
    print("criterion 10 (byte-identical compare output across runs): PASS")
