"""The public calls leave no cyclic garbage behind.

An object in a reference cycle outlives its call until a garbage
collection finds it, and its allocation counts toward the next one; a
self-recursive nested function is enough to make such a cycle (the
function and its closure cell refer to each other).  Each call below runs
with the collector off, and ``gc.collect()`` afterwards must find nothing.
"""

import gc
import os

import pytest

from ctxdrt import cli, drs, lcon, models, projection, tableau, text

from conftest import FAMILY_M_40, HANK, MARRIAGE_POSTULATE

CASES = os.path.join(os.path.dirname(__file__), os.pardir, "cases")


def _calls(source: str) -> dict:
    bg = projection.BackgroundTheory((text.parse_drs(MARRIAGE_POSTULATE),))
    box = text.parse_drs(source)
    (path,) = projection.eligible_alpha_paths(box)
    extraction = lcon.extract(box, bg)
    readings = projection.candidate_readings(box, path)[0]
    informativity, _ = projection.build_tasks(readings[0], box, bg)
    return {
        "parse_drs": lambda: text.parse_drs(source),
        "validate": lambda: drs.validate(text.parse_drs(source)),
        "print_drs": lambda: text.print_drs(box),
        "scope_chain": lambda: drs.scope_chain(path, box),
        "accessible_referents": lambda: drs.accessible_referents(path, box),
        "context_drs": lambda: drs.context_drs(path, box),
        "enumerate_sub_drss": lambda: drs.enumerate_sub_drss(box),
        "presupposed_referents": lambda: drs.presupposed_referents(box),
        "resolve_alpha": lambda: projection.resolve_alpha(path, box),
        "accommodation_sites": lambda: projection.accommodation_sites(path, box),
        "candidate_readings": lambda: projection.candidate_readings(box, path),
        "accommodate": lambda: projection.accommodate(box, readings),
        "site_premises": lambda: projection.site_premises(box, path, bg),
        "project": lambda: projection.project(box, bg),
        "extract": lambda: lcon.extract(box, bg),
        "context_sharing_depth": lambda: lcon.context_sharing_depth(extraction.formula),
        "prove_lcon": lambda: tableau.prove_lcon(
            extraction.formula, extraction.tag_positions()
        ),
        "naive_prove": lambda: tableau.naive_prove(informativity),
        "model_check": lambda: models.model_check(drs.delete_alpha(box, path)),
        "model_check_entailment": lambda: models.model_check(
            informativity.premise, informativity.conclusion
        ),
        "compare_cost": lambda: tableau.compare_cost(box, bg),
    }


CALLS = sorted(_calls(HANK))


@pytest.mark.parametrize("source", [HANK, FAMILY_M_40], ids=["hank", "family_m_40"])
@pytest.mark.parametrize("call", CALLS)
def test_public_call_leaves_no_cyclic_garbage(source, call):
    run = _calls(source)[call]
    run()  # warm up
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_run_leaves_no_cyclic_garbage():
    hank, bg = os.path.join(CASES, "hank.drs"), os.path.join(CASES, "marriage.bg")
    for command in ("parse", "resolve", "readings", "extract", "compare"):
        for json_output in (False, True):
            config = cli.RunConfig(command, (hank,), background=bg, json_output=json_output)
            cli.run(config)
            gc.collect()
            gc.disable()
            try:
                cli.run(config)
                assert gc.collect() == 0, (command, json_output)
            finally:
                gc.enable()
