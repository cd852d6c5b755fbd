import json
import os

import pytest

from ctxdrt.cli import RunConfig, run

from conftest import HANK, HANK_FORMULA, MARRIAGE_POSTULATE

CASES = os.path.join(os.path.dirname(__file__), os.pardir, "cases")


@pytest.fixture
def hank_file(tmp_path):
    path = tmp_path / "hank.drs"
    path.write_text(HANK, encoding="utf-8")
    return str(path)


@pytest.fixture
def bg_file(tmp_path):
    path = tmp_path / "marriage.bg"
    path.write_text("# postulate\n" + MARRIAGE_POSTULATE + "\n", encoding="utf-8")
    return str(path)


def test_parse_echoes_canonical_form(hank_file):
    code, stdout, stderr = run(RunConfig("parse", (hank_file,)))
    assert code == 0 and not stderr
    assert stdout.strip() == HANK


def test_parse_error_exits_2_with_span(tmp_path):
    bad = tmp_path / "bad.drs"
    bad.write_text("[x man(x)]", encoding="utf-8")
    code, stdout, stderr = run(RunConfig("parse", (str(bad),)))
    assert code == 2
    assert not stdout
    assert "offsets 3..6" in stderr


def test_missing_file_exits_2():
    code, _, stderr = run(RunConfig("parse", ("/nonexistent/x.drs",)))
    assert code == 2 and "no such file" in stderr


def test_resolve_lists_bindings(tmp_path):
    path = tmp_path / "wife.drs"
    path.write_text(
        "[ | [x, y | man(x), wife(y), of(y,x)] =>"
        " [ | likes(x,u), alpha:[u | wife(u), of(u,v), alpha:[v | ]]]]",
        encoding="utf-8",
    )
    code, stdout, _ = run(RunConfig("resolve", (str(path),), json_output=True))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["version"] == "ctxdrt/1"
    assert payload["alphas"][0]["resolutions"] == [{"u": "y", "v": "x"}]


def test_readings_json_has_two_survivors(hank_file, bg_file):
    code, stdout, _ = run(
        RunConfig("readings", (hank_file,), background=bg_file, json_output=True)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["readings"]) == 2
    assert [r["site"] for r in payload["readings"]] == ["intermediate", "local"]
    assert payload["readings"][0]["bindings"] == payload["readings"][1]["bindings"]
    assert {"informativity", "consistency", "drs", "path"} <= set(payload["readings"][0])
    assert payload["blocked"][0]["site"] == "global"


def test_readings_without_filtering(hank_file):
    code, stdout, _ = run(RunConfig("readings", (hank_file,), no_filter=True, json_output=True))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["filtering"] is False
    assert len(payload["readings"]) == 5


def test_readings_exit_1_when_nothing_survives(tmp_path):
    path = tmp_path / "dead.drs"
    path.write_text("[x | p(x), not [ | q(x)], alpha:[u | q(x), r(u)]]", encoding="utf-8")
    code, _, _ = run(RunConfig("readings", (str(path),)))
    assert code == 1


def test_readings_exit_3_on_unknown(hank_file, bg_file):
    code, _, _ = run(
        RunConfig("readings", (hank_file,), background=bg_file, gamma_limit=0)
    )
    assert code == 3


def test_readings_exit_3_on_model_resource_ceiling(tmp_path, bg_file):
    # a 13-place predicate makes the consistency search exceed its ground
    # atom ceiling: that verdict is undecided, not an input error
    path = tmp_path / "wide.drs"
    path.write_text(
        HANK.replace("[x |", "[x, z |", 1).replace(
            "married(x),", "married(x), p(x), not [ | p(z)], r(%s)," % ",".join("x" * 13), 1
        ),
        encoding="utf-8",
    )
    code, stdout, stderr = run(RunConfig("readings", (str(path),), background=bg_file))
    assert code == 3
    assert not stderr
    assert stdout == "no admissible reading\n"


def test_extract_prints_reference_formula(hank_file):
    code, stdout, _ = run(RunConfig("extract", (hank_file,)))
    assert code == 0
    assert stdout.splitlines()[0] == HANK_FORMULA


def test_extract_reports_empty_task_list(tmp_path):
    path = tmp_path / "plain.drs"
    path.write_text("[x | man(x)]", encoding="utf-8")
    code, stdout, _ = run(RunConfig("extract", (str(path),), json_output=True))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["tasks"] == []
    assert payload["version"] == "ctxdrt/1"


def test_prove_pipes_from_extract(hank_file, bg_file, tmp_path):
    code, stdout, _ = run(
        RunConfig("extract", (hank_file,), background=bg_file, json_output=True)
    )
    assert code == 0
    extract_payload = json.loads(stdout)
    lcon_path = tmp_path / "tasks.lcon"
    lcon_path.write_text(extract_payload["formula"], encoding="utf-8")

    code, stdout, _ = run(RunConfig("prove", (str(lcon_path),), json_output=True))
    assert code == 0
    prove_payload = json.loads(stdout)
    assert prove_payload["verdicts"] == {
        "t1": "closed",
        "t2": "closed",
        "t3": "open_saturated",
    }

    # the informativity dimension of `readings` must match, task for task
    code, stdout, _ = run(
        RunConfig("readings", (hank_file,), background=bg_file, json_output=True)
    )
    readings_payload = json.loads(stdout)
    tag_by_reading = {
        ref: extract_payload["tasks"][i]["tag"]
        for i, task in enumerate(extract_payload["tasks"])
        for ref in task["readings"]
    }
    status_to_informativity = {"closed": "fail", "open_saturated": "pass"}
    for entry in readings_payload["readings"] + readings_payload["filtered"]:
        ref = "%s@%s;%s" % (
            entry["site"],
            entry["path"],
            ",".join("%s->%s" % kv for kv in entry["bindings"].items()),
        )
        expected = status_to_informativity[prove_payload["verdicts"][tag_by_reading[ref]]]
        assert entry["informativity"] == expected


def test_prove_exit_3_on_bounded(tmp_path, hank_file, bg_file):
    code, stdout, _ = run(
        RunConfig("extract", (hank_file,), background=bg_file, json_output=True)
    )
    lcon_path = tmp_path / "tasks.lcon"
    lcon_path.write_text(json.loads(stdout)["formula"], encoding="utf-8")
    code, _, _ = run(RunConfig("prove", (str(lcon_path),), gamma_limit=0))
    assert code == 3


def test_compare_reports_fivefold_saving(hank_file, bg_file):
    code, stdout, _ = run(
        RunConfig("compare", (hank_file,), background=bg_file, json_output=True)
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ratio"]["hank(x)"] == 5.0
    assert payload["ratio"]["married(x)"] == 5.0
    assert payload["agreement"] is True
    assert payload["shared"]["contextConditionExpansions"]["hank(x)"] == 1
    assert payload["naive"]["contextConditionExpansions"]["hank(x)"] == 5


def test_compare_output_is_byte_identical_across_runs(hank_file, bg_file):
    config = RunConfig("compare", (hank_file,), background=bg_file, json_output=True)
    first = run(config)
    second = run(config)
    assert first == second
    assert first[1].encode("utf-8") == second[1].encode("utf-8")


def test_shipped_case_files_work():
    hank = os.path.join(CASES, "hank.drs")
    bg = os.path.join(CASES, "marriage.bg")
    code, stdout, _ = run(RunConfig("readings", (hank,), background=bg, json_output=True))
    assert code == 0
    assert len(json.loads(stdout)["readings"]) == 2


def test_run_config_validates_limits():
    with pytest.raises(ValueError):
        RunConfig("parse", ("x",), depth_limit=0)


def test_main_entry_point(capsys, hank_file):
    from ctxdrt.cli import main

    assert main(["parse", hank_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == HANK
