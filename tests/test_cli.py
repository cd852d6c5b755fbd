import json
import os
import subprocess
import sys

import pytest

from ctxdrt.cli import RunConfig, run

from conftest import CONTENTLESS, HANK, HANK_FORMULA, MARRIAGE_POSTULATE

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


def assert_input_error(result):
    code, stdout, stderr = result
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_unreadable_input_exits_2(tmp_path, hank_file):
    folder = str(tmp_path)
    for config in [
        RunConfig("parse", (folder,)),
        RunConfig("prove", (folder,)),
        RunConfig("readings", (hank_file,), background=folder),
    ]:
        result = run(config)
        assert_input_error(result)
        assert "cannot read %s" % folder in result[2]


def test_deeply_nested_input_exits_2(tmp_path):
    deep = tmp_path / "deep.drs"
    deep.write_text("[ | " + "not [ | " * 1000 + "p(a)" + "]" * 1000 + "]", encoding="utf-8")
    for command in ("parse", "readings"):
        result = run(RunConfig(command, (str(deep),)))
        assert_input_error(result)
        assert "nested too deeply" in result[2]


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


def test_flat_box_with_many_splits_exits_3(tmp_path):
    # flat, but each pair splits a tableau branch twice: a proof 1,200
    # splits deep runs out of its node bound, an undecided verdict and not
    # input nested too deeply
    pairs = ", ".join(
        "[ | p%d(x)] or [ | q%d(x)], not [ | p%d(x), q%d(x)]" % (i, i, i, i) for i in range(600)
    )
    path = tmp_path / "flat.drs"
    path.write_text("[x | hank(x), %s, alpha:[u | wife(u)]]" % pairs, encoding="utf-8")
    for command in ("readings", "compare"):
        code, _, stderr = run(RunConfig(command, (str(path),)))
        assert (code, stderr) == (3, ""), command


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


@pytest.mark.parametrize("text", CONTENTLESS)
def test_alpha_with_nothing_to_accommodate_exits_0_everywhere(tmp_path, text):
    path = tmp_path / "contentless.drs"
    path.write_text(text, encoding="utf-8")
    stdout = {}
    for command in ("readings", "extract", "compare"):
        code, stdout[command], stderr = run(RunConfig(command, (str(path),), json_output=True))
        assert (code, stderr) == (0, ""), command
    assert json.loads(stdout["extract"])["tasks"] == []


def test_impure_input_exits_2_everywhere_with_one_message(tmp_path):
    path = tmp_path / "impure.drs"
    path.write_text("[x | [x | p(x)] => [ | q(x)]]", encoding="utf-8")
    configs = [RunConfig(command, (str(path),)) for command in ("resolve", "readings", "extract")]
    configs += [
        RunConfig("compare", (str(path),)),
        RunConfig("readings", (str(path),), no_filter=True),
    ]
    results = {run(config) for config in configs}
    assert results == {(2, "", "error: impure input: x introduced twice\n")}


def test_predicate_with_two_arities_exits_0_everywhere(tmp_path):
    path = tmp_path / "arities.drs"
    path.write_text(
        "[x | p(x), p(x,x), [y | q(y)] => [ | alpha:[u | r(u), s(u,y)]]]", encoding="utf-8"
    )
    commands = ("resolve", "readings", "extract", "compare")
    configs = [RunConfig(command, (str(path),)) for command in commands]
    configs.append(RunConfig("readings", (str(path),), no_filter=True))
    for config in configs:
        code, stdout, stderr = run(config)
        assert (code, stderr) == (0, ""), config
        assert stdout


def test_anaphoric_background_postulate_exits_2_everywhere(hank_file, tmp_path):
    bg = tmp_path / "anaphoric.bg"
    bg.write_text("[ | alpha:[u | p(u)]]\n", encoding="utf-8")
    for command in ("readings", "extract", "compare"):
        code, stdout, stderr = run(RunConfig(command, (hank_file,), background=str(bg)))
        assert (code, stdout) == (2, ""), command
        assert stderr == "error: anaphoric background postulate\n"


def test_impure_background_postulate_names_its_duplicates(tmp_path):
    bg = tmp_path / "impure.bg"
    bg.write_text("[x | p(x), [x | q(x)] => [ | r(x)]]\n", encoding="utf-8")
    hank = os.path.join(CASES, "hank.drs")
    for command in ("readings", "extract", "compare"):
        code, stdout, stderr = run(RunConfig(command, (hank,), background=str(bg)))
        assert (code, stdout) == (2, ""), command
        assert stderr == "error: impure background postulate: x introduced twice\n"


def test_background_parse_error_gives_file_offsets(hank_file, tmp_path):
    bg = tmp_path / "bad.bg"
    bg.write_text(MARRIAGE_POSTULATE + "\n\n[ | p(a) q(b)]\n", encoding="utf-8")
    code, stdout, stderr = run(RunConfig("readings", (hank_file,), background=str(bg)))
    assert (code, stdout) == (2, "")
    start = len(MARRIAGE_POSTULATE) + 11
    assert bg.read_text(encoding="utf-8")[start] == "q"
    assert stderr == "error: expected ], found 'q' (offsets %d..%d)\n" % (start, start + 1)


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


def test_prove_rejects_anaphoric_input_with_exit_2(hank_file):
    # a box with alphas is no context formula: an input error, not "no reading"
    code, stdout, stderr = run(RunConfig("prove", (hank_file,)))
    assert code == 2
    assert not stdout
    assert stderr.startswith("error: ")


def test_prove_rejects_a_context_alpha_with_one_message(tmp_path):
    path = tmp_path / "context_alpha.lcon"
    path.write_text("in([x | p(x), alpha:[y | q(y)]], [ | p(x)])", encoding="utf-8")
    code, stdout, stderr = run(RunConfig("prove", (str(path),)))
    assert code == 2
    assert not stdout
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


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


@pytest.mark.parametrize(
    "flag,message",
    [
        (["--depth", "0"], "depth limit must be positive"),
        (["--gamma", "-1"], "gamma limit must be non-negative"),
        (["--model-size", "0"], "model size must be positive"),
    ],
    ids=["flag0", "flag1", "flag2"],
)
def test_invalid_bound_is_a_usage_error(capsys, hank_file, flag, message):
    from ctxdrt.cli import main

    with pytest.raises(SystemExit) as exited:
        main(["readings", hank_file, *flag])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert message in captured.err and "Traceback" not in captured.err


def test_main_entry_point(capsys, hank_file):
    from ctxdrt.cli import main

    assert main(["parse", hank_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == HANK


def test_module_entry_point_matches_main(capsys):
    from ctxdrt.cli import main

    hank, bg = os.path.join(CASES, "hank.drs"), os.path.join(CASES, "marriage.bg")
    argv = ["readings", hank, "--bg", bg]
    code = main(argv)
    expected = capsys.readouterr().out
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "ctxdrt", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (code, expected)
    assert code == 0 and expected
