import json

import pytest

from cheralg.cli import main


def test_eval_prints_normal_form(capsys):
    assert main(["eval", "--group", "A1@2", "[y1,x1]"]) == 0
    assert capsys.readouterr().out.strip() == "1 + k1*s1"


@pytest.mark.parametrize("expr", ["zp1 + x1*x1", "zm1", "alpha1", "z0"])
def test_eval_covector_name_is_an_evaluation_error(capsys, expr):
    # exit code 2 is the documented code for evaluation errors
    assert main(["eval", "--group", "A1@2", expr]) == 2
    assert "O/M/A/R/gamma" in capsys.readouterr().err


def test_eval_covector_name_inside_gamma(capsys):
    assert main(["eval", "--group", "A1@2", "gamma(alpha1)"]) == 0
    assert capsys.readouterr().out.strip() == "e1 - e2"


def test_verify_all_skips_oracle_under_general_gram(capsys, tmp_path):
    spec = tmp_path / "a1_general.json"
    spec.write_text(json.dumps({"generators": [[[0, 1], [1, 0]]],
                                "gram": [[2, 1], [1, 2]]}))
    group = f"custom:{spec}"
    assert main(["verify", "--group", group, "--suite", "oracle",
                 "--format", "json"]) == 0
    reports = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert reports and all(r["status"] == "skipped" for r in reports)
    assert main(["verify", "--group", group, "--suite", "all"]) == 0


def test_division_by_zero_is_an_evaluation_error(capsys):
    # exit 1 means "identity failed"; an arithmetic error is exit 2
    assert main(["eval", "--group", "A1@2", "O(x1/0)"]) == 2
    assert "error:" in capsys.readouterr().err


def test_list_suites_counts_the_oracle_checks(capsys):
    from cheralg.suites import ORACLE_ROWS
    assert main(["list-suites"]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("oracle "))
    assert line.split()[1] == str(len(ORACLE_ROWS) + 2) == "22"


def test_verify_oracle_runs_through_run_suite(monkeypatch, capsys):
    # one entry path: the oracle takes its seed and degree from the options
    from cheralg import suites
    seen = []

    def crosscheck(env, ids=None):
        seen.append((env.options.seed, env.options.max_degree, ids))
        return []

    monkeypatch.setattr(suites, "run_oracle_crosscheck", crosscheck)
    assert main(["verify", "--suite", "oracle", "--seed", "7",
                 "--max-degree", "4"]) == 0
    assert seen == [(7, 4, suites.oracle_ids())]


def test_verify_selects_one_oracle_check(capsys):
    assert main(["verify", "--suite", "oracle.l_Buv", "--format",
                 "json"]) == 0
    reports = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert [(r["id"], r["status"], r["oracle"]) for r in reports] \
        == [("oracle.l_Buv", "pass", True)]


def test_verify_unknown_oracle_check_is_a_usage_error(capsys):
    assert main(["verify", "--suite", "oracle.nope"]) == 2
    assert "unknown suite or case id 'oracle.nope'" in capsys.readouterr().err


def test_deep_power_evaluates(capsys):
    # the y-x commutation memo is built iteratively, not one stack frame
    # per degree
    assert main(["eval", "--group", "A1@2", "y1^1200*x1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x1*y1^1200 + 1200*y1^1199 + k1*y1^1199*s1")


@pytest.mark.parametrize("generators", [[[[-1]]], [[[1, 0], [0, 1]]]],
                         ids=["one_dimensional", "reflection_free"])
@pytest.mark.parametrize("suite", ["all", "oracle"])
def test_verify_on_edge_groups(capsys, tmp_path, generators, suite):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"generators": generators}))
    assert main(["verify", "--group", f"custom:{spec}", "--suite", suite,
                 "--format", "json"]) == 0
    reports = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert reports
    for r in reports:
        assert r["status"] == "pass" or (r["status"] == "skipped"
                                         and r["reason"]), r["id"]
