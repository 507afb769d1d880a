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
