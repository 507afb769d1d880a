import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cheralg
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


def test_verify_runs_oracle_under_general_gram(capsys, tmp_path):
    import importlib.resources as resources

    from jsonschema import validate
    schema = json.loads(
        resources.files("cheralg").joinpath("report_schema.json").read_text())
    spec = tmp_path / "a1_general.json"
    spec.write_text(json.dumps({"generators": [[[0, 1], [1, 0]]],
                                "gram": [[2, 1], [1, 2]]}))
    group = f"custom:{spec}"
    assert main(["verify", "--group", group, "--suite", "oracle",
                 "--format", "json"]) == 0
    reports = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    for r in reports:
        validate(r, schema)
    statuses = [r["status"] for r in reports]
    assert (statuses.count("pass"), statuses.count("skipped")) == (22, 0)
    assert main(["verify", "--group", group, "--suite", "all"]) == 0


def test_verify_passes_on_a2_in_simple_root_coordinates(capsys, tmp_path):
    # s_i(alpha_j) = alpha_j - a_ij alpha_i, under the symmetrized Cartan
    # matrix as Gram: no row assumes an orthonormal basis
    spec = tmp_path / "a2_roots.json"
    spec.write_text(json.dumps({"generators": [[[-1, 0], [1, 1]],
                                               [[1, 1], [0, -1]]],
                                "gram": [[2, -1], [-1, 2]]}))
    assert main(["verify", "--group", f"custom:{spec}", "--format",
                 "json"]) == 0
    reports = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert {r["status"] for r in reports} == {"pass", "skipped"}
    assert {r["id"] for r in reports} >= {"oracle.l_Buv", "pin.chirality",
                                          "bwz.generator_forms"}


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


@pytest.mark.parametrize("expr", ["(" * 200 + "x1" + ")" * 200,
                                  "x1" + "^1" * 1500],
                         ids=["parentheses", "powers"])
def test_deep_nesting_is_a_parse_error(capsys, expr):
    # exit 1 means "identity failed"; a RecursionError is a usage error
    assert main(["eval", "--group", "A1@2", expr]) == 2
    assert "expression nested too deeply" in capsys.readouterr().err


def test_group_file_refuses_floats(capsys, tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"generators": [[[0, 1], [1, 0]]],
                                "gram": [[2, 0.1], [0.1, 2]]}))
    assert main(["info", "--group", f"custom:{spec}"]) == 2
    assert "gram[0][1] is 0.1" in capsys.readouterr().err
    spec.write_text(json.dumps({"generators": [[[0, 1], [1, 0]]],
                                "gram": [[2, "1/3"], ["1/3", 2]]}))
    assert main(["info", "--group", f"custom:{spec}"]) == 0
    assert "|root|^2 = 10/3" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    src = str(Path(cheralg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "cheralg", "eval", "x1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "x1"


def test_deep_power_evaluates(capsys):
    # the y-x commutation memo is built iteratively, not one stack frame
    # per degree
    assert main(["eval", "--group", "A1@2", "y1^1200*x1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x1*y1^1200 + 1200*y1^1199 + k1*y1^1199*s1")


def test_power_past_the_exponent_limit_is_an_error(capsys):
    # x1^(2^32) would carry into the x2 field of a packed word
    assert main(["eval", "--group", "A1@2",
                 "(((x1^256)^256)^256)^256"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2^27" in err


def test_power_one_past_the_limit_fails_fast(capsys):
    # square and multiply reaches x1^(2^27) in 27 products, and the last
    # product's operand trips the guard; a product per unit of the
    # exponent would take 2^27 of them
    start = time.perf_counter()
    assert main(["eval", "--group", "A1@2", "x1^134217729"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2^27" in err


def test_power_at_the_limit_evaluates(capsys):
    # the operands of the last squaring are x1^(2^26)
    assert main(["eval", "--group", "A1@2", "x1^134217728"]) == 0
    assert capsys.readouterr().out.strip() == "x1^134217728"


@pytest.mark.parametrize("args, out", [
    (["x(1^1000000000*x1)"], "x1"),
    (["--kappa", "1", "k1^1000000000"], "1"),
])
def test_scalar_powers_square_and_multiply(capsys, args, out):
    # a covector-mode power and a deformation value raised to its exponent
    # take about 2*log2(e) products, not e
    start = time.perf_counter()
    assert main(["eval", "--group", "A1@2", *args]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.strip() == out


def test_verify_on_roots_without_a_cover(capsys, tmp_path):
    # under this Gram the swap's root has squared length 10/3, whose square
    # root is outside the scalar ring: the cases that need rho(s) of it
    # have nothing to check, and the rest still run
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"generators": [[[0, 1], [1, 0]]],
                                "gram": [[2, "1/3"], ["1/3", 2]]}))
    assert main(["verify", "--group", f"custom:{spec}", "--suite", "all",
                 "--format", "json"]) == 0
    reports = {r["id"]: r for r in map(
        json.loads, capsys.readouterr().out.splitlines())}
    for r in reports.values():
        assert r["status"] == "pass" or (r["status"] == "skipped"
                                         and r["reason"]), r["id"]
    for cid in ("central.omega_pin", "pin.group_action", "pin.invariant_pairs",
                "pin.rho_conj", "pin.rho_involution", "projector.sandwich"):
        assert reports[cid]["status"] == "skipped", cid
    for cid in ("projector.fixes_central", "projector.mult_central"):
        assert reports[cid]["status"] == "pass", cid


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


def test_raising_builder_is_one_error_report(monkeypatch, capsys):
    # a case whose evaluation raises is reported as an error with the
    # exception's type and text; the other cases still run, and exit 2
    import importlib.resources as resources

    from jsonschema import validate

    from cheralg import suites

    def without_ms(lines):
        return [{k: v for k, v in json.loads(line).items() if k != "ms"}
                for line in lines.splitlines()]

    assert main(["verify", "--suite", "pin", "--format", "json"]) == 0
    before = without_ms(capsys.readouterr().out)
    broken = next(r["id"] for r in before if r["status"] == "pass")

    def raising(env):
        raise ArithmeticError("no inverse here")

    cases = [c._replace(builder=raising) if c.id == broken else c
             for c in suites._cases()]
    monkeypatch.setattr(suites, "_cases", lambda: cases)
    assert main(["verify", "--suite", "pin", "--format", "json"]) == 2
    lines = capsys.readouterr().out
    after = without_ms(lines)
    assert [r["id"] for r in after] == [r["id"] for r in before]
    errors = [r for r in after if r["status"] == "error"]
    assert [(r["id"], r["reason"]) for r in errors] \
        == [(broken, "ArithmeticError: no inverse here")]
    assert [r for r in after if r["id"] != broken] \
        == [r for r in before if r["id"] != broken]
    schema = json.loads(
        resources.files("cheralg").joinpath("report_schema.json").read_text())
    for line in lines.splitlines():
        validate(json.loads(line), schema)
    assert main(["verify", "--suite", "pin"]) == 2
    assert capsys.readouterr().out.splitlines()[-1].endswith(", 1 error")


_CHAIN = 3000


@pytest.mark.parametrize("expr, out", [
    ("+".join(["x1"] * _CHAIN), f"{_CHAIN}*x1"),
    ("x1" + "*1" * _CHAIN, "x1"),
    ("x1" + "/1" * _CHAIN, "x1"),
    ("O(" + "+".join(["x1"] * _CHAIN) + ")",
     f"{_CHAIN // 2}*k1*s1*e1 - {_CHAIN // 2}*k1*s1*e2"),
], ids=["sum", "product", "quotient", "covector_sum"])
def test_long_chains_evaluate(capsys, expr, out):
    # left-deep chains are folded in a loop, not one stack frame per operand
    assert main(["eval", "--group", "A1@2", expr]) == 0
    assert capsys.readouterr().out.strip() == out


def test_commute_with_a_long_operand(capsys):
    assert main(["commute", "--group", "A1@2",
                 "+".join(["x1"] * _CHAIN), "y1"]) == 0
    assert capsys.readouterr().out.strip() == f"-{_CHAIN} - {_CHAIN}*k1*s1"


@pytest.mark.parametrize("content, message", [
    ({"gram": [[1, 0], [0, 1]]}, 'has no "generators" key'),
    ([1, 2], "generators[0] is 1; expected a list of rows"),
    ({"generators": [[[0, 1], [1, 0]]], "gram": [1, 2]},
     "gram is [1, 2]; expected a list of rows"),
    ({"generators": 3}, "generators is 3; expected a list of matrices"),
], ids=["no_generators", "entry_not_a_matrix", "gram_not_a_matrix",
        "generators_not_a_list"])
def test_malformed_group_file_is_a_usage_error(capsys, tmp_path, content,
                                               message):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps(content))
    assert main(["info", "--group", f"custom:{spec}"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["eval", "x1", "--kappa", "1/0"],
     "error: division by zero in deformation value '1/0'"),
    (["info", "--group", "custom:{spec}"],
     'error: division by zero in generators[0][0][0] "1/0"'),
    (["eval", "O(x1/0)"], "error: division by zero"),
    (["eval", "x1/0"], "error: division by zero"),
], ids=["kappa", "group_file_entry", "covector", "element"])
def test_a_zero_denominator_is_a_division_by_zero(capsys, tmp_path, args,
                                                  message):
    # the message of the module docstring, with the bad value where one
    # was read from an option or a file
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"generators": [[["1/0"]]]}))
    assert main([a.format(spec=spec) for a in args]) == 2
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("value", ["-1", "x"])
def test_a_negative_max_degree_is_a_usage_error(capsys, monkeypatch, value):
    # rejected while the arguments are read, before any case runs
    from cheralg import cli
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: 1 / 0)
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--group", "A1@2", "--suite", "health",
              "--max-degree", value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-degree: must be a nonnegative integer" in err


def test_zero_max_degree_runs(capsys):
    assert main(["verify", "--group", "A1@2", "--suite", "health",
                 "--max-degree", "0"]) == 0
    assert "6 pass" in capsys.readouterr().out


def test_info_takes_no_kappa(capsys):
    # info prints no deformation values, so it has no option for them
    with pytest.raises(SystemExit) as exit_:
        main(["info", "--group", "A1@2", "--kappa", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --kappa 1" in capsys.readouterr().err
