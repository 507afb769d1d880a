import json
from fractions import Fraction

import pytest
from jsonschema import validate

from cheralg.groups import from_generators
from cheralg.scalars import BaseNumber
from cheralg import suites
from cheralg.parser import EvalError, evaluate
from cheralg.suites import (NEEDS_ORTHONORMAL, ORACLE_ROWS, TEMPLATE_ROWS,
                            RunOptions, UnknownSuite, catalog, catalog_ids,
                            make_env, oracle_ids, oracle_template,
                            run_oracle_crosscheck, run_suite, suite_names)

# The complete identity catalog, pinned.  Adding or removing a case is a
# deliberate act that must update this list.
PINNED_IDS = [
    "bwz.adjoint_even", "bwz.adjoint_odd", "bwz.generator_forms",
    "bwz.odd_self", "bwz.structure", "bwz.vector_laws",
    "centmember.D.n1", "centmember.D.n2", "centmember.D.n3",
    "centmember.D.n4", "centmember.X.n1", "centmember.X.n2",
    "centmember.X.n3", "centmember.X.n4", "centmember.angular",
    "centmember.group",
    "central.OD_one", "central.OD_three", "central.OD_two",
    "central.omega_one", "central.omega_pin", "central.omega_three",
    "central.omega_two",
    "corollary.OijOki", "corollary.OijOkl", "corollary.OijOkl_half",
    "corollary.OijOklmn", "corollary.OjkOjkl", "corollary.OjkOjklm",
    "corollary.OjkOjlm", "corollary.OjkOjlmn", "corollary.OjkOlmn",
    "corollary.OjklOjkm", "corollary.e24", "corollary.e25",
    "corollary.e26", "corollary.e27",
    "gensym.lower_sum", "gensym.lower_x1", "gensym.lower_x2",
    "gensym.qminus_def", "gensym.qplus_one", "gensym.raise_x1",
    "health.assoc", "health.idempotent", "health.jacobi",
    "health.roundtrip", "health.skew", "health.substitution",
    "hk.angular_forms", "hk.deformed_form", "hk.double_bracket",
    "hk.symmetric_bracket",
    "osp12re.EpEm", "osp12re.FpFm", "osp12re.FpmEmp", "osp12re.FpmFpm",
    "osp12re.HEpm", "osp12re.HFpm",
    "p_O2O34.n3", "p_O2O34.n4",
    "p_O3O3",
    "p_OA2.n1", "p_OA2.n2", "p_OA2.n3", "p_OA2.n4",
    "p_OabOuv.form1", "p_OabOuv.form2",
    "p_OujOun.case3", "p_OujOun.case4", "p_OujOun.n2", "p_OujOun.n3",
    "p_OujOun.n4", "p_OujOun.n5", "p_OujOun.two.n3", "p_OujOun.two.n4",
    "p_OujOun.two.n5",
    "p_bbH",
    "pin.chirality", "pin.commutator_form", "pin.cross_anticomm",
    "pin.group_action", "pin.invariant_pairs", "pin.reflection_sum",
    "pin.rho_conj", "pin.rho_involution", "pin.slide_one.n2",
    "pin.slide_one.n3", "pin.slide_one.n4", "pin.slide_two.n3",
    "pin.slide_two.n4",
    "projector.additivity", "projector.angular", "projector.cliffpair",
    "projector.fixes_central", "projector.gammav", "projector.membership",
    "projector.mult_central", "projector.pm_agree", "projector.reflection",
    "projector.sandwich", "projector.series",
    "recursion.closed_n4", "recursion.closed_n5", "recursion.three_n3",
    "recursion.three_n4",
    "routes.n1", "routes.n2", "routes.n3", "routes.n4", "routes.nonorth2",
    "routes.nonorth3", "routes.pm", "routes.triple",
    "scasimir.casimir_central", "scasimir.parity", "scasimir.projected",
    "scasimir.square",
]


# The oracle checks, pinned like the catalog.
ORACLE_IDS = [
    "oracle.centmember.D_O1", "oracle.centmember.X_O12",
    "oracle.central.omega_rho", "oracle.chirality.square", "oracle.e_Ogamma",
    "oracle.gensym.x1", "oracle.l_Buv", "oracle.l_Oug", "oracle.mutation",
    "oracle.osp12re.EpEm", "oracle.osp12re.FpFm", "oracle.osp12re.FpFp",
    "oracle.osp12re.HEp", "oracle.osp12re.HFp", "oracle.osp12re.XEm",
    "oracle.pin.rho_sq", "oracle.products", "oracle.projector.cliffpair",
    "oracle.projector.reflection", "oracle.rc.y1x1", "oracle.rc.y1x2",
    "oracle.scasimir.square",
]

GENERAL_GRAM = dict(gram=[[2, 1], [1, 2]])


def test_catalog_is_pinned():
    assert sorted(catalog_ids()) == PINNED_IDS
    assert len(set(catalog_ids())) == len(catalog_ids())


def test_every_case_has_anchor_and_dim():
    for case in catalog():
        assert case.anchor and case.min_dim >= 1


def test_suite_names_cover_prefixes():
    names = suite_names()
    assert "oracle" in names
    prefixes = {cid.split(".")[0] for cid in catalog_ids()}
    assert prefixes <= set(names)


def test_unknown_suite():
    env = make_env("A1@2")
    with pytest.raises(UnknownSuite):
        run_suite(env, "no_such_suite")


def test_selection_by_case_id(env_a12):
    reps = run_suite(env_a12, "osp12re.FpFm")
    assert [r.id for r in reps] == ["osp12re.FpFm"]
    assert reps[0].status == "pass"


def test_osp12re_has_six_passes(env_a12):
    reps = run_suite(env_a12, "osp12re")
    assert len(reps) == 6
    assert all(r.status == "pass" for r in reps)


def test_skip_semantics(env_a12):
    reps = run_suite(env_a12, "p_O3O3")
    assert len(reps) == 1
    assert reps[0].status == "skipped"
    assert "dimension" in reps[0].reason


def test_reports_sorted_and_deterministic(env_a12):
    opts = RunOptions(seed=5)
    r1 = run_suite(env_a12, "hk", options=opts)
    r2 = run_suite(env_a12, "hk", options=opts)
    assert [r.id for r in r1] == sorted(r.id for r in r1)

    def strip_ms(reports):
        out = []
        for r in reports:
            d = json.loads(r.to_json())
            d["ms"] = 0
            out.append(json.dumps(d, sort_keys=True))
        return out

    assert strip_ms(r1) == strip_ms(r2)


def test_numeric_kappa_run(env_b22):
    vals = [BaseNumber(1), BaseNumber(Fraction(-1, 2))]
    reps = run_suite(env_b22, "p_OA2", kappa_values=vals)
    assert all(r.status in ("pass", "skipped") for r in reps)
    assert all(r.kappa == "1,-1/2" for r in reps)
    with pytest.raises(ValueError):
        run_suite(env_b22, "p_OA2", kappa_values=[BaseNumber(1)])


def test_report_schema(env_a12):
    import importlib.resources as resources
    schema = json.loads(
        resources.files("cheralg").joinpath("report_schema.json").read_text())
    reps = run_suite(env_a12, "gensym")
    reps += run_oracle_crosscheck(env_a12, samples=2, product_checks=2)
    for r in reps:
        validate(json.loads(r.to_json()), schema)


def test_oracle_crosscheck_and_mutation(env_a12):
    reps = run_oracle_crosscheck(env_a12, samples=5, product_checks=10)
    by_id = {r.id: r for r in reps}
    assert by_id["oracle.mutation"].status == "pass"   # perturbation caught
    assert by_id["oracle.products"].status == "pass"
    fails = [r for r in reps if r.status == "fail"]
    assert not fails
    assert all(r.oracle for r in reps)


def test_health_suite(env_a12):
    reps = run_suite(env_a12, "health",
                     options=RunOptions(seed=1, assoc_trials=10,
                                        jacobi_trials=6,
                                        roundtrip_trials=6))
    assert all(r.status == "pass" for r in reps)


@pytest.mark.parametrize("seed", [42, 58])
def test_roundtrip_with_negated_powers(env_a23, seed):
    # these seeds print terms like -y3^2*g4*e2*e3, which must parse back
    # as -(y3^2), not (-y3)^2
    reps = run_suite(env_a23, "health.roundtrip",
                     options=RunOptions(seed=seed))
    assert [(r.status, r.witness) for r in reps] == [("pass", None)]


def test_rho_conj_under_general_gram():
    # the swap of the two coordinates preserves this form, so A1 acts on it
    group = from_generators([[[0, 1], [1, 0]]], gram=[[2, 1], [1, 2]])
    reps = run_suite(make_env(group), "pin.rho_conj")
    assert [(r.status, r.witness) for r in reps] == [("pass", None)]


def test_whole_catalog_under_general_gram():
    import importlib.resources as resources
    schema = json.loads(
        resources.files("cheralg").joinpath("report_schema.json").read_text())
    group = from_generators([[[0, 1], [1, 0]]], gram=[[2, 1], [1, 2]])
    reps = run_suite(make_env(group), "all")
    by_id = {r.id: r for r in reps}
    assert set(catalog_ids()) <= set(by_id)
    assert [r.id for r in reps if r.status == "fail"] == []
    orthonormal_only = ["pin.chirality", "bwz.generator_forms"]
    oracle = [rid for rid in by_id if rid.startswith("oracle.")]
    assert {"oracle.products", "oracle.mutation",
            "oracle.chirality.square"} <= set(oracle)
    for rid in orthonormal_only + oracle:
        assert (by_id[rid].status, by_id[rid].reason) \
            == ("skipped", NEEDS_ORTHONORMAL)
    for r in reps:
        validate(json.loads(r.to_json()), schema)
        if r.status == "skipped" and r.id not in orthonormal_only + oracle:
            assert r.reason.startswith("needs dimension")


def test_skipped_oracle_reports_keep_ids_and_anchors(env_a12):
    group = from_generators([[[0, 1], [1, 0]]], gram=[[2, 1], [1, 2]])
    skipped = {r.id: r.anchor
               for r in run_oracle_crosscheck(make_env(group))}
    run = {r.id: r.anchor for r in run_oracle_crosscheck(
        env_a12, samples=1, product_checks=1)}
    assert {"oracle.products", "oracle.mutation"} <= set(skipped) & set(run)
    assert {rid: skipped[rid] for rid in run if rid in skipped} \
        == {rid: run[rid] for rid in run if rid in skipped}


def test_oracle_ids_are_pinned():
    assert oracle_ids() == ORACLE_IDS
    group = from_generators([[[0, 1], [1, 0]]], **GENERAL_GRAM)
    assert [r.id for r in run_oracle_crosscheck(make_env(group))] \
        == ORACLE_IDS


def test_template_cases_on_a16(env_a16):
    # dimension 6: no row is skipped and no pattern is left out
    assert {row.id for row in TEMPLATE_ROWS} <= set(PINNED_IDS)
    for row in TEMPLATE_ROWS:
        assert row.min_dim <= env_a16.dim
        residuals = row.residuals(env_a16)
        assert len(residuals) == len(row.templates) * max(1, len(row.patterns))
        assert [label for label, r in residuals if not r.is_zero()] == [], \
            row.id


def test_template_placeholders_are_not_language_names(ctx_a23):
    names = set()
    for row in TEMPLATE_ROWS:
        names |= {n for n in row.placeholders.split()}
    names |= {n + "h" for n in names} | {"t"}
    for name in names:
        with pytest.raises(EvalError, match="unknown identifier"):
            evaluate(ctx_a23, name)
        with pytest.raises(EvalError, match="not a covector"):
            evaluate(ctx_a23, f"gamma({name})")


def test_every_oracle_row_plus_one_is_detected(env_a12, monkeypatch):
    perturbed = tuple(
        (name, lambda group, t=template:
         f"({oracle_template(t, group)}) + 1")
        for name, template in ORACLE_ROWS)
    monkeypatch.setattr(suites, "ORACLE_ROWS", perturbed)
    reps = run_oracle_crosscheck(env_a12, samples=2, product_checks=1)
    rows = {f"oracle.{name}" for name, _ in ORACLE_ROWS}
    for r in reps:
        if r.id in rows:
            assert (r.status, r.witness) == ("fail", r.id[len("oracle."):])
        else:
            assert r.status == "pass", r.id


def test_skipped_oracle_evaluates_nothing(monkeypatch):
    from cheralg.parser import Evaluator

    def refuse(*args, **kwargs):
        raise AssertionError("the skipped oracle evaluated a template")

    monkeypatch.setattr(suites, "parse_expression", refuse)
    monkeypatch.setattr(Evaluator, "eval_element", refuse)
    group = from_generators([[[0, 1], [1, 0]]], **GENERAL_GRAM)
    reps = run_oracle_crosscheck(make_env(group))
    assert {r.status for r in reps} == {"skipped"}

