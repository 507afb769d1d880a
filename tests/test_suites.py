import json
from dataclasses import replace
from fractions import Fraction

import pytest
from jsonschema import validate

from cheralg.groups import from_generators
from cheralg.scalars import BaseNumber
from cheralg import suites
from cheralg.parser import EvalError, evaluate
from cheralg.suites import (NEEDS_ORTHONORMAL, NOTHING_TO_CHECK, ORACLE_ROWS,
                            TEMPLATE_ROWS, RunOptions, UnknownSuite, catalog,
                            catalog_ids, make_env, oracle_ids,
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


def test_oracle_selection_by_prefix(env_a12):
    env = make_env(env_a12.group,
                   RunOptions(oracle_samples=2, oracle_products=2))

    def strip_ms(report):
        return {**json.loads(report.to_json()), "ms": 0}

    one = run_suite(env, "oracle.l_Buv")
    whole = {r.id: r for r in run_suite(env, "oracle")}
    assert [r.id for r in one] == ["oracle.l_Buv"]
    assert strip_ms(one[0]) == strip_ms(whole["oracle.l_Buv"])
    assert (one[0].status, one[0].oracle) == ("pass", True)
    osp = run_suite(env, "oracle.osp12re")
    assert [r.id for r in osp] == [rid for rid in ORACLE_IDS
                                   if rid.startswith("oracle.osp12re.")]
    assert len(osp) == 6 and all(r.status == "pass" for r in osp)
    with pytest.raises(UnknownSuite):
        run_suite(env, "oracle.nope")


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
    env = make_env(env_a12.group, RunOptions(seed=5))
    r1 = run_suite(env, "hk")
    r2 = run_suite(env, "hk")
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
    reps += run_oracle_crosscheck(make_env(
        env_a12.group, RunOptions(oracle_samples=2, oracle_products=2)))
    for r in reps:
        validate(json.loads(r.to_json()), schema)


def test_oracle_crosscheck_and_mutation(env_a12):
    reps = run_oracle_crosscheck(make_env(
        env_a12.group, RunOptions(oracle_samples=5, oracle_products=10)))
    by_id = {r.id: r for r in reps}
    assert by_id["oracle.mutation"].status == "pass"   # perturbation caught
    assert by_id["oracle.products"].status == "pass"
    fails = [r for r in reps if r.status == "fail"]
    assert not fails
    assert all(r.oracle for r in reps)


def test_health_suite(env_a12):
    env = make_env(env_a12.group,
                   RunOptions(seed=1, assoc_trials=10, jacobi_trials=6,
                              roundtrip_trials=6))
    reps = run_suite(env, "health")
    assert all(r.status == "pass" for r in reps)


@pytest.mark.parametrize("seed", [42, 58])
def test_roundtrip_with_negated_powers(env_a23, seed):
    # these seeds print terms like -y3^2*g4*e2*e3, which must parse back
    # as -(y3^2), not (-y3)^2
    reps = run_suite(make_env(env_a23.group, RunOptions(seed=seed)),
                     "health.roundtrip")
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
    run = {r.id: r.anchor for r in run_oracle_crosscheck(make_env(
        env_a12.group, RunOptions(oracle_samples=1, oracle_products=1)))}
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
        assert len(residuals) \
            == len(row.templates) * len(row.pattern_list(env_a16.group))
        assert [label for label, r in residuals if not r.is_zero()] == [], \
            row.id


def test_template_placeholders_are_not_language_names(ctx_a23):
    names = set()
    for row in TEMPLATE_ROWS + tuple(row for _, row in ORACLE_ROWS):
        names |= {n for n in row.placeholders.split()}
    # the subset patterns bind a b c u, the reflection patterns s and alpha
    assert {"a", "b", "c", "u", "s", "alpha"} <= names
    names |= {n + "h" for n in names} | {"t"}
    for name in names:
        with pytest.raises(EvalError, match="unknown identifier"):
            evaluate(ctx_a23, name)
        with pytest.raises(EvalError, match="not a covector"):
            evaluate(ctx_a23, f"gamma({name})")


def test_every_oracle_row_plus_one_is_detected(env_a12, monkeypatch):
    def plus_one(src):
        return lambda group: \
            f"({src(group) if callable(src) else src}) + 1"

    perturbed = tuple(
        (name, replace(row, templates=tuple(
            (label, plus_one(src)) for label, src in row.templates)))
        for name, row in ORACLE_ROWS)
    monkeypatch.setattr(suites, "ORACLE_ROWS", perturbed)
    reps = run_oracle_crosscheck(make_env(
        env_a12.group, RunOptions(oracle_samples=2, oracle_products=1)))
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


# The residual labels of the cases stated by subset and reflection
# patterns, as the Python builders they replace produced them, except
# centmember.angular and centmember.group: the row format puts the pattern
# label first ((0, 1).H for H01, s1.H for H.g1) and centmember.angular
# checks all three generators at the non-orthogonal pair.
MOVED_LABELS = {
    "A1@2": {
        "centmember.X.n1": ["(0,)", "(1,)"],
        "centmember.X.n2": ["(0, 1)"],
        "centmember.D.n1": ["(0,)", "(1,)"],
        "centmember.D.n2": ["(0, 1)"],
        "centmember.angular": ["(0, 1).H", "(0, 1).Ep", "(0, 1).Em",
                               "nonorth.H", "nonorth.Ep", "nonorth.Em"],
        "centmember.group": ["s1.H", "s1.Ep", "s1.Em"],
        "central.omega_one": ["(0,)", "(1,)"],
        "central.omega_two": ["(0, 1)"],
        "central.omega_pin": ["s1"],
        "central.OD_one": ["(0,)", "(1,)", "nonorth"],
        "central.OD_two": ["(0, 1)"],
        "pin.rho_involution": ["s1"],
        "projector.reflection": ["s1"],
        "p_OA2.n1": ["(0,)", "(1,)"],
        "p_OA2.n2": ["(0, 1)"],
    },
    "A2@3": {
        "centmember.X.n1": ["(0,)", "(1,)", "(2,)"],
        "centmember.X.n2": ["(0, 1)", "(0, 2)", "(1, 2)"],
        "centmember.X.n3": ["(0, 1, 2)"],
        "centmember.D.n1": ["(0,)", "(1,)", "(2,)"],
        "centmember.D.n2": ["(0, 1)", "(0, 2)", "(1, 2)"],
        "centmember.D.n3": ["(0, 1, 2)"],
        "centmember.angular": ["(0, 1).H", "(0, 1).Ep", "(0, 1).Em",
                               "(0, 2).H", "(0, 2).Ep", "(0, 2).Em",
                               "(1, 2).H", "(1, 2).Ep", "(1, 2).Em",
                               "nonorth.H", "nonorth.Ep", "nonorth.Em"],
        "centmember.group": ["s1.H", "s1.Ep", "s1.Em", "s2.H", "s2.Ep",
                             "s2.Em", "s3.H", "s3.Ep", "s3.Em"],
        "central.omega_one": ["(0,)", "(1,)", "(2,)"],
        "central.omega_two": ["(0, 1)", "(0, 2)", "(1, 2)"],
        "central.omega_three": ["(0, 1, 2)"],
        "central.omega_pin": ["s1", "s2", "s3"],
        "central.OD_one": ["(0,)", "(1,)", "(2,)", "nonorth"],
        "central.OD_two": ["(0, 1)", "(0, 2)", "(1, 2)"],
        "central.OD_three": ["(0, 1, 2)"],
        "pin.rho_involution": ["s1", "s2", "s3"],
        "projector.reflection": ["s1", "s2", "s3"],
        "p_OA2.n1": ["(0,)", "(1,)", "(2,)"],
        "p_OA2.n2": ["(0, 1)", "(0, 2)", "(1, 2)"],
        "p_OA2.n3": ["(0, 1, 2)"],
        "p_OujOun.case3": ["t0", "t1"],
    },
}
MOVED_IDS = {
    *(f"centmember.{g}.n{n}" for g in "XD" for n in (1, 2, 3, 4)),
    "centmember.angular", "centmember.group",
    *(f"central.omega_{n}" for n in ("one", "two", "three", "pin")),
    *(f"central.OD_{n}" for n in ("one", "two", "three")),
    "pin.rho_involution", "projector.reflection",
    *(f"p_OA2.n{n}" for n in (1, 2, 3, 4)), "p_OujOun.case3",
}


@pytest.mark.parametrize("spec", sorted(MOVED_LABELS))
def test_moved_case_labels_are_pinned(spec, env_a12, env_a23):
    env = {"A1@2": env_a12, "A2@3": env_a23}[spec]
    rows = {row.id: row for row in TEMPLATE_ROWS}
    assert MOVED_IDS <= set(rows)
    got = {cid: [label for label, _ in rows[cid].instances(env.group)]
           for cid in sorted(MOVED_IDS) if rows[cid].min_dim <= env.dim}
    assert got == MOVED_LABELS[spec]


EDGE_GROUPS = {
    "one_dimensional": ([[[-1]]], None),
    "reflection_free": ([[[1, 0], [0, 1]]], None),
    "general_gram": ([[[0, 1], [1, 0]]], GENERAL_GRAM["gram"]),
}


@pytest.mark.parametrize("name", sorted(EDGE_GROUPS))
def test_every_row_evaluates_on_edge_groups(name):
    import importlib.resources as resources
    schema = json.loads(
        resources.files("cheralg").joinpath("report_schema.json").read_text())
    generators, gram = EDGE_GROUPS[name]
    env = make_env(from_generators(generators, gram=gram))
    # run_suite evaluates every template row; the oracle reads its rows
    # only at the first binding, and only for the identity Gram matrix
    for _, row in ORACLE_ROWS:
        if row.min_dim <= env.dim:
            row.residuals(env)      # some hold for the identity Gram only
    reports = run_suite(env, "all")
    assert [r.id for r in reports] == sorted(catalog_ids() + oracle_ids())
    for r in reports:
        validate(json.loads(r.to_json()), schema)
        assert r.status == "pass" or (r.status == "skipped" and r.reason), \
            r.id
    skipped = {r.id for r in reports if r.reason == NOTHING_TO_CHECK}
    if name == "reflection_free":
        assert {"pin.rho_involution", "projector.reflection",
                "projector.sandwich", "oracle.pin.rho_sq"} <= skipped
    else:
        assert skipped == set()
