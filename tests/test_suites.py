import itertools
import json
from fractions import Fraction

import pytest
from jsonschema import validate

from cheralg.geometry import QuadraticSpace
from cheralg.groups import from_generators
from cheralg.scalars import BaseNumber
from cheralg import suites
from cheralg.parser import Call, EvalError, Evaluator, evaluate, substitute
from cheralg.suites import (NOTHING_TO_CHECK, ORACLE_ROWS,
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
    def strip_ms(report):
        return {**json.loads(report.to_json()), "ms": 0}

    one = run_suite(env_a12, "oracle.l_Buv")
    whole = {r.id: r for r in run_suite(env_a12, "oracle")}
    assert [r.id for r in one] == ["oracle.l_Buv"]
    assert strip_ms(one[0]) == strip_ms(whole["oracle.l_Buv"])
    assert (one[0].status, one[0].oracle) == ("pass", True)
    osp = run_suite(env_a12, "oracle.osp12re")
    assert [r.id for r in osp] == [rid for rid in ORACLE_IDS
                                   if rid.startswith("oracle.osp12re.")]
    assert len(osp) == 6 and all(r.status == "pass" for r in osp)
    with pytest.raises(UnknownSuite):
        run_suite(env_a12, "oracle.nope")


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
    reps += run_oracle_crosscheck(env_a12)
    for r in reps:
        validate(json.loads(r.to_json()), schema)


def test_oracle_crosscheck_and_mutation(env_a12):
    reps = run_oracle_crosscheck(env_a12)
    by_id = {r.id: r for r in reps}
    assert by_id["oracle.mutation"].status == "pass"   # perturbation caught
    assert by_id["oracle.products"].status == "pass"
    fails = [r for r in reps if r.status == "fail"]
    assert not fails
    assert all(r.oracle for r in reps)


def test_oracle_rows_share_one_draw_of_samples(env_a12, monkeypatch):
    """The row checks draw the sampled vectors once per module, not once per
    row; oracle.products draws its own vector per trial."""
    from cheralg.oracle import SpinorModule
    seeds = []
    draw = SpinorModule.random_vector

    def counted(self, seed, *args, **kwargs):
        seeds.append(seed)
        return draw(self, seed, *args, **kwargs)

    monkeypatch.setattr(SpinorModule, "random_vector", counted)
    opts = env_a12.options
    reps = run_oracle_crosscheck(env_a12)
    assert {r.status for r in reps} == {"pass"}
    row_seeds = [opts.seed + 7919 * i for i in range(suites.ORACLE_SAMPLES)]
    assert sorted(s for s in seeds if s in row_seeds) == sorted(row_seeds)
    assert len(seeds) == suites.ORACLE_SAMPLES + suites.ORACLE_PRODUCTS


def test_health_suite(env_a12):
    env = make_env(env_a12.group, RunOptions(seed=1))
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


def simple_reflections(gram) -> list:
    """The simple reflections s_i(alpha_j) = alpha_j - a_ij alpha_i, with
    a_ij = 2 B(alpha_i, alpha_j)/B(alpha_i, alpha_i), as generator rows in
    the coordinates of the simple roots alpha_j, whose Gram matrix is
    ``gram``."""
    n = len(gram)
    return [[[int(j == k) - (Fraction(2 * gram[i][j], gram[i][i]) if k == i
                             else 0) for k in range(n)] for j in range(n)]
            for i in range(n)]


A2_GRAM = [[2, -1], [-1, 2]]
G2_GRAM = [[2, -3], [-3, 6]]
A3_GRAM = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
A4_GRAM = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]

# Groups under a Gram matrix other than the identity, with the pass and
# skipped counts of their catalog: the swap of two coordinates, Weyl groups
# in the coordinates of their simple roots under the symmetrized Cartan
# matrix, and the order-2 groups of one simple reflection of A3 and A4.
GENERAL_GRAM_GROUPS = {
    "swap": (lambda: from_generators([[[0, 1], [1, 0]]], **GENERAL_GRAM),
             (93, 47)),
    "A2_roots": (lambda: from_generators(simple_reflections(A2_GRAM),
                                         gram=A2_GRAM), (93, 47)),
    "G2_roots": (lambda: from_generators(simple_reflections(G2_GRAM),
                                         gram=G2_GRAM), (92, 48)),
    "A3_s1": (lambda: from_generators(simple_reflections(A3_GRAM)[:1],
                                      gram=A3_GRAM), (112, 28)),
    "A4_s1": (lambda: from_generators(simple_reflections(A4_GRAM)[:1],
                                      gram=A4_GRAM), (129, 11)),
}


@pytest.mark.parametrize("name", sorted(GENERAL_GRAM_GROUPS))
def test_whole_catalog_under_general_gram(name):
    import importlib.resources as resources
    schema = json.loads(
        resources.files("cheralg").joinpath("report_schema.json").read_text())
    build, counts = GENERAL_GRAM_GROUPS[name]
    group = build()
    assert not group.space.is_identity
    if name.endswith("_s1"):
        assert group.order == 2
    reps = run_suite(make_env(group), "all")
    assert set(catalog_ids()) <= {r.id for r in reps}
    assert [r.id for r in reps if r.status in ("fail", "error")] == []
    # every oracle check runs on the one module
    oracle = [r for r in reps if r.id.startswith("oracle.")
              and r.status != "skipped"]
    assert {"oracle.products", "oracle.mutation",
            "oracle.chirality.square"} <= {r.id for r in oracle}
    assert {(r.status, r.oracle) for r in oracle} == {("pass", True)}
    statuses = [r.status for r in reps]
    assert (statuses.count("pass"), statuses.count("skipped")) == counts
    for r in reps:
        validate(json.loads(r.to_json()), schema)
        if r.status == "skipped":
            assert r.reason.startswith("needs dimension") or (
                name == "G2_roots" and r.reason == NOTHING_TO_CHECK), r.id


@pytest.mark.parametrize("gram", [[[2, 1], [1, 2]], [[0, 1], [1, 0]]])
def test_oracle_rows_in_the_engine_under_a_general_gram(gram):
    # e_Ogamma, written with beta(x1), and Gamma^2 - det B hold for the
    # swap under a general Gram
    group = from_generators([[[0, 1], [1, 0]]], gram=gram)
    ev = Evaluator(make_env(group).ctx)
    rows = dict(ORACLE_ROWS)

    def residual(name):
        return ev.eval_element(rows[name].instances(group)[0][1])

    assert residual("e_Ogamma").is_zero()
    assert residual("chirality.square").is_zero()


def test_catalog_under_a_gram_with_no_diagonal_entries():
    # the hyperbolic form: no sparse Gram row holds its (p, p) entry, so
    # e_p^2 = B(x_p, x_p) is an absent entry read as zero; the counts were
    # recorded while the Gram matrix was stored dense, and re-recorded when
    # the oracle module came to exist for every Gram (19 checks run), and
    # when no row was gated to the identity Gram any longer (p_OA2.n1 has
    # nothing to check: both coordinates are isotropic)
    group = from_generators([[[0, 1], [1, 0]]], gram=[[0, 1], [1, 0]])
    assert all(p not in dict(row) for p, row in enumerate(group.space.gram))
    statuses = [r.status for r in run_suite(make_env(group), "all")]
    assert (statuses.count("pass"), statuses.count("skipped")) == (84, 56)
    assert len(statuses) == 140


def test_skipped_oracle_reports_keep_ids_and_anchors(env_a12):
    group = from_generators([[[0, 1], [1, 0]]], gram=[[2, 1], [1, 2]])
    skipped = {r.id: r.anchor
               for r in run_oracle_crosscheck(make_env(group))}
    run = {r.id: r.anchor for r in run_oracle_crosscheck(env_a12)}
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
        assert len(residuals) == len(row.template_list(env_a16.group)) \
            * len(row.pattern_list(env_a16.group))
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
        (name, row._replace(templates=tuple(
            (label, plus_one(src)) for label, src in row.templates)))
        for name, row in ORACLE_ROWS)
    monkeypatch.setattr(suites, "ORACLE_ROWS", perturbed)
    reps = run_oracle_crosscheck(env_a12)
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
    group = from_generators([[[-1]]])
    reps = run_oracle_crosscheck(make_env(group), ["oracle.rc.y1x2"])
    assert [(r.id, r.status, r.reason) for r in reps] \
        == [("oracle.rc.y1x2", "skipped", "needs dimension >= 2")]


def _pairs(n, subs):
    """Labels over the ordered pairs of n sample covectors, each with the
    given sub-labels."""
    return [f"{i}{j}.{sub}" for i in range(n) for j in range(n)
            for sub in subs]


def _routes(*tups):
    return [f"{t}.{form}" for t in tups for form in ("first", "second")]


_DIRECTIONS = ("x+", "x-", "gamma")


def _words(n, directions=_DIRECTIONS):
    """The words of n auxiliary directions, in product order."""
    return ["".join(w) for w in itertools.product(directions, repeat=n)]


def _bwz(dim):
    """The labels of the four bwz rows with a sample covector pattern."""
    samples = "01"[:dim]
    return {
        "bwz.adjoint_even": [f"{i}.{w}" for i in samples for w in
                             [a + b for a in _words(2, _DIRECTIONS[:2])
                              for b in _DIRECTIONS]],
        "bwz.adjoint_odd": [f"{i}.{a}{b}" for i in samples
                            for a in _DIRECTIONS[:2] for b in _DIRECTIONS],
        "bwz.vector_laws": [f"{p}.{law}" for p in range(min(dim, 3))
                            for law in ("low", "high", "grade+", "grade-")],
        "bwz.structure": _words(4), "bwz.odd_self": ["gg"],
    }


def _reflection_rows(refls, dim):
    """The labels of the pin rows over the covered reflections s1..."""
    return {
        "pin.rho_conj": [f"s{k}.x{p}.{t}" for k in refls
                         for p in range(1, dim + 1)
                         for t in ("x", "beta", "gamma")],
        "pin.group_action": [f"s{k}.{t}" for k in refls for t in
                             ("(0,)", "(0, 1)", "(0, 1, 2)")[:dim]],
        "pin.invariant_pairs": [f"s{k}.{w}" for k in refls
                                for w in ("x+x+", "x+x-", "x+gamma", "x-x-",
                                          "x-gamma")],
    }


# The residual labels of the cases stated by template rows, as the Python
# builders they replace produced them, except where the row format puts
# the pattern label first and the sub-label after a dot: (0, 1).H for H01
# and s1.H for H.g1 (centmember.angular, centmember.group), (0, 1).first
# for first(0, 1) (routes.n*), 01.a for 01a (pin.cross_anticomm), 01.c for
# c01 (hk.symmetric_bracket) and pair0.rev for rev0 (hk.angular_forms).
# centmember.angular checks all three generators at the non-orthogonal
# pair, and hk.double_bracket alternates its a and b residuals.  The bwz
# rows put the sample covector first (0.x+x-gamma for x+x-gamma0, 0.low for
# low0), and pin.rho_conj names the reflection, the basis covector u and
# the tensor of u it conjugates (s1.x2.beta: beta(x2), which stood as y2).
# The osp12re rows split a relation into its halves, each named (HFp and
# HFm for the one residual HFpm).
_OSP_LABELS = {
    "osp12re.FpFm": ["FpFm"], "osp12re.HFpm": ["HFp", "HFm"],
    "osp12re.FpmFpm": ["FpFp", "FmFm"], "osp12re.EpEm": ["EpEm"],
    "osp12re.HEpm": ["HEp", "HEm"], "osp12re.FpmEmp": ["XEm", "DEp"],
    "projector.membership": [f"{g}.{n}" for n in ("M12", "g", "e12", "mix")
                             for g in "XD"],
    "projector.series": ["fix.one", "fix.M12"] + [
        f"{g}.{n}" for n in ("one", "M12", "MM", "wt0")
        for g in ("Ep", "Em", "H")],
}
MOVED_LABELS = {
    "A1@2": {
        **_bwz(2), **_reflection_rows((1,), 2), **_OSP_LABELS,
        "projector.additivity": ["sum"],
        "projector.angular": ["pair0", "pair1"],
        "projector.gammav": ["v0", "v1", "v2"],
        "routes.n1": _routes("(0,)", "(1,)"),
        "routes.n2": _routes("(0, 1)"),
        "routes.nonorth2": ["first", "second", "two"],
        "routes.pm": ["(0, 1)"],
        "p_OujOun.n2": ["(0, 1)"],
        "p_bbH": ["p0"],
        "pin.reflection_sum": ["left", "right"],
        "pin.commutator_form": ["u0", "u1", "u2"],
        "pin.cross_anticomm": _pairs(3, "ab"),
        "pin.slide_one.n2": ["slot0"],
        "hk.symmetric_bracket": _pairs(3, "cv"),
        "hk.deformed_form": [f"{i}{j}" for i in range(3) for j in range(3)],
        "hk.double_bracket": ["a", "b"] * 8,
        "hk.angular_forms": ["pair0.rev", "pair0.half", "pair1.rev",
                             "pair1.half"],
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
        **_bwz(3), **_reflection_rows((1, 2, 3), 3), **_OSP_LABELS,
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
        "projector.additivity": ["sum"],
        "projector.angular": ["pair0", "pair1"],
        "projector.gammav": ["v0", "v1", "v2", "v3"],
        "routes.n1": _routes("(0,)", "(1,)", "(2,)"),
        "routes.n2": _routes("(0, 1)", "(0, 2)", "(1, 2)"),
        "routes.n3": _routes("(0, 1, 2)"),
        "routes.nonorth2": ["first", "second", "two"],
        "routes.nonorth3": ["first", "second", "three"],
        "routes.pm": ["(0, 1)", "(0, 2)", "(1, 2)"],
        "routes.triple": ["(0, 1, 2)"],
        "recursion.three_n3": ["(0, 1, 2)"],
        "p_OujOun.n2": ["(0, 1)", "(0, 2)", "(1, 2)"],
        "p_OujOun.n3": ["(0, 1, 2)"],
        "p_OujOun.two.n3": ["(0, 1, 2)"],
        "p_bbH": ["p0", "p1", "p2", "p3"],
        "pin.reflection_sum": ["left", "right"],
        "pin.commutator_form": ["u0", "u1", "u2", "u3"],
        "pin.cross_anticomm": _pairs(4, "ab"),
        "pin.slide_one.n2": ["slot0"],
        "pin.slide_one.n3": ["slot0", "slot1"],
        "pin.slide_two.n3": ["slot0"],
        "hk.symmetric_bracket": _pairs(4, "cv"),
        "hk.deformed_form": [f"{i}{j}" for i in range(4) for j in range(4)],
        "hk.double_bracket": ["a", "b"] * 27,
        "hk.angular_forms": ["pair0.rev", "pair0.half", "pair1.rev",
                             "pair1.half"],
    },
}
MOVED_IDS = {
    *(f"centmember.{g}.n{n}" for g in "XD" for n in (1, 2, 3, 4)),
    "centmember.angular", "centmember.group",
    *(f"central.omega_{n}" for n in ("one", "two", "three", "pin")),
    *(f"central.OD_{n}" for n in ("one", "two", "three")),
    "pin.rho_involution", "projector.reflection",
    *(f"p_OA2.n{n}" for n in (1, 2, 3, 4)), "p_OujOun.case3",
    "projector.additivity", "projector.angular", "projector.gammav",
    *(f"routes.{n}" for n in ("n1", "n2", "n3", "n4", "nonorth2",
                              "nonorth3", "pm", "triple")),
    *(f"recursion.{n}" for n in ("three_n3", "three_n4", "closed_n4",
                                 "closed_n5")),
    *(f"p_OujOun.n{n}" for n in (2, 3, 4, 5)),
    *(f"p_OujOun.two.n{n}" for n in (3, 4, 5)),
    "p_bbH", "pin.reflection_sum", "pin.commutator_form",
    "pin.cross_anticomm",
    *(f"pin.slide_one.n{n}" for n in (2, 3, 4)),
    *(f"pin.slide_two.n{n}" for n in (3, 4)),
    *(f"hk.{n}" for n in ("symmetric_bracket", "deformed_form",
                          "double_bracket", "angular_forms")),
    *(f"bwz.{n}" for n in ("structure", "adjoint_even", "adjoint_odd",
                           "vector_laws", "odd_self")),
    "pin.rho_conj", "pin.group_action", "pin.invariant_pairs",
    *_OSP_LABELS,
}

# The cases that stay Python builders, for the reason the suites module
# docstring gives; every other catalog case is a TemplateRow.
BUILDER_IDS = [
    "health.assoc", "health.idempotent", "health.jacobi",
    "health.roundtrip", "health.skew", "health.substitution",
]


def test_builder_cases_are_pinned():
    rows = {row.id for row in TEMPLATE_ROWS}
    assert sorted(set(catalog_ids()) - rows) == BUILDER_IDS
    assert len(MOVED_IDS) == 75 and MOVED_IDS <= rows


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
    # only at the first binding, so each is evaluated here at all of them
    for _, row in ORACLE_ROWS:
        if row.min_dim <= env.dim:
            row.residuals(env)
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


# Digests of every catalog report apart from its time, recorded before the
# pairing and reflection-action cases became template rows (A1@2, B2@2)
# and before the osp relations and the projector laws did (A2@3, the swap
# under a general Gram matrix): a change that moves a case must leave its
# id, anchor, verdict and reason as they were.  The swap's was recorded
# again when no row was gated to the identity Gram any longer: its reports
# are now those of A1@2.
_REPORT_DIGESTS = {
    "A1@2": "2444de696b1df53c", "B2@2": "2444de696b1df53c",
    "A2@3": "c8fb46eee9c03d8d", "general_gram": "2444de696b1df53c"}


@pytest.mark.parametrize("spec", sorted(_REPORT_DIGESTS))
def test_catalog_report_digests_pinned(spec, env_a12, env_b22, env_a23):
    import hashlib
    env = {"A1@2": env_a12, "B2@2": env_b22, "A2@3": env_a23}.get(spec) \
        or make_env(from_generators([[[0, 1], [1, 0]]], **GENERAL_GRAM))
    reports = sorted((r for name in suite_names() if name != "oracle"
                      for r in run_suite(env, name)), key=lambda r: r.id)
    assert [r.id for r in reports] == sorted(catalog_ids())
    h = hashlib.sha256()
    for r in reports:
        h.update(json.dumps([r.id, r.status, r.anchor, r.reason,
                             r.residual_terms, r.witness]).encode())
    assert h.hexdigest()[:16] == _REPORT_DIGESTS[spec]


def test_a_broken_relation_fails_with_a_witness(env_a12, monkeypatch):
    # the relation rows read H through the language, so a wrong H shows as
    # a failed case where build_osp's own check would only have raised
    from cheralg import parser
    from cheralg.osp import OspGenerators
    build = parser.build_osp

    def wrong_h(ctx):
        gens = build(ctx)
        return OspGenerators(ctx, {**gens.terms, "H": (gens.H + 1).terms})

    monkeypatch.setattr(parser, "build_osp", wrong_h)
    for cid in ("osp12re.FpFm", "osp12re.EpEm"):
        rep, = run_suite(env_a12, cid)
        assert rep.status == "fail" and rep.witness, cid


@pytest.mark.parametrize("spec", ["A1@2", "A2@3", "general_gram"])
def test_instances_reuse_the_parse_of_placeholder_free_templates(spec):
    """Every row gives the labels and ASTs of substituting each template at
    each binding, and a template that names no placeholder is its cached
    parse itself."""
    group = (from_generators([[[0, 1], [1, 0]]], **GENERAL_GRAM)
             if spec == "general_gram" else make_env(spec).group)
    reused = 0
    for row in TEMPLATE_ROWS:
        sources = [(slabel, src(group) if callable(src) else src)
                   for slabel, src in row.template_list(group)]
        want = [(".".join(filter(None, (plabel, slabel))), src,
                 substitute(suites._parsed(src), binding))
                for plabel, binding in row._bindings(group)
                for slabel, src in sources if suites._fits(src, group)]
        got = row.instances(group)
        assert [(label, repr(node)) for label, node in got] \
            == [(label, repr(node)) for label, _, node in want], row.id
        for (_, node), (_, src, sub) in zip(got, want):
            if sub == suites._parsed(src):
                assert node is suites._parsed(src), row.id
                reused += 1
        if row.id == "bwz.structure":
            assert all(node is suites._parsed(src)
                       for (_, node), (_, src, _) in zip(got, want))
    assert reused


def test_reference_counting_frees_the_context_after_a_run():
    # The context caches keep term dicts, not Elements that point back at
    # the context, and a quadratic space keeps no covectors that point back
    # at it, so a run leaves no reference cycle: the context goes with its
    # env without a garbage collection, and a collection finds nothing.
    import gc
    import weakref
    gc.disable()
    try:
        gc.collect()
        space = QuadraticSpace(3)
        del space
        assert gc.collect() == 0
        env = make_env("A1@2")
        assert all(r.status != "fail" for r in run_suite(env, "all"))
        assert env.ctx._misc_cache
        ctx = weakref.ref(env.ctx)
        del env
        assert ctx() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _subnodes(node):
    """``node`` and every node below it."""
    yield node
    for value in node:
        for child in value if type(value) is tuple else (value,):
            if isinstance(child, tuple):
                yield from _subnodes(child)


def test_oracle_rows_compute_each_leaf_image_once(env_a12, monkeypatch):
    """One run of the oracle rows builds one ModuleEvaluator, and every
    (leaf node, basis key) image in it comes from one SpinorModule.act."""
    from cheralg import oracle
    evaluators, acts = [], []
    init, act = oracle.ModuleEvaluator.__init__, oracle.SpinorModule.act

    def counted_init(self, module):
        evaluators.append(self)
        init(self, module)

    def counted_act(self, element, v):
        acts.append(v)
        return act(self, element, v)

    monkeypatch.setattr(oracle.ModuleEvaluator, "__init__", counted_init)
    monkeypatch.setattr(oracle.SpinorModule, "act", counted_act)
    ids = [i for i in oracle_ids() if i != "oracle.products"]
    reps = run_oracle_crosscheck(env_a12, ids)
    assert {r.status for r in reps} == {"pass"} and len(reps) == len(ids)
    (module_eval,) = evaluators
    leaf_images = [(node, key) for node, images in module_eval._images.items()
                   if oracle._is_leaf(node) for key in images]
    assert len(acts) == len(leaf_images)
    assert all(len(v.terms) == 1 for v in acts)


def test_a_perturbed_shared_leaf_image_fails_every_row_reading_it(
        env_a12, monkeypatch):
    """X's memoized image, shared by every row, is that of X + x1 + e1:
    each row that reads X must fail, and every other check must still
    pass."""
    from cheralg import oracle
    from cheralg.parser import Name
    leaf = Name("X")
    extra = evaluate(env_a12.ctx, "x1 + e1")
    compose = oracle.ModuleEvaluator._compose

    def perturbed(self, node, v):
        out = compose(self, node, v)
        return out + self.module.act(extra, v) if node == leaf else out

    monkeypatch.setattr(oracle.ModuleEvaluator, "_compose", perturbed)
    readers = {f"oracle.{name}" for name, row in ORACLE_ROWS
               if leaf in _subnodes(row.instances(env_a12.group)[0][1])}
    assert len(readers) >= 3
    for r in run_oracle_crosscheck(env_a12):
        assert r.status == ("fail" if r.id in readers else "pass"), r.id


def _outcome(evaluate_row):
    """The values of a row's residuals, or the type and text of what
    evaluating them raised."""
    try:
        return evaluate_row()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", ["A1@2", "B2@2", "A2@3", "general_gram"])
def test_batch_residuals_equal_one_instance_at_a_time(
        spec, env_a12, env_b22, env_a23):
    env = {"A1@2": env_a12, "B2@2": env_b22, "A2@3": env_a23}.get(spec) \
        or make_env(from_generators([[[0, 1], [1, 0]]], **GENERAL_GRAM))
    for row in TEMPLATE_ROWS:
        alone = _outcome(lambda: [
            (label, Evaluator(env.ctx).eval_element(node))
            for label, node in row.instances(env.group)])
        assert _outcome(lambda: row.residuals(env)) == alone, row.id


def test_a_row_projects_each_distinct_argument_once(env_a23, monkeypatch):
    from cheralg import parser
    row = suites._ROWS["projector.mult_central"]
    calls = []
    project = parser.p_plus
    monkeypatch.setattr(parser, "p_plus",
                        lambda ctx, a: calls.append(a) or project(ctx, a))
    arguments = [node.args[0] for _, inst in row.instances(env_a23.group)
                 for node in _subnodes(inst)
                 if isinstance(node, Call) and node.fn == "Pp"]
    row.residuals(env_a23)
    assert len(calls) == len(set(arguments)) < len(arguments)


def test_a_catalog_pass_shares_the_products_of_each_row(monkeypatch):
    """One pass over the catalog on a fresh A2@3 env, as the benchmark's
    catalog workload runs it, took 2,170 products before each row was
    evaluated as one batch."""
    from cheralg.core import Context
    products = 0
    mul_terms = Context._mul_terms

    def counted(*args, **kwargs):
        nonlocal products
        products += 1
        return mul_terms(*args, **kwargs)

    monkeypatch.setattr(Context, "_mul_terms", counted)
    env = make_env("A2@3")
    for cid in catalog_ids():
        assert run_suite(env, cid)[0].status in ("pass", "skipped"), cid
    assert products <= 1720
