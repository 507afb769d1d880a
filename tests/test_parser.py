import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cheralg.core import Monomial, pack, random_element, supercommutator
from cheralg.parser import (EvalError, Evaluator, ParseError, evaluate,
                            parse_expression)
from cheralg.parser import Bin, Bracket, Call, Name, Neg, Num
from cheralg.scalars import SC_ZERO, BaseNumber, Scalar, as_scalar


def test_ast_shapes():
    ast = parse_expression("[y1, x1]")
    assert isinstance(ast, Bracket) and ast.kind == "super"
    ast = parse_expression("{e1, e2}")
    assert ast.kind == "anti"
    ast = parse_expression("O(x1, x1 - x2)")
    assert isinstance(ast, Call) and ast.fn == "O" and len(ast.args) == 2
    assert isinstance(ast.args[1], Bin)


def test_nodes_of_different_types_never_compare_equal():
    """Nodes are NamedTuples, whose equality does not look at the class:
    among the nodes of expressions whose fields are as alike as the grammar
    allows, no two of different types may compare equal, or a memo keyed
    by nodes would merge them."""
    sources = ["1", "2", "x1", "-1", "-x1", "--x1", "x(x1)", "x(1)",
               "O(x1, x2)", "x1 + x1", "x1 - x1", "x1 * x1", "x1 / x1",
               "x1^1", "[x1, x1]", "{x1, x1}", "[1, 1]", "(-1)^1"]
    nodes = []

    def walk(node):
        nodes.append(node)
        for value in node:
            for child in value if type(value) is tuple else (value,):
                if isinstance(child, tuple):
                    walk(child)

    for src in sources:
        walk(parse_expression(src))
    assert {type(n) for n in nodes} == {Num, Name, Call, Neg, Bin, Bracket}
    for a in nodes:
        for b in nodes:
            if type(a) is not type(b):
                assert a != b, (a, b)
    assert len(set(nodes)) == len({(type(n), n) for n in nodes})


def test_precedence():
    # ^ binds tighter than *, which binds tighter than +
    ast = parse_expression("x1 + 2*e1^2")
    assert isinstance(ast, Bin) and ast.op == "+"
    rhs = ast.right
    assert rhs.op == "*" and rhs.right.op == "^"


def test_spec_examples(ctx_a12):
    ctx = ctx_a12
    assert str(evaluate(ctx, "[y1,x1]")) == "1 + k1*s1"
    assert str(evaluate(ctx, "[y1,x1]").substitute_kappa([0])) == "1"
    assert evaluate(ctx, "Pp(e1) + k1*s1*(e1 - e2)").is_zero()
    v = evaluate(ctx, "O(x1, x1 - x2)")
    from cheralg.centralizer import o_proj
    assert v == -o_proj(ctx, [ctx.space.basis_covector(0),
                              ctx.space.basis_covector(1)])


def test_covector_calls(ctx_a12):
    ctx = ctx_a12
    assert evaluate(ctx, "gamma(zp1)") == evaluate(ctx, "(e1 + i*e2)/2")
    assert evaluate(ctx, "gamma(alpha1)") == evaluate(ctx, "e1 - e2")
    assert evaluate(ctx, "A(x1,x2)") == evaluate(ctx, "e1*e2")
    assert evaluate(ctx, "M(x1,x2)") == evaluate(ctx, "x1*y2 - x2*y1")
    assert evaluate(ctx, "rho(s1,s1)") == ctx.one()
    assert evaluate(ctx, "R(x1)") is not None


def test_osp_names(ctx_a12):
    ctx = ctx_a12
    assert evaluate(ctx, "[X,D] - 2*H").is_zero()
    assert evaluate(ctx, "Fp") == evaluate(ctx, "X/sqrt2")
    assert evaluate(ctx, "Scasimir^2 - Casimir - 1/4").is_zero()
    assert evaluate(ctx, "Omega - O(x1,x2)^2").is_zero()
    assert evaluate(ctx, "Otop") == evaluate(ctx, "O(x1,x2)")
    assert evaluate(ctx, "Gamma*Gamma - 1").is_zero()
    assert evaluate(ctx, "OmegaKappa") == ctx.omega_kappa()


def test_brackets_resolve_by_parity(ctx_a12):
    ctx = ctx_a12
    assert evaluate(ctx, "[e1,e1]") == ctx.scalar_elem(2)
    assert evaluate(ctx, "{e1,e1}").is_zero()
    assert evaluate(ctx, "{x1,y1}") == evaluate(ctx, "x1*y1 + y1*x1")


def test_unary_and_division(ctx_a12):
    ctx = ctx_a12
    assert evaluate(ctx, "-x1") == -ctx.x(0)
    assert evaluate(ctx, "3/2*x1") == ctx.x(0) * Fraction(3, 2)
    assert evaluate(ctx, "x1/2") == ctx.x(0) * Fraction(1, 2)
    assert evaluate(ctx, "(1+i)*e1") == evaluate(ctx, "e1 + i*e1")
    with pytest.raises(EvalError):
        evaluate(ctx, "x1/y1")
    with pytest.raises(EvalError):
        evaluate(ctx, "x1/0")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + ")
    assert err.value.line == 1 and err.value.col == 6
    with pytest.raises(ParseError):
        parse_expression("O(x1,)")
    with pytest.raises(ParseError):
        parse_expression("(x1")
    with pytest.raises(ParseError):
        parse_expression("x1 ? 2")


def test_eval_errors(ctx_a12):
    ctx = ctx_a12
    for bad in ("x9", "s7", "k3", "bogus", "zp1 + x1 * x1", "O(x1+1)",
                "rho(x1)", "M(x1)", "Palpha(x1, x2)", "e1^e1", "x1^-1"):
        with pytest.raises(EvalError):
            evaluate(ctx, bad)


def test_covector_names_rejected_in_element_position(ctx_a12, ctx_a23):
    for ctx, bad in ((ctx_a12, "zp1"), (ctx_a12, "zm1"),
                     (ctx_a12, "alpha1"), (ctx_a12, "2*zm1 + x1"),
                     (ctx_a23, "z0"), (ctx_a23, "alpha3 * y1")):
        with pytest.raises(EvalError, match="covector name"):
            evaluate(ctx, bad)
    # the same names still resolve inside the covector-mode calls
    assert evaluate(ctx_a23, "gamma(z0)") == evaluate(ctx_a23, "e3")
    assert evaluate(ctx_a12, "gamma(alpha1)") == evaluate(ctx_a12, "e1 - e2")
    zz = evaluate(ctx_a12, "O(zp1, zm1)")
    assert zz == evaluate(ctx_a12, "O(x1 + i*x2, x1 - i*x2)/4")
    assert not zz.is_zero()


def test_covector_name_error_lists_the_covector_calls(ctx_a12):
    from cheralg.oracle import _LEAF_CALLS
    from cheralg.parser import _COV_CALLS
    with pytest.raises(EvalError) as err:
        evaluate(ctx_a12, "zp1")
    assert str(err.value) == ("'zp1' is a covector name, allowed only inside "
                              "O/M/A/R/gamma/Of/x/beta/psi(...)")
    assert set(_COV_CALLS) <= set(_LEAF_CALLS)


@pytest.mark.parametrize("spec", ["A1@2", "B2@2", "A2@3", "swap"])
def test_reflection_formula_is_the_group_action(spec):
    # u - 2*B(alpha, u)/B(alpha, alpha)*alpha in covector mode is the
    # group's action of the reflection with root alpha, also under a
    # Gram matrix that is not the identity
    from cheralg.core import Context
    from cheralg.groups import from_generators, parse_group_spec
    group = (from_generators([[[0, 1], [1, 0]]], gram=[[2, 1], [1, 2]])
             if spec == "swap" else parse_group_spec(spec))
    ev = Evaluator(Context(group))
    covs = ["x1", "x2", "x1 + 2*x2"] + (["x3 - x1"] if group.dim > 2 else [])
    for k, refl in enumerate(group.reflections, 1):
        for src in covs:
            u = ev.eval_covector(parse_expression(src))
            got = ev.eval_covector(parse_expression(
                f"{src} - 2*B(alpha{k}, {src})/B(alpha{k}, alpha{k})"
                f"*alpha{k}"))
            assert got == group.act(refl.elem, u), (k, src)


def test_roundtrip_random(ctx_b22):
    rng = random.Random(77)
    ev = Evaluator(ctx_b22)
    for _ in range(40):
        a = random_element(ctx_b22, rng, max_degree=3)
        assert ev.eval_element(parse_expression(str(a))) == a


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _elements(draw, ctx):
    """Elements of ``ctx`` with up to five words: exponents mostly small,
    some in the hundreds, any group element and Clifford word, and
    coefficients in Q(i, sqrt2) times a kappa monomial."""
    d = ctx.dim
    exps = st.lists(st.integers(0, 4) | st.sampled_from([11, 300]),
                    min_size=d, max_size=d)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        mono = Monomial(pack(draw(exps)), pack(draw(exps)),
                        draw(st.integers(0, ctx.group.order - 1)),
                        draw(st.integers(0, (1 << d) - 1)))
        coef = as_scalar(BaseNumber(*draw(st.tuples(*[_RATIONALS] * 4))))
        for cls in range(ctx.num_classes):
            power = draw(st.integers(0, 2))
            if power:
                coef = coef * Scalar.kappa(cls, power)
        terms[mono] = terms.get(mono, SC_ZERO) + coef
    return ctx.element(terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_print_parse_round_trip(ctx_a12, ctx_b22, ctx_a23, data):
    # the printer unpacks every exponent word; reading its text back must
    # give the same element, and printing that the same text
    ctx = data.draw(st.sampled_from([ctx_a12, ctx_b22, ctx_a23]))
    elem = data.draw(_elements(ctx))
    text = str(elem)
    back = evaluate(ctx, text)
    assert back == elem
    assert str(back) == text


def test_roundtrip_sqrt2_scalars(ctx_a12):
    ctx = ctx_a12
    r = ctx.rho([0])
    assert evaluate(ctx, str(r)) == r


def test_negated_power_precedence(ctx_a23):
    # the caret binds tighter than unary minus
    y3 = ctx_a23.y(2)
    assert evaluate(ctx_a23, "-y3^2") == -(y3 * y3)
    assert evaluate(ctx_a23, "(-y3)^2") == y3 * y3
    assert evaluate(ctx_a23, "-y3^2*s1 + (-y3)^2*s1").is_zero()
    ast = parse_expression("-y3^2")
    assert isinstance(ast, Neg) and ast.arg.op == "^"


def test_form_in_covector_and_element_position(ctx_a23):
    from cheralg.centralizer import o_proj
    from cheralg.geometry import bilinear_B
    from cheralg.groups import from_generators
    from cheralg.suites import make_env
    ctx = ctx_a23
    x = ctx.space.basis_covector
    # orthonormal basis: the hat of x3 against (x1, x2) vanishes
    assert evaluate(ctx, "O(x1*B(x2, x3) - x2*B(x1, x3), x3)").is_zero()
    u = x(0) + x(1)
    hat = x(0) * bilinear_B(x(1), u) - x(1) * bilinear_B(x(0), u)
    assert evaluate(ctx, "O(x1*B(x2, x1 + x2) - x2*B(x1, x1 + x2), x3)") \
        == o_proj(ctx, [hat, x(2)])
    assert evaluate(ctx, "B(x1, x1 + x2)*y1 - B(x2, x3)") == ctx.y(0)
    # a general Gram matrix: B(x1, x2) = 1 and B(x1, x1) = 2
    gen = make_env(from_generators([[[0, 1], [1, 0]]],
                                   gram=[[2, 1], [1, 2]])).ctx
    assert evaluate(gen, "B(x1, x2)") == gen.one()
    assert evaluate(gen, "B(x1, x1)/2*x1") == gen.x(0)
    y = gen.space.basis_covector
    assert evaluate(gen, "O(x1*B(x2, x2) - x2*B(x1, x2), x1)") \
        == o_proj(gen, [y(0) * 2 - y(1), y(0)])
    for bad in ("B(x1)", "B(x1, 2)", "B(x1, x2, x1)", "B(e1, x1)"):
        with pytest.raises(EvalError):
            evaluate(ctx, bad)


def _swap_under_general_gram():
    from cheralg.groups import from_generators
    from cheralg.suites import make_env
    return make_env(from_generators([[[0, 1], [1, 0]]],
                                    gram=[[2, 1], [1, 2]])).ctx


@pytest.mark.parametrize("which", ["A2@3", "general_gram"])
def test_engine_routine_calls(which, ctx_a23):
    from cheralg.centralizer import psi_kappa
    from cheralg.geometry import beta
    ctx = ctx_a23 if which == "A2@3" else _swap_under_general_gram()
    x = ctx.space.basis_covector
    covs = {"x1": x(0), "x2": x(1), "x1 + 2*x2": x(0) + x(1) * 2}
    for src, u in covs.items():
        assert evaluate(ctx, f"Of({src})") == ctx.o_frak(u)
        assert evaluate(ctx, f"x({src})") == ctx.from_covector(u)
        assert evaluate(ctx, f"beta({src})") == ctx.from_vector(beta(u))
        for src2, v in covs.items():
            assert evaluate(ctx, f"psi({src}, {src2})") == psi_kappa(ctx, u, v)
    assert not evaluate(ctx, "psi(x1, x2)").is_zero()
    for bad in ("Of(x1, x2)", "x(x1, x2)", "beta(x1, x1)", "psi(x1)",
                "psi(x1, x2, x1)", "Of(e1)", "x(1)"):
        with pytest.raises(EvalError):
            evaluate(ctx, bad)


def test_evaluator_takes_each_map_call_once(ctx_a12, monkeypatch):
    from cheralg import parser
    from cheralg.parser import Evaluator, parse_expression
    calls = []
    project = parser.p_plus

    def counted(ctx, a):
        calls.append(a)
        return project(ctx, a)

    monkeypatch.setattr(parser, "p_plus", counted)
    node = parse_expression("Pp(M(x1, x2)) - Pp(M(x1, x2))^2/2")
    again = parse_expression("[X, Pp(M(x1, x2))]")
    ev = Evaluator(ctx_a12)
    first, bracket = ev.eval_elements([node, again])
    assert bracket.is_zero()
    assert len(calls) == 1
    assert ev.eval_elements([node]) == [first]
    assert len(calls) == 2
    # one expression at a time, nothing is shared
    assert ev.eval_element(node) == first
    assert len(calls) == 4


def test_shared_requests_follow_the_evaluation():
    from cheralg.parser import _shared_requests
    shared = parse_expression("M(x1, x2)")
    square = parse_expression("x1*y1")
    nodes = [parse_expression(src) for src in (
        "Pp(M(x1, x2)) + Pm(M(x1, x2))", "-M(x1, x2)",
        "x1*y1 + x1*y1 - x1*y1 + 2", "[x1*y1, x1]", "(x1*y1)^2",
        "Pp(x1*y1)^2", "Pp(x1*y1)^2", "O(x1*2, x2)", "O(x1*2, x2)",
        "x1 + y1 + x1 + y1")]
    # x1*y1 + x1*y1 - x1*y1 + 2 runs x1, *y1, +x1*y1, -x1*y1, +2: its
    # first x1*y1 is on the run's spine, which is never requested, nor are
    # leaves and the covector arguments of O; a repeated node is not
    # walked into, so x1*y1 counts once for both Pp(x1*y1)^2
    assert _shared_requests(nodes) == {
        shared: 3, square: 5, nodes[5]: 2, nodes[7]: 2}


def test_a_batch_drops_each_shared_value_after_its_last_use(
        ctx_a12, monkeypatch):
    from cheralg import parser
    ev = Evaluator(ctx_a12)
    shared = parse_expression("M(x1, x2)")
    held = []
    for name in ("p_plus", "p_alpha"):
        routine = getattr(parser, name)
        monkeypatch.setattr(parser, name, lambda ctx, a, routine=routine: (
            held.append(dict(ev._held)), routine(ctx, a))[1])
    nodes = [parse_expression(src) for src in
             ("Pp(M(x1, x2))", "x1 + Palpha(M(x1, x2))", "Pp(x1*y1)")]
    values = ev.eval_elements(nodes)
    assert [list(h) for h in held] == [[shared], [], []]
    assert held[0][shared][0] == 1 and ev._held == {}
    assert values == [Evaluator(ctx_a12).eval_element(n) for n in nodes]
    nodes[1] = parse_expression("y5 + Palpha(M(x1, x2))")
    with pytest.raises(EvalError, match="index out of range"):
        ev.eval_elements(nodes)
    assert ev._held == {}


def test_a_projector_of_a_long_sum_evaluates():
    """No node of the 200,000-deep sum is hashed: a hash recurses in C
    down the spine, and a crash there would take the interpreter with
    it, so the call runs in a child process."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    import cheralg
    code = ("from cheralg.parser import evaluate; "
            "from cheralg.suites import make_env; "
            "ctx = make_env('A1@2').ctx; "
            "print(len(evaluate(ctx, 'Pp(x1' + '+x1'*200000 + ')').terms))")
    env = {**os.environ,
           "PYTHONPATH": str(Path(cheralg.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


# sha256 of str() of each element of DEFINITIONS, first 16 hex digits,
# recorded while each was still a Python routine (casimir, central_omega,
# gen_symmetry, p_minus, ...), so the text gives the same normal forms.
# Gamma was recorded when it became text, and the swap's Omega when Omega
# took the inverse form B^pq: it is a third of the O(x1, x2)^2 it was.
_DEFINED_SAMPLES = (
    "X", "D", "H", "Ep", "Em", "Fp", "Fm", "Casimir", "Scasimir", "Omega",
    "Otop", "Gamma", "M(x1, x2)", "M(x1 + x2, 2*x1 - x2)", "R(x1)",
    "R(x1 + x2)", "Pm(x1*y1)", "Pm(e1*e2)", "Pm(M(x1, x2))", "Pm(R(x1))",
    "Qp(1)", "Qp(gamma(x1))", "Qm(gamma(x2))", "Qm(x1*y2)")
_DEFINED_DIGESTS = {
    "A1@2": """
        941d439cddb4e005 8020d75a02c6cb74 8521bc6b389ccd1d 074f790023dd1ae5
        5d8a20c6a4577e1e d84a2aac48c78ab3 08b27ac10d125822 f641946adec86b85
        acf3ffc1bbbd18db a8398ad837711bed 809a07521964cd51 3e7ff10c9e3ac466
        e6a1d4f405e4785c 20516ebd71b5f16a 13ecfcdec8663bf6 481707369601af75
        7b7619010b5e67df 6742cb535098451d 0de1abe4138e012b 936d8487f7136f6c
        305187d8260d8b5c 92ae17921af91646 beaf35c5854201f9 2f21c6191b407f4c
        """,
    "B2@2": """
        941d439cddb4e005 8020d75a02c6cb74 0aa4f2fe486304a9 074f790023dd1ae5
        5d8a20c6a4577e1e d84a2aac48c78ab3 08b27ac10d125822 147d1b43d9cb9455
        c151e491c977beab ab30bbd8510f4bab f8b769fb2febd997 3e7ff10c9e3ac466
        e6a1d4f405e4785c 20516ebd71b5f16a 437ec1b300d67209 c6e14575e2060ab5
        6d9b6c176d34f145 716a01f74eb8df35 6ce2486ec2a67d14 e75fb961665299cf
        8774348825a808e2 efa57f4880f8e349 9ccb4aa26dd73c88 70c2161560bc6542
        """,
    "A2@3": """
        e0028561b4458e54 7eaf5b3f135975d6 65f6b75a1d03502a 8db4c864add10400
        d1041fe89e142b47 e8109399920b8908 49d4f37c79b4fc97 b6ee4267ca744667
        25414c3943b6bd4f 04fe94a3701ae51c 5db0242cc7bfc40f 426abf2547c26b5f
        e6a1d4f405e4785c 20516ebd71b5f16a 3384d3b7e5e94bd7 a19ddcb82c862c0c
        f10ec2e999dfc9bd 0b92583bcb3f0fd5 f878e54bcffa83db 4e97a6aeeaf45c05
        bc0a5f0b2b5f74a5 6dc0ea48e3986dfe d3a83c1d92ce3d44 65f597987603da57
        """,
    "A1@5": """
        deec6690bf8503fd 5f313c80c10c987d 15fbea0925a500e3 f0148f9f40be35fd
        5d733880d8decf55 3336237d55bb83e7 0ef4f61a214dcb65 77ced78258e09a64
        f2f8833e78bf2bd0 0c3d3ff5541a5ed5 ebc3cc7b89a4a41f 22b4f6f4dfe5567f
        e6a1d4f405e4785c 20516ebd71b5f16a 803a6ff1793247db 78a49cfa47733d3b
        7b7619010b5e67df 6742cb535098451d 0de1abe4138e012b c048074b96551f78
        ea4dd902867c0d8f b68783692f4db38d 125120ca06705d13 0113e131823ed8f7
        """,
    "swap": """
        65727c2e0c08bea8 8020d75a02c6cb74 8521bc6b389ccd1d 5df94c3eb040d3bc
        34ad3b69bea014e1 a17e830b1ae7d46d 08b27ac10d125822 13f04aca1a8f35d4
        bb989631cf3e607a 717bb672d263f318 e8ee6e7bf5992c0b e2e51d26af5b24fb
        53053c311debab3c adeaf4b136b01b20 8f27a1f5a7c6e85b 114750af097e63ae
        787678b71dfbcec5 fdf684d5ed7346a7 7c0a8ee39f4caa99 387f385bcdcb7022
        305187d8260d8b5c 92ae17921af91646 b7a64dbaaac5abf6 ee3db5f311bf1b0a
        """,
}


@pytest.mark.parametrize("spec", sorted(_DEFINED_DIGESTS))
def test_definitions_keep_the_normal_forms_of_the_routines(spec):
    import hashlib
    from cheralg.core import Context
    from cheralg.groups import parse_group_spec
    ctx = (_swap_under_general_gram() if spec == "swap"
           else Context(parse_group_spec(spec)))
    got = [hashlib.sha256(str(evaluate(ctx, src)).encode()).hexdigest()[:16]
           for src in _DEFINED_SAMPLES]
    want = _DEFINED_DIGESTS[spec].split()
    assert [src for src, g, w in zip(_DEFINED_SAMPLES, got, want)
            if g != w] == []


def test_every_name_and_call_of_the_table_is_sampled():
    from cheralg.parser import DEFINITIONS
    assert {key.partition("(")[0] for key in DEFINITIONS} \
        == {src.partition("(")[0] for src in _DEFINED_SAMPLES}


def test_the_call_tables_name_each_defined_call():
    """A call of DEFINITIONS stands in the covector calls with its number
    of placeholders, or in the maps with one, as None; and every None
    there has its text."""
    from cheralg.parser import _COV_CALLS, _DEFINED_CALLS, _MAPS
    for fn, (placeholders, _) in _DEFINED_CALLS.items():
        if fn in _COV_CALLS:
            assert _COV_CALLS[fn] == (len(placeholders), None), fn
        else:
            assert _MAPS[fn] is None and len(placeholders) == 1, fn
    assert {fn for fn, (_, routine) in _COV_CALLS.items() if routine is None} \
        | {fn for fn, routine in _MAPS.items() if routine is None} \
        == set(_DEFINED_CALLS)


def test_a_defined_call_evaluates_each_argument_once(ctx_a12, monkeypatch):
    from cheralg import parser
    projected = []
    forms = []
    project, form = parser.p_plus, parser.bilinear_B
    monkeypatch.setattr(parser, "p_plus", lambda ctx, a: (
        projected.append(a), project(ctx, a))[1])
    monkeypatch.setattr(parser, "bilinear_B", lambda u, v: (
        forms.append(u), form(u, v))[1])
    # the placeholder a appears twice in the text of Pm, u twice in M's
    value = evaluate(ctx_a12, "Pm(Pp(x1*y1))")
    assert len(projected) == 1
    assert value == evaluate(ctx_a12, "Pp(x1*y1) + [X, [D, Pp(x1*y1)]]/2")
    value = evaluate(ctx_a12, "M(B(x1, x1)*x1 + x2, x2)")
    assert len(forms) == 1
    assert value == evaluate(ctx_a12, "M(x1 + x2, x2)")


def test_a_call_binds_its_placeholders_for_itself_only(ctx_a12):
    from cheralg.parser import parsed
    ev = Evaluator(ctx_a12)
    inner = evaluate(ctx_a12, "Qm(gamma(x1))")
    # both maps bind a: the inner binding ends with the inner call
    assert evaluate(ctx_a12, "Pm(Qm(gamma(x1)))") \
        == ev.eval_bound(parsed("a + [X, [D, a]]/2"), {"a": inner})
    assert evaluate(ctx_a12, "Pm(R(x1))") \
        == evaluate(ctx_a12, "R(x1) + [X, [D, R(x1)]]/2")
    for bad in ("M(x1, x2)*u", "Pm(x1) + a", "M", "Pm", "R(u)"):
        with pytest.raises(EvalError, match="unknown identifier|not a cov"):
            evaluate(ctx_a12, bad)
    assert ev._scope == {}


def test_a_named_element_is_evaluated_once_per_context(monkeypatch):
    from cheralg.core import Context
    from cheralg.groups import parse_group_spec
    products = []
    mul_terms = Context._mul_terms
    monkeypatch.setattr(Context, "_mul_terms", lambda *args: (
        products.append(1), mul_terms(*args))[1])
    ctx = Context(parse_group_spec("B2@2"))
    for name in ("Casimir", "Scasimir", "Omega", "Otop", "H", "Fp"):
        first = evaluate(ctx, name)
        taken = len(products)
        assert evaluate(ctx, name).terms is first.terms, name
        assert len(products) == taken, name
