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
    for name in ("p_plus", "p_minus"):
        routine = getattr(parser, name)
        monkeypatch.setattr(parser, name, lambda ctx, a, routine=routine: (
            held.append(dict(ev._held)), routine(ctx, a))[1])
    nodes = [parse_expression(src) for src in
             ("Pp(M(x1, x2))", "x1 + Pm(M(x1, x2))", "Pp(x1*y1)")]
    values = ev.eval_elements(nodes)
    assert [list(h) for h in held] == [[shared], [], []]
    assert held[0][shared][0] == 1 and ev._held == {}
    assert values == [Evaluator(ctx_a12).eval_element(n) for n in nodes]
    nodes[1] = parse_expression("y5 + Pm(M(x1, x2))")
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
