import random
from fractions import Fraction

import pytest

from cheralg.core import random_element, supercommutator
from cheralg.parser import (EvalError, Evaluator, ParseError, evaluate,
                            parse_expression)
from cheralg.parser import Bin, Bracket, Call, Name, Neg, Num
from cheralg.scalars import Scalar


def test_ast_shapes():
    ast = parse_expression("[y1, x1]")
    assert isinstance(ast, Bracket) and ast.kind == "super"
    ast = parse_expression("{e1, e2}")
    assert ast.kind == "anti"
    ast = parse_expression("O(x1, x1 - x2)")
    assert isinstance(ast, Call) and ast.fn == "O" and len(ast.args) == 2
    assert isinstance(ast.args[1], Bin)


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


def test_roundtrip_random(ctx_b22):
    rng = random.Random(77)
    ev = Evaluator(ctx_b22)
    for _ in range(40):
        a = random_element(ctx_b22, rng, max_degree=3)
        assert ev.eval_element(parse_expression(str(a))) == a


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
