import random
from fractions import Fraction

import pytest

from cheralg.core import Context, random_element, supercommutator
from cheralg.groups import build_group
from cheralg.oracle import SpinorModule, poly_div_linear
from cheralg.scalars import Scalar, as_scalar


def k(c=0):
    return Scalar.kappa(c)


@pytest.fixture(scope="module")
def mod(ctx_a12):
    return SpinorModule(ctx_a12)


def test_dunkl_examples(mod):
    one = as_scalar(1)
    assert mod.dunkl(0, {(1, 0): one}) == {(0, 0): one + k()}
    assert mod.dunkl(0, {(2, 0): one}) == {(1, 0): as_scalar(2) + k(),
                                           (0, 1): k()}
    assert mod.dunkl(0, {(0, 0): one}) == {}


def test_dunkl_apply_linearity(ctx_a12, mod):
    from cheralg.geometry import beta
    y = beta(ctx_a12.covector([2, -1]))
    f = {(1, 0): as_scalar(1)}
    d0 = mod.dunkl(0, f)
    d1 = mod.dunkl(1, f)
    out = mod.dunkl_apply(y, f)
    comb = {}
    for key, v in d0.items():
        comb[key] = comb.get(key, as_scalar(0)) + v * 2
    for key, v in d1.items():
        comb[key] = comb.get(key, as_scalar(0)) - v
    comb = {a: b for a, b in comb.items() if not b.is_zero()}
    assert out == comb


def test_division_remainder_error():
    with pytest.raises(ValueError):
        poly_div_linear({(1, 1): as_scalar(1)}, (Fraction(1), Fraction(-1)))


def test_module_relations(ctx_a12, mod):
    ctx = ctx_a12
    s = ctx.g(ctx.group.reflections[0].elem)
    resid = supercommutator(ctx.y(0), ctx.x(0)) - 1 - ctx.scalar_elem(k()) * s
    assert resid.is_zero()
    lhs = supercommutator(ctx.y(0), ctx.x(0))
    for seed in range(8):
        v = mod.random_vector(seed)
        assert mod.act(lhs, v) == mod.act(ctx.one() + ctx.scalar_elem(k()) * s, v)
        assert mod.act(ctx.e(0) * ctx.e(0), v) == v
        assert mod.act(ctx.x(0), mod.vacuum()).terms == \
            {((1, 0), 0): as_scalar(1)}


def test_homomorphism_property(ctx_b22):
    mod = SpinorModule(ctx_b22)
    rng = random.Random(31)
    for _ in range(20):
        a = random_element(ctx_b22, rng)
        b = random_element(ctx_b22, rng)
        v = mod.random_vector(rng.randrange(10 ** 9))
        assert mod.act(a * b, v) == mod.act(a, mod.act(b, v))


def test_clifford_module_form(ctx_a12, mod):
    from cheralg.geometry import bilinear_B
    u = ctx_a12.covector([1, 2])
    w = ctx_a12.covector([3, -1])
    pairing = supercommutator(ctx_a12.gamma(u), ctx_a12.gamma(w))
    for seed in range(5):
        v = mod.random_vector(seed)
        assert mod.act(pairing, v) == v.scale(bilinear_B(u, w) * 2)


def test_odd_dimension_sector():
    ctx = Context(build_group("A", 1, 3))
    for sector in (1, -1):
        mod = SpinorModule(ctx, sector)
        vac = mod.vacuum()
        assert mod.apply_e(2, vac) == vac.scale(as_scalar(sector))
        assert mod.apply_e(2, mod.apply_e(2, vac)) == vac
        # one theta-plus flips the degree sign
        up = mod._theta_plus(0, vac)
        assert mod.apply_e(2, up) == up.scale(as_scalar(-sector))
    rng = random.Random(3)
    mod = SpinorModule(ctx, -1)
    for _ in range(10):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        v = mod.random_vector(rng.randrange(10 ** 9))
        assert mod.act(a * b, v) == mod.act(a, mod.act(b, v))


def test_random_vector_determinism(mod):
    v1 = mod.random_vector(1, 2)
    v2 = mod.random_vector(1, 2)
    assert v1 == v2
    assert v1 != mod.random_vector(2, 2)
    for (exp, _sm), _ in mod.random_vector(9, 2).terms.items():
        assert sum(exp) <= 2


def test_group_action_on_module(ctx_a12, mod):
    ctx = ctx_a12
    s = ctx.g(ctx.group.reflections[0].elem)
    v = mod.vector({((2, 1), 0): 1})
    out = mod.act(s, v)
    assert out == mod.vector({((1, 2), 0): 1})
    # spinor factor untouched by the group
    v2 = mod.vector({((1, 0), 1): 1})
    assert mod.act(s, v2) == mod.vector({((0, 1), 1): 1})


def test_identity_gram_required():
    from cheralg.groups import trivial_group
    ctx = Context(trivial_group(2, gram=[[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        SpinorModule(ctx)


def test_module_evaluator_composes_without_engine_products(
        ctx_a12, mod, monkeypatch):
    from cheralg.core import Context
    from cheralg.oracle import ModuleEvaluator
    from cheralg.parser import evaluate, parse_expression
    src = ("[D, [X, e1*e2]] + B(x1, x1)/2*x1 - 3*O(x1)^2 + {gamma(x2), O(x1)}"
           " - k1*rho(s1)*y2")
    node = parse_expression(src)
    engine = evaluate(ctx_a12, src)
    module_eval = ModuleEvaluator(mod)
    vecs = [mod.random_vector(seed) for seed in range(4)]
    expected = [mod.act(engine, v) for v in vecs]
    module_eval.act(node, vecs[0])        # builds the leaves

    def no_products(*args, **kwargs):
        raise AssertionError("the module evaluator multiplied in the engine")

    monkeypatch.setattr(Context, "_mul_terms", no_products)
    assert [module_eval.act(node, v) for v in vecs] == expected


def test_module_evaluator_rejects_projector_maps(mod):
    from cheralg.oracle import ModuleEvaluator
    from cheralg.parser import EvalError, parse_expression
    module_eval = ModuleEvaluator(mod)
    for src in ("Pp(x1)", "x1*Pm(e1)", "[X, Qp(e1)]", "Palpha(1)", "Qm(e1)"):
        with pytest.raises(EvalError, match="composition"):
            module_eval.act(parse_expression(src), mod.vacuum())
    # a bracket needs the parity of each operand
    for src in ("[X, x1 + e1]", "{x1*e1 + 1, D}"):
        with pytest.raises(EvalError, match="mixed parity"):
            module_eval.act(parse_expression(src), mod.vacuum())
