import random
from fractions import Fraction

import pytest

from cheralg import oracle
from cheralg.core import (Context, pack, random_element, supercommutator,
                          unpack)
from cheralg.groups import build_group
from cheralg.oracle import (ModuleEvaluator, SpinorModule, poly_div_linear,
                            poly_partial)
from cheralg.parser import (Bin, Bracket, Neg, Num, parse_expression,
                            reciprocal)
from cheralg.scalars import BaseNumber, Scalar, as_base, as_scalar, merged
from cheralg.suites import ORACLE_ROWS


def k(c=0):
    return Scalar.kappa(c)


@pytest.fixture(scope="module")
def mod(ctx_a12):
    return SpinorModule(ctx_a12)


def test_dunkl_examples(mod):
    _assert_dunkl_examples(mod)


def _assert_dunkl_examples(mod):
    one = as_scalar(1)
    assert mod.dunkl(0, {(1, 0): one}) == {(0, 0): one + k()}
    assert mod.dunkl(0, {(2, 0): one}) == {(1, 0): as_scalar(2) + k(),
                                           (0, 1): k()}
    assert mod.dunkl(0, {(0, 0): one}) == {}


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


def test_random_vector_determinism(mod):
    v1 = mod.random_vector(1, 2)
    v2 = mod.random_vector(1, 2)
    assert v1 == v2
    assert v1 != mod.random_vector(2, 2)
    for (exp, _sm), _ in mod.random_vector(9, 2).terms.items():
        assert sum(exp) <= 2


def test_a_draw_whose_terms_cancel_gives_the_vacuum(mod):
    # these seeds draw one monomial twice with opposite coefficients
    for seed in (2992, 10121, 14387):
        v = mod.random_vector(seed, 3)
        assert v.terms, seed
        assert v == mod.vacuum(), seed


def test_group_action_on_module(ctx_a12, mod):
    ctx = ctx_a12
    s = ctx.g(ctx.group.reflections[0].elem)
    v = mod.vector({((2, 1), 0): 1})
    out = mod.act(s, v)
    assert out == mod.vector({((1, 2), 0): 1})
    # exterior factor untouched by the group
    v2 = mod.vector({((1, 0), 1): 1})
    assert mod.act(s, v2) == mod.vector({((0, 1), 1): 1})


def test_module_builds_under_a_general_gram():
    from cheralg.groups import trivial_group
    ctx = Context(trivial_group(2, gram=[[2, 0], [0, 1]]))
    mod = SpinorModule(ctx)
    v = mod.random_vector(4)
    # e_1^2 = B(x1, x1) = 2 and e_2^2 = 1
    assert mod.apply_e(0, mod.apply_e(0, v)) == v.scale(2)
    assert mod.apply_e(1, mod.apply_e(1, v)) == v


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


def test_module_has_its_own_exponent_action(ctx_a12, monkeypatch):
    """A wrong engine exponent action must not reach the module."""
    ctx = ctx_a12
    s = ctx.g(ctx.group.reflections[0].elem)
    y1 = ctx.y(0)

    def wrong_image(self, g, xs):
        return ((xs, Fraction(3)),)

    monkeypatch.setattr(Context, "_act_x", wrong_image)
    assert ctx._act_x(1, (2, 1)) == (((2, 1), Fraction(3)),)
    mod = SpinorModule(ctx)
    _assert_dunkl_examples(mod)
    assert mod.act(s, mod.vector({((2, 1), 0): 1})) == \
        mod.vector({((1, 2), 0): 1})
    assert mod.act(y1, mod.vector({((2, 0), 1): 1})) == \
        mod.vector({((1, 0), 1): as_scalar(2) + k(), ((0, 1), 1): k()})


def _kappa_poly(ctx, rng, n_terms=5, max_degree=4):
    """A seeded polynomial whose coefficients are kappa-polynomials."""
    poly = {}
    for _ in range(n_terms):
        exp = [0] * ctx.dim
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(ctx.dim)] += 1
        c = as_scalar(BaseNumber(rng.randint(-3, 3), rng.randint(-1, 1)))
        for cls in range(ctx.num_classes):
            c = c + k(cls) * rng.randint(-2, 2) + Scalar.kappa(cls, 2)
        poly = merged(poly, {tuple(exp): c})
    return poly


def _reference_dunkl(ctx, p, poly):
    """The partial derivative plus, per reflection, k alpha_p times the
    difference quotient (f - s.f)/alpha, with s.f from the engine."""
    out = poly_partial(poly, p)
    for refl in ctx.group.reflections:
        if refl.root[p] == 0:
            continue
        sf = {}
        for exp, c in poly.items():
            for exp2, f in ctx._act_x(refl.elem, pack(exp)):
                sf = merged(sf, {unpack(exp2, ctx.dim): c * f})
        quot = poly_div_linear(merged(poly, sf, True), refl.root)
        w = ctx.kappas[refl.class_id] * refl.root[p]
        out = merged(out, {e: v * w for e, v in quot.items()})
    return out


@pytest.mark.parametrize("env", ["env_a12", "env_b22", "env_a23", "env_a15"])
def test_dunkl_memo_matches_reference(env, request, monkeypatch):
    ctx = request.getfixturevalue(env).ctx
    rng = random.Random(8)
    polys = [_kappa_poly(ctx, rng) for _ in range(3)]
    mod = SpinorModule(ctx)
    expected = {(p, i): _reference_dunkl(ctx, p, f)
                for p in range(ctx.dim) for i, f in enumerate(polys)}
    for (p, i), value in expected.items():
        assert mod.dunkl(p, polys[i]) == value
    def no_division(*args):
        raise AssertionError("the second call divided again")

    # the second call reads the memo: it divides nothing
    monkeypatch.setattr(oracle, "poly_div_linear", no_division)
    for (p, i), value in expected.items():
        assert mod.dunkl(p, polys[i]) == value


@pytest.mark.parametrize("env", ["env_a12", "env_b22", "env_a23", "env_a15"])
def test_dunkl_operators_commute(env, request):
    ctx = request.getfixturevalue(env).ctx
    mod = SpinorModule(ctx)
    rng = random.Random(9)
    for f in [_kappa_poly(ctx, rng) for _ in range(2)]:
        for p in range(ctx.dim):
            for q in range(p + 1, ctx.dim):
                assert mod.dunkl(p, mod.dunkl(q, f)) == \
                    mod.dunkl(q, mod.dunkl(p, f))


class _MemoFree(ModuleEvaluator):
    """Every node composes its children on the whole vector, with no image
    memo; every leaf acts on it through SpinorModule.act."""

    def act(self, node, v):
        act = self.act
        if oracle._is_leaf(node):
            return self.module.act(self.leaf(node), v)
        if isinstance(node, Neg):
            return -act(node.arg, v)
        if isinstance(node, Bracket):
            ab = act(node.left, act(node.right, v))
            ba = act(node.right, act(node.left, v))
            odd = self.parity(node.left) & self.parity(node.right)
            return ab - ba if (node.kind == "super") != odd else ab + ba
        if node.op == "+":
            return act(node.left, v) + act(node.right, v)
        if node.op == "-":
            return act(node.left, v) - act(node.right, v)
        if node.op == "*":
            return act(node.left, act(node.right, v))
        if node.op == "/":
            return act(node.left, v).scale(reciprocal(self.leaf(node.right)))
        assert node.op == "^"
        for _ in range(node.right.value):
            v = act(node.left, v)
        return v


def _image_keys(module_eval):
    return {node: set(images) for node, images in module_eval._images.items()}


@pytest.mark.parametrize("env", ["env_a12", "env_b22", "env_a23"])
def test_node_memo_fills_only_new_keys(env, request):
    """Per oracle row (and the perturbed first row): the memoized action
    equals the memo-free composition, a vector of known keys adds no image
    at any node, and new keys add images only where a fresh evaluator on
    those keys alone would."""
    group_env = request.getfixturevalue(env)
    mod = SpinorModule(group_env.ctx)
    base = mod.random_vector(5, 3, 6)
    extra = mod.random_vector(6, 3, 6)
    new = mod.vector({key: c for key, c in extra.terms.items()
                      if key not in base.terms})
    assert not new.is_zero()
    nodes = [(name, row.instances(group_env.group)[0][1])
             for name, row in ORACLE_ROWS]
    nodes.append(("mutation", Bin("+", nodes[0][1], Num(1))))
    for name, node in nodes:
        memo = ModuleEvaluator(mod)
        reference = _MemoFree(mod)
        assert memo.act(node, base) == reference.act(node, base), name
        first = _image_keys(memo)
        assert first[node] == set(base.terms), name
        same_keys = base.scale(k(0) + 2)
        assert memo.act(node, same_keys) == \
            reference.act(node, same_keys), name
        assert _image_keys(memo) == first, name
        assert memo.act(node, base + new) == \
            reference.act(node, base + new), name
        alone = ModuleEvaluator(mod)
        alone.act(node, new)
        only_new = _image_keys(alone)
        after = _image_keys(memo)
        assert after[node] - first[node] == set(new.terms), name
        for sub, keys in after.items():
            assert keys - first.get(sub, set()) <= only_new.get(sub, set()), \
                (name, sub)


def test_leaf_memo_stays_with_its_module(env_a15):
    # two modules on one context, one of them with every e_p doubled: the
    # plain module's evaluator must not read the other's images
    ctx = env_a15.ctx
    node = parse_expression("e5*x1 + O(x1)*e5*y2 - Gamma*e1")
    doubled = SpinorModule(ctx)
    apply_e = doubled.apply_e
    doubled.apply_e = lambda p, v: apply_e(p, v).scale(2)
    other = ModuleEvaluator(doubled)
    plain = ModuleEvaluator(SpinorModule(ctx))
    vecs = [plain.module.random_vector(seed, 2, 5) for seed in range(3)]
    on_other = [other.act(node, v) for v in vecs]   # filled first
    on_plain = [plain.act(node, v) for v in vecs]
    fresh = [ModuleEvaluator(SpinorModule(ctx)).act(node, v) for v in vecs]
    assert on_plain == fresh
    assert on_plain != on_other


def test_new_leaf_calls_act_as_their_engine_elements(ctx_a12, mod):
    from cheralg.oracle import ModuleEvaluator
    from cheralg.parser import evaluate, parse_expression
    vecs = [mod.random_vector(seed) for seed in range(6)]
    for src in ("Of(x1)*gamma(x2)", "x(x1 + x2)*beta(x2) - psi(x1, x2)",
                "[beta(x1), x(x2)]"):
        module_eval = ModuleEvaluator(mod)
        node = parse_expression(src)
        engine = evaluate(ctx_a12, src)
        assert not engine.is_zero()
        for v in vecs:
            assert module_eval.act(node, v) == mod.act(engine, v), src


def test_subtraction_is_adding_the_negation(mod):
    from cheralg.oracle import PS_ZERO, PolySpinor
    vecs = [mod.random_vector(seed) for seed in range(5)] + [PS_ZERO]
    for a in vecs:
        assert a - a == PS_ZERO and a + (-a) == PS_ZERO
        for b in vecs:
            assert a - b == a + (-b)
            assert a + b == b + a
            assert (a - b).terms == PolySpinor(dict((a - b).terms)).terms
            assert merged(a.terms, b.terms, True) \
                == merged(a.terms, {k: -v for k, v in b.terms.items()})
    one = {(1, 0): as_scalar(1)}
    assert merged({}, one, True) == {(1, 0): as_scalar(-1)}
    assert merged(one, {}, True) == one and merged({}, one) == one
    assert merged(one, one, True) == {}


def _reference_act_monomial(mod, mono, v):
    """The word x^a y^b g e_A on ``v`` step by step: the Clifford bits
    right to left on the whole vector, then per mask the group
    action and one Dunkl operator per unit of y-degree, then the shift by
    x^a."""
    xs, ys, g, e = mono
    for p in reversed([p for p in range(mod.dim) if e >> p & 1]):
        v = mod.apply_e(p, v)
    polys = {}
    for (exp, sm), c in v.terms.items():
        polys.setdefault(sm, {})[exp] = c
    out = {}
    for sm, poly in polys.items():
        poly = mod._act_group_poly(g, poly)
        for p, n in enumerate(unpack(ys, mod.dim)):
            for _ in range(n):
                poly = mod.dunkl(p, poly)
        shift = unpack(xs, mod.dim)
        for exp, c in poly.items():
            out[(tuple(a + b for a, b in zip(exp, shift)), sm)] = c
    return mod.vector(out)


def _signed_group(spec, sign):
    """The group of ``spec`` under ``sign`` times its Gram matrix: "1@3" is
    the trivial group on three coordinates, "swap" the coordinate swap
    under [[2, 1], [1, 2]], and the rest Weyl groups under the identity."""
    from cheralg.groups import from_generators, trivial_group
    if spec == "swap":
        return from_generators([[[0, 1], [1, 0]]],
                               gram=[[2 * sign, sign], [sign, 2 * sign]])
    d = int(spec[-1])
    gram = [[sign * (p == q) for q in range(d)] for p in range(d)]
    if spec == "1@3":
        return trivial_group(3, gram=gram)
    return build_group(spec[0], int(spec[1]), d, gram=gram)


def _on_every_mask(mod, v):
    """``v`` spread over every mask: each term of ``v`` on mask 0 moved to
    the mask numbered by its index among the terms, modulo 2^d."""
    return mod.vector({(exp, i % (1 << mod.dim)): c
                       for i, ((exp, _), c) in enumerate(v.terms.items())})


@pytest.mark.parametrize("spec", ["A1@2", "B2@2", "A2@3", "1@3", "swap"])
@pytest.mark.parametrize("sign", [1, -1])
def test_act_monomial_matches_the_step_by_step_route(spec, sign):
    # sign -1 negates the Gram matrix: e_p^2 = -1 on the Weyl groups
    ctx = Context(_signed_group(spec, sign))
    mod = SpinorModule(ctx)
    rng = random.Random(f"{spec} {sign}")
    words = [m for _ in range(8)
             for m in random_element(ctx, rng, max_degree=4).terms]
    vecs = [_on_every_mask(mod, mod.random_vector(rng.randrange(10 ** 9), 3,
                                                  5)) for _ in range(3)]
    for mono in words:
        for v in vecs:
            assert mod.act_monomial(mono, v) == \
                _reference_act_monomial(mod, mono, v), mono
    # a second pass reads the filled image memo
    size = len(mod._image_memo)
    for mono in words:
        assert mod.act_monomial(mono, vecs[0]) == \
            _reference_act_monomial(mod, mono, vecs[0]), mono
    assert len(mod._image_memo) == size


@pytest.mark.parametrize("spec", ["A1@2", "B2@2", "A2@3"])
def test_act_sums_the_step_by_step_words(spec):
    # the words of an element that share a Clifford mask share its passes
    from cheralg.core import Element
    from cheralg.groups import parse_group_spec
    ctx = Context(parse_group_spec(spec))
    mod = SpinorModule(ctx)
    rng = random.Random(spec)
    for _ in range(4):
        elem = random_element(ctx, rng, max_degree=3, n_terms=8)
        v = mod.random_vector(rng.randrange(10 ** 9), 3, 5)
        want = mod.vector({})
        for mono, c in elem.terms.items():
            word = _reference_act_monomial(mod, mono, v)
            want = want + word.scale(c)
        assert mod.act(elem, v) == want
        assert mod.act(Element(ctx, {}), v) == mod.vector({})


def test_oracle_run_applies_each_clifford_mask_once(env_a12, monkeypatch):
    # one pass per mask and act call, a mask built on a held shorter one:
    # 1,098 passes on A1@2 over the 2^d masks of Lambda(V)
    from cheralg.suites import run_suite
    passes = []
    apply_e = SpinorModule.apply_e

    def counting(self, p, v):
        passes.append(p)
        return apply_e(self, p, v)
    monkeypatch.setattr(SpinorModule, "apply_e", counting)
    reports = run_suite(env_a12, "oracle")
    assert {r.status for r in reports} == {"pass"}
    assert 0 < len(passes) <= 1164


def test_oracle_suite_enters_the_traced_module_boundaries(env_a12,
                                                          monkeypatch):
    """The benchmark's tracer times the oracle at SpinorModule.act,
    SpinorModule.dunkl and poly_div_linear, and fails a traced run in
    which one of them never fires; the oracle suite must enter all three."""
    from cheralg.suites import run_suite
    fired = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            fired.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(SpinorModule, "act")
    counting(SpinorModule, "dunkl")
    counting(oracle, "poly_div_linear")
    reports = run_suite(env_a12, "oracle")
    assert {r.status for r in reports} == {"pass"}
    assert set(fired) == {"act", "dunkl", "poly_div_linear"}


# the swap of two coordinates under the three general Gram matrices
SWAP_GRAMS = [[[2, 1], [1, 2]], [[2, Fraction(1, 3)], [Fraction(1, 3), 2]],
              [[0, 1], [1, 0]]]


def _swap_ctx(gram):
    from cheralg.groups import from_generators
    return Context(from_generators([[[0, 1], [1, 0]]], gram=gram))


@pytest.mark.parametrize("spec", ["A2@3", "1@3"])
def test_gamma_plus_or_minus_one_acts_nonzero_in_odd_dimension(spec):
    """Gamma is central in an odd-dimensional Clifford algebra, so it acts
    by a sign on an irreducible module, where Gamma + 1 or Gamma - 1 kills
    every vector; Lambda(V) holds both signs, so neither kills a sample."""
    from cheralg.parser import evaluate
    ctx = Context(_signed_group(spec, 1))
    mod = SpinorModule(ctx)
    samples = [mod.random_vector(2024 + 7919 * i, 3) for i in range(20)]
    for src in ("Gamma + 1", "Gamma - 1"):
        elem = evaluate(ctx, src)
        assert not elem.is_zero()
        for v in samples:
            assert not mod.act(elem, v).is_zero(), src


def _anticommutators_hold(mod, gram, seed):
    """Is apply_e(p) apply_e(q) + apply_e(q) apply_e(p) equal to 2 gram[p][q]
    on a random vector put on each mask in turn, for every pair p, q?"""
    base = mod.random_vector(seed, 2, 3)
    for mask in range(1 << mod.dim):
        v = mod.vector({(exp, mask): c for (exp, _), c in base.terms.items()})
        for p in range(mod.dim):
            for q in range(mod.dim):
                got = mod.apply_e(p, mod.apply_e(q, v)) \
                    + mod.apply_e(q, mod.apply_e(p, v))
                if got != v.scale(as_scalar(2 * gram[p][q])):
                    return False
    return True


@pytest.mark.parametrize("spec", ["A1@2", "B3@3", "swap0", "swap1",
                                  "swap2"])
def test_clifford_relations_on_every_mask(spec, monkeypatch):
    # A1@2 and B3@3 under the identity Gram, the swap under SWAP_GRAMS
    if spec.startswith("swap"):
        gram = SWAP_GRAMS[int(spec[-1])]
        ctx = _swap_ctx(gram)
    else:
        ctx = Context(_signed_group(spec, 1))
        gram = [[int(p == q) for q in range(ctx.dim)] for p in range(ctx.dim)]
    mod = SpinorModule(ctx)
    for seed in range(3):
        assert _anticommutators_hold(mod, gram, seed)
    # the control: a contraction by 2B breaks the relation
    doubled = tuple(tuple((q, as_base(2 * x)) for q, x in enumerate(row) if x)
                    for row in gram)
    monkeypatch.setattr(ctx.space, "gram", doubled)
    assert not _anticommutators_hold(mod, gram, 0)


@pytest.mark.parametrize("gram", SWAP_GRAMS)
def test_homomorphism_under_a_general_gram(gram):
    ctx = _swap_ctx(gram)
    mod = SpinorModule(ctx)
    rng = random.Random(41)
    for _ in range(15):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        v = mod.random_vector(rng.randrange(10 ** 9))
        assert mod.act(a * b, v) == mod.act(a, mod.act(b, v))


@pytest.mark.parametrize("gram", SWAP_GRAMS)
def test_products_check_sees_a_halved_clifford_cross_term(gram, monkeypatch):
    """e_q e_p = -e_p e_q + 2 B(x_q, x_p) for q > p; the engine writing B
    instead of 2B leaves the identity Gram alone and must fail
    oracle.products under each general Gram."""
    from cheralg.suites import make_env, run_suite
    from cheralg.groups import from_generators
    insert = Context._cliff_insert

    def halved(self, mask, p):
        # the terms of e_mask * e_p without the top bit q of mask come
        # from the cross term, when q > p
        q = mask.bit_length() - 1
        res = insert(self, mask, p)
        if q <= p:
            return res
        return tuple((m, c if m >> q & 1 else c * Fraction(1, 2))
                     for m, c in res)
    monkeypatch.setattr(Context, "_cliff_insert", halved)
    env = make_env(from_generators([[[0, 1], [1, 0]]], gram=gram))
    reports = run_suite(env, "oracle.products")
    assert [(r.id, r.status) for r in reports] == \
        [("oracle.products", "fail")]


def test_repr_names_every_mask_bit():
    from cheralg.groups import trivial_group
    mod = SpinorModule(Context(trivial_group(18)))
    top = mod.apply_e(17, mod.vacuum())
    assert top == mod.vector({((0,) * 18, 1 << 17): 1})
    assert "e18" in repr(top)
    assert repr(top) != repr(mod.vacuum())
    assert repr(mod.apply_e(0, top)) != repr(mod.apply_e(16, top))
