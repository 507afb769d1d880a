import itertools
from fractions import Fraction

import pytest

from cheralg import suites
from cheralg.centralizer import o_proj, psi_kappa
from cheralg.core import anticommutator as ac, supercommutator as sc
from cheralg.geometry import beta, bilinear_B
from cheralg.osp import build_osp
from cheralg.parser import Evaluator, evaluate, parse_expression, substitute
from cheralg.scalars import Scalar


def test_angular_momentum(ctx_a12):
    ctx = ctx_a12
    m = evaluate(ctx, "M(x1, x2)")
    assert m == ctx.x(0) * ctx.y(1) - ctx.x(1) * ctx.y(0)
    assert evaluate(ctx, "M(x1, x1)").is_zero()
    assert m.kappa_degree() == 0          # deformation terms cancel
    gens = build_osp(ctx)
    for t in (gens.H, gens.Ep, gens.Em):
        assert sc(t, m).is_zero()


def test_one_index_element(ctx_a12):
    ctx = ctx_a12
    u = ctx.space.basis_covector(0)
    assert o_proj(ctx, [u]) == ctx.o_frak(u)
    # both closed forms of one index are the one-index element itself
    assert suites._routes(1) == (("first", "O(a) - (Of(a))"),
                                 ("second", "O(a) - (Of(a))"))


def test_two_index_value(ctx_a12):
    ctx = ctx_a12
    u, v = ctx.space.basis_covector(0), ctx.space.basis_covector(1)
    s = ctx.g(ctx.group.reflections[0].elem)
    expect = (ctx.x(0) * ctx.y(1) - ctx.x(1) * ctx.y(0)
              + ctx.e(0) * ctx.e(1) * Fraction(1, 2)
              + ctx.scalar_elem(Scalar.kappa(0)) * s * ctx.e(0) * ctx.e(1))
    O12 = o_proj(ctx, [u, v])
    assert O12 == expect
    two = suites._O_TWO[0].format("x1", "x2")
    assert evaluate(ctx, two) == expect
    # undeformed limit drops the reflection term
    assert O12.substitute_kappa([0]) == \
        (ctx.x(0) * ctx.y(1) - ctx.x(1) * ctx.y(0)
         + ctx.e(0) * ctx.e(1) * Fraction(1, 2)).substitute_kappa([0])


def test_skew_symmetry_and_repeats(ctx_a12):
    ctx = ctx_a12
    u, v = ctx.space.basis_covector(0), ctx.space.basis_covector(1)
    assert o_proj(ctx, [v, u]) == -o_proj(ctx, [u, v])
    assert o_proj(ctx, [u, u]).is_zero()
    assert o_proj(ctx, [u + v, u + v]).is_zero()


def test_index_count_bounds(ctx_a12):
    ctx = ctx_a12
    u = ctx.space.basis_covector(0)
    with pytest.raises(ValueError):
        o_proj(ctx, [])
    with pytest.raises(ValueError):
        o_proj(ctx, [u, u, u])              # three indices in dimension two


def test_route_agreement_nonorthogonal(env_a23):
    # the closed forms are the templates of the routes.nonorth3 row
    row = {r.id: r for r in suites.TEMPLATE_ROWS}["routes.nonorth3"]
    residuals = row.residuals(env_a23)
    assert [label for label, _ in residuals] == ["first", "second", "three"]
    assert all(r.is_zero() for _, r in residuals)


def test_membership(ctx_a23):
    ctx = ctx_a23
    gens = build_osp(ctx)
    b = [ctx.space.basis_covector(p) for p in range(3)]
    for tup in ([b[0]], [b[0], b[2]], b):
        o = o_proj(ctx, tup)
        assert sc(gens.X, o).is_zero()
        assert sc(gens.D, o).is_zero()


def test_top_element(ctx_a12, ctx_a23):
    for ctx in (ctx_a12, ctx_a23):
        basis = [ctx.space.basis_covector(p) for p in range(ctx.dim)]
        assert evaluate(ctx, "Otop") == o_proj(ctx, basis)


def test_central_omega_d2(ctx_a12):
    ctx = ctx_a12
    Om = evaluate(ctx, "Omega")
    O12 = evaluate(ctx, "O(x1, x2)")
    assert Om == O12 * O12                # the one-index sum has weight d-2=0
    rho = ctx.rho([0])
    assert (Om * rho - rho * Om).is_zero()
    assert (Om * O12 - O12 * Om).is_zero()


def test_psi_kappa_matches_commutator(ctx_b22):
    ctx = ctx_b22
    covs = [ctx.space.basis_covector(p) for p in range(2)]
    covs.append(covs[0] + covs[1])
    for u, v in itertools.product(covs, repeat=2):
        lhs = sc(ctx.from_vector(beta(u)), ctx.from_covector(v))
        assert lhs == ctx.scalar_elem(bilinear_B(u, v)) + psi_kappa(ctx, u, v)
        assert psi_kappa(ctx, u, v) == psi_kappa(ctx, v, u)


def test_square_formula_spot(ctx_a23):
    # the three-index square in terms of lower squares
    ctx = ctx_a23
    Oi = lambda *idx: o_proj(ctx, [ctx.space.basis_covector(p) for p in idx])
    lhs = Oi(0, 1, 2) ** 2
    rhs = (Oi(0) ** 2 + Oi(1) ** 2 + Oi(2) ** 2
           + Oi(0, 1) ** 2 + Oi(0, 2) ** 2 + Oi(1, 2) ** 2
           - ctx.scalar_elem(Fraction(1, 4)))
    assert (lhs - rhs).is_zero()


def test_corrected_triple_product_relation(env_a15):
    # The second post-corollary product relation is misprinted in its
    # source; the engine-verified form has a minus sign on the first
    # two-index bracket (and the one-index bracket vanishes identically).
    ctx = env_a15.ctx
    Oi = lambda *idx: o_proj(ctx, [ctx.space.basis_covector(p) for p in idx])
    j, k, l, m, n = range(5)
    lhs = ac(Oi(j, k, l), Oi(j, m, n))
    assert ac(Oi(j), Oi(j, k, l, m, n)).is_zero()
    rhs = -ac(Oi(j, k), Oi(j, l, m, n)) + ac(Oi(j, l), Oi(j, k, m, n))
    assert (lhs - rhs).is_zero()
    # and the printed sign pattern does not hold
    wrong = ac(Oi(j, k), Oi(j, l, m, n)) + ac(Oi(j, l), Oi(j, k, m, n))
    assert not (lhs - wrong).is_zero()


def test_shaped_antisymmetrization(ctx_a23):
    ctx = ctx_a23
    one, two = ("O({})", 1), ("O({}, {})", 2)
    text = suites._antisym(one, two)
    assert text.startswith("(O(a)*O(b, c) - O(a)*O(c, b) - O(b)*O(a, c)")
    assert text.endswith(")/6") and text.count("O(") == 12
    bind = {n: parse_expression(f"x{p}") for p, n in enumerate("abc", 1)}

    def shaped(*factors):
        node = substitute(parse_expression(suites._antisym(*factors)), bind)
        return Evaluator(ctx).eval_element(node)
    # the recursion.three_n3 identity, at the orthonormal triple
    b = [ctx.space.basis_covector(p) for p in range(3)]
    r = shaped(one, two) * (-4) + shaped(two, one) * 4
    assert r.is_zero()
    # one shaped product, written out over the six orderings
    want = ctx.zero()
    for (i, j, k), sign in (((0, 1, 2), 1), ((0, 2, 1), -1), ((1, 0, 2), -1),
                            ((1, 2, 0), 1), ((2, 0, 1), 1), ((2, 1, 0), -1)):
        want = want + o_proj(ctx, [b[i]]) * o_proj(ctx, [b[j], b[k]]) * sign
    assert shaped(one, two) == want * Fraction(1, 6)
