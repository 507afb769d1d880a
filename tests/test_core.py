import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cheralg.core import (FIELD_BITS, Context, Monomial, anticommutator,
                          antisymmetrize, exponent_bits, pack,
                          random_element, supercommutator, unpack)
from cheralg.geometry import bilinear_B
from cheralg.groups import (build_group, from_generators, parse_group_spec,
                            trivial_group)
from cheralg.parser import Evaluator, evaluate, parse_expression
from cheralg.scalars import BN_I, BN_SQRT2, BaseNumber, Scalar
from cheralg.suites import make_env, run_suite


def k(c=0, e=1):
    return Scalar.kappa(c, e)


def test_deformed_commutation(ctx_a12):
    ctx = ctx_a12
    s = ctx.g(ctx.group.reflections[0].elem)
    assert ctx.y(0) * ctx.x(0) == ctx.x(0) * ctx.y(0) + 1 + ctx.scalar_elem(k()) * s
    assert ctx.y(0) * ctx.x(1) == ctx.x(1) * ctx.y(0) - ctx.scalar_elem(k()) * s
    assert str(supercommutator(ctx.y(0), ctx.x(0))) == "1 + k1*s1"


def test_clifford_relations(ctx_a12):
    ctx = ctx_a12
    e1, e2 = ctx.e(0), ctx.e(1)
    assert e2 * e1 == -(e1 * e2)
    assert e1 * e1 == ctx.one()
    assert supercommutator(e1, e1) == ctx.scalar_elem(2)


def test_group_slides_right(ctx_a12):
    ctx = ctx_a12
    s = ctx.g(ctx.group.reflections[0].elem)
    assert s * ctx.x(0) == ctx.x(1) * s
    assert s * ctx.y(1) == ctx.y(0) * s
    assert s * ctx.e(0) == ctx.e(0) * s          # group commutes with Clifford
    assert s * s == ctx.one()


def test_group_action_on_monomials(ctx_a12):
    ctx = ctx_a12
    s = ctx.g(ctx.group.reflections[0].elem)
    lhs = s * (ctx.x(0) * ctx.x(0) * ctx.x(1))
    assert lhs == ctx.x(1) * ctx.x(1) * ctx.x(0) * s


def test_vectors_commute(ctx_a23):
    ctx = ctx_a23
    assert supercommutator(ctx.y(0), ctx.y(1)).is_zero()
    assert supercommutator(ctx.x(0), ctx.x(2)).is_zero()


def test_weyl_limit_is_undeformed():
    ctx = Context(trivial_group(2))
    assert supercommutator(ctx.y(0), ctx.x(0)) == ctx.one()
    assert supercommutator(ctx.y(0), ctx.x(1)).is_zero()


def test_mixed_parity_brackets(ctx_a12):
    ctx = ctx_a12
    rng = random.Random(12)
    for _ in range(15):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        split = (a.even_part() * b.even_part() - b.even_part() * a.even_part()
                 + a.even_part() * b.odd_part() - b.odd_part() * a.even_part()
                 + a.odd_part() * b.even_part() - b.even_part() * a.odd_part()
                 + a.odd_part() * b.odd_part() + b.odd_part() * a.odd_part())
        assert supercommutator(a, b) == split


_SWAP = [[[0, 1], [1, 0]]]
_THIRD = Fraction(1, 3)


def _product_groups():
    """Groups whose product factors are not all units: a general Gram
    matrix gives Clifford factors 2 and 1 (ints) or 2/3, and the reflection
    through (2, 1) gives group-action coefficients in fifths."""
    return {
        "A1@2": build_group("A", 1, 2),
        "B2@2": build_group("B", 2, 2),
        "swap-gram-int": from_generators(_SWAP, gram=[[2, 1], [1, 2]]),
        "swap-gram-third": from_generators(
            _SWAP, gram=[[2, _THIRD], [_THIRD, 2]]),
        "reflection-fifths": from_generators(
            [[[Fraction(-3, 5), Fraction(-4, 5)],
              [Fraction(-4, 5), Fraction(3, 5)]]]),
    }


def _integral(v):
    return v == int(v)


def _dense_views(group, g):
    """Element g of the group as dense matrices on covectors and on vectors,
    the second the transpose of the first for inv(g)."""
    def dense(i):
        return [[dict(row).get(q, 0) for q in range(group.dim)]
                for row in group.x_rows(i)]
    return dense(g), [list(col) for col in zip(*dense(group.inv(g)))]


@pytest.mark.parametrize("name", [*_product_groups(), "D4@4"])
def test_integer_views_match_dense_data(name):
    group = (build_group("D", 4, 4) if name == "D4@4"
             else _product_groups()[name])
    for g in range(group.order):
        for view, mats in zip((group.x_rows(g), group.y_rows(g)),
                              _dense_views(group, g)):
            assert len(view) == group.dim
            for sparse, row in zip(view, mats):
                assert list(sparse) == [(q, v) for q, v in enumerate(row)
                                        if v != 0]
                for _, v in sparse:
                    assert type(v) is (int if _integral(v) else Fraction)
    for j in range(group.dim):
        for r in range(group.dim):
            want = [(s.elem, s.class_id, s.root[j] * s.coroot[r])
                    for s in group.reflections if s.root[j] * s.coroot[r]]
            got = group.reflection_factors(j, r)
            assert list(got) == want
            for _, _, f in got:
                assert type(f) is (int if _integral(f) else Fraction)


def test_associativity_seeded():
    for group in _product_groups().values():
        ctx = Context(group)
        rng = random.Random(7)
        for _ in range(30):
            a = random_element(ctx, rng)
            b = random_element(ctx, rng)
            c = random_element(ctx, rng)
            assert (a * b) * c == a * (b * c)


def _two_product_bracket(a, b, sign):
    """sum over parity components a_i, b_j of a_i b_j + sign (-1)^(ij) b_j a_i,
    from plain products only."""
    acc = a.ctx.zero()
    for i, ai in enumerate((a.even_part(), a.odd_part())):
        for j, bj in enumerate((b.even_part(), b.odd_part())):
            acc = acc + ai * bj + bj * ai * (-sign if i and j else sign)
    return acc


def _bracket_pairs(ctx, seed, n=8):
    """Seeded mixed-parity pairs, with b = a after each drawn pair."""
    rng = random.Random(seed)
    for _ in range(n):
        a = random_element(ctx, rng, n_terms=4)
        b = random_element(ctx, rng, n_terms=4)
        yield a, b
        yield a, a


@pytest.mark.parametrize("name", [*_product_groups(), "A2@3"])
def test_brackets_match_two_products(name, ctx_a23):
    ctx = ctx_a23 if name == "A2@3" else Context(_product_groups()[name])
    mixed = grouped = 0
    for a, b in _bracket_pairs(ctx, 31):
        mixed += a.parity() is None and b.parity() is None
        grouped += any(m.g for m in a.terms) and any(m.g for m in b.terms)
        for bracket, sign in ((supercommutator, -1), (anticommutator, 1)):
            got = bracket(a, b)
            want = _two_product_bracket(a, b, sign)
            assert got.even_part() == want.even_part()
            assert got.odd_part() == want.odd_part()
            assert not any(c.is_zero() for c in got.terms.values())
    assert mixed and grouped


def test_mul_terms_sign_is_the_third_positional_argument(ctx_a12, ctx_a23):
    """The product boundary takes the bracket sign positionally: -1 and 1
    give the two graded brackets, and 0 (or False, forwarded by a wrapper
    with the old flag's default) the plain product, which is half their
    sum."""
    for ctx in (ctx_a12, ctx_a23):
        for a, b in _bracket_pairs(ctx, 5, n=4):
            sc = supercommutator(a, b)
            ac = anticommutator(a, b)
            assert ctx._mul_terms(a.terms, b.terms, -1) == sc.terms
            assert ctx._mul_terms(a.terms, b.terms, 1) == ac.terms
            plain = (sc + ac) * Fraction(1, 2)
            assert ctx._mul_terms(a.terms, b.terms) == plain.terms
            assert ctx._mul_terms(a.terms, b.terms, 0) == plain.terms
            assert ctx._mul_terms(a.terms, b.terms, False) == plain.terms


def test_subtraction_is_one_normal_form(ctx_a12):
    ctx = ctx_a12
    rng = random.Random(3)
    for _ in range(10):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng) + a * 2
        for got, want in ((a - b, a + (-b)), (b - a, b + (-a)),
                          (3 - a, -a + 3), (a - k(), a + (-k()))):
            assert got.terms == want.terms
            assert not any(c.is_zero() for c in got.terms.values())
        assert (a - a).terms == {}
        assert (b - (b - a)).terms == a.terms


# sha256 prefixes of str(a*b) and str(supercommutator(a, b)) over 40 seeded
# pairs.  They pin exact normal forms, so a change in how the product forms
# its coefficients must leave them as they are.
_PRODUCT_DIGESTS = {
    "A1@2": "d4f13162638a6f7e",
    "B2@2": "b11be7607904026c",
    "swap-gram-int": "068a18cdf36b3e25",
    "swap-gram-third": "2561f8034d39a75a",
    "reflection-fifths": "cee3add61c7226e9",
}


@pytest.mark.parametrize("name", sorted(_PRODUCT_DIGESTS))
def test_product_digests_pinned(name):
    ctx = Context(_product_groups()[name])
    rng = random.Random(2024)
    h = hashlib.sha256()
    for _ in range(40):
        a = random_element(ctx, rng, max_degree=3)
        b = random_element(ctx, rng, max_degree=3)
        h.update(str(a * b).encode())
        h.update(str(supercommutator(a, b)).encode())
    assert h.hexdigest()[:16] == _PRODUCT_DIGESTS[name]


def test_antisymmetrize_examples(ctx_a12):
    ctx = ctx_a12
    u1, u2 = ctx.space.basis_covector(0), ctx.space.basis_covector(1)
    assert antisymmetrize(ctx, [u1, u1]).is_zero()
    assert antisymmetrize(ctx, [u1, u2]) == ctx.e(0) * ctx.e(1)
    v = ctx.covector([1, 1])
    lhs = antisymmetrize(ctx, [u1, v])
    assert lhs == ctx.gamma(u1) * ctx.gamma(v) - bilinear_B(u1, v)
    assert antisymmetrize(ctx, []) == ctx.one()


def test_antisymmetrize_beyond_dimension(ctx_a12):
    # three covectors in dimension two are dependent: honest zero
    ctx = ctx_a12
    u1, u2 = ctx.space.basis_covector(0), ctx.space.basis_covector(1)
    assert antisymmetrize(ctx, [u1, u2, u1 + u2]).is_zero()


@pytest.mark.parametrize("which", ["A1@2", "swap-gram"])
def test_antisymmetrize_past_dimension_takes_no_product(which, ctx_a12,
                                                        monkeypatch):
    # More covectors than the dimension are dependent, so the alternating
    # map is zero before any of the n! orderings is multiplied out.
    ctx = ctx_a12 if which == "A1@2" else Context(
        from_generators([[[0, 1], [1, 0]]], gram=[[2, 1], [1, 2]]))
    calls = []
    mul_terms = Context._mul_terms
    monkeypatch.setattr(Context, "_mul_terms", lambda self, a, b: (
        calls.append(1), mul_terms(self, a, b))[1])
    x1, x2 = ctx.space.basis_covector(0), ctx.space.basis_covector(1)
    assert antisymmetrize(ctx, [x1, x2, x1 + x2 * 3]).is_zero()
    assert antisymmetrize(ctx, [x1] * 8).is_zero()
    assert evaluate(ctx, "A(" + ", ".join(["x1"] * 8) + ")").is_zero()
    assert not calls
    assert not (ctx.gamma(x1) * ctx.gamma(x2)).is_zero() and calls


def test_antisymmetrize_triple_recursion(ctx_a23):
    # against the closed expansion with pairwise forms
    ctx = ctx_a23
    u = ctx.covector([1, 1, 0])
    v = ctx.covector([0, 1, -1])
    w = ctx.covector([2, 0, 1])
    gu, gv, gw = (ctx.gamma(c) for c in (u, v, w))
    B = bilinear_B
    expect = (gu * gv * gw - gw * B(u, v) + gv * B(u, w) - gu * B(v, w))
    assert antisymmetrize(ctx, [u, v, w]) == expect


def test_rho_and_chirality(ctx_a12):
    ctx = ctx_a12
    rho = ctx.rho([0])
    s = ctx.g(ctx.group.reflections[0].elem)
    from cheralg.scalars import BN_HALF_SQRT2
    alpha = ctx.covector([1, -1])
    assert rho == s * ctx.gamma(alpha) * BN_HALF_SQRT2
    assert rho * rho == ctx.one()
    G = evaluate(ctx, "Gamma")
    assert G == ctx.e(0) * ctx.e(1) * BN_I
    assert G * G == ctx.one()
    for p in range(2):
        assert G * ctx.e(p) == -(ctx.e(p) * G)


def test_rho_rejects_bad_root_lengths():
    from cheralg.groups import from_generators
    # reflection through (2,1): root norm 5
    g = from_generators([[[Fraction(-3, 5), Fraction(-4, 5)],
                          [Fraction(-4, 5), Fraction(3, 5)]]])
    ctx = Context(g)
    with pytest.raises(ValueError):
        ctx.rho([0])


def test_reflection_sum_element(ctx_a12):
    ctx = ctx_a12
    s = ctx.g(ctx.group.reflections[0].elem)
    o1 = ctx.o_frak(ctx.space.basis_covector(0))
    assert o1 == ctx.scalar_elem(k() * Fraction(1, 2)) * s * (ctx.e(0) - ctx.e(1))
    assert ctx.o_frak(ctx.covector([1, 1])).is_zero()
    assert o1.substitute_kappa([0]).is_zero()
    assert evaluate(ctx, "OmegaKappa") == ctx.scalar_elem(k()) * s


def test_power_and_division(ctx_a12):
    ctx = ctx_a12
    x = ctx.x(0)
    assert x ** 3 == x * x * x
    assert x ** 0 == ctx.one()
    assert (x * 2) / 2 == x
    with pytest.raises(ValueError):
        x ** -1


def test_rendering_deterministic(ctx_a12):
    ctx = ctx_a12
    e = ctx.x(0) * ctx.y(0) + ctx.one() + ctx.scalar_elem(k()) * \
        ctx.g(ctx.group.reflections[0].elem)
    assert str(e) == "x1*y1 + 1 + k1*s1"
    assert e.witness() == "x1*y1"
    assert str(ctx.zero()) == "0"


@pytest.mark.parametrize("spec", ["A2@3", "D4@4"])
def test_reflections_print_by_position(spec):
    group = parse_group_spec(spec)
    ctx = Context(group)
    numbered = {r.elem: k for k, r in enumerate(group.reflections, 1)}
    for k, refl in enumerate(group.reflections, 1):
        assert str(ctx.g(refl.elem)) == f"s{k}"
        assert str(ctx.x(0) * ctx.g(refl.elem)) == f"x1*s{k}"
    others = [g for g in range(1, group.order) if g not in numbered]
    assert others
    for g in others:
        assert str(ctx.g(g)) == f"g{g}"


def test_substitute_kappa(ctx_b22):
    ctx = ctx_b22
    resid = supercommutator(ctx.y(0), ctx.x(0))
    for vals in ([Fraction(1), Fraction(-1, 2)], [BN_I, Fraction(2)]):
        sub = resid.substitute_kappa(vals)
        assert sub.kappa_degree() == 0
    with pytest.raises(KeyError):
        resid.substitute_kappa([1])


def test_context_mismatch():
    c1 = Context(build_group("A", 1, 2))
    c2 = Context(build_group("A", 1, 2))
    with pytest.raises(ValueError):
        c1.x(0) * c2.x(0)
    for bracket in (supercommutator, anticommutator):
        with pytest.raises(ValueError):
            bracket(c1.y(0), c2.x(0))


# -- packed exponent words ---------------------------------------------------

_EXPONENT = st.integers(0, (1 << 27) - 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda d: st.tuples(st.lists(_EXPONENT, min_size=d, max_size=d),
                        st.lists(_EXPONENT, min_size=d, max_size=d))))
def test_pack_round_trip(exps):
    a, b = exps
    d = len(a)
    assert unpack(pack(a), d) == tuple(a)
    # below the limit, adding words adds exponents with no carry
    assert unpack(pack(a) + pack(b), d) == tuple(map(sum, zip(a, b)))


def test_exponent_limit_keeps_products_carry_free():
    assert exponent_bits(2) == exponent_bits(16) == 27
    assert exponent_bits(17) == 26
    for d in range(1, 200):
        # 2d exponents below the limit, the most a product's field can sum
        assert 2 * d * ((1 << exponent_bits(d)) - 1) < 1 << FIELD_BITS


@pytest.mark.parametrize("var", ["x", "y"])
def test_repeated_squaring_stops_at_the_limit(ctx_a12, var):
    ctx = ctx_a12
    limit = 1 << exponent_bits(ctx.dim)
    a = getattr(ctx, var)(0)
    for _ in range(27):
        a = a * a
    word = pack([limit, 0])
    (mono,) = a.terms
    assert (mono.xs, mono.ys) == ((word, 0) if var == "x" else (0, word))
    with pytest.raises(OverflowError, match="below 2\\^27"):
        a * a
    for other in (ctx.one(), ctx.x(1), ctx.e(0)):
        with pytest.raises(OverflowError):
            other * a
        with pytest.raises(OverflowError):
            supercommutator(a, other)
    # one below the limit still multiplies
    below = ctx.element({Monomial(pack([limit - 1, 0]), 0, 0, 0): 1})
    top = ctx.element({Monomial(pack([2 * limit - 2, 0]), 0, 0, 0): 1})
    assert below * below == top


def _old_order_key(dim):
    """The canonical order as it read on tuple exponents."""
    def key(m):
        xs, ys = unpack(m.xs, dim), unpack(m.ys, dim)
        return (-(sum(xs) + sum(ys)), tuple(-v for v in xs),
                tuple(-v for v in ys), m.g, m.e)
    return key


def test_sorted_monomials_keep_the_tuple_order(ctx_a23):
    ctx = ctx_a23
    # packed, x2 is the larger int; in the order x1 still leads
    assert str(ctx.x(1) + ctx.x(0)) == "x1 + x2"
    assert str(ctx.y(0) * ctx.y(2) + ctx.y(1) ** 2) == "y1*y3 + y2^2"
    rng = random.Random(5)
    for _ in range(30):
        a = random_element(ctx, rng, max_degree=4, n_terms=8)
        assert a.sorted_monomials() == sorted(a.terms,
                                              key=_old_order_key(ctx.dim))
        for m in a.terms:
            assert m.degree == sum(unpack(m.xs, ctx.dim) +
                                   unpack(m.ys, ctx.dim))


def _multi_kappa_element(ctx, rng):
    """A seeded element whose coefficients are sums of two or three kappa
    monomials over Q(i, sqrt2), like k1 + k2 + i."""
    terms = {}
    for m in random_element(ctx, rng, max_degree=3, n_terms=4).terms:
        coef = Scalar({})
        for _ in range(rng.randint(2, 3)):
            cls = rng.randrange(ctx.num_classes)
            coef = coef + Scalar.kappa(cls, rng.randint(0, 2)) * BaseNumber(
                rng.choice((-2, -1, 1, 3)), rng.randint(-1, 1),
                rng.randint(0, 1))
        terms[m] = coef
    return ctx.element(terms)


def _single_terms(a):
    """a as a list of elements with one word and one kappa monomial each."""
    return [a.ctx.element({m: Scalar({k: v})})
            for m, c in a.terms.items() for k, v in c.terms.items()]


@pytest.mark.parametrize("spec", ["B2@2", "A2@3"])
def test_multi_term_coefficients_multiply_term_by_term(spec, ctx_b22,
                                                       ctx_a23):
    """Products and brackets of elements with multi-term kappa
    coefficients equal the sums over their single-term parts."""
    ctx = {"B2@2": ctx_b22, "A2@3": ctx_a23}[spec]
    rng = random.Random(21)
    multi = 0
    for _ in range(6):
        a = _multi_kappa_element(ctx, rng)
        b = _multi_kappa_element(ctx, rng)
        multi += sum(len(c.terms) > 1 for c in a.terms.values())
        for op in (lambda u, v: u * v, supercommutator, anticommutator):
            want = ctx.zero()
            for p in _single_terms(a):
                for q in _single_terms(b):
                    want = want + op(p, q)
            assert op(a, b) == want
    assert multi


def _assert_memo_items(ctx):
    entries = [t for memo in (ctx._ycomm1, ctx._ycommw)
               for terms in memo.values() for t in terms]
    assert entries
    for xd, yd, g, items in entries:
        assert type(xd) is int and type(yd) is int and type(g) is int
        assert type(items) is tuple and items
        for key, n in items:
            assert type(key) is tuple and list(key) == sorted(key)
            assert all(0 <= c < ctx.num_classes and e > 0 for c, e in key)
            assert type(n) is (int if _integral(n) else Fraction)
            assert n != 0
    return entries


@pytest.mark.parametrize("spec", ["A2@3", "B2@2"])
def test_commutation_memos_hold_kappa_keyed_numbers(spec):
    env = make_env(spec)
    rep, = run_suite(env, "projector.membership")
    assert rep.status == "pass"
    entries = _assert_memo_items(env.ctx)
    # the Dunkl reflection terms carry each class parameter as an item
    keys = {k for *_, items in entries for k, _ in items}
    assert {((c, 1),) for c in range(env.ctx.num_classes)} <= keys


@pytest.mark.parametrize("spec", ["A2@3", "B2@2", "swap-gram-int"])
def test_fresh_and_warmed_contexts_multiply_alike(spec):
    group = _product_groups().get(spec) or parse_group_spec(spec)
    warm = Context(group)
    rng = random.Random(3)
    for _ in range(10):
        random_element(warm, rng, max_degree=3) * random_element(
            warm, rng, max_degree=3)
    assert warm._ycommw
    for seed in range(4):
        fresh = Context(group)
        products = []
        for ctx in (fresh, warm):
            rng = random.Random(100 + seed)
            a = random_element(ctx, rng, max_degree=4, n_terms=4)
            b = random_element(ctx, rng, max_degree=4, n_terms=4)
            products.append((a * b).terms)
        assert products[0] == products[1]
        _assert_memo_items(fresh)


def _kernel_sequence(ctx, seed):
    """Products, supercommutators and anticommutators of a fixed seeded
    sequence of operands, plain and with coefficients of several kappa
    monomials, all on ``ctx``."""
    rng = random.Random(seed)
    out = []
    for _ in range(6):
        a = random_element(ctx, rng, max_degree=3, n_terms=3,
                           kappa_degree=2)
        b = _multi_kappa_element(ctx, rng)
        for x, y in ((a, b), (b, a), (a, a)):
            out += [x * y, supercommutator(x, y), anticommutator(x, y)]
    return out


# Sizes of the seven Context caches (cliff_ins, cliff_pairs, act_x_memo,
# act_y_memo, ycomm1, ycommw, misc_cache) after _kernel_sequence(ctx, 11)
# on a fresh Context.  The caches only grow, so their sizes count the
# misses (perfbench's tracer reads them so); a memo read in place must fill
# each cache as its filling method does.
_KERNEL_CACHE_SIZES = {
    "A2@3": (24, 60, 46, 45, 24, 56, 0),
    "B2@2": (8, 16, 44, 38, 12, 28, 0),
    "swap-gram-third": (8, 16, 10, 6, 12, 28, 0),
}
_CACHES = ("_cliff_ins", "_cliff_pairs", "_act_x_memo", "_act_y_memo",
           "_ycomm1", "_ycommw", "_misc_cache")


@pytest.mark.parametrize("name", ["A2@3", "B2@2", "swap-gram-third"])
def test_kernel_output_shape_and_cache_fills(name):
    group = _product_groups().get(name) or parse_group_spec(name)
    ctx = Context(group)
    for value in _kernel_sequence(ctx, 11):
        for m, c in value.terms.items():
            assert type(m) is Monomial
            assert type(c) is Scalar and not c.is_zero()
            for key, v in c.terms.items():
                assert not v.is_zero()
                assert list(key) == sorted(key)
                assert len({cls for cls, _ in key}) == len(key)
                assert all(0 <= cls < ctx.num_classes and e > 0
                           for cls, e in key)
    sizes = tuple(len(getattr(ctx, attr)) for attr in _CACHES)
    assert sizes == _KERNEL_CACHE_SIZES[name]


# -- the wedge recursion of antisymmetrize, against the n!-sum -------------


def _perm_sign(perm) -> int:
    inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                     for j in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


def _antisymmetrize_by_orderings(ctx, covs):
    """(1/n!) times the sum over all orderings of the signed products of
    the gamma(u): the definition the recursion must reproduce."""
    gammas = [ctx.gamma(u) for u in covs]
    acc = ctx.zero()
    for perm in itertools.permutations(range(len(covs))):
        prod = ctx.one()
        for i in perm:
            prod = prod * gammas[i]
        acc = acc + prod * _perm_sign(perm)
    return acc * Fraction(1, math.factorial(len(covs)))


_SWAP_GRAMS = {"swap-gram": [[2, 1], [1, 2]],
               "swap-gram-third": [[2, "1/3"], ["1/3", 2]],
               "swap-gram-offdiag": [[0, 1], [1, 0]]}


def _recursion_context(spec):
    if spec in _SWAP_GRAMS:
        gram = [[Fraction(v) for v in row] for row in _SWAP_GRAMS[spec]]
        return Context(from_generators([[[0, 1], [1, 0]]], gram=gram))
    return Context(parse_group_spec(spec))


def _named_covectors(ctx, spec):
    """The basis covectors, and on D4@4 the Witt and root covectors too."""
    names = [f"x{p + 1}" for p in range(ctx.dim)]
    if spec == "D4@4":
        names += ["zp1", "zm1", "zp2", "zm2", "alpha1", "alpha5", "alpha12"]
    ev = Evaluator(ctx)
    return [ev.eval_covector(parse_expression(n)) for n in names]


@pytest.mark.parametrize("spec", ["D4@4", "B3@3", "A1@5", *_SWAP_GRAMS])
def test_antisymmetrize_matches_the_sum_over_orderings(spec):
    ctx = _recursion_context(spec)
    atoms = _named_covectors(ctx, spec)
    rng = random.Random(spec)

    def draw():
        u = atoms[rng.randrange(len(atoms))] * rng.choice([1, 2, -1])
        if rng.random() < 0.5:
            u = u + atoms[rng.randrange(len(atoms))] * rng.randint(-2, 2)
        return u

    for n in range(1, min(ctx.dim, 4) + 1):
        for _ in range(6):
            covs = [draw() for _ in range(n)]
            assert antisymmetrize(ctx, covs) \
                == _antisymmetrize_by_orderings(ctx, covs), (n, covs)
    # repeated and dependent covectors, within the dimension
    u, v, w = draw(), draw(), draw()
    dependent = [[u, u], [u + v, (u + v) * -3], [u, v, u + v * 2],
                 [u, v, w, u - w], [w, u, v, u]]
    for covs in dependent:
        if len(covs) <= ctx.dim:
            assert antisymmetrize(ctx, covs).is_zero(), covs
            assert _antisymmetrize_by_orderings(ctx, covs).is_zero()


def test_antisymmetrize_takes_one_bracket_per_covector_after_the_last(
        env_a16, monkeypatch):
    # the n!-sum took 5! * 4 = 480 products here
    ctx = env_a16.ctx
    calls = []
    mul_terms = Context._mul_terms
    monkeypatch.setattr(Context, "_mul_terms", lambda self, *a: (
        calls.append(a[2:]), mul_terms(self, *a))[1])
    value = evaluate(ctx, "A(x1 + x2, x2 + x3, x3 + x4, x4 + x5, x5 + x6)")
    assert calls == [(1,)] * 4
    monkeypatch.undo()
    covs = [ctx.space.basis_covector(p) + ctx.space.basis_covector(p + 1)
            for p in range(5)]
    assert value == _antisymmetrize_by_orderings(ctx, covs)


@pytest.mark.parametrize("spec", ["A1@2", "B2@2", "D4@4"])
def test_rho_of_a_bare_reflection_is_its_one_letter_word(spec):
    # a Reflection is a NamedTuple: rho must not read it as a word of its
    # fields
    ctx = Context(parse_group_spec(spec))
    for k, r in enumerate(ctx.group.reflections):
        assert ctx.rho(r) == ctx.rho([r]) == ctx.rho([k]) == ctx.rho(k)


# -- the printer, against the two-pass printer it replaced -----------------


def _reference_term(ctx, coef, m, xs, ys):
    bits = [f"x{p + 1}" + (f"^{k}" if k > 1 else "")
            for p, k in enumerate(xs) if k]
    bits += [f"y{p + 1}" + (f"^{k}" if k > 1 else "")
             for p, k in enumerate(ys) if k]
    if m.g:
        k = ctx.group.reflection_number.get(m.g)
        bits.append(f"s{k}" if k is not None else f"g{m.g}")
    bits += [f"e{p + 1}" for p in range(ctx.dim) if m.e >> p & 1]
    mstr = "*".join(bits)
    if not mstr:
        return str(coef)
    if len(coef.terms) == 1:
        ((key, bn),) = coef.terms.items()
        kmono = "*".join(f"k{i + 1}" + (f"^{e}" if e > 1 else "")
                         for i, e in key)
        tail = f"{kmono}*{mstr}" if kmono else mstr
        s = str(bn)
        if s == "1":
            return tail
        if s == "-1":
            return "-" + tail
        return f"({s})*{tail}" if " " in s else f"{s}*{tail}"
    return f"({coef})*{mstr}"


def _reference_rows(elem):
    dim = elem.ctx.dim
    rows = [(m, unpack(m.xs, dim), unpack(m.ys, dim)) for m in elem.terms]
    rows.sort(key=lambda r: (sum(r[1]) + sum(r[2]), r[1], r[2],
                             -r[0].g, -r[0].e), reverse=True)
    return rows


def _reference_str(elem):
    parts = [_reference_term(elem.ctx, elem.terms[m], m, xs, ys)
             for m, xs, ys in _reference_rows(elem)]
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _reference_witness(elem):
    rows = _reference_rows(elem)
    if not rows:
        return None
    m, xs, ys = rows[0]
    return _reference_term(elem.ctx, elem.terms[m], m, xs, ys)


@pytest.mark.parametrize("spec", ["A1@2", "B2@2", "A2@3", "D4@4"])
def test_printer_matches_the_two_pass_printer(spec):
    ctx = Context(parse_group_spec(spec))
    rng = random.Random(spec)
    k1 = Scalar.kappa(0)
    mixed = k1 * k1 + k1 * BN_I - Scalar.of(BN_SQRT2) * Fraction(1, 3)
    values = [ctx.zero(), ctx.one(), -ctx.one(), ctx.scalar_elem(7),
              ctx.scalar_elem(Fraction(-3, 2)), ctx.scalar_elem(BN_I),
              ctx.scalar_elem(BN_SQRT2 * Fraction(1, 2) + BN_I),
              ctx.scalar_elem(mixed), ctx.scalar_elem(-k1)]
    for _ in range(12):
        a = random_element(ctx, rng, max_degree=3, n_terms=6, kappa_degree=2)
        b = random_element(ctx, rng, max_degree=2, n_terms=4, kappa_degree=2)
        values += [a, a * mixed, a * b, a * Scalar.of(BN_SQRT2) - b * k1,
                   a + ctx.scalar_elem(mixed)]
    seen = {"g": False, "multi": False}
    for v in values:
        assert str(v) == _reference_str(v)
        assert v.witness() == _reference_witness(v)
        assert v.sorted_monomials() == [m for m, _, _ in _reference_rows(v)]
        seen["g"] |= any(m.g and m.g not in ctx.group.reflection_number
                         for m in v.terms)
        seen["multi"] |= any(len(c.terms) > 1 for c in v.terms.values())
    assert seen["multi"] and (seen["g"] or ctx.group.order == 2)


def test_printer_reproduces_one_digest_per_eval_shape():
    """One entry per shape of the eval benchmark's pool, printed on a fresh
    context over D4@4, against its recorded digest and term count."""
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
            / "eval_D4_4.json")
    first = {}
    for shape, expr, terms, ref in json.loads(path.read_text())["pool"]:
        first.setdefault(shape, (expr, terms, ref))
    assert len(first) == 16
    group = parse_group_spec("D4@4")
    for shape, (expr, terms, ref) in sorted(first.items()):
        value = evaluate(Context(group), expr)
        text = str(value)
        assert len(value.terms) == terms, shape
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == ref, shape
        assert text == _reference_str(value), shape
