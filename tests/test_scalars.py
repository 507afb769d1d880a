from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cheralg.scalars import (BN_I, BN_ONE, BN_SQRT2, BaseNumber, Scalar,
                             as_base, as_scalar)
from cheralg.suites import make_env

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=8)
base_numbers = st.builds(BaseNumber, rationals, rationals, rationals,
                         rationals)
# Operands for every branch of the arithmetic: rationals (b = c = d = 0),
# numbers with some zero components, and general ones.
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)),
                             rationals)
mixed_base_numbers = st.one_of(
    st.builds(BaseNumber, rationals),
    st.builds(BaseNumber, sparse_rationals, sparse_rationals,
              sparse_rationals, sparse_rationals),
    base_numbers)


def small_scalars():
    def build(consts, kappas):
        acc = Scalar.of(consts)
        for cls, exp, coef in kappas:
            acc = acc + Scalar.kappa(cls, exp) * coef
        return acc
    return st.builds(
        build, base_numbers,
        st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3),
                           base_numbers), max_size=3))


def test_defining_relations():
    assert BN_I * BN_I == BaseNumber(-1)
    assert BN_SQRT2 * BN_SQRT2 == BaseNumber(2)
    assert BN_I * BN_SQRT2 == BaseNumber(0, 0, 0, 1)


def test_polynomial_identity():
    k = Scalar.kappa(0)
    assert (k + 1) * (k - 1) == k * k - 1


@settings(max_examples=60, deadline=None)
@given(base_numbers, base_numbers, base_numbers)
def test_base_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(base_numbers)
def test_field_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == BN_ONE


@settings(max_examples=40, deadline=None)
@given(small_scalars(), small_scalars(), small_scalars())
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(small_scalars(), small_scalars())
def test_substitution_is_ring_map(a, b):
    vals = {0: BaseNumber(Fraction(1, 2)), 1: BaseNumber(2, 1),
            2: BaseNumber(0, 0, 1)}
    assert (a * b).substitute(vals) == a.substitute(vals) * b.substitute(vals)
    assert (a + b).substitute(vals) == a.substitute(vals) + b.substitute(vals)


def test_substitution_examples():
    k = Scalar.kappa(0)
    assert (k * k + 1).substitute({0: BaseNumber(0)}) == as_scalar(1)
    assert k.substitute({0: BaseNumber(Fraction(3, 2))}) \
        == as_scalar(Fraction(3, 2))
    assert (k * 2 * BN_I).substitute({0: BN_ONE}) == as_scalar(BN_I * 2)


def test_substitution_missing_class():
    with pytest.raises(KeyError):
        Scalar.kappa(1).substitute({0: BN_ONE})


def test_zero_and_degree():
    z = Scalar.kappa(0) - Scalar.kappa(0)
    assert z.is_zero() and not z.terms
    assert Scalar.kappa(0, 3).degree() == 3
    assert as_scalar(5).degree() == 0


def test_rendering():
    assert str(as_scalar(Fraction(3, 2))) == "3/2"
    assert str(as_scalar(BN_I)) == "i"
    assert str(as_scalar(BN_SQRT2)) == "sqrt2"
    assert str(Scalar.kappa(0)) == "k1"
    assert str(Scalar.kappa(0) * Scalar.kappa(0) - 1) == "-1 + k1^2"
    assert str(as_scalar(BaseNumber(1, 1))) == "1 + i"
    assert str((as_scalar(BaseNumber(1, 1)) * Scalar.kappa(1))) == "(1 + i)*k2"


def test_division():
    x = BaseNumber(1, 2, 3, Fraction(1, 2))
    assert x / x == BN_ONE
    s = as_scalar(Fraction(3, 4))
    assert (Scalar.kappa(0) * 3) / 3 == Scalar.kappa(0)
    with pytest.raises(ZeroDivisionError):
        s / Scalar.kappa(0)


# -- the fast paths against the general formulas ---------------------------


def _full_mul(x, y):
    """The product by the general sixteen-term formula."""
    return BaseNumber(
        x.a * y.a - x.b * y.b + 2 * (x.c * y.c - x.d * y.d),
        x.a * y.b + x.b * y.a + 2 * (x.c * y.d + x.d * y.c),
        x.a * y.c + x.c * y.a - x.b * y.d - x.d * y.b,
        x.a * y.d + x.d * y.a + x.b * y.c + x.c * y.b)


def _full_inverse(x):
    """The inverse through the three Galois conjugates."""
    num = _full_mul(_full_mul(BaseNumber(x.a, -x.b, x.c, -x.d),
                              BaseNumber(x.a, x.b, -x.c, -x.d)),
                    BaseNumber(x.a, -x.b, -x.c, x.d))
    norm = _full_mul(x, num).a
    return BaseNumber(num.a / norm, num.b / norm, num.c / norm, num.d / norm)


def _components_are_fractions(x):
    return all(type(v) is Fraction for v in (x.a, x.b, x.c, x.d))


@settings(max_examples=150, deadline=None)
@given(mixed_base_numbers, mixed_base_numbers)
def test_fast_paths_match_general_formulas(a, b):
    results = [(a * b, _full_mul(a, b)),
               (a * b.a, _full_mul(a, BaseNumber(b.a))),
               (b.a * a, _full_mul(a, BaseNumber(b.a))),
               (a * 3, _full_mul(a, BaseNumber(3))),
               (a + b, BaseNumber(a.a + b.a, a.b + b.b, a.c + b.c,
                                  a.d + b.d)),
               (a - b, BaseNumber(a.a - b.a, a.b - b.b, a.c - b.c,
                                  a.d - b.d)),
               (-a, BaseNumber(-a.a, -a.b, -a.c, -a.d))]
    if not b.is_zero():
        results += [(b.inverse(), _full_inverse(b)),
                    (a / b, _full_mul(a, _full_inverse(b)))]
    if b.a:
        results.append((a / b.a, _full_mul(a, _full_inverse(BaseNumber(b.a)))))
    for got, want in results:
        assert got == want
        assert _components_are_fractions(got)


@settings(max_examples=40, deadline=None)
@given(small_scalars(), small_scalars())
def test_scalar_fast_paths_match_general_product(s, t):
    want: dict = {}
    for k1, v1 in s.terms.items():
        for k2, v2 in t.terms.items():
            k = dict(k1)
            for idx, e in k2:
                k[idx] = k.get(idx, 0) + e
            k = tuple(sorted(k.items()))
            want[k] = want.get(k, BaseNumber()) + _full_mul(v1, v2)
    for got in (s * t, t * s):
        assert got == Scalar(want)
        assert not any(v.is_zero() for v in got.terms.values())
    for c in (0, 1, -1, Fraction(2, 3), BN_I, BaseNumber(Fraction(1, 2))):
        got = s * c
        assert got == Scalar({k: _full_mul(v, as_base(c))
                              for k, v in s.terms.items()})
        assert not any(v.is_zero() for v in got.terms.values())
    diff = s - s
    assert diff.is_zero() and not diff.terms


def test_hash_agrees_with_equality():
    ctx = make_env("A1@2").ctx
    for value in (0, 1, -2, Fraction(3, 4)):
        equal = [value, Fraction(value), BaseNumber(value), Scalar.of(value),
                 ctx.scalar_elem(value)]
        assert all(x == value for x in equal)
        assert len({hash(x) for x in equal}) == 1
        assert len(set(equal)) == 1
    assert len({BaseNumber(1), 1}) == 1
    irrational = [BN_I, Scalar.of(BN_I), ctx.scalar_elem(BN_I)]
    assert len({hash(x) for x in irrational}) == 1
    k = Scalar.kappa(0)
    assert hash(k) == hash(ctx.scalar_elem(k)) and k == ctx.scalar_elem(k)


def test_scalar_on_the_left_of_an_element():
    # an operand the scalar ring cannot read falls through to the Element's
    # reflected method instead of raising TypeError
    ctx = make_env("A1@2").ctx
    x = ctx.x(0) + ctx.e(1)
    for s in (BaseNumber(2), BN_I + BN_SQRT2, Scalar.of(2),
              Scalar.kappa(0) + 3):
        assert s * x == x * s
        assert s + x == x + s
        assert s - x == -(x - s)
    with pytest.raises(TypeError):
        BaseNumber(1) + "x1"
    with pytest.raises(TypeError):
        Scalar.of(1) * "x1"
