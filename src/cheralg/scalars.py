"""Exact coefficient arithmetic.

Every coefficient in the engine lives in the commutative ring

    Q(i, sqrt2)[k1, ..., kr]

where i^2 = -1, (sqrt2)^2 = 2, and k1..kr are commuting deformation
indeterminates, one per conjugacy class of reflections.  Three layers:

  BaseNumber  -- an element (a + b*i + c*sqrt2 + d*i*sqrt2) / q of the
                 field Q(i, sqrt2), stored as four integer numerators
                 a, b, c, d over one integer denominator q > 0 with
                 gcd(a, b, c, d, q) == 1 (zero is (0, 0, 0, 0, 1)).
  Combination -- the base of every finite linear combination in the
                 package: ``terms`` maps keys to nonzero coefficients, and
                 sums, differences, negation, is_zero and scaling by a
                 nonzero number are written once, on top of ``merged``.
                 Scalar, the engine's Element, the oracle's PolySpinor and
                 the geometry's Covector and Vector subclass it.
  Scalar      -- a Combination of kappa monomials over BaseNumber: a
                 sparse polynomial in the k-indeterminates.  Keys are
                 sorted tuples of (class_index, exponent) pairs with
                 positive exponents, so scalars from rings with different
                 numbers of classes mix freely (the constant key is ()).

Both number types are immutable and canonical: a BaseNumber has one integer
form per value, so equality and hashing compare components, and a Scalar
stores no zero coefficient, which makes is_zero a trivial check after every
operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

_F0 = Fraction(0)


def _component(index: int, name: str) -> property:
    def get(self) -> Fraction:
        v = self._v
        return Fraction(v[index], v[4]) if v[index] else _F0
    return property(get, doc=f"The {name} component, as a Fraction.")


class BaseNumber:
    """An exact element (a + b*i + c*sqrt2 + d*i*sqrt2) / q of Q(i, sqrt2).

    The slot ``_v`` holds the Python ints (a, b, c, d, q) with q > 0 and
    gcd(a, b, c, d, q) == 1, so each value has one form.  Every operation
    ends in one ``math.gcd`` over the five, skipped when q == 1.  The
    components a, b, c, d read back as Fractions through properties.

    Products take the first branch that applies: a rational operand
    (b = c = d = 0) scales the other by n/m in four int products; two
    operands in Q(i) (c = d = 0) take four; only the rest take the general
    sixteen.  The inverse of a rational swaps numerator and denominator; a
    general inverse multiplies by the conjugates in ints.
    """

    __slots__ = ("_v",)

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is int and type(b) is int and type(c) is int \
                and type(d) is int:
            # q = 1, so the five already have gcd 1
            object.__setattr__(self, "_v", (a, b, c, d, 1))
            return
        parts = [Fraction(x) for x in (a, b, c, d)]
        q = lcm(*(p.denominator for p in parts))
        object.__setattr__(self, "_v", tuple(
            p.numerator * (q // p.denominator) for p in parts) + (q,))

    def __setattr__(self, *_):
        raise AttributeError("BaseNumber is immutable")

    a = _component(0, "rational")
    b = _component(1, "i")
    c = _component(2, "sqrt2")
    d = _component(3, "i*sqrt2")

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not BaseNumber:
            try:
                other = as_base(other)
            except TypeError:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        if q1 == q2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1)
        return _reduced(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1,
                        c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not BaseNumber:
            try:
                other = as_base(other)
            except TypeError:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        if q1 == q2:
            return _reduced(a1 - a2, b1 - b2, c1 - c2, d1 - d2, q1)
        return _reduced(a1 * q2 - a2 * q1, b1 * q2 - b2 * q1,
                        c1 * q2 - c2 * q1, d1 * q2 - d2 * q1, q1 * q2)

    def __rsub__(self, other):
        return as_base(other) - self

    def __neg__(self):
        a, b, c, d, q = self._v
        return _bn(-a, -b, -c, -d, q)

    def __mul__(self, other):
        if type(other) is not BaseNumber:
            if isinstance(other, (int, Fraction)):
                return self._scale(other.numerator, other.denominator)
            try:
                other = as_base(other)
            except TypeError:
                return NotImplemented
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        if not (b2 or c2 or d2):
            return self._scale(a2, q2)
        if not (b1 or c1 or d1):
            return other._scale(a1, q1)
        if not (c1 or d1 or c2 or d2):
            return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 0, 0,
                            q1 * q2)
        return _reduced(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            q1 * q2)

    __rmul__ = __mul__

    def _scale(self, n: int, m: int):
        """self * n/m for ints n and m > 0, n/m in lowest terms (the
        numerator and denominator of an int or a Fraction)."""
        a, b, c, d, q = self._v
        if m == 1:
            if n == 1:
                return self
            if q == 1:
                return _bn(a * n, b * n, c * n, d * n, 1)
        return _reduced(a * n, b * n, c * n, d * n, q * m)

    def inverse(self):
        """Multiplicative inverse; Q(i, sqrt2) is a field."""
        a, b, c, d, q = self._v
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return _bn(q, 0, 0, 0, a) if a > 0 else _bn(-q, 0, 0, 0, -a)
        # With u = a + b i and v = c + d i, the numerator is u + v sqrt2.
        # Its sqrt2-conjugate u - v sqrt2 makes w = u^2 - 2 v^2 in Z[i], and
        # the i-conjugate of w makes the positive integer |w|^2.
        wr = a * a - b * b - 2 * (c * c - d * d)
        wi = 2 * (a * b - 2 * c * d)
        return _reduced(q * (a * wr + b * wi), q * (b * wr - a * wi),
                        -q * (c * wr + d * wi), q * (c * wi - d * wr),
                        wr * wr + wi * wi)

    def __truediv__(self, other):
        return self * as_base(other).inverse()

    def __rtruediv__(self, other):
        return as_base(other) * self.inverse()

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        v = self._v
        return not (v[0] or v[1] or v[2] or v[3])

    def is_rational(self):
        v = self._v
        return not (v[1] or v[2] or v[3])

    def __eq__(self, other):
        if type(other) is not BaseNumber:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = as_base(other)
        return self._v == other._v

    def __hash__(self):
        # A rational hashes like the Fraction (or int) it equals.
        a, b, c, d, q = self._v
        if b or c or d:
            return hash(self._v)
        return hash(a) if q == 1 else hash(Fraction(a, q))

    def __repr__(self):
        return f"BaseNumber({self})"

    def __str__(self):
        # Each nonzero numerator n renders as the reduced fraction n/q, as
        # str(Fraction(n, q)) would, without building the Fraction.
        *nums, q = self._v
        parts = []
        for n, unit in zip(nums, ("", "i", "sqrt2", "i*sqrt2")):
            if not n:
                continue
            if unit and n == q:
                parts.append(unit)
            elif unit and n == -q:
                parts.append("-" + unit)
            else:
                g = gcd(n, q)
                comp = str(n // g) if g == q else f"{n // g}/{q // g}"
                parts.append(f"{comp}*{unit}" if unit else comp)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


_new = object.__new__
_set_v = BaseNumber._v.__set__


def _bn(a: int, b: int, c: int, d: int, q: int) -> BaseNumber:
    """A BaseNumber from integer parts already in canonical form."""
    x = _new(BaseNumber)
    _set_v(x, (a, b, c, d, q))
    return x


def _reduced(a: int, b: int, c: int, d: int, q: int) -> BaseNumber:
    """A BaseNumber from integer parts with q > 0, divided by their gcd."""
    if q != 1:
        g = gcd(a, b, c, d, q)
        if g != 1:
            a //= g
            b //= g
            c //= g
            d //= g
            q //= g
    x = _new(BaseNumber)
    _set_v(x, (a, b, c, d, q))
    return x


_ONE = (1, 0, 0, 0, 1)
BN_ZERO = BaseNumber()
BN_ONE = BaseNumber(1)
BN_I = BaseNumber(0, 1)
BN_SQRT2 = BaseNumber(0, 0, 1)
BN_HALF_SQRT2 = BaseNumber(0, 0, Fraction(1, 2))   # 1/sqrt2


def int_if_integral(c):
    """A Fraction or a BaseNumber as a Python int when it is an integer,
    else unchanged: the form the engine's rewrite memos and the group's
    integer views store coefficients in."""
    if type(c) is BaseNumber:
        if not c.is_rational():
            return c
        c = c.a
    return c.numerator if c.denominator == 1 else c


def power(base, n: int, one):
    """base^n for an integer n >= 0, ``one`` at n = 0, by squaring and
    multiplying from the top bit down, starting from the base: every
    operand is a power base^k with k < n, and there are at most
    2*log2(n) products."""
    if n == 0:
        return one
    acc = base
    for bit in bin(n)[3:]:
        acc = acc * acc
        if bit == "1":
            acc = acc * base
    return acc


def as_base(x) -> BaseNumber:
    if isinstance(x, BaseNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return _bn(x.numerator, 0, 0, 0, x.denominator)
    raise TypeError(f"cannot interpret {x!r} as a BaseNumber")


# Key of a Scalar term: sorted tuple of (class_index, exponent), exponent > 0.
KappaKey = tuple


def _key_mul(k1: KappaKey, k2: KappaKey) -> KappaKey:
    if not k1:
        return k2
    if not k2:
        return k1
    merged = dict(k1)
    for idx, e in k2:
        merged[idx] = merged.get(idx, 0) + e
    return tuple(sorted(merged.items()))


def merged(a: dict, b: dict, subtract: bool = False) -> dict:
    """a + b, or a - b in the same pass over b's terms, for two dicts of
    nonzero coefficients, dropping the coefficients that cancel.  An empty
    b gives a itself, and an empty a gives b itself for a sum, so the
    result must not be mutated."""
    if not b:
        return a
    if not a and not subtract:
        return b
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        if w is None:
            out[k] = -v if subtract else v
        else:
            w = w - v if subtract else w + v
            if w.is_zero():
                del out[k]
            else:
                out[k] = w
    return out


class Combination:
    """A finite linear combination: ``terms`` maps keys to nonzero
    coefficients, and the empty combination is zero.

    A subclass says how it reads an operand (``_operand`` returns a
    combination of its own kind, or None) and how it wraps a term dict
    without zeros (``_wrap``); the sums, negation, is_zero and scaling are
    written here once.  The subclasses are Scalar (keys kappa monomials),
    Element (normal-form words), PolySpinor (monomial and spinor pairs),
    Covector and Vector (coordinate indices).  Coefficients lie in a ring
    without zero divisors, so a nonzero multiple of a nonzero coefficient
    is never zero.  Combinations are immutable, so a sum with zero returns
    an operand."""

    __slots__ = ()

    def _sum(self, other, subtract=False):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = merged(self.terms, other.terms, subtract)
        if terms is self.terms:
            return self
        if terms is other.terms:
            return other
        return self._wrap(terms)

    __add__ = __radd__ = _sum

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other._sum(self, True)

    def __neg__(self):
        return self._wrap({k: -v for k, v in self.terms.items()})

    def _times(self, c):
        """self * c for a nonzero coefficient c."""
        kind = type(c)
        if (c._v == _ONE if kind is BaseNumber
                else c.terms == SC_ONE.terms if kind is Scalar else c == 1):
            return self
        return self._wrap({k: v * c for k, v in self.terms.items()})

    def _scaled(self, c):
        """self * c for a coefficient c that may be zero: an int, Fraction,
        BaseNumber or Scalar, tested on its own terms (a Scalar compared
        with an int would build a Scalar for the comparison)."""
        if not c if isinstance(c, (int, Fraction)) else c.is_zero():
            return self._wrap({})
        return self._times(c)

    def is_zero(self):
        return not self.terms


class Scalar(Combination):
    """Sparse polynomial in the deformation indeterminates over BaseNumber."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[KappaKey, BaseNumber]):
        object.__setattr__(self, "terms",
                           {k: v for k, v in terms.items() if not v.is_zero()})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar({(): as_base(x)})

    @staticmethod
    def kappa(class_index: int, exponent: int = 1) -> "Scalar":
        if exponent == 0:
            return SC_ONE
        return Scalar({((class_index, exponent),): BN_ONE})

    # -- ring structure --------------------------------------------------------

    def _operand(self, other):
        if type(other) is Scalar:
            return other
        try:
            return Scalar.of(other)
        except TypeError:
            return None

    def __mul__(self, other):
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                if not other:
                    return SC_ZERO
            else:
                try:
                    other = as_base(other)
                except TypeError:
                    return NotImplemented
                if other.is_zero():
                    return SC_ZERO
            return self._times(other)
        t1, t2 = self.terms, other.terms
        if not t1 or not t2:
            return SC_ZERO
        if len(t2) == 1 and () in t2:
            return self._times(t2[()])
        if len(t1) == 1 and () in t1:
            return other._times(t1[()])
        if len(t1) == 1 and len(t2) == 1:
            ((k1, v1),) = t1.items()
            ((k2, v2),) = t2.items()
            return _scalar({_key_mul(k1, k2): v1 * v2})
        out: dict = {}
        for k1, v1 in t1.items():
            for k2, v2 in t2.items():
                k = _key_mul(k1, k2)
                v = v1 * v2
                w = out.get(k)
                out[k] = v if w is None else w + v
        return Scalar(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a constant (degree-0) scalar or number."""
        if isinstance(other, Scalar):
            if set(other.terms) - {()}:
                raise ZeroDivisionError("can only divide by a constant scalar")
            other = other.terms.get((), BN_ZERO)
        return self._times(as_base(other).inverse())

    # -- structure ----------------------------------------------------------

    def constant_part(self) -> BaseNumber:
        return self.terms.get((), BN_ZERO)

    def is_constant(self):
        return not set(self.terms) - {()}

    def degree(self) -> int:
        """Total degree in the k-indeterminates (0 for constants and zero)."""
        if not self.terms:
            return 0
        return max((sum(e for _, e in k) for k in self.terms), default=0)

    def substitute(self, values: Mapping[int, BaseNumber]) -> "Scalar":
        """Evaluate the k-indeterminates; result has k-degree 0.

        ``values`` maps class index -> BaseNumber; every class that occurs
        must be present.
        """
        acc = BN_ZERO
        for key, coef in self.terms.items():
            v = coef
            for idx, e in key:
                if idx not in values:
                    raise KeyError(f"no substitution value for class {idx}")
                v = v * power(as_base(values[idx]), e, BN_ONE)
            acc = acc + v
        return Scalar({(): acc})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, BaseNumber)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            # A constant hashes like the BaseNumber (or rational) it equals.
            if self.is_constant():
                h = hash(self.constant_part())
            else:
                h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (sum(e for _, e in k), k)):
            parts.append(render_coefficient(self.terms[key],
                                            render_powers("k", key)))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def render_coefficient(coef: BaseNumber, tail: str) -> str:
    """Render coef * tail, with parentheses when coef has several components.
    An integer coef is read off its numerator, without ``__str__``."""
    a, b, c, d, q = coef._v
    if q == 1 and not (b or c or d):
        if not tail:
            return str(a)
        return tail if a == 1 else "-" + tail if a == -1 else f"{a}*{tail}"
    s = str(coef)
    if not tail:
        return s
    return f"({s})*{tail}" if " " in s else f"{s}*{tail}"


def render_powers(name: str, pairs) -> str:
    """The factors name<p + 1>^k of the (p, k) pairs with k > 0, joined by
    '*'; a power 1 is left out."""
    return "*".join(f"{name}{p + 1}" + (f"^{k}" if k > 1 else "")
                    for p, k in pairs if k)


_set_terms = Scalar.terms.__set__
_set_hash = Scalar._hash.__set__


def _scalar(terms: dict) -> Scalar:
    """A Scalar that takes over ``terms``, which must hold no zero
    coefficient; skips the zero filter of ``Scalar.__init__``."""
    x = _new(Scalar)
    _set_terms(x, terms)
    _set_hash(x, None)
    return x


# Combination._wrap of a Scalar, bound without a method frame of its own.
Scalar._wrap = staticmethod(_scalar)
SC_ZERO = Scalar({})
SC_ONE = Scalar({(): BN_ONE})


def as_scalar(x) -> Scalar:
    return Scalar.of(x)
