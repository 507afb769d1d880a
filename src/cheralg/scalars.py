"""Exact coefficient arithmetic.

Every coefficient in the engine lives in the commutative ring

    Q(i, sqrt2)[k1, ..., kr]

where i^2 = -1, (sqrt2)^2 = 2, and k1..kr are commuting deformation
indeterminates, one per conjugacy class of reflections.  Two layers:

  BaseNumber -- an element a + b*i + c*sqrt2 + d*i*sqrt2 with rational
                components; a 4-dimensional Q-algebra, in fact a field.
  Scalar     -- a sparse polynomial in the k-indeterminates over BaseNumber.
                Keys are sorted tuples of (class_index, exponent) pairs with
                positive exponents, so scalars from rings with different
                numbers of classes mix freely (the constant key is ()).

Both types are immutable; canonical form stores no zero coefficients, which
makes is_zero a trivial check after every operation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

_F0 = Fraction(0)
_F1 = Fraction(1)


class BaseNumber:
    """An exact element a + b*i + c*sqrt2 + d*i*sqrt2 of Q(i, sqrt2).

    Most coefficients the engine meets are rational (b = c = d = 0), so
    the arithmetic tests for that first: a product of two rationals takes
    one Fraction product, a rational times a general number four, and only
    two irrational operands take the general sixteen.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def __setattr__(self, *_):
        raise AttributeError("BaseNumber is immutable")

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not BaseNumber:
            try:
                other = as_base(other)
            except TypeError:
                return NotImplemented
        return _make(self.a + other.a, self.b + other.b,
                     self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not BaseNumber:
            try:
                other = as_base(other)
            except TypeError:
                return NotImplemented
        return _make(self.a - other.a, self.b - other.b,
                     self.c - other.c, self.d - other.d)

    def __rsub__(self, other):
        return as_base(other) - self

    def __neg__(self):
        return _make(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if type(other) is not BaseNumber:
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            try:
                other = as_base(other)
            except TypeError:
                return NotImplemented
        if not (other.b or other.c or other.d):
            return self._scale(other.a)
        if not (self.b or self.c or self.d):
            return other._scale(self.a)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return _make(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def _scale(self, r):
        """self * r for an int or Fraction r."""
        if r == 1:
            return self
        a, b, c, d = self.a, self.b, self.c, self.d
        if not (b or c or d):
            return _make(a * r, _F0, _F0, _F0)
        # zero components stay zero; skip their Fraction products
        return _make(a * r if a else a, b * r if b else b,
                     c * r if c else c, d * r if d else d)

    def inverse(self):
        """Multiplicative inverse; Q(i, sqrt2) is a field."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if not (self.b or self.c or self.d):
            return _make(1 / self.a, _F0, _F0, _F0)
        # Multiply by the three Galois conjugates; the product of all four
        # conjugates is a nonzero rational.
        ci = _make(self.a, -self.b, self.c, -self.d)    # i -> -i
        cs = _make(self.a, self.b, -self.c, -self.d)    # sqrt2 -> -sqrt2
        cb = _make(self.a, -self.b, -self.c, self.d)
        num = ci * cs * cb
        norm = (self * num).a
        return _make(num.a / norm, num.b / norm, num.c / norm, num.d / norm)

    def __truediv__(self, other):
        return self * as_base(other).inverse()

    def __rtruediv__(self, other):
        return as_base(other) * self.inverse()

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not (self.a or self.b or self.c or self.d)

    def is_rational(self):
        return not (self.b or self.c or self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = as_base(other)
        if not isinstance(other, BaseNumber):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        # A rational hashes like the Fraction (or int) it equals.
        if not (self.b or self.c or self.d):
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"BaseNumber({self})"

    def __str__(self):
        parts = []
        for comp, unit in ((self.a, ""), (self.b, "i"),
                           (self.c, "sqrt2"), (self.d, "i*sqrt2")):
            if comp == 0:
                continue
            if not unit:
                parts.append(str(comp))
            elif comp == 1:
                parts.append(unit)
            elif comp == -1:
                parts.append("-" + unit)
            else:
                parts.append(f"{comp}*{unit}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


_new = object.__new__
_set_a = BaseNumber.a.__set__
_set_b = BaseNumber.b.__set__
_set_c = BaseNumber.c.__set__
_set_d = BaseNumber.d.__set__


def _make(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> BaseNumber:
    """A BaseNumber from components that are already Fractions, written
    into the slots without the conversions of ``__init__``."""
    x = _new(BaseNumber)
    _set_a(x, a)
    _set_b(x, b)
    _set_c(x, c)
    _set_d(x, d)
    return x


BN_ZERO = BaseNumber()
BN_ONE = BaseNumber(1)
BN_I = BaseNumber(0, 1)
BN_SQRT2 = BaseNumber(0, 0, 1)
BN_HALF_SQRT2 = BaseNumber(0, 0, Fraction(1, 2))   # 1/sqrt2


def as_base(x) -> BaseNumber:
    if isinstance(x, BaseNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(Fraction(x), _F0, _F0, _F0)
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


class Scalar:
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

    def __add__(self, other):
        if type(other) is not Scalar:
            try:
                other = Scalar.of(other)
            except TypeError:
                return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                w = w + v
                if w.is_zero():
                    del out[k]
                else:
                    out[k] = w
        return _scalar(out)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = Scalar.of(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Scalar.of(other) + (-self)

    def __neg__(self):
        return _scalar({k: -v for k, v in self.terms.items()})

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

    def _times(self, c):
        """self * c for a nonzero int, Fraction or BaseNumber c.  Q(i, sqrt2)
        is a field, so no product of nonzero coefficients is zero."""
        if type(c) is BaseNumber:
            if c.b or c.c or c.d:
                return _scalar({k: v * c for k, v in self.terms.items()})
            c = c.a
        if c == 1:
            return self
        return _scalar({k: v * c for k, v in self.terms.items()})

    def __truediv__(self, other):
        """Division by a constant (degree-0) scalar or number."""
        if isinstance(other, Scalar):
            if set(other.terms) - {()}:
                raise ZeroDivisionError("can only divide by a constant scalar")
            other = other.terms.get((), BN_ZERO)
        return self._times(as_base(other).inverse())

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

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
                base = as_base(values[idx])
                for _ in range(e):
                    v = v * base
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
            coef = self.terms[key]
            kmono = "*".join(f"k{i + 1}" + (f"^{e}" if e > 1 else "")
                             for i, e in key)
            parts.append(render_coefficient(coef, kmono))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def render_coefficient(coef: BaseNumber, tail: str) -> str:
    """Render coef * tail, with parentheses when coef has several components."""
    s = str(coef)
    if not tail:
        return s
    if s == "1":
        return tail
    if s == "-1":
        return "-" + tail
    if " " in s:
        return f"({s})*{tail}"
    return f"{s}*{tail}"


_set_terms = Scalar.terms.__set__
_set_hash = Scalar._hash.__set__


def _scalar(terms: dict) -> Scalar:
    """A Scalar that takes over ``terms``, which must hold no zero
    coefficient; skips the zero filter of ``Scalar.__init__``."""
    x = _new(Scalar)
    _set_terms(x, terms)
    _set_hash(x, None)
    return x


SC_ZERO = Scalar({})
SC_ONE = Scalar({(): BN_ONE})


def as_scalar(x) -> Scalar:
    return Scalar.of(x)
