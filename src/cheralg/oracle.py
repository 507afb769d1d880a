"""The concrete module: polynomials tensor exterior-algebra spinors.

Covector generators act by coordinate multiplication, vector generators by
Dunkl operators, group elements by variable substitution (trivially on the
spinor factor), and Clifford generators through the isotropic basis: the
plus half wedges, the minus half contracts, and the extra anisotropic
generator in odd dimension acts by a degree sign times the module's sector.

The whole point of this module is independence from the normal-form engine:
it never rewrites words, it just composes operators on concrete vectors, so
exact agreement between the two is a meaningful cross-check.  Faithfulness
holds in principle; sampling vectors of bounded degree is the practical
contract, and exact zero on every sample is required.

`ModuleEvaluator` reads the parser's expression language in the module:
the engine builds only the leaves (names, scalars, and the O, M, A, R,
gamma, rho and B calls), and every product, power, sum and bracket of them
becomes composition of operators, so one written identity is checked by
both the engine and the module.

Polynomials are sparse dictionaries mapping exponent tuples to Scalars; a
PolySpinor maps (exponent tuple, spinor subset bitmask) pairs to Scalars.
The spinor bitmask ranges over subsets of the isotropic plus-directions.
"""

from __future__ import annotations

import random

from .core import Context, Element, Monomial
from .geometry import Vector
from .parser import (Bin, Bracket, Call, EvalError, Evaluator, Name, Neg, Num,
                     reciprocal)
from .scalars import BN_I, BaseNumber, SC_ONE, SC_ZERO, Scalar, as_scalar

_NEG_I = -BN_I


class PolySpinor:
    """A vector of the polynomial-tensor-spinor module, in canonical sparse
    form (no zero coefficients)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            prev = out.get(k)
            s = v if prev is None else prev + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return PolySpinor(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolySpinor({k: -v for k, v in self.terms.items()})

    def scale(self, s: Scalar) -> "PolySpinor":
        s = as_scalar(s)
        if s.is_zero():
            return PS_ZERO
        return PolySpinor({k: v * s for k, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, PolySpinor) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "PolySpinor(0)"
        bits = []
        for (exp, sm), c in sorted(self.terms.items()):
            mono = "*".join(f"x{p + 1}" + (f"^{k}" if k > 1 else "")
                            for p, k in enumerate(exp) if k)
            spin = "".join(f"T{j + 1}" for j in range(16) if sm >> j & 1)
            bits.append(f"({c})*{mono or '1'}|{spin or '1'}>")
        return "PolySpinor(" + " + ".join(bits) + ")"


PS_ZERO = PolySpinor({})


# -- sparse polynomial helpers (exponent tuple -> Scalar) -------------------------


def poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        prev = out.get(k)
        s = v if prev is None else prev + v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def poly_sub(a, b):
    return poly_add(a, {k: -v for k, v in b.items()})


def poly_partial(poly, p):
    out = {}
    for exp, c in poly.items():
        k = exp[p]
        if k:
            e2 = exp[:p] + (k - 1,) + exp[p + 1:]
            v = c * k
            prev = out.get(e2)
            out[e2] = v if prev is None else prev + v
    return {k: v for k, v in out.items() if not v.is_zero()}


def poly_div_linear(poly, alpha):
    """Exact division by the linear form with the given rational coordinates.

    A nonzero remainder is a hard error: the dividend is always a
    reflection difference, which is divisible by the root whenever the
    group data is consistent.
    """
    k = next(p for p, c in enumerate(alpha) if c != 0)
    ak = alpha[k]
    quot: dict = {}
    rem = dict(poly)
    while True:
        deg = max((exp[k] for exp in rem), default=0)
        if deg == 0:
            break
        level = [(exp, c) for exp, c in rem.items() if exp[k] == deg]
        for exp, c in level:
            qexp = exp[:k] + (deg - 1,) + exp[k + 1:]
            qc = c / ak
            prev = quot.get(qexp)
            quot[qexp] = qc if prev is None else prev + qc
            # subtract qc * x^qexp * alpha from the remainder
            for p, ap in enumerate(alpha):
                if ap == 0:
                    continue
                e2 = qexp[:p] + (qexp[p] + 1,) + qexp[p + 1:]
                v = qc * ap
                prev = rem.get(e2)
                s = -v if prev is None else prev - v
                if s.is_zero():
                    rem.pop(e2, None)
                else:
                    rem[e2] = s
    if rem:
        raise ValueError("nonzero remainder in division by a root form; "
                         "group and root data are inconsistent")
    return {k2: v for k2, v in quot.items() if not v.is_zero()}


class SpinorModule:
    """The polynomial-tensor-spinor module attached to a context."""

    def __init__(self, ctx: Context, sector: int = 1):
        if not ctx.space.is_identity:
            raise ValueError("the concrete module requires the orthonormal "
                             "configuration (identity Gram matrix)")
        if sector not in (1, -1):
            raise ValueError("sector must be +1 or -1")
        self.ctx = ctx
        self.dim = ctx.dim
        self.ell = ctx.dim // 2
        self.odd = ctx.dim % 2 == 1
        self.sector = sector
        self._zero_exp = (0,) * ctx.dim

    # -- building vectors ---------------------------------------------------

    def vacuum(self) -> PolySpinor:
        return PolySpinor({(self._zero_exp, 0): SC_ONE})

    def vector(self, terms) -> PolySpinor:
        return PolySpinor({k: as_scalar(v) for k, v in terms.items()})

    def random_vector(self, seed: int, max_degree: int = 3,
                      n_terms: int = 4) -> PolySpinor:
        rng = random.Random(seed)
        terms = {}
        for _ in range(n_terms):
            exp = [0] * self.dim
            for _ in range(rng.randint(0, max_degree)):
                exp[rng.randrange(self.dim)] += 1
            sm = rng.randrange(1 << self.ell) if self.ell else 0
            c = BaseNumber(rng.randint(-3, 3), rng.randint(-1, 1))
            if c.is_zero():
                c = BaseNumber(1)
            key = (tuple(exp), sm)
            terms[key] = terms.get(key, SC_ZERO) + Scalar.of(c)
        if not terms:
            return self.vacuum()
        return PolySpinor(terms)

    # -- spinor-side operators ----------------------------------------------

    def _theta_plus(self, j, v: PolySpinor) -> PolySpinor:
        out = {}
        bit = 1 << j
        below = bit - 1
        for (exp, sm), c in v.terms.items():
            if sm & bit:
                continue
            sign = -1 if (sm & below).bit_count() & 1 else 1
            out[(exp, sm | bit)] = c if sign > 0 else -c
        return PolySpinor(out)

    def _theta_minus(self, j, v: PolySpinor) -> PolySpinor:
        out = {}
        bit = 1 << j
        below = bit - 1
        for (exp, sm), c in v.terms.items():
            if not sm & bit:
                continue
            sign = -1 if (sm & below).bit_count() & 1 else 1
            out[(exp, sm ^ bit)] = c if sign > 0 else -c
        return PolySpinor(out)

    def _theta0(self, v: PolySpinor) -> PolySpinor:
        out = {}
        for (exp, sm), c in v.terms.items():
            sign = self.sector * (-1 if sm.bit_count() & 1 else 1)
            out[(exp, sm)] = c if sign > 0 else -c
        return PolySpinor(out)

    def apply_e(self, p: int, v: PolySpinor) -> PolySpinor:
        """Action of the p-th Clifford generator via the isotropic basis."""
        if self.odd and p == self.dim - 1:
            return self._theta0(v)
        j = p // 2
        plus = self._theta_plus(j, v)
        minus = self._theta_minus(j, v)
        if p % 2 == 0:
            return plus + minus
        return (plus - minus).scale(Scalar.of(_NEG_I))

    # -- polynomial-side operators -----------------------------------------------

    def _act_group_poly(self, g: int, poly: dict) -> dict:
        if g == 0:
            return poly
        out: dict = {}
        for exp, c in poly.items():
            for exp2, f in self.ctx._act_x(g, exp):
                v = c * f
                prev = out.get(exp2)
                out[exp2] = v if prev is None else prev + v
        return {k: v for k, v in out.items() if not v.is_zero()}

    def dunkl(self, p: int, poly: dict) -> dict:
        """The deformed directional derivative along the p-th dual basis
        vector: the plain partial plus reflection difference quotients."""
        out = poly_partial(poly, p)
        for refl in self.ctx.group.reflections:
            ap = refl.root[p]
            if ap == 0 or not poly:
                continue
            diff = poly_sub(poly, self._act_group_poly(refl.elem, poly))
            if not diff:
                continue
            quot = poly_div_linear(diff, refl.root)
            w = self.ctx.kappas[refl.class_id] * ap
            out = poly_add(out, {k: v * w for k, v in quot.items()})
        return out

    def dunkl_apply(self, y: Vector, poly: dict) -> dict:
        """Dunkl operator of a general vector, by linearity in the direction."""
        out: dict = {}
        for p, c in enumerate(y.coords):
            if c.is_zero():
                continue
            dp = self.dunkl(p, poly)
            out = poly_add(out, {k: v * c for k, v in dp.items()})
        return out

    # -- the module action ----------------------------------------------------------

    def _split(self, v: PolySpinor):
        polys: dict = {}
        for (exp, sm), c in v.terms.items():
            polys.setdefault(sm, {})[exp] = c
        return polys

    def _join(self, polys) -> PolySpinor:
        return PolySpinor({(exp, sm): c
                           for sm, poly in polys.items()
                           for exp, c in poly.items()})

    def act_monomial(self, mono: Monomial, v: PolySpinor) -> PolySpinor:
        xs, ys, g, e = mono
        w = v
        mask = e
        bits = []
        while mask:
            p = (mask & -mask).bit_length() - 1
            mask ^= 1 << p
            bits.append(p)
        for p in reversed(bits):      # rightmost Clifford factor acts first
            w = self.apply_e(p, w)
        if g or any(ys):
            polys = self._split(w)
            out = {}
            for sm, poly in polys.items():
                if g:
                    poly = self._act_group_poly(g, poly)
                for p, k in enumerate(ys):
                    for _ in range(k):
                        poly = self.dunkl(p, poly)
                out[sm] = poly
            w = self._join(out)
        if any(xs):
            w = PolySpinor({(tuple(a + b for a, b in zip(exp, xs)), sm): c
                            for (exp, sm), c in w.terms.items()})
        return w

    def act(self, element: Element, v: PolySpinor) -> PolySpinor:
        if element.ctx is not self.ctx:
            raise ValueError("element from a different context")
        acc = PS_ZERO
        for mono, coef in element.terms.items():
            acc = acc + self.act_monomial(mono, v).scale(coef)
        return acc


# Calls whose value the engine builds as one leaf operator.
_LEAF_CALLS = ("O", "M", "A", "R", "gamma", "rho", "B")


class ModuleEvaluator:
    """Act with an expression of the parser's language on module vectors.

    The leaves are built once each by the engine's Evaluator and act
    through `SpinorModule.act`; products become composition, powers
    repeated composition, and the graded brackets ab -+ ba with the sign
    read from the parities of the operands.  Nothing else is composed: the
    projector-style maps (Pp, Pm, Palpha, Qp, Qm) raise EvalError.
    """

    def __init__(self, module: SpinorModule):
        self.module = module
        self.engine = Evaluator(module.ctx)
        self._leaves: dict = {}

    def leaf(self, node) -> Element:
        hit = self._leaves.get(node)
        if hit is None:
            hit = self._leaves[node] = self.engine.eval_element(node)
        return hit

    def act(self, node, v: PolySpinor) -> PolySpinor:
        """The value of ``node`` applied to ``v``."""
        if _is_leaf(node):
            return self.module.act(self.leaf(node), v)
        if isinstance(node, Neg):
            return -self.act(node.arg, v)
        if isinstance(node, Bracket):
            ab = self.act(node.left, self.act(node.right, v))
            ba = self.act(node.right, self.act(node.left, v))
            odd = self.parity(node.left) & self.parity(node.right)
            return ab - ba if (node.kind == "super") != odd else ab + ba
        if isinstance(node, Bin):
            if node.op == "+":
                return self.act(node.left, v) + self.act(node.right, v)
            if node.op == "-":
                return self.act(node.left, v) - self.act(node.right, v)
            if node.op == "*":
                return self.act(node.left, self.act(node.right, v))
            if node.op == "/":
                return self.act(node.left, v).scale(
                    reciprocal(self.leaf(node.right)))
            for _ in range(_exponent(node)):
                v = self.act(node.left, v)
            return v
        raise EvalError(f"{node.fn} does not act by composition in the "
                        "module")

    def parity(self, node) -> int:
        """The parity of the value of ``node``; zero counts as even."""
        if _is_leaf(node):
            parities = {m.parity for m in self.leaf(node).terms} or {0}
        elif isinstance(node, Neg):
            return self.parity(node.arg)
        elif isinstance(node, Bracket) or node.op == "*":
            return self.parity(node.left) ^ self.parity(node.right)
        elif node.op == "^":
            return self.parity(node.left) * _exponent(node) % 2
        elif node.op == "/":
            return self.parity(node.left)
        else:
            parities = {self.parity(node.left), self.parity(node.right)}
        if len(parities) > 1:
            raise EvalError("operand of mixed parity in a bracket")
        return parities.pop()


def _is_leaf(node) -> bool:
    return isinstance(node, (Num, Name)) or (
        isinstance(node, Call) and node.fn in _LEAF_CALLS)


def _exponent(node) -> int:
    if not isinstance(node.right, Num):
        raise EvalError("exponents must be integer literals")
    return node.right.value
