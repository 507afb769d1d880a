"""Canonical normal-form engine for the deformed Weyl-Clifford superalgebra.

Basis words have the shape

    x^a * y^b * g * e_A

with a, b exponent vectors, g a group element and e_A an ascending product of
Clifford generators (A a subset of coordinate indices).  An Element is a
finite Scalar-linear combination of such words, stored sparsely; the empty
combination is zero, and normal forms are unique, so identity checking is a
dictionary comparison.

Rewriting to normal form is driven by four families of rules:

  * moving a vector past a covector costs the pairing plus one group-algebra
    term per reflection, weighted by the class deformation parameter;
  * group elements slide right through covectors and vectors by acting on
    them;
  * Clifford generators multiply by the anticommutation relations of the
    bilinear form and commute with everything else (the non-Clifford tensor
    factor is even);
  * group elements multiply through the group's table.

Every rule application strictly reduces (total xy-degree, misordered pairs),
so iteration terminates; associativity of the resulting product is exercised
as the executable surrogate for confluence.

Elements are immutable values and all operations are pure; the only shared
state is the per-context cache of rewrite fragments, which is append-only.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .geometry import Covector, QuadraticSpace, Vector, bilinear_B
from .groups import ReflectionGroup
from .scalars import (BN_HALF_SQRT2, BN_I, BN_ONE, BaseNumber, SC_ONE,
                      SC_ZERO, Scalar, as_scalar, render_coefficient)

_F1 = Fraction(1)

# 1/sqrt(B(root, root)) for the squared root lengths the scalar ring holds.
ROOT_SCALE = {1: BN_ONE, 2: BN_HALF_SQRT2}


class Monomial(NamedTuple):
    xs: tuple            # covector exponents
    ys: tuple            # vector exponents
    g: int               # group-element index
    e: int               # Clifford subset bitmask

    @property
    def parity(self) -> int:
        return self.e.bit_count() & 1

    @property
    def degree(self) -> int:
        return sum(self.xs) + sum(self.ys)


def _add(t1, t2):
    return tuple(a + b for a, b in zip(t1, t2))


class Context:
    """A group together with its quadratic space; owns the rewrite caches."""

    def __init__(self, group: ReflectionGroup):
        self.group = group
        self.space: QuadraticSpace = group.space
        self.dim = group.dim
        self.num_classes = group.num_classes
        self.kappas = tuple(Scalar.kappa(c) for c in range(self.num_classes))
        self._zero_t = (0,) * self.dim
        self._unit_t = tuple(tuple(int(i == p) for i in range(self.dim))
                             for p in range(self.dim))
        self._cliff_ins: dict = {}
        self._cliff_pairs: dict = {}
        self._act_x_memo: dict = {}
        self._act_y_memo: dict = {}
        self._ycomm1: dict = {}
        self._ycommw: dict = {}
        self._misc_cache: dict = {}
        self.ident_mono = Monomial(self._zero_t, self._zero_t, 0, 0)

    # -- constructors ------------------------------------------------------

    def element(self, terms) -> "Element":
        return Element(self, terms)

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {self.ident_mono: SC_ONE})

    def scalar_elem(self, s) -> "Element":
        return Element(self, {self.ident_mono: as_scalar(s)})

    def x(self, p: int) -> "Element":
        self._check_index(p)
        return Element(self, {Monomial(self._unit_t[p], self._zero_t, 0, 0):
                              SC_ONE})

    def y(self, p: int) -> "Element":
        self._check_index(p)
        return Element(self, {Monomial(self._zero_t, self._unit_t[p], 0, 0):
                              SC_ONE})

    def e(self, p: int) -> "Element":
        self._check_index(p)
        return Element(self, {Monomial(self._zero_t, self._zero_t, 0, 1 << p):
                              SC_ONE})

    def g(self, i: int) -> "Element":
        if not 0 <= i < self.group.order:
            raise IndexError(f"group element index {i} out of range")
        return Element(self, {Monomial(self._zero_t, self._zero_t, i, 0):
                              SC_ONE})

    def _check_index(self, p):
        if not 0 <= p < self.dim:
            raise IndexError(f"coordinate index {p} out of range")

    def covector(self, coords) -> Covector:
        return self.space.covector(coords)

    def from_covector(self, u: Covector) -> "Element":
        """Embed u in V* as a degree-one element."""
        return Element(self, {
            Monomial(self._unit_t[p], self._zero_t, 0, 0): c
            for p, c in enumerate(u.coords) if not c.is_zero()})

    def from_vector(self, v: Vector) -> "Element":
        return Element(self, {
            Monomial(self._zero_t, self._unit_t[p], 0, 0): c
            for p, c in enumerate(v.coords) if not c.is_zero()})

    def gamma(self, u: Covector) -> "Element":
        """The Clifford image of a covector."""
        return Element(self, {
            Monomial(self._zero_t, self._zero_t, 0, 1 << p): c
            for p, c in enumerate(u.coords) if not c.is_zero()})

    def root_covector(self, refl) -> Covector:
        return self.space.covector(refl.root)

    def omega_kappa(self) -> "Element":
        """The central group-algebra element: class parameter times each
        reflection, summed."""
        terms: dict = {}
        for r in self.group.reflections:
            m = Monomial(self._zero_t, self._zero_t, r.elem, 0)
            terms[m] = terms.get(m, SC_ZERO) + self.kappas[r.class_id]
        return Element(self, terms)

    def o_frak(self, u: Covector) -> "Element":
        """The one-index supercentralizer element attached to a covector:
        half the sum over reflections of <coroot, u> kappa s gamma_root."""
        terms: dict = {}
        for r in self.group.reflections:
            pair = SC_ZERO
            for p, c in enumerate(u.coords):
                if not c.is_zero() and r.coroot[p] != 0:
                    pair = pair + c * r.coroot[p]
            if pair.is_zero():
                continue
            w = self.kappas[r.class_id] * pair * Fraction(1, 2)
            for p in range(self.dim):
                if r.root[p] != 0:
                    m = Monomial(self._zero_t, self._zero_t, r.elem, 1 << p)
                    terms[m] = terms.get(m, SC_ZERO) + w * r.root[p]
        return Element(self, terms)

    def rho(self, word) -> "Element":
        """Image of a double-cover word: the product over the given
        reflections of s * gamma_root / sqrt(B(root, root))."""
        if not isinstance(word, (list, tuple)):
            word = [word]
        acc = self.one()
        for r in word:
            if isinstance(r, int):
                r = self.group.reflections[r]
            scale = ROOT_SCALE.get(r.root_norm)
            if scale is None:
                raise ValueError(
                    f"squared root length {r.root_norm} is outside {{1, 2}}")
            terms = {
                Monomial(self._zero_t, self._zero_t, r.elem, 1 << p):
                as_scalar(r.root[p] * scale)
                for p in range(self.dim) if r.root[p] != 0}
            acc = acc * Element(self, terms)
        return acc

    def chirality(self) -> "Element":
        """The volume element of the Clifford factor, normalised to square
        to one: i^(d(d-1)/2) e_1 ... e_d."""
        d = self.dim
        k = (d * (d - 1) // 2) % 4
        unit = (BN_ONE, BN_I, -BN_ONE, -BN_I)[k]
        return Element(self, {
            Monomial(self._zero_t, self._zero_t, 0, (1 << d) - 1):
            as_scalar(unit)})

    # -- rewrite fragments -----------------------------------------------------

    def _cliff_insert(self, mask: int, p: int):
        """e_word * e_p as a combination of ascending words."""
        key = (mask, p)
        hit = self._cliff_ins.get(key)
        if hit is not None:
            return hit
        if mask == 0:
            res = ((1 << p, BN_ONE),)
        else:
            q = mask.bit_length() - 1
            rest = mask ^ (1 << q)
            gram = self.space.gram
            if q < p:
                res = ((mask | (1 << p), BN_ONE),)
            elif q == p:
                res = ((rest, gram[p][p]),)
            else:
                out: dict = {}
                cross = gram[q][p] + gram[q][p]
                if not cross.is_zero():
                    out[rest] = cross
                for m2, c2 in self._cliff_insert(rest, p):
                    m3 = m2 | (1 << q)
                    prev = out.get(m3)
                    out[m3] = -c2 if prev is None else prev - c2
                res = tuple((m, c) for m, c in out.items() if not c.is_zero())
        self._cliff_ins[key] = res
        return res

    def _cliff_pair(self, e1: int, e2: int):
        key = (e1, e2)
        hit = self._cliff_pairs.get(key)
        if hit is not None:
            return hit
        if e1 == 0:
            res = ((e2, BN_ONE),)
        elif e2 == 0:
            res = ((e1, BN_ONE),)
        else:
            terms = {e1: BN_ONE}
            m2 = e2
            while m2:
                p = (m2 & -m2).bit_length() - 1
                m2 ^= 1 << p
                nxt: dict = {}
                for mask, c in terms.items():
                    for m3, c3 in self._cliff_insert(mask, p):
                        v = c * c3
                        prev = nxt.get(m3)
                        nxt[m3] = v if prev is None else prev + v
                terms = {m: c for m, c in nxt.items() if not c.is_zero()}
            res = tuple(terms.items())
        self._cliff_pairs[key] = res
        return res

    def _act_x(self, g: int, xs: tuple):
        """Expansion of g . x^xs as covector-exponent terms with rational
        coefficients."""
        return self._act(self._act_x_memo, self.group.mats, g, xs)

    def _act_y(self, g: int, ys: tuple):
        return self._act(self._act_y_memo, self.group.ymats, g, ys)

    def _act(self, memo: dict, mats, g: int, exps: tuple):
        if g == 0:
            return ((exps, _F1),)
        key = (g, exps)
        hit = memo.get(key)
        if hit is not None:
            return hit
        mat = mats[g]
        poly = {self._zero_t: _F1}
        for p, k in enumerate(exps):
            row = mat[p]
            lin = tuple((self._unit_t[q], row[q])
                        for q in range(self.dim) if row[q] != 0)
            for _ in range(k):
                nxt: dict = {}
                for mono, c in poly.items():
                    for um, uc in lin:
                        m = _add(mono, um)
                        v = c * uc
                        prev = nxt.get(m)
                        nxt[m] = v if prev is None else prev + v
                poly = {m: c for m, c in nxt.items() if c != 0}
        res = memo[key] = tuple(poly.items())
        return res

    def _ycomm_single(self, b: tuple, r: int):
        """y^b * x_r in normal order: terms (xd, yd, g, Scalar), from
        y^(b - e_j) x_r with j the last index of b, memoised bottom-up."""
        memo = self._ycomm1
        key = (b, r)
        chain = []
        while (b, r) not in memo:
            if not any(b):
                memo[(b, r)] = ((self._unit_t[r], b, 0, SC_ONE),)
                break
            j = max(p for p in range(self.dim) if b[p])
            b2 = tuple(v - int(p == j) for p, v in enumerate(b))
            chain.append((b, j, b2))
            b = b2
        for b, j, b2 in reversed(chain):
            out: dict = {}

            def put(k, v):
                prev = out.get(k)
                out[k] = v if prev is None else prev + v

            for xd, yd, h, c in memo[(b2, r)]:
                for bz, w in self._act_y(h, self._unit_t[j]):
                    put((xd, _add(yd, bz), h), c * w)
            if j == r:
                put((self._zero_t, b2, 0), SC_ONE)
            for refl in self.group.reflections:
                f = refl.root[j] * refl.coroot[r]
                if f:
                    put((self._zero_t, b2, refl.elem),
                        self.kappas[refl.class_id] * f)
            memo[(b, r)] = tuple((xd, yd, h, c)
                                 for (xd, yd, h), c in out.items()
                                 if not c.is_zero())
        return memo[key]

    def _ycomm_word(self, b: tuple, ax: tuple):
        """y^b * x^ax in normal order: terms (xd, yd, g, Scalar), from
        y^b x_r x^(ax - e_r) with r the first index of ax.  The words
        y^yd x^av left of one degree less are memoised first, on a stack."""
        if not any(ax):
            return ((self._zero_t, b, 0, SC_ONE),)
        if not any(b):
            return ((ax, b, 0, SC_ONE),)
        memo = self._ycommw
        top = (b, ax)
        hit = memo.get(top)
        if hit is not None:
            return hit
        stack = [top]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            b, ax = key
            r = next(p for p in range(self.dim) if ax[p])
            ax2 = tuple(v - int(p == r) for p, v in enumerate(ax))
            base = self._ycomm_single(b, r)
            if not any(ax2):
                memo[key] = base
                stack.pop()
                continue
            missing = [(yd, av) for _, yd, h, _ in base if any(yd)
                       for av, _ in self._act_x(h, ax2)
                       if any(av) and (yd, av) not in memo]
            if missing:
                stack.extend(missing)
                continue
            out: dict = {}
            for xd, yd, h, c in base:
                for av, cx in self._act_x(h, ax2):
                    for xd2, yd2, h2, c2 in self._ycomm_word(yd, av):
                        k = (_add(xd, xd2), yd2, self.group.mul(h2, h))
                        v = c * c2 * cx
                        prev = out.get(k)
                        out[k] = v if prev is None else prev + v
            memo[key] = tuple((xd, yd, h, c) for (xd, yd, h), c in out.items()
                              if not c.is_zero())
            stack.pop()
        return memo[top]

    # -- the product -----------------------------------------------------------

    def _mul_terms(self, t1, t2, graded_sign: bool = False) -> dict:
        group = self.group
        out: dict = {}
        for m1, c1 in t1.items():
            a1, b1, g1, e1 = m1
            p1 = m1.parity
            for m2, c2 in t2.items():
                a2, b2, g2, e2 = m2
                c = c1 * c2
                if graded_sign and p1 and m2.parity:
                    c = -c
                eprod = self._cliff_pair(e1, e2)
                g12 = group.mul(g1, g2)
                for ax, cx in self._act_x(g1, a2):
                    wterms = [(_add(a1, xd), yd, h, group.mul(h, g12), c * cw)
                              for xd, yd, h, cw in self._ycomm_word(b1, ax)]
                    for by, cy in self._act_y(g1, b2):
                        for xs, yd, h, hg, ccw in wterms:
                            cxy = ccw * cx * cy
                            for bz, cz in self._act_y(h, by):
                                ys = _add(yd, bz)
                                coef = cxy * cz
                                for emask, ce in eprod:
                                    mono = Monomial(xs, ys, hg, emask)
                                    v = coef * ce
                                    prev = out.get(mono)
                                    out[mono] = v if prev is None else prev + v
        return {m: c for m, c in out.items() if not c.is_zero()}


class Element:
    """A finite Scalar-linear combination of normal-form basis words."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms, normalized=False):
        self.ctx = ctx
        if normalized:
            self.terms = terms
        else:
            clean = {}
            for m, c in terms.items():
                s = as_scalar(c)
                if not s.is_zero():
                    clean[m] = s
            self.terms = clean

    # -- linear structure ------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Element):
            if other.ctx is not self.ctx:
                raise ValueError("elements from different contexts")
            return other
        if isinstance(other, (int, Fraction, BaseNumber, Scalar)):
            return self.ctx.scalar_elem(other)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            s = c if prev is None else prev + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return Element(self.ctx, out, normalized=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Element(self.ctx, {m: -c for m, c in self.terms.items()},
                       normalized=True)

    def __mul__(self, other):
        if isinstance(other, Element):
            if other.ctx is not self.ctx:
                raise ValueError("elements from different contexts")
            return Element(self.ctx,
                           self.ctx._mul_terms(self.terms, other.terms),
                           normalized=True)
        if isinstance(other, (int, Fraction, BaseNumber, Scalar)):
            s = as_scalar(other)
            if s.is_zero():
                return self.ctx.zero()
            return Element(self.ctx, {m: c * s for m, c in self.terms.items()},
                           normalized=True)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, BaseNumber, Scalar)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, BaseNumber, Scalar)):
            return Element(self.ctx,
                           {m: c / other for m, c in self.terms.items()},
                           normalized=True)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        acc = self.ctx.one()
        for _ in range(n):
            acc = acc * self
        return acc

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, BaseNumber, Scalar)):
            other = self.ctx.scalar_elem(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        # A scalar element hashes like the scalar it equals.
        ident = self.ctx.ident_mono
        if self.terms.keys() <= {ident}:
            return hash(self.terms.get(ident, SC_ZERO))
        return hash(frozenset(self.terms.items()))

    def parity(self):
        """0 or 1 for homogeneous elements, None for mixed or zero."""
        ps = {m.parity for m in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def even_part(self) -> "Element":
        return Element(self.ctx,
                       {m: c for m, c in self.terms.items() if not m.parity},
                       normalized=True)

    def odd_part(self) -> "Element":
        return Element(self.ctx,
                       {m: c for m, c in self.terms.items() if m.parity},
                       normalized=True)

    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def kappa_degree(self) -> int:
        return max((c.degree() for c in self.terms.values()), default=0)

    def substitute_kappa(self, values) -> "Element":
        """Specialise the deformation parameters; one value per class."""
        if not isinstance(values, dict):
            values = {i: v for i, v in enumerate(values)}
        if set(values) < set(range(self.ctx.num_classes)):
            raise KeyError("a value is required for every reflection class")
        out: dict = {}
        for m, c in self.terms.items():
            s = c.substitute(values)
            if not s.is_zero():
                out[m] = s
        return Element(self.ctx, out, normalized=True)

    def sorted_monomials(self):
        return sorted(self.terms,
                      key=lambda m: (-m.degree,
                                     tuple(-v for v in m.xs),
                                     tuple(-v for v in m.ys),
                                     m.g, m.e))

    def witness(self):
        """The leading monomial in canonical order, rendered; None if zero."""
        monos = self.sorted_monomials()
        if not monos:
            return None
        m = monos[0]
        return _term_str(self.ctx, self.terms[m], m)

    def __str__(self):
        monos = self.sorted_monomials()
        if not monos:
            return "0"
        parts = [_term_str(self.ctx, self.terms[m], m) for m in monos]
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"Element({self})"


def _mono_str(ctx: Context, m: Monomial) -> str:
    bits = []
    for p, k in enumerate(m.xs):
        if k:
            bits.append(f"x{p + 1}" + (f"^{k}" if k > 1 else ""))
    for p, k in enumerate(m.ys):
        if k:
            bits.append(f"y{p + 1}" + (f"^{k}" if k > 1 else ""))
    if m.g:
        refl = ctx.group.reflection_by_elem.get(m.g)
        if refl is not None:
            bits.append(f"s{ctx.group.reflections.index(refl) + 1}")
        else:
            bits.append(f"g{m.g}")
    mask = m.e
    while mask:
        p = (mask & -mask).bit_length() - 1
        mask ^= 1 << p
        bits.append(f"e{p + 1}")
    return "*".join(bits)


def _term_str(ctx: Context, coef: Scalar, m: Monomial) -> str:
    mstr = _mono_str(ctx, m)
    if not mstr:
        return str(coef)
    if len(coef.terms) == 1:
        ((key, bn),) = coef.terms.items()
        kmono = "*".join(f"k{i + 1}" + (f"^{e}" if e > 1 else "")
                         for i, e in key)
        tail = f"{kmono}*{mstr}" if kmono else mstr
        return render_coefficient(bn, tail)
    return f"({coef})*{mstr}"


# -- graded brackets -----------------------------------------------------------


def supercommutator(a: Element, b: Element) -> Element:
    """ab - (-1)^(|a||b|) ba, extended bilinearly over parity components."""
    return _graded_bracket(a, b, -1)


def anticommutator(a: Element, b: Element) -> Element:
    """ab + (-1)^(|a||b|) ba, extended bilinearly over parity components."""
    return _graded_bracket(a, b, 1)


def _graded_bracket(a: Element, b: Element, sign: int) -> Element:
    ctx = a.ctx
    out = ctx._mul_terms(a.terms, b.terms)
    for m, c in ctx._mul_terms(b.terms, a.terms, graded_sign=True).items():
        if sign < 0:
            c = -c
        prev = out.get(m)
        s = c if prev is None else prev + c
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return Element(ctx, out, normalized=True)


def commutator(a: Element, b: Element) -> Element:
    """The plain ungraded commutator ab - ba."""
    return a * b - b * a


# -- antisymmetrisation ------------------------------------------------------------


def antisymmetrize(ctx: Context, covectors) -> Element:
    """(1/n!) sum of signed Clifford products over all orderings.

    Equals the quantisation of the wedge of the inputs; for pairwise
    B-orthogonal inputs this is just the plain product, which is used as a
    fast path.
    """
    covs = list(covectors)
    n = len(covs)
    if n == 0:
        return ctx.one()
    gammas = [ctx.gamma(u) for u in covs]
    orth = all(bilinear_B(covs[i], covs[j]).is_zero()
               for i in range(n) for j in range(i + 1, n))
    if orth:
        acc = gammas[0]
        for gm in gammas[1:]:
            acc = acc * gm
        return acc
    acc = ctx.zero()
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = gammas[perm[0]]
        for idx in perm[1:]:
            prod = prod * gammas[idx]
        acc = acc + prod if sign > 0 else acc - prod
    return acc * Fraction(1, math.factorial(n))


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


# -- seeded random elements (for property tests and the oracle harness) ------------


def random_element(ctx: Context, rng, max_degree: int = 2, n_terms: int = 3,
                   kappa_degree: int = 1) -> Element:
    terms: dict = {}
    for _ in range(n_terms):
        xs = [0] * ctx.dim
        ys = [0] * ctx.dim
        for _ in range(rng.randint(0, max_degree)):
            which = rng.randrange(2)
            p = rng.randrange(ctx.dim)
            (xs if which == 0 else ys)[p] += 1
        g = rng.randrange(ctx.group.order)
        e = rng.randrange(1 << ctx.dim)
        coef = Scalar.of(BaseNumber(rng.randint(-3, 3), rng.randint(-1, 1)))
        if ctx.num_classes and kappa_degree and rng.random() < 0.5:
            coef = coef * Scalar.kappa(rng.randrange(ctx.num_classes),
                                       rng.randint(1, kappa_degree))
        m = Monomial(tuple(xs), tuple(ys), g, e)
        terms[m] = terms.get(m, SC_ZERO) + coef
    return Element(ctx, terms)
