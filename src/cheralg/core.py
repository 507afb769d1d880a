"""Canonical normal-form engine for the deformed Weyl-Clifford superalgebra.

Basis words have the shape

    x^a * y^b * g * e_A

with a, b exponent vectors, g a group element and e_A an ascending product of
Clifford generators (A a subset of coordinate indices).  An Element is a
finite Scalar-linear combination of such words, stored sparsely; the empty
combination is zero, and normal forms are unique, so identity checking is a
dictionary comparison.

The exponent vectors a and b of a word are packed words: one Python int
each, with one FIELD_BITS = 32 bit field per coordinate, coordinate p in
bits 32p to 32p + 31.  Adding exponent vectors is adding ints, the zero
vector is 0, and the first or last coordinate in use is read from the
lowest or highest set bit.  Only the edges unpack a word, through
``unpack``: the printer, the canonical order, ``Monomial.degree``,
``random_element`` and the oracle module.  A field must never carry into
the next, so a product raises OverflowError when an exponent of either
operand reaches 2^27.  Below that limit each exponent of the product is at
most the sum of the 2d exponents of the operands' x (or y) parts, under
2^32 for d <= 16; past d = 16 the limit halves with each doubling of d
(``exponent_bits``).

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

The product folds coefficients before it touches a Scalar.  The memos store
every integral number as a Python int and keep the others as Fraction (or
BaseNumber, in ``_cliff_pair``); the y-x commutation memos (``_ycomm_*``)
store a coefficient as items (kappa key, number).  So the factors of an
output term multiply to one number f under one kappa key, mostly in int
arithmetic, and f = 1 or -1 takes no product with the pair's coefficient.

A miss in those memos reads the group's integer views, not its Fraction
matrices: ``x_rows``/``y_rows`` give each matrix row's nonzero entries and
``reflection_factors`` the nonzero products root[j] * coroot[r] per
reflection, as ints where integral.  The group fills them once on first
use, so a cold Context (a fresh one per request, or a large group) expands
group actions and Dunkl reflection sums mostly in int arithmetic too.

A product keeps one dict of BaseNumbers under flat keys
(xs, ys, g, e, kappa key).  For each pair of words (m1, m2) it forms
c = c1*c2 once, and one routine, ``_expand_pair``, writes f times c's
items into that dict for every term of m1*m2, reading the rewrite memos in
place.  A graded bracket ab -+ (-1)^(|a||b|) ba takes the same routine
once per order, with a sign, into the same dict, so the terms that cancel
between m1*m2 and m2*m1 vanish there.  A last pass drops the zeros and
builds each output word's Monomial and Scalar once.  A pair where m1 has
no y or m2 no x has no y to move past an x, so it skips the commutation
memo.

An antisymmetrized Clifford word Q(u1 ^ ... ^ un) is built by Chevalley's
identity gamma(u) Q(w) + (-1)^k Q(w) gamma(u) = 2 Q(u ^ w), for a covector
u and a k-vector w: gamma(u) Q(w) is Q(u ^ w) plus the contraction of w by
B(u, .), Q(w) gamma(u) is (-1)^k times Q(u ^ w) minus it, and the graded
sum cancels the contractions.  Nothing asks B to be diagonal or the inputs
orthogonal, so ``antisymmetrize`` takes n - 1 bracket passes under every
Gram matrix, where the sum over orderings takes n! (n - 1) products.

Elements are immutable values and all operations are pure; the only shared
state is the per-context cache of rewrite fragments, which is append-only.
"""

from __future__ import annotations

import itertools
import struct
from fractions import Fraction
from typing import NamedTuple

from .geometry import Covector, QuadraticSpace, Vector
from .groups import Reflection, ReflectionGroup
from .scalars import (BN_HALF_SQRT2, BN_ONE, BN_ZERO, BaseNumber,
                      Combination, SC_ONE, SC_ZERO, Scalar, _key_mul, _scalar,
                      as_scalar, int_if_integral, power, render_coefficient,
                      render_powers)

# 1/sqrt(B(root, root)) for the squared root lengths the scalar ring holds.
ROOT_SCALE = {1: BN_ONE, 2: BN_HALF_SQRT2}


# Bits per coordinate field of a packed exponent word; ``unpack`` reads
# the fields as struct's 32-bit code "I".
FIELD_BITS = 32


def pack(exps) -> int:
    """The packed word of an exponent sequence, coordinate p in field p."""
    return sum(k << (FIELD_BITS * p) for p, k in enumerate(exps))


def unpack(word: int, dim: int) -> tuple:
    """The ``dim`` exponents of a packed word of at most ``dim`` fields."""
    return struct.unpack(f"<{dim}I", word.to_bytes(4 * dim, "little"))


def exponent_bits(dim: int) -> int:
    """The bits an exponent of a product's operand may use: 27 up to
    dimension 16, where 2d exponents below 2^27 sum below 2^32, and one
    fewer for each doubling of the dimension beyond."""
    return min(27, FIELD_BITS - (2 * dim - 1).bit_length())


class Monomial(NamedTuple):
    xs: int              # covector exponents, packed
    ys: int              # vector exponents, packed
    g: int               # group-element index
    e: int               # Clifford subset bitmask

    @property
    def parity(self) -> int:
        return self.e.bit_count() & 1

    @property
    def degree(self) -> int:
        fields = -(-max(self.xs, self.ys).bit_length() // FIELD_BITS)
        return sum(unpack(self.xs, fields)) + sum(unpack(self.ys, fields))


# Builds a Monomial without the Python frame of NamedTuple.__new__.
_tuple_new = tuple.__new__


class Context:
    """A group together with its quadratic space; owns the rewrite caches."""

    def __init__(self, group: ReflectionGroup):
        self.group = group
        self.space: QuadraticSpace = group.space
        self.dim = group.dim
        self.num_classes = group.num_classes
        self.kappas = tuple(Scalar.kappa(c) for c in range(self.num_classes))
        self._unit_t = tuple(1 << (FIELD_BITS * p) for p in range(self.dim))
        # the bits an operand's exponent must leave clear, in every field
        self._guard = pack([(1 << FIELD_BITS) - (1 << exponent_bits(self.dim))]
                           * self.dim)
        self._cliff_ins: dict = {}
        self._cliff_pairs: dict = {}
        self._act_x_memo: dict = {}
        self._act_y_memo: dict = {}
        self._ycomm1: dict = {}
        self._ycommw: dict = {}
        self._misc_cache: dict = {}
        self.ident_mono = Monomial(0, 0, 0, 0)

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
        return Element(self, {Monomial(self._unit_t[p], 0, 0, 0):
                              SC_ONE})

    def y(self, p: int) -> "Element":
        self._check_index(p)
        return Element(self, {Monomial(0, self._unit_t[p], 0, 0):
                              SC_ONE})

    def e(self, p: int) -> "Element":
        self._check_index(p)
        return Element(self, {Monomial(0, 0, 0, 1 << p):
                              SC_ONE})

    def g(self, i: int) -> "Element":
        if not 0 <= i < self.group.order:
            raise IndexError(f"group element index {i} out of range")
        return Element(self, {Monomial(0, 0, i, 0):
                              SC_ONE})

    def cached(self, key, build):
        """The value of ``build()`` under ``key``, built once per context.

        ``_misc_cache`` keeps the value's type and terms, never the value:
        an Element points back at its Context, so a kept Element would make
        the Context cyclic garbage that only the garbage collector frees.
        Each read wraps the terms again.  ``build`` returns an Element, or
        a value of another kind made as ``kind(context, terms)`` (the osp
        generators, whose terms are one term dict per generator)."""
        hit = self._misc_cache.get(key)
        if hit is None:
            value = build()
            hit = self._misc_cache[key] = (type(value), value.terms)
        kind, terms = hit
        if kind is Element:
            return Element(self, terms, True)
        return kind(self, terms)

    def _check_index(self, p):
        if not 0 <= p < self.dim:
            raise IndexError(f"coordinate index {p} out of range")

    def covector(self, coords) -> Covector:
        return self.space.covector(coords)

    def from_covector(self, u: Covector) -> "Element":
        """Embed u in V* as a degree-one element."""
        return Element(self, {Monomial(self._unit_t[p], 0, 0, 0): c
                              for p, c in u.terms.items()}, True)

    def from_vector(self, v: Vector) -> "Element":
        return Element(self, {Monomial(0, self._unit_t[p], 0, 0): c
                              for p, c in v.terms.items()}, True)

    def gamma(self, u: Covector) -> "Element":
        """The Clifford image of a covector."""
        return Element(self, {Monomial(0, 0, 0, 1 << p): c
                              for p, c in u.terms.items()}, True)

    def root_covector(self, refl) -> Covector:
        return self.space.covector(refl.root)

    def o_frak(self, u: Covector) -> "Element":
        """The one-index supercentralizer element attached to a covector:
        half the sum over reflections of <coroot, u> kappa s gamma_root."""
        terms: dict = {}
        for r in self.group.reflections:
            pair = SC_ZERO
            for p, c in u.terms.items():
                if r.coroot[p] != 0:
                    pair = pair + c * r.coroot[p]
            if pair.is_zero():
                continue
            w = self.kappas[r.class_id] * pair * Fraction(1, 2)
            for p in range(self.dim):
                if r.root[p] != 0:
                    m = Monomial(0, 0, r.elem, 1 << p)
                    terms[m] = terms.get(m, SC_ZERO) + w * r.root[p]
        return Element(self, terms)

    def rho(self, word) -> "Element":
        """Image of a double-cover word: the product over the given
        reflections of s * gamma_root / sqrt(B(root, root))."""
        # a Reflection is a NamedTuple: test for it before reading a word
        if isinstance(word, Reflection) or not isinstance(word, (list, tuple)):
            word = [word]
        acc = None
        for r in word:
            if isinstance(r, int):
                r = self.group.reflections[r]
            scale = ROOT_SCALE.get(r.root_norm)
            if scale is None:
                raise ValueError(
                    f"squared root length {r.root_norm} is outside {{1, 2}}")
            factor = Element(self, {
                Monomial(0, 0, r.elem, 1 << p):
                as_scalar(r.root[p] * scale)
                for p in range(self.dim) if r.root[p] != 0})
            # a single factor is already in normal form: s then gamma_root
            acc = factor if acc is None else acc * factor
        return self.one() if acc is None else acc

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
            # B(x_q, x_p) is looked up in the sparse Gram row q; absent is 0
            gram = self.space.gram
            if q < p:
                res = ((mask | (1 << p), BN_ONE),)
            elif q == p:
                res = ((rest, dict(gram[p]).get(p, BN_ZERO)),)
            else:
                out: dict = {}
                cross = dict(gram[q]).get(p, BN_ZERO)
                cross = cross + cross
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
            res = ((e2, 1),)
        elif e2 == 0:
            res = ((e1, 1),)
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
            res = tuple((m, int_if_integral(c)) for m, c in terms.items())
        self._cliff_pairs[key] = res
        return res

    def _act_x(self, g: int, xs: int):
        """Expansion of g . x^xs as covector-exponent terms with rational
        coefficients: ints where integral, Fractions otherwise."""
        return self._act(self._act_x_memo, self.group.x_rows, g, xs)

    def _act_y(self, g: int, ys: int):
        return self._act(self._act_y_memo, self.group.y_rows, g, ys)

    def _act(self, memo: dict, rows_of, g: int, exps: int):
        if g == 0:
            return ((exps, 1),)
        key = (g, exps)
        hit = memo.get(key)
        if hit is not None:
            return hit
        rows = rows_of(g)
        unit = self._unit_t
        poly = {0: 1}
        for p, k in enumerate(unpack(exps, self.dim)):
            if not k:
                continue
            lin = tuple((unit[q], v) for q, v in rows[p])
            for _ in range(k):
                nxt: dict = {}
                for mono, c in poly.items():
                    for um, uc in lin:
                        m = mono + um
                        v = c * uc
                        prev = nxt.get(m)
                        nxt[m] = v if prev is None else prev + v
                poly = {m: c for m, c in nxt.items() if c != 0}
        res = memo[key] = tuple((m, int_if_integral(c))
                                for m, c in poly.items())
        return res

    def _ycomm_single(self, b: int, r: int):
        """y^b * x_r in normal order: terms (xd, yd, g, items), from
        y^(b - e_j) x_r with j the last index of b, memoised bottom-up; a
        Dunkl reflection term is the item (((class, 1),), root*coroot)."""
        memo = self._ycomm1
        key = (b, r)
        chain = []
        while (b, r) not in memo:
            if not b:
                memo[(b, r)] = ((self._unit_t[r], b, 0, _UNIT),)
                break
            j = (b.bit_length() - 1) // FIELD_BITS
            b2 = b - self._unit_t[j]
            chain.append((b, j, b2))
            b = b2
        for b, j, b2 in reversed(chain):
            out: dict = {}

            def put(k, v):
                prev = out.get(k)
                out[k] = v if prev is None else prev + v

            for xd, yd, h, items in memo[(b2, r)]:
                for bz, w in self._act_y(h, self._unit_t[j]):
                    for kk, n in items:
                        put((xd, yd + bz, h, kk), n * w)
            if j == r:
                put((0, b2, 0, ()), 1)
            for elem, cls, f in self.group.reflection_factors(j, r):
                put((0, b2, elem, ((cls, 1),)), f)
            memo[(b, r)] = _grouped(out)
        return memo[key]

    def _ycomm_word(self, b: int, ax: int):
        """y^b * x^ax in normal order: terms (xd, yd, g, items), from
        y^b x_r x^(ax - e_r) with r the first index of ax.  The words
        y^yd x^av left of one degree less are memoised first, on a stack."""
        if not ax:
            return ((0, b, 0, _UNIT),)
        if not b:
            return ((ax, b, 0, _UNIT),)
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
            r = ((ax & -ax).bit_length() - 1) // FIELD_BITS
            ax2 = ax - self._unit_t[r]
            base = self._ycomm_single(b, r)
            if not ax2:
                memo[key] = base
                stack.pop()
                continue
            missing = [(yd, av) for _, yd, h, _ in base if yd
                       for av, _ in self._act_x(h, ax2)
                       if av and (yd, av) not in memo]
            if missing:
                stack.extend(missing)
                continue
            out: dict = {}
            for xd, yd, h, items in base:
                for av, cx in self._act_x(h, ax2):
                    for xd2, yd2, h2, items2 in self._ycomm_word(yd, av):
                        k = (xd + xd2, yd2, self.group.mul(h2, h))
                        for k1, n1 in items:
                            for k2, n2 in items2:
                                kk = k + (_key_mul(k1, k2),)
                                v = n1 * n2 * cx
                                prev = out.get(kk)
                                out[kk] = v if prev is None else prev + v
            memo[key] = _grouped(out)
            stack.pop()
        return memo[top]

    # -- the product -----------------------------------------------------------

    def _mul_terms(self, t1, t2, sign: int = 0) -> dict:
        """The product of two term dicts when sign is 0, and their graded
        bracket t1*t2 + sign*(-1)^(|t1||t2|) t2*t1 when sign is 1 or -1; a
        term dict without zeros either way.

        Each t2 term is read once, as (m2, c2, parity, coefficient items),
        and the group-table row of each t1 word once.  For each word pair
        (m1, m2), c = c1*c2 is formed once: one key merge and one
        BaseNumber product for two kappa monomials, else the Scalar
        product.  ``_expand_pair`` then writes c times m1*m2, and for a
        bracket c times s*m2*m1, into one dict of BaseNumbers under flat
        keys (xs, ys, g, e, kappa key); the terms that cancel between the
        bracket's two orders, or between pairs, vanish there.  A last pass
        drops the zeros and builds each output word's Monomial and Scalar
        once.  The sign is the third positional parameter, so (t1, t2, 0)
        or (t1, t2, False) is the plain product.

        Raises OverflowError when an exponent of either operand reaches
        2^exponent_bits(dim), before a field of a product could carry."""
        used = 0
        for xs, ys, _, _ in itertools.chain(t1, t2):
            used |= xs | ys
        if used & self._guard:
            raise OverflowError(
                f"exponents of a product's operands must stay below "
                f"2^{exponent_bits(self.dim)} in dimension {self.dim}")
        out: dict = {}
        expand = self._expand_pair
        row = self.group.row
        rows2 = [(m2, c2, m2[3].bit_count() & 1, tuple(c2.terms.items()),
                  row(m2[2]) if sign else None)
                 for m2, c2 in t2.items()]
        for m1, c1 in t1.items():
            items1 = tuple(c1.terms.items())
            single = len(items1) == 1
            if single:
                ((k1, v1),) = items1
            g1 = m1[2]
            row1 = row(g1)
            odd1 = m1[3].bit_count() & 1
            for m2, c2, odd2, items2, row2 in rows2:
                if single and len(items2) == 1:
                    ((k2, v2),) = items2
                    c = ((_key_mul(k1, k2) if k1 and k2 else k1 or k2,
                          v2 if v1 is BN_ONE else v1 if v2 is BN_ONE
                          else v1 * v2),)
                else:
                    c = tuple((c1 * c2).terms.items())
                expand(m1, m2, row1[m2[2]], 1, c, out)
                if sign:
                    expand(m2, m1, row2[g1], -sign if odd1 and odd2 else sign,
                           c, out)
        words: dict = {}
        for key, v in out.items():
            if not v.is_zero():
                word = key[:4]
                sc = words.get(word)
                if sc is None:
                    words[_tuple_new(Monomial, word)] = _scalar({key[4]: v})
                else:
                    sc.terms[key[4]] = v    # the Scalar has not left the product
        return words

    def _expand_pair(self, m1, m2, g12: int, s: int, c: tuple,
                     out: dict) -> None:
        """Add s * c * m1*m2 to ``out``, BaseNumbers under flat keys
        (xs, ys, g, e, kappa key); g12 is the group product of m1's and
        m2's elements, and c the pair's coefficient as (kappa key,
        BaseNumber) items.

        An output term's number is s times the group-action factors cx, cy,
        cz, the Clifford factor ce and a commutation item's number: f, mostly
        an int product, since the memos hold their numbers as ints where
        integral.  Each item of c enters as itself when f is 1, negated
        when f is -1, and times f otherwise, under the merged kappa key.

        The memos are read in place; a miss falls back to the method that
        fills them.  When m1's element is the identity, the group actions
        are the words themselves.  When m1 has no y or m2 no x, no y meets
        an x: the pair is x^a1 (g1.x^a2) y^b1 (g1.y^b2) g1g2 e1e2, under
        c's own keys."""
        a1, b1, g1, e1 = m1
        a2, b2, _, e2 = m2
        eprod = self._cliff_pairs.get((e1, e2))
        if eprod is None:
            eprod = self._cliff_pair(e1, e2)
        if g1:
            xterms = self._act_x_memo.get((g1, a2))
            if xterms is None:
                xterms = self._act_x(g1, a2)
            yterms = self._act_y_memo.get((g1, b2))
            if yterms is None:
                yterms = self._act_y(g1, b2)
        else:
            xterms = ((a2, 1),)
            yterms = ((b2, 1),)
        if not b1 or not a2:
            for ax, cx in xterms:
                xs = a1 + ax
                fx = s * cx
                for by, cy in yterms:
                    ys = b1 + by
                    fy = fx * cy
                    for emask, ce in eprod:
                        f = fy * ce
                        unit = type(f) is int and (f == 1 or f == -1)
                        for k, v in c:
                            key = (xs, ys, g12, emask, k)
                            prev = out.get(key)
                            if not unit:
                                v = v * f
                            elif f == -1:
                                out[key] = -v if prev is None else prev - v
                                continue
                            out[key] = v if prev is None else prev + v
            return
        ymemo = self._act_y_memo
        ycw = self._ycommw
        row = self.group.row
        for ax, cx in xterms:
            fx = s * cx
            wterms = ycw.get((b1, ax))
            if wterms is None:
                wterms = self._ycomm_word(b1, ax)
            for xd, yd, h, items in wterms:
                xs = a1 + xd
                hg = row(h)[g12] if h else g12
                for by, cy in yterms:
                    fy = fx * cy
                    if h:
                        zterms = ymemo.get((h, by))
                        if zterms is None:
                            zterms = self._act_y(h, by)
                    else:
                        zterms = ((by, 1),)
                    for bz, cz in zterms:
                        ys = yd + bz
                        fz = fy * cz
                        for emask, ce in eprod:
                            fe = fz * ce
                            for kw, n in items:
                                f = fe * n
                                unit = type(f) is int and (f == 1 or f == -1)
                                for k, v in c:
                                    key = (xs, ys, hg, emask,
                                           _key_mul(k, kw) if kw else k)
                                    prev = out.get(key)
                                    if not unit:
                                        v = v * f
                                    elif f == -1:
                                        out[key] = (-v if prev is None
                                                    else prev - v)
                                        continue
                                    out[key] = (v if prev is None
                                                else prev + v)


def _grouped(out: dict) -> tuple:
    """Commutation terms (xd, yd, g, items) from numbers keyed by
    (xd, yd, g, kappa key), without zero numbers, ints where integral."""
    words: dict = {}
    for (xd, yd, h, k), n in out.items():
        if n:
            words.setdefault((xd, yd, h), []).append((k, int_if_integral(n)))
    return tuple((xd, yd, h, tuple(items))
                 for (xd, yd, h), items in words.items())


_UNIT = (((), 1),)      # the coefficient 1 as commutation items


class Element(Combination):
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

    def _operand(self, other):
        if isinstance(other, Element):
            if other.ctx is not self.ctx:
                raise ValueError("elements from different contexts")
            return other
        if isinstance(other, (int, Fraction, BaseNumber, Scalar)):
            return self.ctx.scalar_elem(other)
        return None

    def _wrap(self, terms):
        return Element(self.ctx, terms, True)

    def __mul__(self, other):
        if isinstance(other, Element):
            if other.ctx is not self.ctx:
                raise ValueError("elements from different contexts")
            return Element(self.ctx,
                           self.ctx._mul_terms(self.terms, other.terms),
                           normalized=True)
        if isinstance(other, (int, Fraction, BaseNumber, Scalar)):
            return self._scaled(other)
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
        # every operand is a power a^k with k < n, so the exponent guard
        # of each product sees the operands before they overflow
        return power(self, n, self.ctx.one())

    # -- structure ----------------------------------------------------------

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
        """The words by descending degree, then descending x and y
        exponents, coordinate by coordinate, then g and e ascending."""
        return [m for m, _, _ in self._sorted_words()]

    def _sorted_words(self):
        """(word, x exponents, y exponents) in the order of
        ``sorted_monomials``, each distinct packed word unpacked once."""
        dim = self.ctx.dim
        exps: dict = {}
        rows = []
        for m in self.terms:
            xs = exps.get(m[0])
            if xs is None:
                xs = exps[m[0]] = unpack(m[0], dim)
            ys = exps.get(m[1])
            if ys is None:
                ys = exps[m[1]] = unpack(m[1], dim)
            rows.append((m, xs, ys))
        # keys are distinct, so reversing their order is stable
        rows.sort(key=lambda r: (sum(r[1]) + sum(r[2]), r[1], r[2],
                                 -r[0].g, -r[0].e), reverse=True)
        return rows

    def witness(self):
        """The leading monomial in canonical order, rendered; None if zero."""
        rows = self._sorted_words()
        return self._render(rows[:1]) if rows else None

    def __str__(self):
        return self._render(self._sorted_words())

    def _render(self, rows) -> str:
        """The terms of ``rows``, from ``_sorted_words``, as one sum.  A
        word is its x, y, group and Clifford parts joined by '*'; each
        distinct part and kappa monomial is rendered once per call."""
        if not rows:
            return "0"
        refl = self.ctx.group.reflection_number
        xp, yp, gp, ep, kp = {}, {}, {}, {}, {}
        out = []
        for m, xs, ys in rows:
            a, b, g, e = m
            x = xp.get(a)
            if x is None:
                x = xp[a] = render_powers("x", enumerate(xs))
            y = yp.get(b)
            if y is None:
                y = yp[b] = render_powers("y", enumerate(ys))
            h = gp.get(g)
            if h is None:
                h = gp[g] = ("" if not g else f"s{refl[g]}" if g in refl
                             else f"g{g}")
            c = ep.get(e)
            if c is None:
                c = ep[e] = "*".join(f"e{p + 1}" for p in range(e.bit_length())
                                     if e >> p & 1)
            word = "*".join(filter(None, (x, y, h, c)))
            coef = self.terms[m]
            if not word:
                part = str(coef)
            elif len(coef.terms) == 1:
                ((key, bn),) = coef.terms.items()
                k = kp.get(key)
                if k is None:
                    k = kp[key] = render_powers("k", key)
                part = render_coefficient(bn, f"{k}*{word}" if k else word)
            else:
                part = f"({coef})*{word}"
            out += ((part,) if not out else (" - ", part[1:])
                    if part[0] == "-" else (" + ", part))
        return "".join(out)

    def __repr__(self):
        return f"Element({self})"


# -- graded brackets -----------------------------------------------------------


def supercommutator(a: Element, b: Element) -> Element:
    """ab - (-1)^(|a||b|) ba, extended bilinearly over parity components."""
    return _graded_bracket(a, b, -1)


def anticommutator(a: Element, b: Element) -> Element:
    """ab + (-1)^(|a||b|) ba, extended bilinearly over parity components."""
    return _graded_bracket(a, b, 1)


def _graded_bracket(a: Element, b: Element, sign: int) -> Element:
    if b.ctx is not a.ctx:
        raise ValueError("elements from different contexts")
    return Element(a.ctx, a.ctx._mul_terms(a.terms, b.terms, sign),
                   normalized=True)


# -- antisymmetrisation ------------------------------------------------------------


def antisymmetrize(ctx: Context, covectors) -> Element:
    """A(u1..un), the quantisation of u1 ^ ... ^ un: the mean of the signed
    products of the gamma(u) over all orderings, by the wedge recursion of
    the module docstring, which holds for every symmetric form B.  From
    the right, A(un) = gamma(un) and A(u1..un) = {gamma(u1), A(u2..un)}/2:
    one bracket pass per covector before the last, the halvings taken once
    at the end.  Dependent covectors give 0."""
    covs = list(covectors)
    if not covs:
        return ctx.one()
    if len(covs) > ctx.dim:
        # an alternating multilinear map vanishes on dependent arguments
        return ctx.zero()
    acc = ctx.gamma(covs[-1])
    for u in reversed(covs[:-1]):
        acc = anticommutator(ctx.gamma(u), acc)
    return acc * Fraction(1, 1 << (len(covs) - 1))


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
        m = Monomial(pack(xs), pack(ys), g, e)
        terms[m] = terms.get(m, SC_ZERO) + coef
    return Element(ctx, terms)
