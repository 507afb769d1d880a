"""The concrete module: polynomials tensor the exterior algebra Lambda(V).

Covector generators act by coordinate multiplication, vector generators by
Dunkl operators, group elements by variable substitution (trivially on the
exterior factor), and the Clifford generator e_p by eps_p + iota_p
(Chevalley): eps_p wedges x_p on the left and iota_p contracts with
B(x_p, .), read from the sparse Gram rows.  Then {e_p, e_q} = 2 B(x_p, x_q),
the engine's convention, with no square root and no isotropic basis, so one
module serves every Gram matrix the API accepts.

The sampled vectors lie in P (x) 1, and that is as strict as sampling every
mask.  Clifford generators commute with x, y and g, so a word x^a y^b g e_A
sends p (x) 1 to (x^a y^b g . p) (x) (e_A . 1); and e_A . 1 is the wedge
x_A plus terms of lower degree, so the e_A . 1 form a basis of Lambda(V).
An element X = sum_A X_A e_A therefore kills every p (x) 1 exactly when
every X_A kills P, which is when X kills the whole module.  Intermediate
vectors still range over every mask.

The whole point of this module is independence from the normal-form engine:
it never rewrites words, it just composes operators on concrete vectors, so
exact agreement between the two is a meaningful cross-check.  What it shares
with the engine is the coefficient ring (``Scalar``) and the sparse sum
(``scalars.merged``, through the ``Combination`` base of PolySpinor and
Element), never a rewrite memo or the product; the sum has tests of its own
that read neither side.  Faithfulness holds in principle; sampling vectors
of bounded degree is the practical contract, and exact zero on every sample
is required.

`ModuleEvaluator` reads the parser's expression language in the module:
the engine builds only the leaves (names, those of `parser.DEFINITIONS`
too, scalars, and the O, M, A, R, gamma, Of, x, beta, psi, rho and B
calls), and every product, power, sum and bracket of them becomes
composition of operators, so one written identity is checked by both the
engine and the module.  A defined leaf is not composed from its text in
the module: that cost more cold time and memory than it spared.

Polynomials are sparse dictionaries mapping exponent tuples to Scalars,
added through ``merged``; a PolySpinor maps (exponent tuple, mask) pairs to
Scalars, where the mask of S stands for the ascending wedge x_S.

Every operator here is linear in the vector, so it is known from its images
of basis vectors, and `apply_linear` sums those images scaled by the
vector's coefficients.  Four memos hold such images:

- `SpinorModule` keeps g . x^e per (g, e), as rational pairs, from the
  substitution x_p -> sum_q g_pq x_q read from the group's rows;
- `SpinorModule` keeps D_p(x^e) per (p, e): the partial derivative plus, per
  reflection s with root alpha, k_c alpha_p (x^e - s.x^e) / alpha;
- `SpinorModule` keeps D^b(g . x^e) per (g, packed y exponents b, e),
  filled from the two memos above through `_act_group_poly` and `dunkl`.
  A word x^a y^b g e_A acts on a vector by its Clifford factor on the
  masks, then by this image of each term's monomial, then by the
  shift by x^a, so a vector costs one memo read per term;
- `ModuleEvaluator` keeps, per node of an expression and per basis key
  (e, mask), the node's action on that basis vector.  A leaf's
  image is `SpinorModule.act` of the engine's element; a compound node's
  image is its composition (negation, bracket, sum, difference, product,
  quotient by a scalar, power) applied once to the basis vector, with the
  children read through their own images.  So a vector whose keys were
  seen before costs one `apply_linear` at the root.  The oracle builds one
  evaluator per module run, so its rows share the leaf values and the
  images of every node they have in common (X, D, H, ...); two modules
  share nothing.

A memo lives as long as its module or evaluator; in the oracle that is one
run, so every image is computed once per run and held until its end.  The
images repeat a few keys, coefficients and whole images many times, so
`SpinorModule.kept` stores each of them once.

The memos are keyed by module data alone (p, exponents, masks, group
element indices, expression nodes) and filled by the module's own
arithmetic.  The module reads the group's rows, reflections and roots
and the kappa of each class from the context, and asks the engine only to
build the leaves; it never calls the engine's exponent action or its
product, so a fault in either cannot show on both sides of the cross-check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add

from .core import Context, Element, Monomial, unpack
from .parser import (_COV_CALLS, Bin, Bracket, Call, EvalError, Evaluator, Name,
                     Neg, Num, reciprocal)
from .scalars import (BaseNumber, Combination, SC_ONE, SC_ZERO, Scalar,
                      as_scalar, merged)


class PolySpinor(Combination):
    """A vector of the polynomial-tensor-exterior module, in canonical
    sparse form (no zero coefficients)."""

    __slots__ = ("terms",)

    def __init__(self, terms, normalized=False):
        self.terms = terms if normalized else {
            k: v for k, v in terms.items() if not v.is_zero()}

    def _operand(self, other):
        return other if isinstance(other, PolySpinor) else None

    def _wrap(self, terms):
        return PolySpinor(terms, normalized=True)

    def scale(self, s) -> "PolySpinor":
        """self * s for a number or a Scalar s."""
        return self._scaled(s)

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
            spin = "".join(f"e{j + 1}" for j in range(sm.bit_length())
                           if sm >> j & 1)
            bits.append(f"({c})*{mono or '1'}|{spin or '1'}>")
        return "PolySpinor(" + " + ".join(bits) + ")"


PS_ZERO = PolySpinor({})


# -- sparse polynomial helpers (exponent tuple -> Scalar) -------------------------


def apply_linear(vec, image):
    """The image of ``vec`` (basis key -> Scalar) under the linear map that
    sends the basis vector ``key`` to the pairs ``image(key)``."""
    out: dict = {}
    for key, c in vec.items():
        for k2, t in image(key):
            v = c * t
            prev = out.get(k2)
            out[k2] = v if prev is None else prev + v
    return {k: v for k, v in out.items() if not v.is_zero()}


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
    """The polynomial-tensor-exterior module attached to a context."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.dim = ctx.dim
        self._zero_exp = (0,) * ctx.dim
        self._act_memo: dict = {}       # (g, exp) -> g . x^exp
        self._dunkl_memo: dict = {}     # (p, exp) -> D_p(x^exp)
        self._image_memo: dict = {}     # (g, ys, exp) -> D^ys(g . x^exp)
        self._kept = ({}, {})           # keys and Scalars, images: each once

    # -- building vectors ---------------------------------------------------

    def vacuum(self) -> PolySpinor:
        return PolySpinor({(self._zero_exp, 0): SC_ONE})

    def vector(self, terms) -> PolySpinor:
        return PolySpinor({k: as_scalar(v) for k, v in terms.items()})

    def random_vector(self, seed: int, max_degree: int = 3,
                      n_terms: int = 4) -> PolySpinor:
        """A seeded vector of P (x) 1: ``n_terms`` monomials of degree at
        most ``max_degree``, all on the mask 0 (see the module docstring).
        A draw whose terms cancel gives the vacuum, never zero."""
        rng = random.Random(seed)
        terms = {}
        for _ in range(n_terms):
            exp = [0] * self.dim
            for _ in range(rng.randint(0, max_degree)):
                exp[rng.randrange(self.dim)] += 1
            c = BaseNumber(rng.randint(-3, 3), rng.randint(-1, 1))
            if c.is_zero():
                c = BaseNumber(1)
            key = (tuple(exp), 0)
            terms[key] = terms.get(key, SC_ZERO) + Scalar.of(c)
        v = PolySpinor(terms)
        return v if v.terms else self.vacuum()

    # -- the exterior side -------------------------------------------------

    def apply_e(self, p: int, v: PolySpinor) -> PolySpinor:
        """e_p = eps_p + iota_p on the masks S of ``v``: eps_p(x_S) is
        (-1)^#(S below p) x_(S+p) for p not in S, and iota_p(x_S) sums
        (-1)^#(S below q) B(x_p, x_q) x_(S-q) over q in S, with B read from
        the sparse Gram row p."""
        bit = 1 << p
        row = self.ctx.space.gram[p]
        out: dict = {}
        for (exp, sm), c in v.terms.items():
            # (new mask, the bit that moves, coefficient before the sign)
            moves = [(sm ^ (1 << q), 1 << q, c * b)
                     for q, b in row if sm >> q & 1]
            if not sm & bit:
                moves.append((sm | bit, bit, c))
            for sm2, moved, w in moves:
                if (sm & (moved - 1)).bit_count() & 1:
                    w = -w
                key = (exp, sm2)
                prev = out.get(key)
                out[key] = w if prev is None else prev + w
        return PolySpinor({k: w for k, w in out.items() if not w.is_zero()},
                          normalized=True)

    # -- polynomial-side operators -----------------------------------------------

    def _act_exp(self, g: int, exp: tuple) -> tuple:
        """g . x^exp as (exponent, Fraction) pairs, by the substitution
        x_p -> sum_q r x_q over the pairs (q, r) of row p of the group's
        rows for g."""
        key = (g, exp)
        hit = self._act_memo.get(key)
        if hit is None:
            rows = self.ctx.group.x_rows(g)
            poly = {self._zero_exp: Fraction(1)}
            for lin, k in zip(rows, exp):
                for _ in range(k):
                    nxt: dict = {}
                    for e, c in poly.items():
                        for q, r in lin:
                            e2 = e[:q] + (e[q] + 1,) + e[q + 1:]
                            nxt[e2] = nxt.get(e2, 0) + c * r
                    poly = {e: c for e, c in nxt.items() if c}
            hit = self._act_memo[key] = tuple(poly.items())
        return hit

    def _act_group_poly(self, g: int, poly: dict) -> dict:
        if g == 0:
            return poly
        return apply_linear(poly, lambda exp: self._act_exp(g, exp))

    def _dunkl_image(self, p: int, exp: tuple) -> tuple:
        """D_p(x^exp) as (exponent, Scalar) pairs: the partial derivative
        plus sum over reflections of k_c alpha_p (x^e - s.x^e) / alpha."""
        key = (p, exp)
        hit = self._dunkl_memo.get(key)
        if hit is None:
            mono = {exp: SC_ONE}
            out = poly_partial(mono, p)
            for refl in self.ctx.group.reflections:
                ap = refl.root[p]
                if ap == 0:
                    continue
                diff = merged(mono, self._act_group_poly(refl.elem, mono),
                              True)
                quot = poly_div_linear(diff, refl.root)
                w = self.ctx.kappas[refl.class_id] * ap
                out = merged(out, {k: v * w for k, v in quot.items()})
            hit = self._dunkl_memo[key] = tuple(out.items())
        return hit

    def dunkl(self, p: int, poly: dict) -> dict:
        """The deformed directional derivative along the p-th dual basis
        vector, summed from the memoized images of the monomials."""
        return apply_linear(poly, lambda exp: self._dunkl_image(p, exp))

    # -- the module action ----------------------------------------------------------

    def _poly_image(self, g: int, ys: int, exp: tuple) -> tuple:
        """D^ys(g . x^exp) as (exponent, Scalar) pairs, for packed y
        exponents ys: the group element first, then one Dunkl operator per
        unit of y-degree."""
        key = (g, ys, exp)
        hit = self._image_memo.get(key)
        if hit is None:
            poly = self._act_group_poly(g, {exp: SC_ONE})
            for p, k in enumerate(unpack(ys, self.dim)):
                for _ in range(k):
                    poly = self.dunkl(p, poly)
            hit = self._image_memo[key] = self.kept(poly.items())
        return hit

    def kept(self, pairs) -> tuple:
        """``pairs`` as an image for a memo, each key, coefficient and
        whole image replaced by an equal one the module already keeps.  The
        images of a run repeat a few values many times (on A1@2, 89
        distinct Scalars among 2,784 coefficients and 908 distinct images
        among 1,722), and each is held once.  Keys and Scalars share one
        table, since a tuple never equals a Scalar; images, whose pairs
        could equal a key when a Scalar equals an int, have their own."""
        values, images = self._kept
        image = tuple((values.setdefault(k, k), values.setdefault(c, c))
                      for k, c in pairs)
        return images.setdefault(image, image)

    def _clifford(self, e: int, by_mask: dict) -> PolySpinor:
        """e_A applied to ``by_mask[0]``, for the bitmask e of A, rightmost
        generator first.  ``by_mask`` holds the vectors already computed
        per mask; e_A is its lowest generator applied after the rest, so a
        mask shared by several words costs one pass in all and a new mask
        one pass on top of a held one."""
        hit = by_mask.get(e)
        if hit is None:
            low = e & -e
            hit = by_mask[e] = self.apply_e(low.bit_length() - 1,
                                            self._clifford(e ^ low, by_mask))
        return hit

    def _act_word(self, mono: Monomial, v: PolySpinor) -> dict:
        """The word x^a y^b g e_A applied to ``v``, for ``v`` carrying
        e_A already: each term's polynomial image D^b(g . x^exp) read from
        its memo, then the shift by x^a."""
        xs, ys, g, _ = mono
        terms = v.terms
        if g or ys:
            out: dict = {}
            for (exp, sm), c in terms.items():
                for e2, t in self._poly_image(g, ys, exp):
                    key = (e2, sm)
                    w = c * t
                    prev = out.get(key)
                    out[key] = w if prev is None else prev + w
            terms = {k: w for k, w in out.items() if not w.is_zero()}
        if xs:
            shift = unpack(xs, self.dim)
            terms = {(tuple(map(add, exp, shift)), sm): c
                     for (exp, sm), c in terms.items()}
        return terms

    def act_monomial(self, mono: Monomial, v: PolySpinor) -> PolySpinor:
        """The word x^a y^b g e_A applied to ``v``."""
        return PolySpinor(self._act_word(mono, self._clifford(mono.e, {0: v})),
                          normalized=True)

    def act(self, element: Element, v: PolySpinor) -> PolySpinor:
        """``element`` applied to ``v``, word by word; the words that share
        a Clifford mask share its action on ``v``."""
        if element.ctx is not self.ctx:
            raise ValueError("element from a different context")
        by_mask = {0: v}
        return PolySpinor(apply_linear(
            element.terms,
            lambda mono: self._act_word(
                mono, self._clifford(mono.e, by_mask)).items()),
            normalized=True)


# Calls whose value the engine builds as one leaf operator.
_LEAF_CALLS = (*_COV_CALLS, "rho", "B")


class ModuleEvaluator:
    """Act with an expression of the parser's language on module vectors.

    Every node, leaf or compound, acts through its memoized images of
    basis vectors: ``act(node, v)`` sums, over the keys of ``v``, the
    node's image of each basis vector, and an image is computed once per
    node and key.  The leaves are built once each by the engine's Evaluator
    and their images come from `SpinorModule.act`; a compound node's image
    composes its children's: products become composition, powers repeated
    composition, and the graded brackets ab -+ ba with the sign read from
    the parities of the operands.  This is sound because every operator
    here is linear in the vector.  Nothing else is composed: the
    projector-style maps (Pp, Pm, Palpha, Qp, Qm) raise EvalError.  An
    evaluator serves any number of expressions on its one module, and
    expressions that share a node share its images.
    """

    def __init__(self, module: SpinorModule):
        self.module = module
        self.engine = Evaluator(module.ctx)
        self._leaves: dict = {}
        self._images: dict = {}     # node -> {(exp, sm): node . basis vector}

    def leaf(self, node) -> Element:
        hit = self._leaves.get(node)
        if hit is None:
            hit = self._leaves[node] = self.engine.eval_element(node)
        return hit

    def act(self, node, v: PolySpinor) -> PolySpinor:
        """The value of ``node`` applied to ``v``."""
        images = self._images.get(node)
        if images is None:
            images = self._images[node] = {}

        def image(key):
            hit = images.get(key)
            if hit is None:
                basis = PolySpinor({key: SC_ONE})
                hit = images[key] = self.module.kept(
                    self._compose(node, basis).terms.items())
            return hit
        return PolySpinor(apply_linear(v.terms, image), normalized=True)

    def _compose(self, node, v: PolySpinor) -> PolySpinor:
        """``node`` applied to ``v`` by its own operation, the children
        read through `act`."""
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
