"""Supercentralizer generators.

Three layers of elements supercommute with the realized superalgebra:

  * angular momenta M(u, v) (deformed rotation generators) span, with the
    group, the centralizer of the even subalgebra;
  * projected antisymmetrized Clifford words O(u_1..u_n), skew-symmetric
    multilinear in their indices, built either by applying the extremal
    projector to the quantized wedge (the definition) or by closed formulas
    (the computational route) -- agreement of the two routes is the
    strongest single test of the whole stack;
  * the even combination Omega of squares of one- and two-index elements,
    which is central in the whole supercentralizer.

Single-index elements coincide with the context's reflection-sum elements.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .core import Context, Element, _perm_sign, antisymmetrize
from .geometry import Covector, beta, bilinear_B
from .osp import p_pm
from .scalars import SC_ZERO


def M(ctx: Context, u: Covector, v: Covector) -> Element:
    """Angular momentum u beta(v) - v beta(u); commutes with the even
    subalgebra, and the deformation terms cancel in its normal form."""
    return (ctx.from_covector(u) * ctx.from_vector(beta(v))
            - ctx.from_covector(v) * ctx.from_vector(beta(u)))


def psi_kappa(ctx: Context, u: Covector, v: Covector) -> Element:
    """The group-algebra-valued symmetric form: twice the sum over
    reflections of B(root,u) B(v,root)/B(root,root) kappa s."""
    terms: dict = {}
    for r in ctx.group.reflections:
        alpha = ctx.root_covector(r)
        w = bilinear_B(alpha, u) * bilinear_B(v, alpha)
        if w.is_zero():
            continue
        coef = ctx.kappas[r.class_id] * w * Fraction(2, 1) / r.root_norm
        m = ctx.ident_mono._replace(g=r.elem)
        terms[m] = terms.get(m, SC_ZERO) + coef
    return ctx.element(terms)


def b_kappa(ctx: Context, u: Covector, v: Covector) -> Element:
    """B + psi_kappa, the deformed form appearing in the M-bracket."""
    return ctx.scalar_elem(bilinear_B(u, v)) + psi_kappa(ctx, u, v)


def o_proj(ctx: Context, covectors, sign: int = 1) -> Element:
    """The defining route: -P(antisymmetrized Clifford word)/2."""
    covs = tuple(covectors)
    n = len(covs)
    if not 1 <= n <= ctx.dim:
        raise ValueError(f"index count must be between 1 and {ctx.dim}")
    key = ("O", sign, tuple(c.coords for c in covs))
    hit = ctx._misc_cache.get(key)
    if hit is None:
        hit = -(p_pm(ctx, antisymmetrize(ctx, covs), sign) * Fraction(1, 2))
        ctx._misc_cache[key] = hit
    return hit


def o_two_explicit(ctx: Context, u: Covector, v: Covector) -> Element:
    """Two-index closed form: u beta(v) - v beta(u)
    + (gamma_u gamma_v - B(u,v))/2 + O_u gamma_v - O_v gamma_u."""
    gu, gv = ctx.gamma(u), ctx.gamma(v)
    return (M(ctx, u, v)
            + (gu * gv - bilinear_B(u, v)) * Fraction(1, 2)
            + ctx.o_frak(u) * gv - ctx.o_frak(v) * gu)


def o_three_explicit(ctx: Context, u: Covector, v: Covector,
                     w: Covector) -> Element:
    """Three-index closed form built from angular momenta and one-index
    elements against antisymmetrized Clifford words."""
    return (antisymmetrize(ctx, [u, v, w])
            + M(ctx, v, w) * ctx.gamma(u)
            - M(ctx, u, w) * ctx.gamma(v)
            + M(ctx, u, v) * ctx.gamma(w)
            + ctx.o_frak(u) * antisymmetrize(ctx, [v, w])
            - ctx.o_frak(v) * antisymmetrize(ctx, [u, w])
            + ctx.o_frak(w) * antisymmetrize(ctx, [u, v]))


def antisymmetrize_shaped(ctx: Context, covs, shape) -> Element:
    """(1/n!) signed sum over all assignments of the index list to the
    slots of a product shape.

    ``shape`` is a sequence of (builder, arity) pairs whose arities sum to
    len(covs); each builder takes that many covectors and returns an
    Element.
    """
    covs = list(covs)
    n = len(covs)
    if sum(a for _, a in shape) != n:
        raise ValueError("shape arities must consume all indices")
    acc = ctx.zero()
    for perm in itertools.permutations(range(n)):
        pos = 0
        prod = None
        for builder, arity in shape:
            f = builder(*(covs[perm[pos + i]] for i in range(arity)))
            prod = f if prod is None else prod * f
            pos += arity
        sign = _perm_sign(perm)
        acc = acc + prod if sign > 0 else acc - prod
    return acc * Fraction(1, math.factorial(n))


def _gamma_run(ctx: Context):
    """The plain Clifford product of its covector arguments, as a builder
    for ``antisymmetrize_shaped``."""
    def run(*us):
        prod = ctx.one()
        for u in us:
            prod = prod * ctx.gamma(u)
        return prod
    return run


def o_explicit(ctx: Context, covectors, form: str = "first") -> Element:
    """Closed formulas for the projected elements.

    ``first`` expands over the plain word, one-index elements and angular
    momenta; ``second`` trades the momenta for two-index elements.  Both
    agree with the projector route exactly.
    """
    covs = tuple(covectors)
    n = len(covs)
    if not 1 <= n <= ctx.dim:
        raise ValueError(f"index count must be between 1 and {ctx.dim}")
    if n == 1:
        return ctx.o_frak(covs[0])
    grun = _gamma_run(ctx)
    ofrak = ctx.o_frak
    if form == "first":
        acc = antisymmetrize(ctx, covs) * Fraction(n - 1, 2)
        acc = acc + antisymmetrize_shaped(
            ctx, covs, [(ofrak, 1), (grun, n - 1)]) * n
        if n >= 2:
            acc = acc + antisymmetrize_shaped(
                ctx, covs,
                [(lambda a, b: M(ctx, a, b), 2), (grun, n - 2)]) \
                * Fraction(n * (n - 1), 2)
        return acc
    if form == "second":
        acc = antisymmetrize(ctx, covs) * Fraction(-(n - 1) * (n - 2), 4)
        acc = acc - antisymmetrize_shaped(
            ctx, covs, [(ofrak, 1), (grun, n - 1)]) * (n * (n - 2))
        acc = acc + antisymmetrize_shaped(
            ctx, covs,
            [(lambda a, b: o_two_explicit(ctx, a, b), 2), (grun, n - 2)]) \
            * Fraction(n * (n - 1), 2)
        return acc
    raise ValueError(f"unknown form {form!r}; use 'first' or 'second'")


def o_subset(ctx: Context, indices) -> Element:
    """O of the listed orthonormal-basis covectors in ascending order."""
    idx = sorted(indices)
    if not idx:
        raise ValueError("index subset must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError("index subset must not repeat")
    return o_proj(ctx, [ctx.space.basis_covector(p) for p in idx])


def o_top(ctx: Context) -> Element:
    return o_subset(ctx, range(ctx.dim))


def central_omega(ctx: Context) -> Element:
    """(d-2) sum of squares of one-index elements plus the sum of squares
    of two-index elements; central in the supercentralizer."""
    hit = ctx._misc_cache.get("central_omega")
    if hit is not None:
        return hit
    d = ctx.dim
    acc = ctx.zero()
    if d != 2:
        for j in range(d):
            oj = o_subset(ctx, [j])
            acc = acc + oj * oj * (d - 2)
    for j in range(d):
        for k in range(j + 1, d):
            ojk = o_subset(ctx, [j, k])
            acc = acc + ojk * ojk
    ctx._misc_cache["central_omega"] = acc
    return acc
