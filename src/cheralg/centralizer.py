"""Supercentralizer generators.

Three layers of elements supercommute with the realized superalgebra:

  * angular momenta M(u, v) (deformed rotation generators) span, with the
    group, the centralizer of the even subalgebra;
  * projected antisymmetrized Clifford words O(u_1..u_n), skew-symmetric
    multilinear in their indices, built by applying the extremal projector
    to the quantized wedge; the closed formulas of the paper are catalog
    rows (routes.*, recursion.*) that check them against this route, the
    strongest single test of the whole stack;
  * the even combination Omega of squares of one- and two-index elements,
    which is central in the whole supercentralizer.

Single-index elements coincide with the context's reflection-sum elements.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Context, Element, antisymmetrize
from .geometry import Covector, beta, bilinear_B
from .osp import p_plus
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


def o_proj(ctx: Context, covectors) -> Element:
    """The defining route: -P(antisymmetrized Clifford word)/2."""
    covs = tuple(covectors)
    n = len(covs)
    if not 1 <= n <= ctx.dim:
        raise ValueError(f"index count must be between 1 and {ctx.dim}")
    return ctx.cached(
        ("O", covs),
        lambda: -(p_plus(ctx, antisymmetrize(ctx, covs)) * Fraction(1, 2)))


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
    def build():
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
        return acc
    return ctx.cached("central_omega", build)
