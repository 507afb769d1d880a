"""Supercentralizer generators.

Three layers of elements supercommute with the realized superalgebra:

  * angular momenta M(u, v) (deformed rotation generators) span, with the
    group, the centralizer of the even subalgebra;
  * projected antisymmetrized Clifford words O(u_1..u_n), skew-symmetric
    multilinear in their indices, built by applying the extremal projector
    to the quantized wedge; the closed formulas of the paper are catalog
    rows (routes.*, recursion.*) that check them against this route, the
    strongest single test of the whole stack;
  * the even quadratic form Omega in the one- and two-index elements,
    weighted by the inverse form B^pq, which is central in the whole
    supercentralizer.

M, Omega and the top element Otop are text in `parser.DEFINITIONS`; this
module keeps the route of O, `o_proj`, and the form psi.  Single-index
elements coincide with the context's reflection-sum elements.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Context, Element, antisymmetrize
from .geometry import Covector, bilinear_B
from .osp import p_plus
from .scalars import SC_ZERO


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
