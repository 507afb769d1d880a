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
module keeps the route of O, `o_proj`.  Single-index elements coincide
with the context's reflection-sum elements.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Context, Element, antisymmetrize
from .osp import p_plus


def o_proj(ctx: Context, covectors) -> Element:
    """The defining route: -P(antisymmetrized Clifford word)/2."""
    covs = tuple(covectors)
    n = len(covs)
    if not 1 <= n <= ctx.dim:
        raise ValueError(f"index count must be between 1 and {ctx.dim}")
    return ctx.cached(
        ("O", covs),
        lambda: -(p_plus(ctx, antisymmetrize(ctx, covs)) * Fraction(1, 2)))
