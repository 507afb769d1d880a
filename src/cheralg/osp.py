"""The rank-one orthosymplectic realization inside the engine's algebra.

The five generators arise from supersymmetrized pairings of a three-element
auxiliary superspace (two even directions, one odd) against the bilinear
form.  In the distinguished coordinates:

    X  = sum_p x_p e_p          (odd raising partner, sqrt2 * F+)
    D  = sum_p y_p e_p          (odd lowering partner, sqrt2 * F-)
    H  = sum_p x_p y_p + d/2 + Omega_kappa
    E+ = (1/2) sum x_p^2        E- = -(1/2) sum y_p^2

with the general-Gram forms used when the Gram matrix is not the identity.
All defining relations are checked exactly at build time.

The extremal projectors P+/P- and the series projector for the even
subalgebra act through the adjoint action.  Everything here is phrased in
the rationalized generators X and D, so symbolic computations stay inside
the Gaussian-rational subring; the normalized odd generators with their
sqrt2 scalars are exposed alongside.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Context, Element, supercommutator
from .geometry import Covector, beta
from .scalars import BN_HALF_SQRT2

XPLUS = "x+"
XMINUS = "x-"
GAMMA = "gamma"
_PARITY = {XPLUS: 0, XMINUS: 0, GAMMA: 1}


def b_form(w: str, z: str):
    """The invariant form on the auxiliary superspace."""
    if (w, z) == (XMINUS, XPLUS):
        return Fraction(1)
    if (w, z) == (XPLUS, XMINUS):
        return Fraction(-1)
    if (w, z) == (GAMMA, GAMMA):
        return Fraction(2)
    return Fraction(0)


def omega_form(w: str, z: str):
    """The even restriction of the form; zero against the odd direction."""
    if GAMMA in (w, z):
        return Fraction(0)
    return b_form(w, z)


def _slot_element(ctx: Context, p: int, sym: str) -> Element:
    if sym == XPLUS:
        return ctx.x(p)
    if sym == XMINUS:
        return ctx.from_vector(beta(ctx.space.basis_covector(p)))
    if sym == GAMMA:
        return ctx.e(p)
    raise ValueError(f"unknown auxiliary basis symbol {sym!r}")


def pair_element(ctx: Context, w: str, z: str) -> Element:
    """The supersymmetrized pairing of two auxiliary basis directions
    ("x+", "x-", "gamma") with B; build_osp keeps the five it takes."""
    d = ctx.dim
    acc = ctx.zero()
    for p, row in enumerate(ctx.space.inv_gram):
        wp = _slot_element(ctx, p, w)
        for q, b in row:
            acc = acc + wp * _slot_element(ctx, q, z) * b
    bwz = b_form(w, z)
    if bwz:
        acc = acc - ctx.scalar_elem(Fraction(bwz * d, 2))
    owz = omega_form(w, z)
    if owz:
        acc = acc - ctx.omega_kappa() * owz
    return acc


def _generator(name: str) -> property:
    def get(self) -> Element:
        return Element(self.ctx, self.terms[name], True)
    return property(get, doc=f"The generator {name}, wrapped on each read.")


class OspGenerators:
    """The generators of the realization on one context.  ``terms`` maps
    each generator's name to its term dict, and a generator is wrapped as
    an Element only when it is read, so `Context.cached` keeps the terms
    without an Element that points back at the context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = terms

    X = _generator("X")
    D = _generator("D")
    H = _generator("H")
    Ep = _generator("Ep")
    Em = _generator("Em")
    Fp = _generator("Fp")
    Fm = _generator("Fm")
    OmegaKappa = _generator("OmegaKappa")


class RelationError(ArithmeticError):
    """A defining relation failed to reduce to zero: an engine bug."""


def build_osp(ctx: Context) -> OspGenerators:
    """The generators, built and checked against the defining relations
    once per context."""
    return ctx.cached("osp", lambda: _checked_osp(ctx))


def _checked_osp(ctx: Context) -> OspGenerators:
    X = pair_element(ctx, XPLUS, GAMMA)
    D = pair_element(ctx, XMINUS, GAMMA)
    elems = {
        "X": X, "D": D, "H": pair_element(ctx, XPLUS, XMINUS),
        "Ep": pair_element(ctx, XPLUS, XPLUS) * Fraction(1, 2),
        "Em": -(pair_element(ctx, XMINUS, XMINUS) * Fraction(1, 2)),
        "Fp": X * BN_HALF_SQRT2, "Fm": D * BN_HALF_SQRT2,
        "OmegaKappa": ctx.omega_kappa()}
    gens = OspGenerators(ctx, {name: e.terms for name, e in elems.items()})
    for name, resid in osp_relation_residuals(gens).items():
        if not resid.is_zero():
            raise RelationError(f"defining relation {name} failed: {resid}")
    return gens


def osp_relation_residuals(gens: OspGenerators) -> dict:
    """Residuals of the defining relations with nonzero right-hand side,
    rationalized by clearing the sqrt2 normalization."""
    X, D, H, Ep, Em = gens.X, gens.D, gens.H, gens.Ep, gens.Em
    sc = supercommutator
    return {
        "FpFm": sc(X, D) - H * 2,
        "HFpm": (sc(H, X) - X) + (sc(H, D) + D),
        "FpmFpm": (sc(X, X) - Ep * 4) + (sc(D, D) + Em * 4),
        "EpEm": sc(Ep, Em) - H,
        "HEpm": (sc(H, Ep) - Ep * 2) + (sc(H, Em) + Em * 2),
        "FpmEmp": (sc(X, Em) - D) + (sc(D, Ep) - X),
    }


# -- extremal projectors --------------------------------------------------------


def p_plus(ctx: Context, a: Element) -> Element:
    gens = build_osp(ctx)
    return a - supercommutator(gens.D, supercommutator(gens.X, a)) * Fraction(1, 2)


def p_minus(ctx: Context, a: Element) -> Element:
    gens = build_osp(ctx)
    return a + supercommutator(gens.X, supercommutator(gens.D, a)) * Fraction(1, 2)


class NotWeightZero(ValueError):
    """The series projector only applies to elements commuting with H."""


class NilpotenceBoundExceeded(ArithmeticError):
    pass


def p_alpha(ctx: Context, a: Element, bound: int | None = None) -> Element:
    """Series projector for the even subalgebra, applied through the adjoint
    action; terminates when the raising operator annihilates, errors past
    the weight-theoretic bound."""
    gens = build_osp(ctx)
    if not supercommutator(gens.H, a).is_zero():
        raise NotWeightZero("argument does not commute with H")
    if bound is None:
        bound = 2 * a.degree() + 4
    acc = a
    up = a
    k = 0
    fact = 1          # k! * (k+1)!
    while True:
        up = supercommutator(gens.Ep, up)
        if up.is_zero():
            break
        k += 1
        if k > bound:
            raise NilpotenceBoundExceeded(
                f"raising operator not nilpotent within {bound} steps")
        fact = fact * k * (k + 1)
        term = up
        for _ in range(k):
            term = supercommutator(gens.Em, term)
        coef = Fraction((-1) ** k, fact)
        acc = acc + term * coef
    return acc


# -- generalized symmetries -----------------------------------------------------


def q_plus(ctx: Context, a: Element) -> Element:
    """(H+1)a - F-[F+, a]; for a annihilated by ad E+ this produces a
    generalized symmetry of the raising partner: X Q+(a) = -(Q+(a) - a) X."""
    gens = build_osp(ctx)
    return ((gens.H + 1) * a
            - gens.D * supercommutator(gens.X, a) * Fraction(1, 2))


def q_minus(ctx: Context, a: Element) -> Element:
    """(H-1)a - F+[F-, a]; for a annihilated by ad E- this produces a
    generalized symmetry of the lowering partner: D Q-(a) = -(Q-(a) + a) D."""
    gens = build_osp(ctx)
    return ((gens.H - 1) * a
            - gens.X * supercommutator(gens.D, a) * Fraction(1, 2))


def gen_symmetry(ctx: Context, u: Covector) -> Element:
    """(H - 1) gamma_u - X beta(u), the lowering-side generalized symmetry
    attached to a covector.  Equals q_minus of the Clifford image of u."""
    gens = build_osp(ctx)
    return (gens.H - 1) * ctx.gamma(u) - gens.X * ctx.from_vector(beta(u))


# -- Casimir elements -----------------------------------------------------------


def scasimir(ctx: Context) -> Element:
    """The odd-commuting central element: (XD - DX)/2 + 1/2."""
    def build():
        gens = build_osp(ctx)
        X, D = gens.X, gens.D
        return ((X * D - D * X) * Fraction(1, 2)
                + ctx.scalar_elem(Fraction(1, 2)))
    return ctx.cached("scasimir", build)


def casimir(ctx: Context) -> Element:
    """The quadratic Casimir element of the realization."""
    def build():
        gens = build_osp(ctx)
        X, D, H, Ep, Em = gens.X, gens.D, gens.H, gens.Ep, gens.Em
        ff = (X * D - D * X) * Fraction(1, 2)
        return H * H + (Ep * Em + Em * Ep) * 2 - ff
    return ctx.cached("casimir", build)
