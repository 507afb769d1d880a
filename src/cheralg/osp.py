"""The rank-one orthosymplectic realization inside the engine's algebra.

The five generators arise from supersymmetrized pairings of a three-element
auxiliary superspace (two even directions, one odd) against the bilinear
form; their text, sums over the inverse form, is in `parser.DEFINITIONS`.
In coordinates, with B_pq = B(x_p, x_q), B^pq its inverse and e_q the
Clifford image of x_q (the bwz.generator_forms rows):

    X  = sum_pq B^pq x_p e_q              (odd raising partner, sqrt2 * F+)
    D  = sum_p y_p e_p                    (odd lowering partner, sqrt2 * F-)
    H  = sum_p x_p y_p + d/2 + Omega_kappa
    E+ = (1/2) sum_pq B^pq x_p x_q        E- = -(1/2) sum_pq B_pq y_p y_q

`build_osp` evaluates them, with Fp and Fm, once per context and checks
every relation of RELATIONS (the text the osp12re.* rows and the oracle
read) exactly before any is used.  P+ and the series projector act here
through the adjoint action; P- and the generalized symmetries Q+ and Q-
are text too.  Everything is phrased in the rationalized generators X and
D, so symbolic computations stay inside the Gaussian-rational subring.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Context, Element, supercommutator

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


# The generators in the order they are built: each definition may name
# the ones before it.
GENERATORS = ("X", "D", "H", "Ep", "Em", "Fp", "Fm")

# The defining relations of the realization, in the rationalized
# generators: the case name, its anchor, and its halves as (label,
# template) pairs.
RELATIONS = (
    ("FpFm", "odd raising against odd lowering closes on H",
     (("FpFm", "[X, D] - 2*H"),)),
    ("HFpm", "H grades the odd generators by +-1",
     (("HFp", "[H, X] - X"), ("HFm", "[H, D] + D"))),
    ("FpmFpm", "squares of the odd generators give the even ladder",
     (("FpFp", "X^2 - 2*Ep"), ("FmFm", "D^2 + 2*Em"))),
    ("EpEm", "the even ladder closes on H", (("EpEm", "[Ep, Em] - H"),)),
    ("HEpm", "H grades the even ladder by +-2",
     (("HEp", "[H, Ep] - 2*Ep"), ("HEm", "[H, Em] + 2*Em"))),
    ("FpmEmp", "even ladder maps odd generators into each other",
     (("XEm", "[X, Em] - D"), ("DEp", "[D, Ep] - X"))),
)


class OspGenerators:
    """The generators of the realization on one context.  ``terms`` maps
    each generator's name to its term dict, and a generator is wrapped as
    an Element only when it is read (``gens.X``), so `Context.cached` keeps
    the terms without an Element that points back at the context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        self.terms = terms

    def __getattr__(self, name: str) -> Element:
        if name not in GENERATORS:
            raise AttributeError(name)
        return Element(self.ctx, self.terms[name], True)


class RelationError(ArithmeticError):
    """A defining relation failed to reduce to zero: an engine bug."""


def build_osp(ctx: Context) -> OspGenerators:
    """The generators, built and checked against the defining relations
    once per context."""
    return ctx.cached("osp", lambda: _checked_osp(ctx))


def _checked_osp(ctx: Context) -> OspGenerators:
    """Each generator's definition evaluated with the generators before it
    bound, then each half of RELATIONS with all of them bound."""
    from .parser import Evaluator, definition, parsed  # parser imports osp
    ev = Evaluator(ctx)
    gens: dict = {}
    for name in GENERATORS:
        gens[name] = ev.eval_bound(definition(name, ctx.group), gens)
    for _, _, halves in RELATIONS:
        for label, src in halves:
            resid = ev.eval_bound(parsed(src), gens)
            if not resid.is_zero():
                raise RelationError(
                    f"defining relation {label} failed: {resid}")
    return OspGenerators(ctx, {name: e.terms for name, e in gens.items()})


# -- projectors ----------------------------------------------------------------


def p_plus(ctx: Context, a: Element) -> Element:
    gens = build_osp(ctx)
    return a - supercommutator(gens.D, supercommutator(gens.X, a)) * Fraction(1, 2)


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
