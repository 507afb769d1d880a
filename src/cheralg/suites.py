"""Identity catalog, suite runner, and the oracle cross-check harness.

Every verified statement is an IdentityCase: a stable dotted id, a short
human anchor, a minimum ambient dimension, and a builder producing a list of
(label, residual) pairs.  A case passes exactly when every residual is the
empty combination; the runner never compares against a tolerance, only
against structural zero.

Identities that the expression language of parser.py can state are rows
of TEMPLATE_ROWS: the Scasimir identities, the pair- and triple-bracket
formulas, the orthonormal-basis corollary of the O_A brackets, and a few
projector and generalized-symmetry laws.  A row holds templates over
placeholders and the covector patterns bound to them.  The rest are Python
builders, since they need what the language lacks: the deformed form
psi_kappa, the beta-embedding of covectors, the auxiliary pairings, sums
over index subsets, shaped antisymmetrizations or seeds.

The oracle cross-check reads ORACLE_ROWS, 20 identities written in the
same language, twice: with the engine Evaluator, and with the module
evaluator of oracle.py, which composes them as operators on the
polynomial-tensor-spinor module.

The first dotted component of an id names its suite; `run_suite` selects by
that prefix (or "all").  Cases whose dimension prerequisite fails, and
cases stated for the orthonormal configuration when the Gram matrix is
not the identity, are reported as skipped with the reason.  Reports are
ordered by id regardless of execution order, and their content is
deterministic (the elapsed-time field aside) for fixed inputs including
the seed.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .centralizer import (M, _gamma_run, antisymmetrize_shaped, b_kappa,
                          central_omega, o_explicit, o_proj, o_subset,
                          o_three_explicit, o_top, o_two_explicit)
from .core import (ROOT_SCALE, Context, anticommutator, commutator,
                   random_element, supercommutator)
from .geometry import beta, bilinear_B
from .groups import ReflectionGroup, parse_group_spec
from .oracle import ModuleEvaluator, SpinorModule
from .osp import (build_osp, osp_relations, pair_element, p_alpha, p_plus,
                  b_form, XPLUS, XMINUS, GAMMA, _PARITY)
from .parser import Evaluator, parse_expression, substitute
from .scalars import BaseNumber, Scalar, as_base, as_scalar


@dataclass
class RunOptions:
    seed: int = 2024
    max_degree: int = 2
    assoc_trials: int = 40
    jacobi_trials: int = 20
    roundtrip_trials: int = 20
    oracle_samples: int = 20


NEEDS_ORTHONORMAL = "needs the orthonormal configuration"


@dataclass(frozen=True)
class IdentityCase:
    id: str
    anchor: str
    min_dim: int
    builder: Callable
    orthonormal: bool = False        # stated for the identity Gram only


@dataclass
class SuiteReport:
    id: str
    anchor: str
    group: str
    dim: int
    kappa: str
    status: str                      # pass | fail | skipped
    residual_terms: int = 0
    witness: Optional[str] = None
    ms: float = 0.0
    oracle: Optional[bool] = None
    reason: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps({
            "id": self.id, "anchor": self.anchor, "group": self.group,
            "dim": self.dim, "kappa": self.kappa, "status": self.status,
            "residual_terms": self.residual_terms, "witness": self.witness,
            "ms": self.ms, "oracle": self.oracle, "reason": self.reason,
        }, sort_keys=True)


class SuiteEnv:
    """A context plus the helpers the case builders lean on."""

    def __init__(self, group: ReflectionGroup, options: RunOptions = None):
        self.group = group
        self.ctx = Context(group)
        self.dim = group.dim
        self.options = options or RunOptions()

    # shorthands
    def x(self, p):
        return self.ctx.space.basis_covector(p)

    def O(self, *covs):
        return o_proj(self.ctx, covs)

    def Oi(self, *idx):
        return o_subset(self.ctx, idx)

    def gens(self):
        return build_osp(self.ctx)

    def scal(self, v):
        return self.ctx.scalar_elem(v)

    def tuples(self, n, cap=6):
        return list(itertools.combinations(range(self.dim), n))[:cap]


# ---- template cases ---------------------------------------------------------


@dataclass(frozen=True)
class TemplateRow:
    """Catalog cases written once in the expression language of parser.py.

    The placeholders are bound, in order, to the comma-separated covectors
    of each pattern; without patterns they are bound to x1, x2, ... as far
    as the dimension goes.  A pattern that names a coordinate beyond the
    dimension is left out.  Once a and b are bound, a placeholder with h
    appended (uh, vh, ...) stands for the hatted covector
    a*B(b, u) - b*B(a, u).  Residuals are labelled by pattern and sub-label.
    """
    id: str
    anchor: str
    min_dim: int
    templates: tuple                 # (sub-label, template) pairs
    placeholders: str = "a b c u v w"
    patterns: tuple = ()             # (label, covectors) pairs

    def residuals(self, env: SuiteEnv) -> list:
        ev = Evaluator(env.ctx)
        return [(".".join(filter(None, (plabel, slabel))),
                 ev.eval_element(substitute(_parsed(src), binding)))
                for plabel, binding in self._bindings(env.dim)
                for slabel, src in self.templates]

    def _bindings(self, dim: int):
        names = self.placeholders.split()
        patterns = self.patterns or [
            ("", ", ".join(f"x{p + 1}" for p in range(min(dim, len(names)))))]
        for label, covs in patterns:
            if max(map(int, re.findall(r"x(\d+)", covs)), default=0) > dim:
                continue
            binding = dict(zip(names, map(_parsed, covs.split(","))))
            if "a" in binding and "b" in binding:
                pair = {"a": binding["a"], "b": binding["b"]}
                binding.update({
                    n + "h": substitute(_parsed(_HAT), {**pair, "t": cov})
                    for n, cov in binding.items() if n not in pair})
            yield label, binding


_HAT = "a*B(b, t) - b*B(a, t)"


@functools.cache
def _parsed(src: str):
    """The AST of a template, parsed on first use rather than when the
    catalog is built."""
    return parse_expression(src)


def _ix(*groups):
    """An index pattern: labelled by its index groups, bound to the basis
    covectors x(i + 1)."""
    return ("".join(map(str, groups)),
            ", ".join(f"x{i + 1}" for g in groups for i in g))


SCASIMIR_SQUARE = "Scasimir^2 - Casimir - 1/4"

_CENTRAL_SAMPLES = (("one", "1"), ("O1", "O(x1)"), ("O12", "O(x1, x2)"),
                    ("invariant", "Omega"), ("rho", "rho(s1)"),
                    ("mixed", "O(x1, x2)*rho(s1)"))
_FACTOR = "(e1 + x1*y2)"

_GENSYM_PATTERNS = (("x1", "x1"), ("x2", "x2"), ("x1+x2", "x1 + x2"))

_PAIR_PATTERNS = (_ix((0, 1), (0, 1)), _ix((0, 1), (0, 2)),
                  _ix((0, 2), (1, 2)), _ix((0, 1), (2, 3)))

_COROLLARY = (
    ("OijOki", "pair bracket with one repeated index", 3,
     "[O(a, b), -O(a, c)] - (O(b, c) + {O(b), O(c)} + [O(a, b, c), O(a)])"),
    ("OijOkl_half", "disjoint pair bracket, halved four-term form", 4,
     "[O(a, b), O(c, u)] - ([O(a), O(b, c, u)] - [O(b), O(a, c, u)]"
     " - [O(a, b, u), O(c)] + [O(a, b, c), O(u)])/2"),
    ("OijOkl", "disjoint pair bracket, two-term form", 4,
     "[O(a, b), O(c, u)] - ([O(a), O(b, c, u)] - [O(b), O(a, c, u)])"),
    ("OjkOlmn", "pair against disjoint triple", 5,
     "[O(a, b), O(c, u, v)] - ([O(a), O(b, c, u, v)]"
     " - [O(b), O(a, c, u, v)])"),
    ("OjkOjlm", "pair against triple sharing one index", 4,
     "[O(a, b), O(a, c, u)] - (-O(b, c, u) - {O(b), O(c, u)}"
     " - [O(a), O(a, b, c, u)])"),
    ("OjkOjkl", "pair against triple sharing both indices", 3,
     "[O(a, b), O(a, b, c)] - (-{O(a), O(a, c)} - {O(b), O(b, c)})"),
    ("e24", "square of a triple element", 3,
     "[O(a, b, c), O(a, b, c)] - (2*(O(a)^2 + O(b)^2 + O(c)^2"
     " + O(a, b)^2 + O(a, c)^2 + O(b, c)^2) - 1/2)"),
    ("e25", "triples sharing two indices", 4,
     "[O(a, b, c), O(a, b, u)] - ([O(c), O(u)] + {O(a, c), O(a, u)}"
     " + {O(b, c), O(b, u)})"),
    ("e26", "triples sharing one index", 5,
     "[O(a, b, c), O(a, u, v)] - (O(b, c, u, v) + {O(b, c), O(u, v)}"
     " + [O(a), O(a, b, c, u, v)])"),
    ("e27", "disjoint triples", 6,
     "[O(a, b, c), O(u, v, w)] - ([O(a), O(b, c, u, v, w)]"
     " - [O(b), O(a, c, u, v, w)] + [O(c), O(a, b, u, v, w)])"),
    ("OjkOjklm", "pair against quadruple sharing both indices", 4,
     "[O(a, b), O(a, b, c, u)] - (-{O(a), O(a, c, u)} - {O(b), O(b, c, u)})"),
    ("OjkOjlmn", "pair against quadruple sharing one index", 5,
     "[O(a, b), O(a, c, u, v)] - (-O(b, c, u, v) - {O(b), O(c, u, v)}"
     " - [O(a), O(a, b, c, u, v)])"),
    ("OijOklmn", "pair against disjoint quadruple", 6,
     "[O(a, b), O(c, u, v, w)] - ([O(a), O(b, c, u, v, w)]"
     " - [O(b), O(a, c, u, v, w)])"),
    ("OjklOjkm", "product of triples sharing two indices", 4,
     "{O(a, b, c), O(a, b, u)} - (-O(c, u) - {O(c), O(u)}"
     " + {O(a, b), O(a, b, c, u)})"),
)

_LOWER_ANCHOR = ("the lowering generator intertwines the symmetry element up "
                 "to a shift")
_LOWER = (("", "[D, R(u)] + gamma(u)*D"),)

TEMPLATE_ROWS = (
    TemplateRow(
        "scasimir.square", "Scasimir squares to Casimir + 1/4", 1,
        (("S^2", SCASIMIR_SQUARE),)),
    TemplateRow(
        "scasimir.parity",
        "Scasimir commutes with even and anticommutes with odd generators", 1,
        (("X", "{Scasimir, X}"), ("D", "{Scasimir, D}"),
         ("H", "[Scasimir, H]"), ("Ep", "[Scasimir, Ep]"),
         ("Em", "[Scasimir, Em]"))),
    TemplateRow(
        "scasimir.projected",
        "projecting the Scasimir yields twice its square", 1,
        (("plus", "Pp(Scasimir) - 2*Scasimir^2"),
         ("minus", "Pm(Scasimir) - 2*Scasimir^2"),
         ("constants", "Pp(Scasimir) - 2*Casimir - 1/2"))),
    TemplateRow(
        "scasimir.casimir_central",
        "the Casimir supercommutes with all five generators", 1,
        tuple((n, f"[Casimir, {n}]") for n in ("X", "D", "H", "Ep", "Em"))),
    TemplateRow(
        "projector.fixes_central",
        "supercentralizer elements are fixed points", 2,
        tuple((n, f"Pp({a}) - {a}") for n, a in _CENTRAL_SAMPLES)),
    TemplateRow(
        "projector.mult_central",
        "multiplicativity when one factor is a supercentralizer element", 2,
        tuple(pair for n, a in _CENTRAL_SAMPLES for pair in (
            (f"left.{n}", f"Pp({a}*{_FACTOR}) - Pp({a})*Pp({_FACTOR})"),
            (f"right.{n}", f"Pp({_FACTOR}*{a}) - Pp({_FACTOR})*Pp({a})")))),
    TemplateRow(
        "projector.cliffpair",
        "projected Clifford pair: two-index element shifted by the form", 2,
        (("", "-Pp(gamma(u)*gamma(v))/2 - O(u, v) + B(u, v)/2"),), "u v",
        (("pair0", "x1, x2"), ("pair1", "x1, x1 + x2"))),
    TemplateRow(
        "projector.sandwich",
        "central factors pull out of the projector on both sides", 2,
        (("abc", "Pp(O(x1, x2)*(e1*x2)*rho(s1))"
                 " - O(x1, x2)*Pp(e1*x2)*rho(s1)"),)),
    TemplateRow(
        "projector.pm_agree", "both projectors agree on weight-zero arguments",
        2, tuple((n, f"Pp({a}) - Pm({a})") for n, a in (
            ("M12", "M(x1, x2)"), ("e1", "e1"), ("x1y1", "x1*y1"),
            ("S", "Scasimir"), ("g", "s1")))),
    TemplateRow("gensym.lower_x1", _LOWER_ANCHOR, 1, _LOWER, "u",
                _GENSYM_PATTERNS[:1]),
    TemplateRow("gensym.lower_x2", _LOWER_ANCHOR, 2, _LOWER, "u",
                _GENSYM_PATTERNS[1:2]),
    TemplateRow("gensym.lower_sum", _LOWER_ANCHOR, 2, _LOWER, "u",
                _GENSYM_PATTERNS[2:]),
    TemplateRow(
        "gensym.qminus_def",
        "the symmetry element is the lowering-side map of the Clifford "
        "generator", 1, (("", "R(u) - Qm(gamma(u))"),), "u", _GENSYM_PATTERNS),
    TemplateRow(
        "gensym.raise_x1", "mirror identity for the raising side", 1,
        (("", "[X, Qp(gamma(u))] - gamma(u)*X"),), "u", _GENSYM_PATTERNS),
    TemplateRow(
        "gensym.qplus_one", "the raising-side map fixes one up to H", 1,
        (("one", "Qp(1) - H - 1"),)),
    TemplateRow(
        "p_OujOun.case4",
        "four-term alternating bracket of triples against singles", 4,
        (("", "[O(u, v, w), O(z)] - [O(u, v, z), O(w)] + [O(u, w, z), O(v)]"
              " - [O(v, w, z), O(u)]"),),
        "u v w z", (_ix((0, 1, 2, 3)), _ix((0, 1, 2, 4)))),
    TemplateRow(
        "p_OabOuv.form1",
        "two-by-two bracket: pairing-weighted one-index commutators", 3,
        (("", "[O(a, b), O(u, v)] - ("
              "B(b, u)*(O(a, v) + {O(a), O(v)})"
              " - B(a, u)*(O(b, v) + {O(b), O(v)})"
              " - B(b, v)*(O(a, u) + {O(a), O(u)})"
              " + B(a, v)*(O(b, u) + {O(b), O(u)})"
              " + ([O(a), O(b, u, v)] - [O(b), O(a, u, v)]"
              " + [O(a, b, u), O(v)] - [O(a, b, v), O(u)])/2)"),),
        "a b u v", _PAIR_PATTERNS),
    TemplateRow(
        "p_OabOuv.form2", "two-by-two bracket: hatted-index form", 3,
        (("", "[O(a, b), O(u, v)] - (O(uh, v) + {O(uh), O(v)}"
              " + [O(a, b, u), O(v)] + O(u, vh) + {O(u), O(vh)}"
              " - [O(a, b, v), O(u)])"),),
        "a b u v",
        tuple((f"p{i}", covs) for i, (_, covs) in enumerate(
            _PAIR_PATTERNS + (("", "x1, x2 + x3, x1 + x2, x4"),)))),
    TemplateRow(
        "p_O2O34.n3",
        "pair bracket against a triple: hatted triples and pair brackets", 5,
        (("", "[O(a, b), O(u, v, w)] - (O(uh, v, w) + O(u, vh, w)"
              " + O(u, v, wh) + {O(uh), O(v, w)} - {O(vh), O(u, w)}"
              " + {O(wh), O(u, v)} + [O(a), O(b, u, v, w)]"
              " - [O(b), O(a, u, v, w)])"),),
        "a b u v w",
        (("p0", "x1 + x3, x2, x2 + x4, x1, x3"),
         ("p1", "x1, x2, x3, x4, x5"), ("p2", "x1, x2, x1, x3, x4"),
         ("p3", "x1, x2, x1, x2, x3"))),
    TemplateRow(
        "p_O2O34.n4",
        "pair bracket against a quadruple (singly-paired patterns)", 5,
        (("", "[O(a, b), O(c, u, v, w)] - (O(ch, u, v, w) + O(c, uh, v, w)"
              " + O(c, u, vh, w) + O(c, u, v, wh) + {O(ch), O(u, v, w)}"
              " + {O(uh), O(c, v, w)} + {O(vh), O(c, u, w)}"
              " + {O(wh), O(c, u, v)} + [O(a), O(b, c, u, v, w)]"
              " - [O(b), O(a, c, u, v, w)])"),),
        "a b c u v w",
        (_ix((0, 1), (0, 2, 3, 4)), _ix((0, 1), (1, 2, 3, 4)),
         _ix((0, 1), (2, 3, 4, 5)))),
    TemplateRow(
        "p_O3O3",
        "triple bracket against a triple under the diagonal pairing pattern",
        6,
        (("", "[O(a, b, c), O(u, v, w)] - ("
              "B(a, u)*(O(b, c, v, w) + {O(b, c), O(v, w)})"
              " + [O(a), O(b, c, u, v, w)]"
              " + B(b, v)*(O(a, c, u, w) + {O(a, c), O(u, w)})"
              " - [O(b), O(a, c, u, v, w)]"
              " + B(c, w)*(O(a, b, u, v) + {O(a, b), O(u, v)})"
              " + [O(c), O(a, b, u, v, w)]"
              " + B(b, v)*B(c, w)*[O(a), O(u)] + B(a, u)*B(c, w)*[O(b), O(v)]"
              " + B(a, u)*B(b, v)*[O(c), O(w)]"
              " - B(a, u)*B(b, v)*B(c, w)/2)"),),
        "a b c u v w",
        (_ix((0, 1, 2), (3, 4, 5)), _ix((0, 1, 2), (0, 1, 2)),
         _ix((0, 1, 2), (0, 3, 4)), _ix((0, 1, 2), (0, 1, 5)))),
) + tuple(TemplateRow(f"corollary.{name}", anchor, min_dim, (("main", src),))
          for name, anchor, min_dim, src in _COROLLARY)


def _case(cases, cid, anchor, min_dim, orthonormal=False):
    def register(fn):
        cases.append(IdentityCase(cid, anchor, min_dim, fn, orthonormal))
        return fn
    return register


def build_catalog() -> list:
    """The full identity catalog; order fixes the report order within ties."""
    cases: list = []
    sc, ac = supercommutator, anticommutator

    # ---- defining relations of the realized superalgebra ------------------
    relnames = {
        "FpFm": "odd raising against odd lowering closes on H",
        "HFpm": "H grades the odd generators by +-1",
        "FpmFpm": "squares of the odd generators give the even ladder",
        "EpEm": "the even ladder closes on H",
        "HEpm": "H grades the even ladder by +-2",
        "FpmEmp": "even ladder maps odd generators into each other",
    }
    for name, anchor in relnames.items():
        def mk(name=name):
            def b(env):
                return [(name, osp_relations(env.ctx)[name])]
            return b
        _case(cases, f"osp12re.{name}", anchor, 1)(mk())

    # ---- extremal projector laws ------------------------------------------
    def _even_cent_samples(env):
        ctx = env.ctx
        out = [("M12", M(ctx, env.x(0), env.x(1)))]
        if env.group.reflections:
            out.append(("g", ctx.g(env.group.reflections[0].elem)))
        out.append(("e12", ctx.e(0) * ctx.e(1)))
        out.append(("mix", M(ctx, env.x(0), env.x(1)) * ctx.e(0) * ctx.e(1)))
        return out

    @_case(cases, "projector.membership",
           "projected even-centralizer samples supercommute with the odd pair", 2)
    def _(env):
        g = env.gens()
        out = []
        for name, a in _even_cent_samples(env):
            pa = p_plus(env.ctx, a)
            out.append((f"X.{name}", sc(g.X, pa)))
            out.append((f"D.{name}", sc(g.D, pa)))
        return out

    @_case(cases, "projector.additivity", "the projector is additive", 1)
    def _(env):
        ctx = env.ctx
        a = ctx.x(0) * ctx.y(0) + ctx.e(0)
        b = ctx.g(env.group.reflections[0].elem) * ctx.e(1) if env.dim > 1 \
            else ctx.one()
        return [("sum", p_plus(ctx, a + b) - p_plus(ctx, a) - p_plus(ctx, b))]

    @_case(cases, "projector.reflection",
           "a reflection projects to its one-index element times its cover image", 1)
    def _(env):
        ctx = env.ctx
        out = []
        for i, refl in enumerate(ctx.group.reflections):
            root = ctx.root_covector(refl)
            scale = ROOT_SCALE.get(refl.root_norm)
            if scale is None:
                continue
            lhs = p_plus(ctx, ctx.g(refl.elem))
            rhs = ctx.o_frak(root) * ctx.rho([i]) * (-2) * scale
            out.append((f"s{i + 1}", lhs - rhs))
        return out

    @_case(cases, "projector.angular",
           "projected angular momentum: two-index element plus one-index bracket", 2)
    def _(env):
        ctx = env.ctx
        pairs = [(env.x(0), env.x(1)), (env.x(0), env.x(0) + env.x(1))]
        out = []
        for i, (u, v) in enumerate(pairs):
            ou, ov = ctx.o_frak(u), ctx.o_frak(v)
            lhs = p_plus(ctx, M(ctx, u, v))
            rhs = env.O(u, v) * 2 + ou * ov * 2 - ov * ou * 2
            out.append((f"pair{i}", lhs - rhs))
        return out

    @_case(cases, "projector.gammav",
           "a Clifford generator projects to minus twice its one-index element", 1)
    def _(env):
        ctx = env.ctx
        covs = [env.x(p) for p in range(min(env.dim, 3))]
        if env.dim > 1:
            covs.append(env.x(0) + env.x(1))
        return [(f"v{i}", p_plus(ctx, ctx.gamma(v)) + ctx.o_frak(v) * 2)
                for i, v in enumerate(covs)]

    @_case(cases, "projector.series",
           "the series projector lands in the even-subalgebra centralizer", 2)
    def _(env):
        ctx = env.ctx
        g = env.gens()
        m = M(ctx, env.x(0), env.x(1))
        samples = [("one", ctx.one()), ("M12", m), ("MM", m * m),
                   ("wt0", ctx.x(0) * ctx.y(0) - ctx.x(1) * ctx.y(1))]
        out = [("fix.one", p_alpha(ctx, ctx.one()) - ctx.one()),
               ("fix.M12", p_alpha(ctx, m) - m)]
        for n, a in samples:
            pa = p_alpha(ctx, a)
            out.append((f"Ep.{n}", sc(g.Ep, pa)))
            out.append((f"Em.{n}", sc(g.Em, pa)))
            out.append((f"H.{n}", sc(g.H, pa)))
        return out

    # ---- supercentralizer membership ---------------------------------------
    for n in (1, 2, 3, 4):
        def mk(n=n):
            def b(env):
                g = env.gens()
                out = []
                for tup in env.tuples(n):
                    o = env.Oi(*tup)
                    out.append((f"{tup}", sc(g.X, o)))
                return out
            return b
        _case(cases, f"centmember.X.n{n}",
              "projected elements supercommute with the raising partner", n)(mk())

        def mk2(n=n):
            def b(env):
                g = env.gens()
                return [(f"{tup}", sc(g.D, env.Oi(*tup)))
                        for tup in env.tuples(n)]
            return b
        _case(cases, f"centmember.D.n{n}",
              "projected elements supercommute with the lowering partner", n)(mk2())

    @_case(cases, "centmember.angular",
           "angular momenta centralize the even subalgebra", 2)
    def _(env):
        g = env.gens()
        out = []
        for (i, j) in env.tuples(2):
            m = M(env.ctx, env.x(i), env.x(j))
            out += [(f"H{i}{j}", sc(g.H, m)), (f"Ep{i}{j}", sc(g.Ep, m)),
                    (f"Em{i}{j}", sc(g.Em, m))]
        m = M(env.ctx, env.x(0), env.x(0) + env.x(1))
        out.append(("nonorth", sc(g.Ep, m)))
        return out

    @_case(cases, "centmember.group",
           "group elements centralize the even subalgebra", 1)
    def _(env):
        g = env.gens()
        out = []
        for refl in env.group.reflections[:4]:
            ge = env.ctx.g(refl.elem)
            out += [(f"H.g{refl.elem}", sc(g.H, ge)),
                    (f"Ep.g{refl.elem}", sc(g.Ep, ge)),
                    (f"Em.g{refl.elem}", sc(g.Em, ge))]
        return out

    # ---- route agreement ------------------------------------------------------
    for n in (1, 2, 3, 4):
        def mk(n=n):
            def b(env):
                out = []
                for tup in env.tuples(n, cap=4):
                    covs = [env.x(p) for p in tup]
                    op = o_proj(env.ctx, covs)
                    out.append((f"first{tup}",
                                op - o_explicit(env.ctx, covs, "first")))
                    out.append((f"second{tup}",
                                op - o_explicit(env.ctx, covs, "second")))
                return out
            return b
        _case(cases, f"routes.n{n}",
              "projector route equals both explicit routes", n)(mk())

    @_case(cases, "routes.nonorth2",
           "route agreement on a non-orthogonal pair", 2)
    def _(env):
        covs = [env.x(0), env.x(0) + env.x(1)]
        op = o_proj(env.ctx, covs)
        return [("first", op - o_explicit(env.ctx, covs, "first")),
                ("second", op - o_explicit(env.ctx, covs, "second")),
                ("two", op - o_two_explicit(env.ctx, *covs))]

    @_case(cases, "routes.nonorth3",
           "route agreement on a non-orthogonal triple", 3)
    def _(env):
        covs = [env.x(0), env.x(1), env.x(0) + env.x(2)]
        op = o_proj(env.ctx, covs)
        return [("first", op - o_explicit(env.ctx, covs, "first")),
                ("second", op - o_explicit(env.ctx, covs, "second")),
                ("three", op - o_three_explicit(env.ctx, *covs))]

    @_case(cases, "routes.pm",
           "both projector signs define the same elements", 2)
    def _(env):
        out = []
        for tup in env.tuples(2, cap=3):
            covs = [env.x(p) for p in tup]
            out.append((f"{tup}", o_proj(env.ctx, covs, 1)
                        - o_proj(env.ctx, covs, -1)))
        return out

    @_case(cases, "routes.triple",
           "three-index closed form matches the projector route", 3)
    def _(env):
        out = []
        for tup in env.tuples(3, cap=3):
            covs = [env.x(p) for p in tup]
            out.append((f"{tup}", o_proj(env.ctx, covs)
                        - o_three_explicit(env.ctx, *covs)))
        return out

    # ---- recursion and closed forms -----------------------------------------
    @_case(cases, "recursion.three_n3",
           "three-index recursion: the two antisymmetrized products balance", 3)
    def _(env):
        out = []
        for tup in env.tuples(3, cap=4):
            covs = [env.x(p) for p in tup]
            r = (antisymmetrize_shaped(env.ctx, covs,
                                       [(env.O, 1), (env.O, 2)]) * (-4)
                 + antisymmetrize_shaped(env.ctx, covs,
                                         [(env.O, 2), (env.O, 1)]) * 4)
            out.append((f"{tup}", r))
        return out

    @_case(cases, "recursion.three_n4",
           "four-index element from one- and two-index products", 4)
    def _(env):
        out = []
        for tup in env.tuples(4, cap=2):
            covs = [env.x(p) for p in tup]
            r = (o_proj(env.ctx, covs)
                 + antisymmetrize_shaped(env.ctx, covs,
                                         [(env.O, 1), (env.O, 3)]) * 8
                 - antisymmetrize_shaped(env.ctx, covs,
                                         [(env.O, 2), (env.O, 2)]) * 6)
            out.append((f"{tup}", r))
        return out

    @_case(cases, "recursion.closed_n4",
           "four-index closed form via pair products", 4)
    def _(env):
        out = []
        for tup in env.tuples(4, cap=2):
            covs = [env.x(p) for p in tup]
            r = (o_proj(env.ctx, covs)
                 - antisymmetrize_shaped(env.ctx, covs,
                                         [(env.O, 2), (env.O, 2)]) * 6
                 + antisymmetrize_shaped(env.ctx, covs,
                                         [(env.O, 3), (env.O, 1)]) * 8)
            out.append((f"{tup}", r))
        return out

    @_case(cases, "recursion.closed_n5",
           "five-index closed form via mixed products", 5)
    def _(env):
        out = []
        for tup in env.tuples(5, cap=1):
            covs = [env.x(p) for p in tup]
            r = (o_proj(env.ctx, covs)
                 - antisymmetrize_shaped(env.ctx, covs,
                                         [(env.O, 3), (env.O, 2)]) * 4
                 - antisymmetrize_shaped(
                     env.ctx, covs,
                     [(env.O, 3), (env.O, 1), (env.O, 1)]) * 48
                 + antisymmetrize_shaped(
                     env.ctx, covs,
                     [(env.O, 2), (env.O, 2), (env.O, 1)]) * 36)
            out.append((f"{tup}", r))
        return out

    # ---- antisymmetrized bracket vanishing ------------------------------------
    for n in (2, 3, 4, 5):
        def mk(n=n):
            def b(env):
                out = []
                for tup in env.tuples(n, cap=2 if n >= 4 else 4):
                    covs = [env.x(p) for p in tup]
                    r = antisymmetrize_shaped(
                        env.ctx, covs,
                        [(lambda *u: sc(o_proj(env.ctx, [u[0]]),
                                        o_proj(env.ctx, u[1:])), n)])
                    out.append((f"{tup}", r))
                return out
            return b
        _case(cases, f"p_OujOun.n{n}",
              "antisymmetrized bracket of one-index against rest vanishes",
              n)(mk())
    for n in (3, 4, 5):
        def mk(n=n):
            def b(env):
                out = []
                for tup in env.tuples(n, cap=2 if n >= 4 else 4):
                    covs = [env.x(p) for p in tup]
                    r = antisymmetrize_shaped(
                        env.ctx, covs,
                        [(lambda *u: sc(o_proj(env.ctx, u[:2]),
                                        o_proj(env.ctx, u[2:])), n)])
                    out.append((f"{tup}", r))
                return out
            return b
        _case(cases, f"p_OujOun.two.n{n}",
              "antisymmetrized bracket of two-index against rest vanishes",
              n)(mk())

    @_case(cases, "p_OujOun.case3",
           "three-term alternating bracket of pairs against singles", 3)
    def _(env):
        out = []
        tups = [tuple(env.x(p) for p in t) for t in env.tuples(3, cap=3)]
        if env.dim >= 3:
            tups.append((env.x(0), env.x(1), env.x(0) + env.x(2)))
        for i, (u, v, w) in enumerate(tups):
            O = lambda *cs: o_proj(env.ctx, cs)
            out.append((f"t{i}", sc(O(u, v), O(w)) - sc(O(u, w), O(v))
                        + sc(O(v, w), O(u))))
        return out

    for row in TEMPLATE_ROWS:
        _case(cases, row.id, row.anchor, row.min_dim)(row.residuals)

    # ---- squares of subset elements -----------------------------------------
    for n in (1, 2, 3, 4):
        def mk(n=n):
            def b(env):
                out = []
                for A in env.tuples(n, cap=4):
                    OA = env.Oi(*A)
                    sign = (-1) ** (n * (n - 1) // 2)
                    rhs = env.scal(Fraction((n - 1) * (n - 2), 8))
                    for a in A:
                        rhs = rhs - env.Oi(a) ** 2 * (n - 2)
                    for a, b2 in itertools.combinations(A, 2):
                        rhs = rhs - env.Oi(a, b2) ** 2
                    out.append((f"{A}", OA * OA - rhs * sign))
                return out
            return b
        _case(cases, f"p_OA2.n{n}",
              "square of a subset element from lower squares", n)(mk())

    # ---- deformed rotation bracket ---------------------------------------------
    @_case(cases, "p_bbH", "bracket of angular momenta closes with the "
           "deformed form as coefficients", 2)
    def _(env):
        ctx = env.ctx
        pats = [((0, 1), (0, 1))]
        if env.dim >= 3:
            pats += [((0, 1), (1, 2)), ((0, 1), (2, 0))]
        covpats = [tuple(env.x(i) for i in p[0] + p[1]) for p in pats]
        if env.dim >= 3:
            covpats.append((env.x(0), env.x(0) + env.x(1), env.x(1), env.x(2)))
        out = []
        for i, (u, v, xx, yy) in enumerate(covpats):
            lhs = sc(M(ctx, u, v), M(ctx, xx, yy))
            rhs = (M(ctx, v, xx) * b_kappa(ctx, u, yy)
                   - M(ctx, u, xx) * b_kappa(ctx, v, yy)
                   - M(ctx, v, yy) * b_kappa(ctx, u, xx)
                   + M(ctx, u, yy) * b_kappa(ctx, v, xx))
            out.append((f"p{i}", lhs - rhs))
        return out

    # ---- centrality -------------------------------------------------------------
    for n, md in (("one", 1), ("two", 2), ("three", 3)):
        def mk(n=n):
            def b(env):
                Om = central_omega(env.ctx)
                sz = {"one": 1, "two": 2, "three": 3}[n]
                return [(f"{t}", commutator(Om, env.Oi(*t)))
                        for t in env.tuples(sz, cap=4)]
            return b
        _case(cases, f"central.omega_{n}",
              "the quadratic invariant commutes with projected elements",
              md)(mk())

    @_case(cases, "central.omega_pin",
           "the quadratic invariant commutes with the covered reflections", 1)
    def _(env):
        Om = central_omega(env.ctx)
        return [(f"s{i + 1}", commutator(Om, env.ctx.rho([i])))
                for i in range(len(env.group.reflections))]

    for n, md in (("one", 1), ("two", 2), ("three", 3)):
        def mk(n=n):
            def b(env):
                top = o_top(env.ctx)
                sz = {"one": 1, "two": 2, "three": 3}[n]
                out = []
                for t in env.tuples(sz, cap=4):
                    o = env.Oi(*t)
                    if sz == 2:
                        out.append((f"{t}", sc(top, o)))
                    else:
                        out.append((f"{t}", ac(top, o)))
                covs = [env.x(0) + env.x(1)] if env.dim >= 2 else []
                for u in covs:
                    if sz == 1:
                        out.append(("nonorth", ac(top, o_proj(env.ctx, [u]))))
                return out
            return b
        _case(cases, f"central.OD_{n}",
              "the top element (anti)commutes per the dimension parity",
              max(md, 2))(mk())

    # ---- double cover ------------------------------------------------------------
    @_case(cases, "pin.rho_involution",
           "covered reflections square to one", 1)
    def _(env):
        return [(f"s{i + 1}", env.ctx.rho([i]) * env.ctx.rho([i])
                 - env.ctx.one())
                for i in range(len(env.group.reflections))]

    @_case(cases, "pin.rho_conj",
           "conjugation by a covered reflection acts by the signed "
           "geometric action", 1)
    def _(env):
        ctx = env.ctx
        grp = env.group
        out = []
        for i, refl in enumerate(grp.reflections[:4]):
            rho = ctx.rho([i])
            for p in range(env.dim):
                u = env.x(p)
                out.append((f"s{i + 1}.x{p + 1}", rho * ctx.x(p) * rho
                            - ctx.from_covector(grp.act(refl.elem, u))))
                y = ctx.space.basis_vector(p)
                out.append((f"s{i + 1}.y{p + 1}", rho * ctx.y(p) * rho
                            - ctx.from_vector(grp.act(refl.elem, y))))
                out.append((f"s{i + 1}.e{p + 1}", rho * ctx.e(p) * rho
                            + ctx.gamma(grp.act(refl.elem, u))))
        return out

    @_case(cases, "pin.group_action",
           "covered reflections permute projected elements with a parity sign", 2)
    def _(env):
        ctx = env.ctx
        grp = env.group
        out = []
        tups = [(0,), (0, 1)] + ([(0, 1, 2)] if env.dim >= 3 else [])
        for i, refl in enumerate(grp.reflections[:3]):
            rho = ctx.rho([i])
            for t in tups:
                us = [env.x(p) for p in t]
                lhs = rho * o_proj(ctx, us)
                acted = [grp.act(refl.elem, u) for u in us]
                rhs = o_proj(ctx, acted) * rho * ((-1) ** len(t))
                out.append((f"s{i + 1}.{t}", lhs - rhs))
        return out

    @_case(cases, "pin.invariant_pairs",
           "paired generators supercommute with the covered group", 1)
    def _(env):
        ctx = env.ctx
        out = []
        syms = (XPLUS, XMINUS, GAMMA)
        for i in range(min(len(env.group.reflections), 3)):
            rho = ctx.rho([i])
            for w, z in itertools.product(syms, repeat=2):
                out.append((f"s{i + 1}.{w}{z}",
                            sc(pair_element(ctx, w, z), rho)))
        return out

    @_case(cases, "pin.chirality",
           "volume element squares to one and (anti)commutes by parity", 1,
           orthonormal=True)
    def _(env):
        ctx = env.ctx
        G = ctx.chirality()
        out = [("square", G * G - ctx.one())]
        sgn = (-1) ** (env.dim - 1)
        for p in range(env.dim):
            out.append((f"e{p + 1}", G * ctx.e(p) - ctx.e(p) * G * sgn))
        return out

    @_case(cases, "pin.reflection_sum",
           "pairing one-index elements against Clifford generators gives "
           "the class-sum element", 1)
    def _(env):
        ctx = env.ctx
        acc1, acc2 = ctx.zero(), ctx.zero()
        for p in range(env.dim):
            for q in range(env.dim):
                bv = ctx.space.inv_gram[p][q]
                if bv.is_zero():
                    continue
                acc1 = acc1 + ctx.o_frak(env.x(p)) * ctx.gamma(env.x(q)) * bv
                acc2 = acc2 + ctx.gamma(env.x(p)) * ctx.o_frak(env.x(q)) * bv
        ok = ctx.omega_kappa()
        return [("left", acc1 - ok), ("right", acc2 - ok)]

    @_case(cases, "pin.commutator_form",
           "one-index elements from the lowering-pair commutator", 1)
    def _(env):
        ctx = env.ctx
        Dp = pair_element(ctx, XMINUS, GAMMA)
        covs = [env.x(p) for p in range(min(env.dim, 3))]
        if env.dim >= 2:
            covs.append(env.x(0) + env.x(1))
        return [(f"u{i}",
                 (sc(Dp, ctx.from_covector(u)) - ctx.gamma(u))
                 * Fraction(1, 2) - ctx.o_frak(u))
                for i, u in enumerate(covs)]

    @_case(cases, "pin.cross_anticomm",
           "Clifford generators against one-index elements close on the "
           "deformed form", 2)
    def _(env):
        ctx = env.ctx
        covs = [env.x(p) for p in range(min(env.dim, 3))]
        covs.append(env.x(0) + env.x(1))
        out = []
        for i, u in enumerate(covs):
            for j, v in enumerate(covs):
                lhs = sc(ctx.gamma(u), ctx.o_frak(v))
                mid = (sc(ctx.from_vector(beta(u)), ctx.from_covector(v))
                       - bilinear_B(u, v))
                rhs = sc(ctx.gamma(v), ctx.o_frak(u))
                out.append((f"{i}{j}a", lhs - mid))
                out.append((f"{i}{j}b", lhs - rhs))
        return out

    for n in (2, 3, 4):
        def mk(n=n):
            def b(env):
                covs = [env.x(p) for p in range(n)]
                run = _gamma_run(env.ctx)
                shapes = []
                for pos in range(n):
                    shape = []
                    if pos:
                        shape.append((run, pos))
                    shape.append((env.ctx.o_frak, 1))
                    if n - pos - 1:
                        shape.append((run, n - pos - 1))
                    shapes.append(
                        antisymmetrize_shaped(env.ctx, covs, shape))
                return [(f"slot{i}", a - b2)
                        for i, (a, b2) in enumerate(zip(shapes, shapes[1:]))]
            return b
        _case(cases, f"pin.slide_one.n{n}",
              "one-index elements slide through antisymmetrized words", n)(mk())

    for n in (3, 4):
        def mk(n=n):
            def b(env):
                covs = [env.x(p) for p in range(n)]
                run = _gamma_run(env.ctx)
                shapes = []
                for pos in range(n - 1):
                    shape = []
                    if pos:
                        shape.append((run, pos))
                    shape.append((env.O, 2))
                    if n - pos - 2:
                        shape.append((run, n - pos - 2))
                    shapes.append(
                        antisymmetrize_shaped(env.ctx, covs, shape))
                return [(f"slot{i}", a - b2)
                        for i, (a, b2) in enumerate(zip(shapes, shapes[1:]))]
            return b
        _case(cases, f"pin.slide_two.n{n}",
              "two-index elements slide through antisymmetrized words", n)(mk())

    # ---- the auxiliary-superspace pairing ---------------------------------------
    @_case(cases, "bwz.structure",
           "pairings close under the superbracket with the auxiliary form "
           "as structure constants", 1)
    def _(env):
        ctx = env.ctx
        syms = (XPLUS, XMINUS, GAMMA)
        out = []
        for z1, z2, z3, z4 in itertools.product(syms, repeat=4):
            lhs = sc(pair_element(ctx, z1, z2), pair_element(ctx, z3, z4))
            s23 = -1 if (_PARITY[z2] and _PARITY[z3]) else 1
            s24 = -1 if (_PARITY[z2] and _PARITY[z4]) else 1
            w1: dict = {}
            for sym, c in ((z1, b_form(z2, z3)), (z2, b_form(z1, z3) * s23)):
                w1[sym] = w1.get(sym, 0) + c
            w2: dict = {}
            for sym, c in ((z1, b_form(z2, z4)), (z2, b_form(z1, z4) * s24)):
                w2[sym] = w2.get(sym, 0) + c
            s123 = -1 if ((_PARITY[z1] ^ _PARITY[z2]) and _PARITY[z3]) else 1
            rhs = (pair_element(ctx, w1, z4)
                   + pair_element(ctx, z3, w2) * s123)
            out.append((f"{z1}{z2}{z3}{z4}", lhs - rhs))
        return out

    def _tensor(env, u, sym):
        if sym == XPLUS:
            return env.ctx.from_covector(u)
        if sym == XMINUS:
            return env.ctx.from_vector(beta(u))
        return env.ctx.gamma(u)

    @_case(cases, "bwz.adjoint_even",
           "even pairings act on generators through the auxiliary form", 1)
    def _(env):
        ctx = env.ctx
        covs = [env.x(0)]
        if env.dim >= 2:
            covs.append(env.x(0) + env.x(1))
        out = []
        for xi1, xi2 in itertools.product((XPLUS, XMINUS), repeat=2):
            for eta in (XPLUS, XMINUS, GAMMA):
                for i, u in enumerate(covs):
                    lhs = sc(pair_element(ctx, xi1, xi2),
                             _tensor(env, u, eta))
                    rhs = (_tensor(env, u, xi1) * b_form(xi2, eta)
                           + _tensor(env, u, xi2) * b_form(xi1, eta))
                    out.append((f"{xi1}{xi2}{eta}{i}", lhs - rhs))
        return out

    @_case(cases, "bwz.adjoint_odd",
           "odd pairings act on generators with a one-index correction", 1)
    def _(env):
        ctx = env.ctx
        covs = [env.x(0)]
        if env.dim >= 2:
            covs.append(env.x(0) + env.x(1))
        out = []
        for xi1 in (XPLUS, XMINUS):
            for eta in (XPLUS, XMINUS, GAMMA):
                for i, u in enumerate(covs):
                    lhs = sc(pair_element(ctx, xi1, GAMMA),
                             _tensor(env, u, eta))
                    rhs = (_tensor(env, u, xi1) * b_form(GAMMA, eta)
                           + (_tensor(env, u, GAMMA) + ctx.o_frak(u) * 2)
                           * b_form(xi1, eta))
                    out.append((f"{xi1}{eta}{i}", lhs - rhs))
        return out

    @_case(cases, "bwz.vector_laws",
           "restricted even pairings raise, lower, and grade generators", 1)
    def _(env):
        ctx = env.ctx
        out = []
        for p in range(min(env.dim, 3)):
            u = env.x(p)
            ue = ctx.from_covector(u)
            ve = ctx.from_vector(beta(u))
            mm = pair_element(ctx, XMINUS, XMINUS)
            pp = pair_element(ctx, XPLUS, XPLUS)
            pm = pair_element(ctx, XPLUS, XMINUS)
            out += [
                (f"low{p}", sc(mm, ue) - ctx.from_vector(beta(u)) * 2),
                (f"high{p}", sc(pp, ve) + ctx.from_covector(u) * 2),
                (f"grade+{p}", sc(pm, ue) - ue),
                (f"grade-{p}", sc(pm, ve) + ve),
            ]
        return out

    @_case(cases, "bwz.generator_forms",
           "pairings reduce to the coordinate sums in the orthonormal "
           "configuration", 1, orthonormal=True)
    def _(env):
        ctx = env.ctx
        g = env.gens()
        d = env.dim
        X = ctx.zero()
        D = ctx.zero()
        H = ctx.scalar_elem(Fraction(d, 2)) + ctx.omega_kappa()
        Ep = ctx.zero()
        Em = ctx.zero()
        for p in range(d):
            X = X + ctx.x(p) * ctx.e(p)
            D = D + ctx.y(p) * ctx.e(p)
            H = H + ctx.x(p) * ctx.y(p)
            Ep = Ep + ctx.x(p) * ctx.x(p) * Fraction(1, 2)
            Em = Em - ctx.y(p) * ctx.y(p) * Fraction(1, 2)
        return [("X", g.X - X), ("D", g.D - D), ("H", g.H - H),
                ("Ep", g.Ep - Ep), ("Em", g.Em - Em)]

    @_case(cases, "bwz.odd_self",
           "the odd direction pairs with itself to zero", 1)
    def _(env):
        return [("gg", pair_element(env.ctx, GAMMA, GAMMA))]

    # ---- deformed commutation laws ------------------------------------------------
    @_case(cases, "hk.symmetric_bracket",
           "the mixed bracket is symmetric under the involution", 2)
    def _(env):
        ctx = env.ctx
        covs = [env.x(p) for p in range(min(env.dim, 3))]
        covs.append(env.x(0) + env.x(1))
        out = []
        for i, u in enumerate(covs):
            for j, v in enumerate(covs):
                lhs = sc(ctx.from_vector(beta(u)), ctx.from_covector(v))
                rhs = sc(ctx.from_vector(beta(v)), ctx.from_covector(u))
                out.append((f"c{i}{j}", lhs - rhs))
        vecs = [beta(u) for u in covs]
        for i, u in enumerate(vecs):
            for j, v in enumerate(vecs):
                lhs = sc(ctx.from_covector(beta(u)), ctx.from_vector(v))
                rhs = sc(ctx.from_covector(beta(v)), ctx.from_vector(u))
                out.append((f"v{i}{j}", lhs - rhs))
        return out

    @_case(cases, "hk.deformed_form",
           "the mixed bracket equals the form plus the reflection sum", 2)
    def _(env):
        ctx = env.ctx
        from .centralizer import psi_kappa
        covs = [env.x(p) for p in range(min(env.dim, 3))]
        covs.append(env.x(0) + env.x(1))
        out = []
        for i, u in enumerate(covs):
            for j, v in enumerate(covs):
                lhs = sc(ctx.from_vector(beta(u)), ctx.from_covector(v))
                rhs = env.scal(bilinear_B(u, v)) + psi_kappa(ctx, u, v)
                out.append((f"{i}{j}", lhs - rhs))
        return out

    @_case(cases, "hk.double_bracket",
           "iterated mixed brackets are symmetric in the outer slots", 2)
    def _(env):
        ctx = env.ctx
        covs = [env.x(p) for p in range(min(env.dim, 3))]
        vecs = [beta(u) for u in covs]
        out = []
        for xs, u, v in itertools.product(covs, vecs, vecs):
            X_ = ctx.from_covector(xs)
            U, V = ctx.from_vector(u), ctx.from_vector(v)
            out.append(("a", sc(sc(X_, U), V) - sc(sc(X_, V), U)))
        for xs, v, ys in itertools.product(covs, vecs, covs):
            X_, Y = ctx.from_covector(xs), ctx.from_covector(ys)
            V = ctx.from_vector(v)
            out.append(("b", sc(sc(X_, V), Y) - sc(sc(Y, V), X_)))
        return out

    @_case(cases, "hk.angular_forms",
           "all four displayed forms of the angular momentum coincide", 2)
    def _(env):
        ctx = env.ctx
        pairs = [(env.x(0), env.x(1)), (env.x(0), env.x(0) + env.x(1))]
        out = []
        for i, (u, v) in enumerate(pairs):
            ue, ve = ctx.from_covector(u), ctx.from_covector(v)
            bu, bv = ctx.from_vector(beta(u)), ctx.from_vector(beta(v))
            m = M(ctx, u, v)
            out.append((f"rev{i}", m - (bv * ue - bu * ve)))
            out.append((f"half{i}",
                        m - (ue * bv - bu * ve - ve * bu + bv * ue)
                        * Fraction(1, 2)))
        return out

    # ---- engine health ---------------------------------------------------------------
    @_case(cases, "health.assoc",
           "associativity on seeded random triples (confluence surrogate)", 1)
    def _(env):
        rng = random.Random(env.options.seed)
        out = []
        for i in range(env.options.assoc_trials):
            a = random_element(env.ctx, rng, env.options.max_degree)
            b = random_element(env.ctx, rng, env.options.max_degree)
            c = random_element(env.ctx, rng, env.options.max_degree)
            out.append((f"t{i}", (a * b) * c - a * (b * c)))
        return out

    @_case(cases, "health.jacobi",
           "graded Jacobi identity on homogeneous seeded triples", 1)
    def _(env):
        rng = random.Random(env.options.seed + 1)
        out = []
        done = 0
        while done < env.options.jacobi_trials:
            a = random_element(env.ctx, rng, env.options.max_degree)
            b = random_element(env.ctx, rng, env.options.max_degree)
            c = random_element(env.ctx, rng, env.options.max_degree)
            a = a.odd_part() if done % 2 else a.even_part()
            b = b.even_part() if done % 3 else b.odd_part()
            if a.is_zero() or b.is_zero():
                continue
            pa, pb = a.parity(), b.parity()
            sign = -1 if (pa and pb) else 1
            r = (sc(a, sc(b, c)) - sc(sc(a, b), c) - sc(b, sc(a, c)) * sign)
            out.append((f"t{done}", r))
            done += 1
        return out

    @_case(cases, "health.skew",
           "graded skew-symmetry on homogeneous seeded pairs", 1)
    def _(env):
        rng = random.Random(env.options.seed + 2)
        out = []
        done = 0
        while done < env.options.jacobi_trials:
            a = random_element(env.ctx, rng, env.options.max_degree)
            b = random_element(env.ctx, rng, env.options.max_degree)
            a = a.odd_part() if done % 2 else a.even_part()
            b = b.even_part() if done % 3 else b.odd_part()
            if a.is_zero() or b.is_zero():
                continue
            sign = -1 if (a.parity() and b.parity()) else 1
            out.append((f"t{done}", sc(a, b) + sc(b, a) * sign))
            done += 1
        return out

    @_case(cases, "health.idempotent",
           "normalization is a fixpoint of renormalization", 1)
    def _(env):
        rng = random.Random(env.options.seed + 3)
        out = []
        for i in range(10):
            a = random_element(env.ctx, rng, env.options.max_degree)
            rebuilt = env.ctx.element(dict(a.terms))
            out.append((f"t{i}", rebuilt - a))
            out.append((f"u{i}", a * env.ctx.one() - a))
        return out

    @_case(cases, "health.roundtrip",
           "parse of the canonical print evaluates back to the element", 1)
    def _(env):
        rng = random.Random(env.options.seed + 4)
        ev = Evaluator(env.ctx)
        out = []
        for i in range(env.options.roundtrip_trials):
            a = random_element(env.ctx, rng, env.options.max_degree)
            back = ev.eval_element(parse_expression(str(a)))
            out.append((f"t{i}", back - a))
        return out

    @_case(cases, "health.substitution",
           "scalar specialization is a ring map and symbolic zeros stay zero", 1)
    def _(env):
        rng = random.Random(env.options.seed + 5)
        vals = {c: BaseNumber(Fraction(1 + c, 2), 1) for c in
                range(env.ctx.num_classes)}
        out = []
        for i in range(10):
            s1 = _random_scalar(rng, env.ctx.num_classes)
            s2 = _random_scalar(rng, env.ctx.num_classes)
            diff = ((s1 * s2).substitute(vals)
                    - s1.substitute(vals) * s2.substitute(vals))
            out.append((f"t{i}", env.scal(diff)))
        resid = osp_relations(env.ctx)["FpFm"]
        for i, vset in enumerate((vals, {c: BaseNumber(-2) for c in
                                         range(env.ctx.num_classes)})):
            out.append((f"resid{i}", resid.substitute_kappa(vset)))
        return out

    return cases


def _random_scalar(rng, num_classes: int) -> Scalar:
    acc = as_scalar(BaseNumber(rng.randint(-3, 3), rng.randint(-1, 1),
                               rng.randint(-1, 1)))
    for c in range(num_classes):
        if rng.random() < 0.7:
            acc = acc + Scalar.kappa(c, rng.randint(1, 2)) * rng.randint(-2, 2)
    return acc


_CATALOG = None


def catalog() -> list:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = build_catalog()
    return _CATALOG


def catalog_ids() -> list:
    return [c.id for c in catalog()]


def suite_names() -> list:
    return sorted({c.id.split(".")[0] for c in catalog()} | {"oracle"})


class UnknownSuite(ValueError):
    pass


def _select(suite_id: str):
    if suite_id == "all":
        return list(catalog())
    got = [c for c in catalog()
           if c.id == suite_id or c.id.startswith(suite_id + ".")]
    if not got and suite_id != "oracle":
        raise UnknownSuite(f"unknown suite or case id {suite_id!r}")
    return got


def _kappa_label(kappa_values) -> str:
    if kappa_values is None:
        return "symbolic"
    return ",".join(str(v) for v in kappa_values)


def run_suite(env: SuiteEnv, suite_id: str = "all", kappa_values=None,
              options: RunOptions = None) -> list:
    """Evaluate the selected identity cases to exact zero.

    ``kappa_values`` of None keeps the deformation parameters symbolic
    (the stronger check); otherwise every residual is specialized at the
    given per-class values before the zero test.
    """
    if options is not None:
        env.options = options
    cases = _select(suite_id)
    label = env.group.label
    kap = _kappa_label(kappa_values)
    subs = None
    if kappa_values is not None:
        if len(kappa_values) != env.ctx.num_classes:
            raise ValueError(
                f"group has {env.ctx.num_classes} reflection classes, "
                f"got {len(kappa_values)} deformation values")
        subs = {i: as_base(v) for i, v in enumerate(kappa_values)}

    def run_one(case: IdentityCase) -> SuiteReport:
        reason = None
        if env.dim < case.min_dim:
            reason = f"needs dimension >= {case.min_dim}"
        elif case.orthonormal and not env.ctx.space.is_identity:
            reason = NEEDS_ORTHONORMAL
        if reason is not None:
            return SuiteReport(
                id=case.id, anchor=case.anchor, group=label, dim=env.dim,
                kappa=kap, status="skipped", reason=reason)
        t0 = time.perf_counter()
        residues = case.builder(env)
        nonzero = 0
        witness = None
        for sub_label, r in residues:
            if subs is not None:
                r = r.substitute_kappa(subs)
            if not r.is_zero():
                nonzero += len(r.terms)
                if witness is None:
                    witness = f"{sub_label}: {r.witness()}"
        ms = (time.perf_counter() - t0) * 1000.0
        return SuiteReport(
            id=case.id, anchor=case.anchor, group=label, dim=env.dim,
            kappa=kap, status="pass" if nonzero == 0 else "fail",
            residual_terms=nonzero, witness=witness, ms=round(ms, 3))

    reports = [run_one(c) for c in cases]
    if suite_id in ("oracle", "all"):
        reports = reports + run_oracle_crosscheck(env)
    return sorted(reports, key=lambda r: r.id)


# ---- oracle cross-check -----------------------------------------------------------
#
# Identities that the engine proves to zero, written in the expression
# language and read a second time by ModuleEvaluator, which composes them
# as operators on the polynomial-tensor-spinor module.  The module exists
# for the identity Gram matrix, where beta(x_p) = y_p and gamma(x_p) = e_p.
# A row's template is a string, or a function of the group for the rows
# that sum over its reflections or coordinates.


def _commutation(p: int, q: int):
    """[y_p, x_q] = delta_pq + sum over reflections of
    k root_p coroot_q s."""
    def template(group):
        src = f"[y{p}, x{q}]" + (" - 1" if p == q else "")
        for k, r in enumerate(group.reflections, 1):
            c = r.root[p - 1] * r.coroot[q - 1]
            if c:
                src += f" - ({c})*k{r.class_id + 1}*s{k}"
        return src
    return template


def _reflection_sum(group):
    return " + ".join(f"O(x{p})*gamma(x{p})"
                      for p in range(1, group.dim + 1)) + " - OmegaKappa"


def _projected_reflection(group):
    scale = as_scalar(ROOT_SCALE[group.reflections[0].root_norm] * 2)
    return f"s1 - 1/2*[D, [X, s1]] + ({scale})*O(alpha1)*rho(s1)"


ORACLE_ROWS = (
    ("osp12re.FpFm", "[X, D] - 2*H"),
    ("osp12re.HFp", "[H, X] - X"),
    ("osp12re.FpFp", "X^2 - 2*Ep"),
    ("osp12re.EpEm", "[Ep, Em] - H"),
    ("osp12re.HEp", "[H, Ep] - 2*Ep"),
    ("osp12re.XEm", "[X, Em] - D"),
    ("rc.y1x1", _commutation(1, 1)),
    ("rc.y1x2", _commutation(1, 2)),
    ("l_Buv", "[y1, x2] - [y2, x1]"),
    ("e_Ogamma", "[gamma(x1), O(x2)] - [y1, x2] + B(x1, x2)"),
    ("l_Oug", _reflection_sum),
    ("gensym.x1", "[D, R(x1)] + gamma(x1)*D"),
    ("scasimir.square", SCASIMIR_SQUARE),
    ("centmember.X_O12", "[X, O(x1, x2)]"),
    ("centmember.D_O1", "[D, O(x1)]"),
    ("chirality.square", "Gamma^2 - 1"),
    ("pin.rho_sq", "rho(s1)^2 - 1"),
    ("central.omega_rho", "[Omega, rho(s1)]"),
    ("projector.cliffpair",
     "-1/2*e1*e2 + 1/4*[D, [X, e1*e2]] - O(x1, x2) + B(x1, x2)/2"),
    ("projector.reflection", _projected_reflection),
)


def oracle_template(template, group) -> str:
    """The source text of an ORACLE_ROWS template on this group."""
    return template if isinstance(template, str) else template(group)


def oracle_ids() -> list:
    return sorted([f"oracle.{name}" for name, _ in ORACLE_ROWS]
                  + ["oracle.mutation", "oracle.products"])


def run_oracle_crosscheck(env: SuiteEnv, samples: int = None,
                          product_checks: int = 50) -> list:
    """Exact agreement between the engine and the concrete module.

    Every ORACLE_ROWS template must be zero in the engine and annihilate
    all sampled vectors in the module; engine products must compose:
    act(a*b, v) = act(a, act(b, v)).  The first row plus one must be
    caught (harness self-test).  Seeds and the degree of the sampled
    vectors (at least 3) come from ``env.options``.  The module exists for
    the orthonormal configuration only; on a general Gram matrix every
    check is reported as skipped and nothing is evaluated.
    """
    opts = env.options
    samples = opts.oracle_samples if samples is None else samples
    max_degree = max(opts.max_degree, 3)
    label = env.group.label
    mod = SpinorModule(env.ctx) if env.ctx.space.is_identity else None

    def report(name, anchor, check):
        """The report of oracle.<name>; ``check()`` returns None on
        agreement, else a witness.  Skipped when there is no module."""
        if mod is None:
            return SuiteReport(
                id=f"oracle.{name}", anchor=anchor, group=label, dim=env.dim,
                kappa="symbolic", status="skipped", reason=NEEDS_ORTHONORMAL)
        t0 = time.perf_counter()
        witness = check()
        ms = (time.perf_counter() - t0) * 1000.0
        ok = witness is None
        return SuiteReport(
            id=f"oracle.{name}", anchor=anchor, group=label, dim=env.dim,
            kappa="symbolic", status="pass" if ok else "fail",
            residual_terms=0 if ok else 1, witness=witness,
            ms=round(ms, 3), oracle=ok)

    def diverges(src) -> bool:
        """Is the expression nonzero on a sampled vector or in the engine?"""
        node = parse_expression(src)
        module_eval = ModuleEvaluator(mod)
        for i in range(samples):
            vec = mod.random_vector(opts.seed + 7919 * i, max_degree)
            if not module_eval.act(node, vec).is_zero():
                return True
        return not module_eval.engine.eval_element(node).is_zero()

    def products():
        rng = random.Random(opts.seed)
        for i in range(product_checks):
            a = random_element(env.ctx, rng, max_degree=2)
            b = random_element(env.ctx, rng, max_degree=2)
            vec = mod.random_vector(rng.randrange(10 ** 9), max_degree)
            if mod.act(a * b, vec) != mod.act(a, mod.act(b, vec)):
                return f"trial {i}"
        return None

    def template(row):
        return oracle_template(row[1], env.group)

    reports = [report(row[0], "engine/module concordance",
                      lambda: row[0] if diverges(template(row)) else None)
               for row in ORACLE_ROWS]
    reports.append(report("products", "module action is multiplicative",
                          products))
    reports.append(report(
        "mutation", "perturbed residual must be detected",
        lambda: None if diverges(f"({template(ORACLE_ROWS[0])}) + 1")
        else "mutation"))
    return sorted(reports, key=lambda r: r.id)


def make_env(spec, options: RunOptions = None) -> SuiteEnv:
    if isinstance(spec, SuiteEnv):
        return spec
    if isinstance(spec, ReflectionGroup):
        return SuiteEnv(spec, options)
    return SuiteEnv(parse_group_spec(spec), options)
