"""Identity catalog, suite runner, and the oracle cross-check harness.

Every verified statement is an IdentityCase: a stable dotted id, a short
human anchor, a minimum ambient dimension, and a builder producing a list of
(label, residual) pairs.  A case passes exactly when every residual is the
empty combination; the runner never compares against a tolerance, only
against structural zero.

Identities that the expression language of parser.py can state are rows
of TEMPLATE_ROWS: membership and centrality of the elements O_A over index
subsets A, the covered reflections rho(s) over the reflections, the
Scasimir identities, the pair- and triple-bracket formulas, the
orthonormal-basis corollary of the O_A brackets, and a few projector and
generalized-symmetry laws.  A row holds templates over placeholders and
the patterns bound to them.  The rest are Python builders, for one of
these reasons:

  * they call a routine the language has no name for: the one-index
    element o_frak (as against the projector route O), the explicit
    routes, the minus projector route, shaped antisymmetrizations, the
    auxiliary pairings, the deformed forms b_kappa and psi_kappa, beta,
    or the group action on covectors; stated with O or Pp instead, the
    case would test another identity;
  * they evaluate a projection once where a template would evaluate it at
    every use (projector.membership, projector.series);
  * they draw seeded random elements (health.*), read the relations that
    build_osp already checked (osp12re.*), or take operands that depend on
    the group (projector.additivity, pin.chirality).

The oracle cross-check reads ORACLE_ROWS, 20 rows in the same language,
some of them catalog rows read at their first binding, twice: with the
engine Evaluator, and with the module evaluator of oracle.py, which
composes them as operators on the polynomial-tensor-spinor module.  Its
checks are IdentityCases too, with ids oracle.<name>; only how a result
is counted differs (one term on failure, witnessed by the check's name).

One routine, `_report`, runs every case.  The first dotted component of
an id names its suite; `run_suite` selects catalog cases and oracle checks
by one prefix rule (a suite, a case id, an id prefix such as
oracle.osp12re, or "all").  Cases whose dimension prerequisite fails,
cases stated for the orthonormal configuration when the Gram matrix is not
the identity (every oracle check), and cases with nothing to check on the
group (a row whose every pattern names a reflection the group lacks) are
reported as skipped with the reason.  Reports are ordered by id regardless
of execution order, and their content is deterministic (the elapsed-time
field aside) for fixed inputs including the seed.
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
                          o_explicit, o_proj, o_three_explicit,
                          o_two_explicit)
from .core import Context, random_element, supercommutator
from .geometry import beta, bilinear_B
from .groups import ReflectionGroup, parse_group_spec
from .oracle import ModuleEvaluator, SpinorModule
from .osp import (build_osp, osp_relations, pair_element, p_alpha, p_plus,
                  b_form, XPLUS, XMINUS, GAMMA, _PARITY)
from .parser import Bin, Evaluator, Num, parse_expression, substitute
from .scalars import BaseNumber, Scalar, as_base, as_scalar


@dataclass
class RunOptions:
    seed: int = 2024
    max_degree: int = 2
    assoc_trials: int = 40
    jacobi_trials: int = 20
    roundtrip_trials: int = 20
    oracle_samples: int = 20
    oracle_products: int = 50


NEEDS_ORTHONORMAL = "needs the orthonormal configuration"
NOTHING_TO_CHECK = "nothing to check on this group"


@dataclass(frozen=True)
class IdentityCase:
    id: str
    anchor: str
    min_dim: int
    builder: Callable
    orthonormal: bool = False        # stated for the identity Gram only
    oracle: bool = False             # an engine/module check: the builder
                                     # returns (label, holds) pairs


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

    def gens(self):
        return build_osp(self.ctx)

    def scal(self, v):
        return self.ctx.scalar_elem(v)

    def tuples(self, n, cap=6):
        return list(itertools.combinations(range(self.dim), n))[:cap]

    def sample_covectors(self):
        """Up to three basis covectors, then x1 + x2 in dimension 2 on."""
        covs = [self.x(p) for p in range(min(self.dim, 3))]
        return covs + [self.x(0) + self.x(1)] if self.dim > 1 else covs


# ---- template cases ---------------------------------------------------------


@dataclass(frozen=True)
class TemplateRow:
    """Identities written once in the expression language of parser.py.

    The placeholders are bound, in order, to the comma-separated names of
    each pattern; without patterns they are bound to x1, x2, ... as far as
    the dimension goes.  The patterns may also be a function of the group
    (`_subsets`, `_reflections`), and a template a function of the group
    that returns its text.  A pattern or template that names a coordinate
    past the dimension or a reflection the group does not have is left
    out.  Once a and b are bound, a placeholder with h appended (uh, vh,
    ...) stands for the hatted covector a*B(b, u) - b*B(a, u).  Residuals
    are labelled by pattern and sub-label.
    """
    id: str
    anchor: str
    min_dim: int
    templates: tuple                 # (sub-label, template) pairs
    placeholders: str = "a b c u v w"
    patterns: object = ()            # (label, names) pairs, or a function
                                     # of the group returning them

    def residuals(self, env: SuiteEnv) -> list:
        ev = Evaluator(env.ctx)
        return [(label, ev.eval_element(node))
                for label, node in self.instances(env.group)]

    def instances(self, group) -> list:
        """(label, AST) of every template at every binding that fits."""
        sources = [(slabel, src(group) if callable(src) else src)
                   for slabel, src in self.templates]
        return [(".".join(filter(None, (plabel, slabel))),
                 substitute(_parsed(src), binding))
                for plabel, binding in self._bindings(group)
                for slabel, src in sources if _fits(src, group)]

    def pattern_list(self, group) -> tuple:
        """The (label, names) patterns of the row on the group."""
        if callable(self.patterns):
            return self.patterns(group)
        names = self.placeholders.split()
        return self.patterns or (
            ("", ", ".join(f"x{p + 1}"
                           for p in range(min(group.dim, len(names))))),)

    def _bindings(self, group):
        names = self.placeholders.split()
        for label, covs in self.pattern_list(group):
            if not _fits(covs, group):
                continue
            binding = dict(zip(names, map(_parsed, covs.split(","))))
            if "a" in binding and "b" in binding:
                pair = {"a": binding["a"], "b": binding["b"]}
                binding.update({
                    n + "h": substitute(_parsed(_HAT), {**pair, "t": cov})
                    for n, cov in binding.items() if n not in pair})
            yield label, binding


_HAT = "a*B(b, t) - b*B(a, t)"
_INDEXED = re.compile(r"\b(x|y|e|s|alpha)(\d+)\b")


def _fits(text: str, group) -> bool:
    """Does the text name only coordinates and reflections of the group?"""
    limit = {"s": len(group.reflections), "alpha": len(group.reflections)}
    return all(int(k) <= limit.get(name, group.dim)
               for name, k in _INDEXED.findall(text))


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


def _subsets(n: int, cap: int = 6, *extra):
    """Patterns over index subsets: the first ``cap`` n-subsets A of the
    coordinates, labelled like (0, 1) and bound to the basis covectors of
    A, then the ``extra`` patterns."""
    return lambda group: tuple(
        _ix(A) for A in itertools.combinations(range(group.dim), n))[:cap] \
        + extra


def _reflections(cap: int = None):
    """Patterns over reflections for the placeholders s and alpha: the
    first ``cap`` reflections sk, labelled sk, with their roots alphak."""
    return lambda group: tuple(
        (f"s{k}", f"s{k}, alpha{k}")
        for k in range(1, len(group.reflections) + 1))[:cap]


def _o(n: int) -> str:
    """O of the first n subset placeholders."""
    return f"O({', '.join('abcu'[:n])})"


def _square(n: int) -> str:
    """O_A^2 against the squares of the one- and two-index elements of A,
    |A| = n."""
    names = "abcu"[:n]
    singles = " + ".join(f"O({a})^2" for a in names)
    pairs = " + ".join(f"O({a}, {b})^2"
                       for a, b in itertools.combinations(names, 2)) or "0"
    return (f"{_o(n)}*{_o(n)} - ({(-1) ** (n * (n - 1) // 2)})*("
            f"{Fraction((n - 1) * (n - 2), 8)} - ({n - 2})*({singles})"
            f" - ({pairs}))")


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
        (("S^2", "Scasimir^2 - Casimir - 1/4"),)),
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
        (("", "-1/2*gamma(u)*gamma(v) + 1/4*[D, [X, gamma(u)*gamma(v)]]"
              " - O(u, v) + B(u, v)/2"),), "u v",
        (("pair0", "x1, x2"), ("pair1", "x1, x1 + x2"))),
    TemplateRow(
        "projector.reflection",
        "a reflection projects to its one-index element times its cover image",
        1, (("", "s - [D, [X, s]]/2"
                 " + 2*O(alpha)*s*gamma(alpha)/B(alpha, alpha)"),),
        "s alpha", _reflections()),
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
        "p_OujOun.case3",
        "three-term alternating bracket of pairs against singles", 3,
        (("", "[O(u, v), O(w)] - [O(u, w), O(v)] + [O(v, w), O(u)]"),),
        "u v w", lambda group: tuple(
            (f"t{i}", covs) for i, (_, covs) in enumerate(
                _subsets(3, 3, ("", "x1, x2, x1 + x3"))(group)))),
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
    *(TemplateRow(f"p_OA2.n{n}", "square of a subset element from lower squares",
                  n, (("", _square(n)),), patterns=_subsets(n, 4))
      for n in (1, 2, 3, 4)),
    *(TemplateRow(f"centmember.{g}.n{n}",
                  f"projected elements supercommute with the {side} partner",
                  n, (("", f"[{g}, {_o(n)}]"),), patterns=_subsets(n))
      for g, side in (("X", "raising"), ("D", "lowering"))
      for n in (1, 2, 3, 4)),
    TemplateRow(
        "centmember.angular", "angular momenta centralize the even subalgebra",
        2, tuple((g, f"[{g}, M(a, b)]") for g in ("H", "Ep", "Em")),
        patterns=_subsets(2, 6, ("nonorth", "x1, x1 + x2"))),
    TemplateRow(
        "centmember.group", "group elements centralize the even subalgebra", 1,
        tuple((g, f"[{g}, s]") for g in ("H", "Ep", "Em")), "s alpha",
        _reflections(4)),
    *(TemplateRow(f"central.omega_{word}",
                  "the quadratic invariant commutes with projected elements",
                  n, (("", f"[Omega, {_o(n)}]"),), patterns=_subsets(n, 4))
      for n, word in ((1, "one"), (2, "two"), (3, "three"))),
    TemplateRow(
        "central.omega_pin",
        "the quadratic invariant commutes with the covered reflections", 1,
        (("", "[Omega, rho(s)]"),), "s alpha", _reflections()),
    *(TemplateRow(f"central.OD_{word}",
                  "the top element (anti)commutes per the dimension parity",
                  max(n, 2), (("", src),), patterns=_subsets(n, 4, *extra))
      for n, word, src, extra in (
          (1, "one", "{Otop, O(a)}", (("nonorth", "x1 + x2"),)),
          (2, "two", "[Otop, O(a, b)]", ()),
          (3, "three", "{Otop, O(a, b, c)}", ()))),
    TemplateRow(
        "pin.rho_involution", "covered reflections square to one", 1,
        (("", "rho(s)*rho(s) - 1"),), "s alpha", _reflections()),
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
    sc = supercommutator

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
        refls = env.group.reflections
        b = ctx.g(refls[0].elem) * ctx.e(1) if env.dim > 1 and refls \
            else ctx.one()
        return [("sum", p_plus(ctx, a + b) - p_plus(ctx, a) - p_plus(ctx, b))]

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
        covs = env.sample_covectors()
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
    # (name, anchor, n, cap, with O_A, [(coefficient, arities of the
    # antisymmetrized product of O's)])
    recursions = (
        ("three_n3", "three-index recursion: the two antisymmetrized "
         "products balance", 3, 4, False, ((-4, (1, 2)), (4, (2, 1)))),
        ("three_n4", "four-index element from one- and two-index products",
         4, 2, True, ((8, (1, 3)), (-6, (2, 2)))),
        ("closed_n4", "four-index closed form via pair products", 4, 2, True,
         ((-6, (2, 2)), (8, (3, 1)))),
        ("closed_n5", "five-index closed form via mixed products", 5, 1, True,
         ((-4, (3, 2)), (-48, (3, 1, 1)), (36, (2, 2, 1)))),
    )
    for name, anchor, n, cap, with_o, terms in recursions:
        def mk(n=n, cap=cap, with_o=with_o, terms=terms):
            def b(env):
                out = []
                for tup in env.tuples(n, cap=cap):
                    covs = [env.x(p) for p in tup]
                    r = o_proj(env.ctx, covs) if with_o else env.ctx.zero()
                    for coef, arities in terms:
                        r = r + antisymmetrize_shaped(
                            env.ctx, covs, [(env.O, a) for a in arities]) * coef
                    out.append((f"{tup}", r))
                return out
            return b
        _case(cases, f"recursion.{name}", anchor, n)(mk())

    # ---- antisymmetrized bracket vanishing ------------------------------------
    for k, word, ns in ((1, "one", (2, 3, 4, 5)), (2, "two", (3, 4, 5))):
        for n in ns:
            def mk(n=n, k=k):
                def b(env):
                    def bracket(*u):
                        return sc(env.O(*u[:k]), env.O(*u[k:]))
                    return [(f"{tup}", antisymmetrize_shaped(
                                env.ctx, [env.x(p) for p in tup],
                                [(bracket, n)]))
                            for tup in env.tuples(n, cap=2 if n >= 4 else 4)]
                return b
            _case(cases, f"p_OujOun.{'two.' if k == 2 else ''}n{n}",
                  f"antisymmetrized bracket of {word}-index against rest "
                  "vanishes", n)(mk())

    for row in TEMPLATE_ROWS:
        _case(cases, row.id, row.anchor, row.min_dim)(row.residuals)

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

    # ---- double cover ------------------------------------------------------------
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
        covs = env.sample_covectors()
        return [(f"u{i}",
                 (sc(Dp, ctx.from_covector(u)) - ctx.gamma(u))
                 * Fraction(1, 2) - ctx.o_frak(u))
                for i, u in enumerate(covs)]

    @_case(cases, "pin.cross_anticomm",
           "Clifford generators against one-index elements close on the "
           "deformed form", 2)
    def _(env):
        ctx = env.ctx
        covs = env.sample_covectors()
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

    for k, word, ns in ((1, "one", (2, 3, 4)), (2, "two", (3, 4))):
        for n in ns:
            def mk(n=n, k=k):
                def b(env):
                    covs = [env.x(p) for p in range(n)]
                    run = _gamma_run(env.ctx)
                    part = env.ctx.o_frak if k == 1 else env.O
                    shapes = [antisymmetrize_shaped(env.ctx, covs, [
                        (f, a) for f, a in ((run, pos), (part, k),
                                            (run, n - pos - k)) if a])
                        for pos in range(n - k + 1)]
                    return [(f"slot{i}", a - b2) for i, (a, b2)
                            in enumerate(zip(shapes, shapes[1:]))]
                return b
            _case(cases, f"pin.slide_{word}.n{n}",
                  f"{word}-index elements slide through antisymmetrized words",
                  n)(mk())

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
        covs = env.sample_covectors()
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
        covs = env.sample_covectors()
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


@functools.cache
def catalog() -> list:
    return build_catalog()


def catalog_ids() -> list:
    return [c.id for c in catalog()]


@functools.cache
def _cases() -> list:
    """Every case run_suite selects from: the catalog, then the oracle's
    checks, built without a module for selection only (each
    run_oracle_crosscheck call builds them again, on its own module)."""
    return catalog() + oracle_cases()


def suite_names() -> list:
    return sorted({c.id.split(".")[0] for c in _cases()})


class UnknownSuite(ValueError):
    pass


def _select(suite_id: str) -> list:
    if suite_id == "all":
        return _cases()
    got = [c for c in _cases()
           if c.id == suite_id or c.id.startswith(suite_id + ".")]
    if not got:
        raise UnknownSuite(f"unknown suite or case id {suite_id!r}")
    return got


def _report(env: SuiteEnv, case: IdentityCase, kappa: str = "symbolic",
            subs=None) -> SuiteReport:
    """Run one case: skipped with the reason, else pass or fail.

    A catalog residual is an element, specialized by ``subs`` if given; a
    nonzero one counts its terms.  An oracle residual is a bool; a false
    one counts one term and is witnessed by its label.
    """
    report = functools.partial(SuiteReport, id=case.id, anchor=case.anchor,
                               group=env.group.label, dim=env.dim,
                               kappa=kappa)
    if env.dim < case.min_dim:
        reason = f"needs dimension >= {case.min_dim}"
    elif case.orthonormal and not env.ctx.space.is_identity:
        reason = NEEDS_ORTHONORMAL
    else:
        t0 = time.perf_counter()
        residues = case.builder(env)
        reason = None if residues else NOTHING_TO_CHECK
    if reason is not None:
        return report(status="skipped", reason=reason)
    nonzero = 0
    witness = None
    for sub_label, r in residues:
        if case.oracle:
            terms, note = (0, None) if r else (1, sub_label)
        else:
            if subs is not None:
                r = r.substitute_kappa(subs)
            terms = len(r.terms)
            note = f"{sub_label}: {r.witness()}" if terms else None
        nonzero += terms
        witness = witness or note
    ms = (time.perf_counter() - t0) * 1000.0
    return report(status="pass" if nonzero == 0 else "fail",
                  residual_terms=nonzero, witness=witness, ms=round(ms, 3),
                  oracle=(nonzero == 0) if case.oracle else None)


def run_suite(env: SuiteEnv, suite_id: str = "all",
              kappa_values=None) -> list:
    """Evaluate the selected catalog cases and oracle checks to exact zero.

    ``kappa_values`` of None keeps the deformation parameters symbolic
    (the stronger check); otherwise every catalog residual is specialized
    at the given per-class values before the zero test.  The oracle reads
    its checks with symbolic parameters either way.
    """
    cases = _select(suite_id)
    kappa, subs = "symbolic", None
    if kappa_values is not None:
        if len(kappa_values) != env.ctx.num_classes:
            raise ValueError(
                f"group has {env.ctx.num_classes} reflection classes, "
                f"got {len(kappa_values)} deformation values")
        kappa = ",".join(str(v) for v in kappa_values)
        subs = {i: as_base(v) for i, v in enumerate(kappa_values)}
    reports = [_report(env, c, kappa, subs) for c in cases if not c.oracle]
    oracle = [c.id for c in cases if c.oracle]
    if oracle:
        reports += run_oracle_crosscheck(env, oracle)
    return sorted(reports, key=lambda r: r.id)


# ---- oracle cross-check -----------------------------------------------------------
#
# Identities that the engine proves to zero, written in the expression
# language and read a second time by ModuleEvaluator, which composes them
# as operators on the polynomial-tensor-spinor module.  The module exists
# for the identity Gram matrix, where beta(x_p) = y_p and gamma(x_p) = e_p.
# Each row is read at its first binding on the group.  Rows the catalog
# states too are the catalog's TemplateRows; the others sum over the
# group's reflections or coordinates or state a relation in another form.


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


_CONCORDANCE = "engine/module concordance"


def _oracle(name: str, min_dim: int, template):
    return name, TemplateRow(name, _CONCORDANCE, min_dim, (("", template),))


_ROWS = {row.id: row for row in TEMPLATE_ROWS}

ORACLE_ROWS = (
    _oracle("osp12re.FpFm", 1, "[X, D] - 2*H"),
    _oracle("osp12re.HFp", 1, "[H, X] - X"),
    _oracle("osp12re.FpFp", 1, "X^2 - 2*Ep"),
    _oracle("osp12re.EpEm", 1, "[Ep, Em] - H"),
    _oracle("osp12re.HEp", 1, "[H, Ep] - 2*Ep"),
    _oracle("osp12re.XEm", 1, "[X, Em] - D"),
    _oracle("rc.y1x1", 1, _commutation(1, 1)),
    _oracle("rc.y1x2", 2, _commutation(1, 2)),
    _oracle("l_Buv", 2, "[y1, x2] - [y2, x1]"),
    _oracle("e_Ogamma", 2, "[gamma(x1), O(x2)] - [y1, x2] + B(x1, x2)"),
    _oracle("l_Oug", 1, _reflection_sum),
    ("gensym.x1", _ROWS["gensym.lower_x1"]),
    ("scasimir.square", _ROWS["scasimir.square"]),
    ("centmember.X_O12", _ROWS["centmember.X.n2"]),
    ("centmember.D_O1", _ROWS["centmember.D.n1"]),
    _oracle("chirality.square", 1, "Gamma^2 - 1"),
    ("pin.rho_sq", _ROWS["pin.rho_involution"]),
    ("central.omega_rho", _ROWS["central.omega_pin"]),
    ("projector.cliffpair", _ROWS["projector.cliffpair"]),
    ("projector.reflection", _ROWS["projector.reflection"]),
)


def oracle_cases(mod: SpinorModule = None) -> list:
    """The oracle checks, as cases whose builders act on ``mod``.

    Every ORACLE_ROWS row, at its first binding, must be zero in the
    engine and annihilate all sampled vectors in the module; engine
    products must compose: act(a*b, v) = act(a, act(b, v)).  The first
    row plus one must be caught (harness self-test).  Seeds, the number
    and degree (at least 3) of the sampled vectors and the number of
    products come from the env's options.
    """
    def diverges(env, node) -> bool:
        """Is the expression nonzero on a sampled vector or in the engine?"""
        opts = env.options
        module_eval = ModuleEvaluator(mod)
        for i in range(opts.oracle_samples):
            vec = mod.random_vector(opts.seed + 7919 * i,
                                    max(opts.max_degree, 3))
            if not module_eval.act(node, vec).is_zero():
                return True
        return not module_eval.engine.eval_element(node).is_zero()

    def agrees(name, row, perturb=False):
        """The row's first binding must vanish in the module and in the
        engine; plus one (``perturb``), it must not."""
        def build(env):
            found = row.instances(env.group)
            if not found:
                return []
            node = found[0][1]
            if perturb:
                node = Bin("+", node, Num(1))
            return [(name, diverges(env, node) == perturb)]
        return build

    def products(env):
        opts = env.options
        rng = random.Random(opts.seed)
        for i in range(opts.oracle_products):
            a = random_element(env.ctx, rng, max_degree=2)
            b = random_element(env.ctx, rng, max_degree=2)
            vec = mod.random_vector(rng.randrange(10 ** 9),
                                    max(opts.max_degree, 3))
            if mod.act(a * b, vec) != mod.act(a, mod.act(b, vec)):
                return [(f"trial {i}", False)]
        return [("products", True)]

    first = ORACLE_ROWS[0][1]
    checks = [(f"oracle.{name}", _CONCORDANCE, row.min_dim, agrees(name, row))
              for name, row in ORACLE_ROWS]
    checks += [
        ("oracle.products", "module action is multiplicative", 1, products),
        ("oracle.mutation", "perturbed residual must be detected",
         first.min_dim, agrees("mutation", first, perturb=True))]
    return sorted((IdentityCase(*c, orthonormal=True, oracle=True)
                   for c in checks), key=lambda c: c.id)


def oracle_ids() -> list:
    return [c.id for c in oracle_cases()]


def run_oracle_crosscheck(env: SuiteEnv, ids=None) -> list:
    """Exact agreement between the engine and the concrete module: the
    reports of the oracle checks named in ``ids`` (all if None), on one
    module.  The module exists for the orthonormal configuration only, so
    on a general Gram matrix every check is skipped and nothing is
    evaluated."""
    mod = SpinorModule(env.ctx) if env.ctx.space.is_identity else None
    return [_report(env, c) for c in oracle_cases(mod)
            if ids is None or c.id in ids]


def make_env(spec, options: RunOptions = None) -> SuiteEnv:
    if isinstance(spec, ReflectionGroup):
        return SuiteEnv(spec, options)
    return SuiteEnv(parse_group_spec(spec), options)
