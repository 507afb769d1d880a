"""Identity catalog, suite runner, and the oracle cross-check harness.

Every verified statement is an IdentityCase: a stable dotted id, a short
human anchor, a minimum ambient dimension, and a builder producing a list of
(label, residual) pairs.  A case passes exactly when every residual is the
empty combination; the runner never compares against a tolerance, only
against structural zero.

Identities that the expression language of parser.py can state are rows
of TEMPLATE_ROWS: the defining relations of the osp realization,
membership and centrality of the elements O_A over index subsets A, the
covered reflections rho(s) over the reflections and their conjugation
action, the Scasimir identities, the pair- and triple-bracket formulas
and their corollaries on index patterns, the closed formulas and
recursions of O_A against the projector route, the antisymmetrized
bracket and slide laws, the Dunkl commutation laws, the structure
constants and adjoint actions of the auxiliary pairings, the projector
and generalized-symmetry laws, and the chirality and coordinate forms of
the generators.  A row holds templates over placeholders and the patterns
bound to them.  The rest, health.*, are Python builders: they draw seeded
random elements.

Every row holds for every Gram matrix B.  A row written on coordinates
takes its weights from the Gram rows when its text is written, through
the writers of forms.py, which leave a zero weight's term out, so under
the identity Gram it reads as the orthonormal statement and costs what
that does.

The oracle cross-check reads ORACLE_ROWS, 20 rows in the same language,
some of them catalog rows read at their first binding, twice: with the
engine Evaluator, and with the module evaluator of oracle.py, which
composes them as operators on the polynomial-tensor-exterior module.  Its
checks are IdentityCases too, with ids oracle.<name>; only how a result
is counted differs (one term on failure, witnessed by the check's name).

One routine, `_report`, runs every case.  The first dotted component of
an id names its suite; `run_suite` selects catalog cases and oracle checks
by one prefix rule (a suite, a case id, an id prefix such as
oracle.osp12re, or "all").  Cases whose dimension prerequisite fails and
cases with nothing to check on the group (a row whose every pattern names
a reflection the group lacks, or one whose root Context.rho cannot
normalise, or an index subset whose Gram matrix is singular) are reported
as skipped with the reason.
Reports are ordered by id regardless of execution order, and their
content is deterministic (the elapsed-time field aside) for fixed inputs
including the seed.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .core import ROOT_SCALE, Context, random_element, supercommutator
from .forms import (bracket, brackets, form_sum, gamma_square,
                    subset_squares)
from .geometry import permutation_sign
from .groups import ReflectionGroup, parse_group_spec
from .oracle import ModuleEvaluator, SpinorModule
from . import osp
from .osp import RELATIONS, b_form, XPLUS, XMINUS, GAMMA, _PARITY
from .parser import (Bin, Evaluator, Num, parse_expression,
                     parsed as _parsed, substitute)
from .scalars import BaseNumber, Scalar, as_base, as_scalar


# bound for perfbench/tracer.py, whose test checks it patches this name
p_plus = osp.p_plus


class RunOptions(NamedTuple):
    seed: int = 2024
    max_degree: int = 2


# The trial counts of the seeded health and oracle checks.
ASSOC_TRIALS = 40
JACOBI_TRIALS = 20
ROUNDTRIP_TRIALS = 20
ORACLE_SAMPLES = 20
ORACLE_PRODUCTS = 50


NOTHING_TO_CHECK = "nothing to check on this group"


class IdentityCase(NamedTuple):
    id: str
    anchor: str
    min_dim: int
    builder: Callable
    oracle: bool = False             # an engine/module check: the builder
                                     # returns (label, holds) pairs


class SuiteReport(NamedTuple):
    id: str
    anchor: str
    group: str
    dim: int
    kappa: str
    status: str                      # pass | fail | skipped | error
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
    """A group, its context, and the options of a run."""

    def __init__(self, group: ReflectionGroup, options: RunOptions = None):
        self.group = group
        self.ctx = Context(group)
        self.dim = group.dim
        self.options = options or RunOptions()


# ---- template cases ---------------------------------------------------------


class TemplateRow(NamedTuple):
    """Identities written once in the expression language of parser.py.

    The placeholders are bound, in order, to the comma-separated names of
    each pattern; without patterns they are bound to x1, x2, ... as far as
    the dimension goes.  The patterns may also be a function of the group
    (`_subsets`, `_reflections`), and so may the templates, or a template
    alone, returning its text.  A pattern or template that names a coordinate
    past the dimension or a reflection the group does not have, or covers
    as rho(sk) a reflection Context.rho cannot, is left out.  Once a and b
    are bound, a placeholder with h appended (uh, vh, ...) stands for the
    hatted covector a*B(b, u) - b*B(a, u).  Residuals are labelled by
    pattern and sub-label.
    """
    id: str
    anchor: str
    min_dim: int
    templates: object                # (sub-label, template) pairs, or a
                                     # function of the group returning them
    placeholders: str = "a b c u v w"
    patterns: object = ()            # (label, names) pairs, or a function
                                     # of the group returning them

    def residuals(self, env: SuiteEnv) -> list:
        """(label, residual) of every instance, evaluated as one batch, so
        a subexpression that several instances share is computed once."""
        instances = self.instances(env.group)
        values = Evaluator(env.ctx).eval_elements(
            [node for _, node in instances])
        return [(label, value)
                for (label, _), value in zip(instances, values)]

    def instances(self, group) -> list:
        """(label, AST) of every template at every binding that fits; a
        template that names no placeholder is its cached parse."""
        sources = [(slabel, src(group) if callable(src) else src)
                   for slabel, src in self.template_list(group)]
        return [(".".join(filter(None, (plabel, slabel))),
                 substitute(_parsed(src), binding)
                 if _names_placeholder(src, self.placeholders)
                 else _parsed(src))
                for plabel, binding in self._bindings(group)
                for slabel, src in sources if _fits(src, group)]

    def template_list(self, group) -> tuple:
        """The (sub-label, template) pairs of the row on the group."""
        if callable(self.templates):
            return self.templates(group)
        return self.templates

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
_COVERED = re.compile(r"\brho\(s(\d+)\)")


def _fits(text: str, group) -> bool:
    """Does the text name only coordinates and reflections of the group,
    and cover, as rho(sk), only reflections that Context.rho covers?"""
    refls = group.reflections
    limit = {"s": len(refls), "alpha": len(refls)}
    return all(int(k) <= limit.get(name, group.dim)
               for name, k in _INDEXED.findall(text)) and all(
        refls[int(k) - 1].root_norm in ROOT_SCALE
        for k in _COVERED.findall(text))


@functools.cache
def _names_placeholder(src: str, placeholders: str) -> bool:
    """Does the template's text name a placeholder or its hatted form?"""
    words = set(re.findall(r"\w+", src))
    return any(n in words or n + "h" in words for n in placeholders.split())


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


def _reflections(cap: int = None, covered: bool = False):
    """Patterns over reflections for the placeholders s and alpha: the
    first ``cap`` reflections sk, labelled sk, with their roots alphak;
    with ``covered``, the first ``cap`` that Context.rho covers, those whose
    squared root length has a square root in the scalar ring (ROOT_SCALE)."""
    return lambda group: tuple(
        (f"s{i + 1}", f"s{i + 1}, alpha{i + 1}")
        for i, r in enumerate(group.reflections)
        if not covered or r.root_norm in ROOT_SCALE)[:cap]


_NAMES = "a b c u v w".split()


def _o(n: int) -> str:
    """O of the first n subset placeholders."""
    return f"O({', '.join(_NAMES[:n])})"


def _antisym(*factors) -> str:
    """(1/n!) sum over the permutations sigma of the first n placeholders
    a, b, c, u, v, w of sgn(sigma) times the product of the factors, as
    template text.  A factor is a pair (text, arity) whose text has format
    slots for its arity indices; the factors take the permuted placeholders
    in order, so n is the sum of the arities."""
    n = sum(arity for _, arity in factors)
    text = ""
    for perm in itertools.permutations(range(n)):
        names = [_NAMES[i] for i in perm]
        parts = []
        for src, arity in factors:
            parts.append(src.format(*names[:arity]))
            names = names[arity:]
        sign = " + " if permutation_sign(perm) > 0 else " - "
        text += sign + "*".join(parts)
    return f"({text[3:]})/{math.factorial(n)}"


def _slots(fn: str, k: int) -> str:
    return f"{fn}({', '.join(['{}'] * k)})"


_GAMMA = ("gamma({})", 1)
_OF = ("Of({})", 1)
_ANGULAR = ("M({}, {})", 2)
# the closed forms of O of two and of three indices
_O_TWO = ("(M({0}, {1}) + (gamma({0})*gamma({1}) - B({0}, {1}))/2"
          " + Of({0})*gamma({1}) - Of({1})*gamma({0}))", 2)
_O_THREE = ("A(a, b, c) + M(b, c)*gamma(a) - M(a, c)*gamma(b)"
            " + M(a, b)*gamma(c) + Of(a)*A(b, c) - Of(b)*A(a, c)"
            " + Of(c)*A(a, b)")


def _routes(n: int, *extra) -> tuple:
    """O of the first n placeholders against each of its closed forms:
    ``first`` expands over the plain word, one-index elements and angular
    momenta, ``second`` trades the momenta for two-index elements; then
    the ``extra`` templates."""
    forms = ["Of(a)"] * 2
    if n > 1:
        word = f"A({', '.join(_NAMES[:n])})"
        run = (_GAMMA,) * (n - 2)
        one = _antisym(_OF, _GAMMA, *run)
        pairs = n * (n - 1) // 2
        forms = [f"{Fraction(n - 1, 2)}*{word} + {n}*{one}"
                 f" + {pairs}*{_antisym(_ANGULAR, *run)}",
                 f"({Fraction(-(n - 1) * (n - 2), 4)})*{word}"
                 f" - {n * (n - 2)}*{one} + {pairs}*{_antisym(_O_TWO, *run)}"]
    return tuple((label, f"{_o(n)} - ({form})")
                 for label, form in zip(("first", "second"), forms)) + extra


def _recursion(n: int, with_o: bool, terms) -> str:
    """O_A, if ``with_o``, plus the coefficient-weighted antisymmetrized
    products of O's of the given arities."""
    parts = [f"({coef})*{_antisym(*((_slots('O', k), k) for k in arities))}"
             for coef, arities in terms]
    return " + ".join(([_o(n)] if with_o else []) + parts)


def _slide(n: int, part) -> tuple:
    """The sub-labelled differences of the antisymmetrized words with
    ``part`` in consecutive slots of a run of Clifford generators."""
    k = part[1]
    shapes = [_antisym(*(_GAMMA,) * pos, part, *(_GAMMA,) * (n - pos - k))
              for pos in range(n - k + 1)]
    return tuple((f"slot{i}", f"{a} - {b}")
                 for i, (a, b) in enumerate(zip(shapes, shapes[1:])))


def _additivity(group) -> str:
    b = "s1*e2" if group.dim > 1 and group.reflections else "1"
    return f"Pp(x1*y1 + e1 + {b}) - Pp(x1*y1 + e1) - Pp({b})"


def _samples(group) -> list:
    """Up to three basis covectors, then x1 + x2 in dimension 2 on."""
    covs = [f"x{p + 1}" for p in range(min(group.dim, 3))]
    return covs + ["x1 + x2"] if group.dim > 1 else covs


def _sample_patterns(prefix: str):
    return lambda group: tuple((f"{prefix}{i}", u)
                               for i, u in enumerate(_samples(group)))


def _sample_pairs(group) -> tuple:
    return tuple((f"{i}{j}", f"{u}, {v}") for (i, u), (j, v)
                 in itertools.product(enumerate(_samples(group)), repeat=2))


def _basis_triples(group) -> tuple:
    covs = [f"x{p + 1}" for p in range(min(group.dim, 3))]
    return tuple(("", ", ".join(t))
                 for t in itertools.product(covs, repeat=3))


_PAIRS = (("pair0", "x1, x2"), ("pair1", "x1, x1 + x2"))

_RECURSIONS = (
    ("three_n3", "three-index recursion: the two antisymmetrized "
     "products balance", 3, 4, False, ((-4, (1, 2)), (4, (2, 1)))),
    ("three_n4", "four-index element from one- and two-index products",
     4, 2, True, ((8, (1, 3)), (-6, (2, 2)))),
    ("closed_n4", "four-index closed form via pair products", 4, 2, True,
     ((-6, (2, 2)), (8, (3, 1)))),
    ("closed_n5", "five-index closed form via mixed products", 5, 1, True,
     ((-4, (3, 2)), (-48, (3, 1, 1)), (36, (2, 2, 1)))),
)


def _bracket_vanishing(k: int, n: int) -> TemplateRow:
    word = "one" if k == 1 else "two"
    return TemplateRow(
        f"p_OujOun.{'two.' if k == 2 else ''}n{n}",
        f"antisymmetrized bracket of {word}-index against rest vanishes", n,
        (("", _antisym((f"[{_slots('O', k)}, {_slots('O', n - k)}]", n))),),
        patterns=_subsets(n, 2 if n >= 4 else 4))


_KAPPA_FORM = "(B({0}, {1}) + psi({0}, {1}))"
_M12 = "M(x1, x2)"

# the rows restating cases that precede, and follow, the other rows in
# the catalog's order
_FIRST_ROWS = (
    *(TemplateRow(f"osp12re.{name}", anchor, 1, templates)
      for name, anchor, templates in RELATIONS),
    TemplateRow(
        "projector.membership",
        "projected even-centralizer samples supercommute with the odd pair", 2,
        tuple((f"{g}.{n}", f"[{g}, Pp({a})]")
              for n, a in (("M12", _M12), ("g", "s1"), ("e12", "e1*e2"),
                           ("mix", f"{_M12}*e1*e2"))
              for g in "XD")),
    TemplateRow(
        "projector.series",
        "the series projector lands in the even-subalgebra centralizer", 2,
        (("fix.one", "Palpha(1) - 1"), ("fix.M12", f"Palpha({_M12}) - {_M12}"))
        + tuple((f"{g}.{n}", f"[{g}, Palpha({a})]")
                for n, a in (("one", "1"), ("M12", _M12), ("MM", f"{_M12}^2"),
                             ("wt0", "x1*y1 - x2*y2"))
                for g in ("Ep", "Em", "H"))),
    TemplateRow("projector.additivity", "the projector is additive", 1,
                (("sum", _additivity),)),
    TemplateRow(
        "projector.angular",
        "projected angular momentum: two-index element plus one-index bracket",
        2, (("", "Pp(M(u, v)) - (2*O(u, v) + 2*Of(u)*Of(v)"
                 " - 2*Of(v)*Of(u))"),), "u v", _PAIRS),
    TemplateRow(
        "projector.gammav",
        "a Clifford generator projects to minus twice its one-index element",
        1, (("", "Pp(gamma(u)) + 2*Of(u)"),), "u", _sample_patterns("v")),
    *(TemplateRow(f"routes.n{n}", "projector route equals both explicit "
                  "routes", n, _routes(n), patterns=_subsets(n, 4))
      for n in (1, 2, 3, 4)),
    TemplateRow(
        "routes.nonorth2", "route agreement on a non-orthogonal pair", 2,
        _routes(2, ("two", f"O(a, b) - {_O_TWO[0].format('a', 'b')}")),
        patterns=(("", "x1, x1 + x2"),)),
    TemplateRow(
        "routes.nonorth3", "route agreement on a non-orthogonal triple", 3,
        _routes(3, ("three", f"O(a, b, c) - ({_O_THREE})")),
        patterns=(("", "x1, x2, x1 + x3"),)),
    TemplateRow("routes.pm", "both projector signs define the same elements",
                2, (("", "O(a, b) + Pm(A(a, b))/2"),),
                patterns=_subsets(2, 3)),
    TemplateRow("routes.triple",
                "three-index closed form matches the projector route", 3,
                (("", f"O(a, b, c) - ({_O_THREE})"),),
                patterns=_subsets(3, 3)),
    *(TemplateRow(f"recursion.{name}", anchor, n,
                  (("", _recursion(n, with_o, terms)),),
                  patterns=_subsets(n, cap))
      for name, anchor, n, cap, with_o, terms in _RECURSIONS),
    *(_bracket_vanishing(1, n) for n in (2, 3, 4, 5)),
    *(_bracket_vanishing(2, n) for n in (3, 4, 5)),
)

_LAST_ROWS = (
    TemplateRow(
        "p_bbH", "bracket of angular momenta closes with the deformed form "
        "as coefficients", 2,
        (("", "[M(u, v), M(w, z)] - ("
              f"M(v, w)*{_KAPPA_FORM.format('u', 'z')}"
              f" - M(u, w)*{_KAPPA_FORM.format('v', 'z')}"
              f" - M(v, z)*{_KAPPA_FORM.format('u', 'w')}"
              f" + M(u, z)*{_KAPPA_FORM.format('v', 'w')})"),),
        "u v w z",
        (("p0", "x1, x2, x1, x2"), ("p1", "x1, x2, x2, x3"),
         ("p2", "x1, x2, x3, x1"), ("p3", "x1, x1 + x2, x2, x3"))),
    TemplateRow(
        "pin.reflection_sum", "pairing one-index elements against Clifford "
        "generators gives the class-sum element", 1,
        (("left", form_sum("Of(x{p})*gamma(x{q})", "{sum} - OmegaKappa")),
         ("right", form_sum("gamma(x{p})*Of(x{q})", "{sum} - OmegaKappa")))),
    TemplateRow(
        "pin.commutator_form",
        "one-index elements from the lowering-pair commutator", 1,
        (("", "([D, x(u)] - gamma(u))/2 - Of(u)"),), "u",
        _sample_patterns("u")),
    TemplateRow(
        "pin.cross_anticomm", "Clifford generators against one-index "
        "elements close on the deformed form", 2,
        (("a", "[gamma(u), Of(v)] - ([beta(u), x(v)] - B(u, v))"),
         ("b", "[gamma(u), Of(v)] - [gamma(v), Of(u)]")), "u v",
        _sample_pairs),
    *(TemplateRow(f"pin.slide_{word}.n{n}",
                  f"{word}-index elements slide through antisymmetrized words",
                  n, _slide(n, part))
      for word, part, ns in (("one", _OF, (2, 3, 4)),
                             ("two", (_slots("O", 2), 2), (3, 4)))
      for n in ns),
    TemplateRow(
        "hk.symmetric_bracket",
        "the mixed bracket is symmetric under the involution", 2,
        (("c", "[beta(u), x(v)] - [beta(v), x(u)]"),
         ("v", "[x(u), beta(v)] - [x(v), beta(u)]")), "u v", _sample_pairs),
    TemplateRow(
        "hk.deformed_form",
        "the mixed bracket equals the form plus the reflection sum", 2,
        (("", "[beta(u), x(v)] - B(u, v) - psi(u, v)"),), "u v",
        _sample_pairs),
    TemplateRow(
        "hk.double_bracket",
        "iterated mixed brackets are symmetric in the outer slots", 2,
        (("a", "[[x(u), beta(v)], beta(w)] - [[x(u), beta(w)], beta(v)]"),
         ("b", "[[x(u), beta(v)], x(w)] - [[x(w), beta(v)], x(u)]")),
        "u v w", _basis_triples),
    TemplateRow(
        "hk.angular_forms",
        "all four displayed forms of the angular momentum coincide", 2,
        (("rev", "M(u, v) - (beta(v)*x(u) - beta(u)*x(v))"),
         ("half", "M(u, v) - (x(u)*beta(v) - beta(u)*x(v) - x(v)*beta(u)"
                  " + beta(v)*x(u))/2")), "u v", _PAIRS),
)

# The pairing of two auxiliary directions in the osp names: it is
# symmetric, and the odd direction pairs with itself to zero (bwz.odd_self).
_PAIRING = {(XPLUS, XPLUS): "2*Ep", (XPLUS, XMINUS): "H", (XPLUS, GAMMA): "X",
            (XMINUS, XMINUS): "(-2)*Em", (XMINUS, GAMMA): "D",
            (GAMMA, GAMMA): "0"}
_DIRECTIONS = (XPLUS, XMINUS, GAMMA)
# the tensor of a covector u in each auxiliary direction
_SLOT = {XPLUS: "x(u)", XMINUS: "beta(u)", GAMMA: "gamma(u)"}
# a covector's image under the reflection with root alpha
_REFLECT = "({0} - 2*B(alpha, {0})/B(alpha, alpha)*alpha)"


def _pair(w: str, z: str) -> str:
    return f"({_PAIRING.get((w, z)) or _PAIRING[z, w]})"


def _combination(*terms) -> str:
    """The (coefficient, text) pairs summed as template text."""
    return " + ".join(f"({c})*{t}" for c, t in terms if c) or "0"


def _structure(z1: str, z2: str, z3: str, z4: str) -> str:
    """The superbracket of the pairings (z1, z2) and (z3, z4) against its
    expansion with the auxiliary form as structure constants."""
    s23 = -1 if _PARITY[z2] and _PARITY[z3] else 1
    s24 = -1 if _PARITY[z2] and _PARITY[z4] else 1
    s123 = -1 if (_PARITY[z1] ^ _PARITY[z2]) and _PARITY[z3] else 1
    rhs = _combination(
        (b_form(z2, z3), _pair(z1, z4)), (b_form(z1, z3) * s23, _pair(z2, z4)),
        (b_form(z2, z4) * s123, _pair(z3, z1)),
        (b_form(z1, z4) * s24 * s123, _pair(z3, z2)))
    return f"[{_pair(z1, z2)}, {_pair(z3, z4)}] - ({rhs})"


def _adjoint(xi1: str, xi2: str, eta: str) -> str:
    """The pairing (xi1, xi2) acting on the eta tensor of u through the
    auxiliary form; the odd direction in the second slot brings in the
    one-index element."""
    second = "(gamma(u) + 2*Of(u))" if xi2 == GAMMA else _SLOT[xi2]
    return (f"[{_pair(xi1, xi2)}, {_SLOT[eta]}] - ("
            + _combination((b_form(xi2, eta), _SLOT[xi1]),
                           (b_form(xi1, eta), second)) + ")")


def _permuted(n: int) -> str:
    """rho(s) times O of x1, ..., xn against O of their reflected images
    times rho(s), with the parity sign."""
    covs = [f"x{p + 1}" for p in range(n)]
    images = ", ".join(_REFLECT.format(u) for u in covs)
    return f"rho(s)*O({', '.join(covs)}) - ({(-1) ** n})*O({images})*rho(s)"


_SAMPLE_SUMS = (("0", "x1"), ("1", "x1 + x2"))
_SU = _REFLECT.format("u")

_PAIRING_ROWS = (
    TemplateRow(
        "bwz.structure", "pairings close under the superbracket with the "
        "auxiliary form as structure constants", 1,
        tuple(("".join(z), _structure(*z))
              for z in itertools.product(_DIRECTIONS, repeat=4))),
    TemplateRow(
        "bwz.adjoint_even",
        "even pairings act on generators through the auxiliary form", 1,
        tuple((xi1 + xi2 + eta, _adjoint(xi1, xi2, eta))
              for xi1, xi2 in itertools.product(_DIRECTIONS[:2], repeat=2)
              for eta in _DIRECTIONS), "u", _SAMPLE_SUMS),
    TemplateRow(
        "bwz.adjoint_odd",
        "odd pairings act on generators with a one-index correction", 1,
        tuple((xi1 + eta, _adjoint(xi1, GAMMA, eta))
              for xi1 in _DIRECTIONS[:2] for eta in _DIRECTIONS),
        "u", _SAMPLE_SUMS),
    TemplateRow(
        "bwz.vector_laws",
        "restricted even pairings raise, lower, and grade generators", 1,
        (("low", _adjoint(XMINUS, XMINUS, XPLUS)),
         ("high", _adjoint(XPLUS, XPLUS, XMINUS)),
         ("grade+", _adjoint(XPLUS, XMINUS, XPLUS)),
         ("grade-", _adjoint(XPLUS, XMINUS, XMINUS))),
        "u", tuple((str(p), f"x{p + 1}") for p in range(3))),
    TemplateRow(
        "bwz.odd_self", "the odd direction pairs with itself to zero", 1,
        (("gg", form_sum("gamma(x{p})*gamma(x{q})", "{sum} - {d}")),)),
    TemplateRow(
        "pin.rho_conj", "conjugation by a covered reflection acts by the "
        "signed geometric action", 1,
        (("x", f"rho(s)*x(u)*rho(s) - x({_SU})"),
         ("beta", f"rho(s)*beta(u)*rho(s) - beta({_SU})"),
         ("gamma", f"rho(s)*gamma(u)*rho(s) + gamma({_SU})")),
        "s alpha u", lambda group: tuple(
            (f"{label}.x{p + 1}", f"{names}, x{p + 1}")
            for label, names in _reflections(4, covered=True)(group)
            for p in range(group.dim))),
    TemplateRow(
        "pin.group_action",
        "covered reflections permute projected elements with a parity sign", 2,
        tuple((str(tuple(range(n))), _permuted(n)) for n in (1, 2, 3)),
        "s alpha", _reflections(3, covered=True)),
    TemplateRow(
        "pin.invariant_pairs",
        "paired generators supercommute with the covered group", 1,
        # one bracket per nonzero pairing; the pairing is symmetric
        tuple((w + z, f"[{_pair(w, z)}, rho(s)]") for w, z in _PAIRING
              if _PAIRING[w, z] != "0"),
        "s alpha", _reflections(3, covered=True)),
)


_COORDINATE_ROWS = (
    TemplateRow(
        "pin.chirality",
        "volume element squares to one and (anti)commutes by parity", 1,
        (("square", gamma_square), ("parity", "{Gamma, X}"))),
    TemplateRow(
        "bwz.generator_forms",
        "pairings reduce to the coordinate sums in the orthonormal "
        "configuration", 1,
        (("X", form_sum("x{p}*e{q}", "X - ({sum})")),
         ("D", form_sum("y{p}*e{q}", "D - ({sum})", "delta")),
         ("H", form_sum("x{p}*y{q}", "H - ({sum} + {d}/2 + OmegaKappa)",
                        "delta")),
         ("Ep", form_sum("x{p}*x{q}", "Ep - ({sum})/2")),
         ("Em", form_sum("y{p}*y{q}", "Em + ({sum})/2", "gram")))),
)

_CENTRAL_SAMPLES = (("one", "1"), ("O1", "O(x1)"), ("O12", "O(x1, x2)"),
                    ("invariant", "Omega"), ("rho", "rho(s1)"),
                    ("mixed", "O(x1, x2)*rho(s1)"))
_FACTOR = "(e1 + x1*y2)"

_GENSYM_PATTERNS = (("x1", "x1"), ("x2", "x2"), ("x1+x2", "x1 + x2"))

_PAIR_INDICES = (((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 2), (1, 2)),
                 ((0, 1), (2, 3)))
_PAIR_PATTERNS = tuple(_ix(*pair) for pair in _PAIR_INDICES)

_COROLLARY = (
    ("OijOki", "pair bracket with one repeated index", 3,
     bracket((0, 1), (0, 2))),
    ("OijOkl_half", "disjoint pair bracket, halved four-term form", 4,
     bracket((0, 1), (2, 3), half=True)),
    ("OijOkl", "disjoint pair bracket, two-term form", 4,
     bracket((0, 1), (2, 3))),
    ("OjkOlmn", "pair against disjoint triple", 5,
     bracket((0, 1), (2, 3, 4))),
    ("OjkOjlm", "pair against triple sharing one index", 4,
     bracket((0, 1), (0, 2, 3))),
    ("OjkOjkl", "pair against triple sharing both indices", 3,
     bracket((0, 1), (0, 1, 2))),
    ("e25", "triples sharing two indices", 4,
     bracket((0, 1, 2), (0, 1, 3))),
    ("e26", "triples sharing one index", 5,
     bracket((0, 1, 2), (0, 3, 4))),
    ("e27", "disjoint triples", 6,
     bracket((0, 1, 2), (3, 4, 5))),
    ("OjkOjklm", "pair against quadruple sharing both indices", 4,
     bracket((0, 1), (0, 1, 2, 3))),
    ("OjkOjlmn", "pair against quadruple sharing one index", 5,
     bracket((0, 1), (0, 2, 3, 4))),
    ("OijOklmn", "pair against disjoint quadruple", 6,
     bracket((0, 1), (2, 3, 4, 5))),
    ("OjklOjkm", "product of triples sharing two indices", 4,
     bracket((0, 1, 2), (0, 1, 3), "{}")),
)

_LOWER_ANCHOR = ("the lowering generator intertwines the symmetry element up "
                 "to a shift")
_LOWER = (("", "[D, R(u)] + gamma(u)*D"),)

TEMPLATE_ROWS = _FIRST_ROWS + (
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
              " - O(u, v) + B(u, v)/2"),), "u v", _PAIRS),
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
        brackets(_PAIR_INDICES, half=True)),
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
        brackets((((0, 1), (0, 2, 3, 4)), ((0, 1), (1, 2, 3, 4)),
                   ((0, 1), (2, 3, 4, 5))))),
    TemplateRow(
        "p_O3O3",
        "triple bracket against a triple under the diagonal pairing pattern",
        6, brackets((((0, 1, 2), (3, 4, 5)), ((0, 1, 2), (0, 1, 2)),
                      ((0, 1, 2), (0, 3, 4)), ((0, 1, 2), (0, 1, 5))))),
    *(TemplateRow(f"p_OA2.n{n}", "square of a subset element from lower squares",
                  n, subset_squares(n, 4, "{o}*{o} - {rhs}"))
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
        (("", "[Omega, rho(s)]"),), "s alpha", _reflections(covered=True)),
    *(TemplateRow(f"central.OD_{word}",
                  "the top element (anti)commutes per the dimension parity",
                  max(n, 2), (("", src),), patterns=_subsets(n, 4, *extra))
      for n, word, src, extra in (
          (1, "one", "{Otop, O(a)}", (("nonorth", "x1 + x2"),)),
          (2, "two", "[Otop, O(a, b)]", ()),
          (3, "three", "{Otop, O(a, b, c)}", ()))),
    TemplateRow(
        "pin.rho_involution", "covered reflections square to one", 1,
        (("", "rho(s)*rho(s) - 1"),), "s alpha",
        _reflections(covered=True)),
) + tuple(TemplateRow(f"corollary.{name}", anchor, min_dim, (("main", src),))
          for name, anchor, min_dim, src in _COROLLARY) + (
    # twice p_OA2.n3: the bracket of an odd element with itself
    TemplateRow("corollary.e24", "square of a triple element", 3,
                subset_squares(3, 1, "[{o}, {o}] - 2*{rhs}")),
) + _LAST_ROWS + _PAIRING_ROWS + _COORDINATE_ROWS


def _case(cases, cid, anchor, min_dim):
    def register(fn):
        cases.append(IdentityCase(cid, anchor, min_dim, fn))
        return fn
    return register


def build_catalog() -> list:
    """The full identity catalog; order fixes the report order within ties."""
    sc = supercommutator
    cases: list = [IdentityCase(row.id, row.anchor, row.min_dim,
                                row.residuals)
                   for row in TEMPLATE_ROWS]

    # ---- engine health ---------------------------------------------------------------
    @_case(cases, "health.assoc",
           "associativity on seeded random triples (confluence surrogate)", 1)
    def _(env):
        rng = random.Random(env.options.seed)
        out = []
        for i in range(ASSOC_TRIALS):
            a = random_element(env.ctx, rng, env.options.max_degree)
            b = random_element(env.ctx, rng, env.options.max_degree)
            c = random_element(env.ctx, rng, env.options.max_degree)
            out.append((f"t{i}", (a * b) * c - a * (b * c)))
        return out

    @_case(cases, "health.jacobi",
           "graded Jacobi identity on homogeneous seeded triples", 1)
    def _(env):
        return [(f"t{i}", sc(a, sc(b, c)) - sc(sc(a, b), c)
                 - sc(b, sc(a, c)) * (-1 if a.parity() and b.parity() else 1))
                for i, a, b, c in _homogeneous(env, 1, 3)]

    @_case(cases, "health.skew",
           "graded skew-symmetry on homogeneous seeded pairs", 1)
    def _(env):
        return [(f"t{i}", sc(a, b)
                 + sc(b, a) * (-1 if a.parity() and b.parity() else 1))
                for i, a, b in _homogeneous(env, 2, 2)]

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
        for i in range(ROUNDTRIP_TRIALS):
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
            out.append((f"t{i}", env.ctx.scalar_elem(diff)))
        (_, resid), = _ROWS["osp12re.FpFm"].residuals(env)
        for i, vset in enumerate((vals, {c: BaseNumber(-2) for c in
                                         range(env.ctx.num_classes)})):
            out.append((f"resid{i}", resid.substitute_kappa(vset)))
        return out

    return cases


def _homogeneous(env: SuiteEnv, offset: int, draws: int):
    """The trial number and ``draws`` seeded random elements, the first two
    made homogeneous with parities alternating by trial; a draw where
    either of them vanishes is drawn again under the same trial number."""
    opts = env.options
    rng = random.Random(opts.seed + offset)
    done = 0
    while done < JACOBI_TRIALS:
        a, b, *rest = [random_element(env.ctx, rng, opts.max_degree)
                       for _ in range(draws)]
        a = a.odd_part() if done % 2 else a.even_part()
        b = b.even_part() if done % 3 else b.odd_part()
        if not (a.is_zero() or b.is_zero()):
            yield done, a, b, *rest
            done += 1


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
    """Run one case: skipped with the reason, else pass or fail, or error
    when building or reading its residuals raises.

    A catalog residual is an element, specialized by ``subs`` if given; a
    nonzero one counts its terms.  An oracle residual is a bool; a false
    one counts one term and is witnessed by its label.  An error report
    carries "<Type>: <text>" of the exception as its reason, and the run
    goes on with the next case.
    """
    report = functools.partial(SuiteReport, id=case.id, anchor=case.anchor,
                               group=env.group.label, dim=env.dim,
                               kappa=kappa)
    if env.dim < case.min_dim:
        return report(status="skipped",
                      reason=f"needs dimension >= {case.min_dim}")
    t0 = time.perf_counter()
    try:
        residues = case.builder(env)
        if not residues:
            return report(status="skipped", reason=NOTHING_TO_CHECK)
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
    except Exception as exc:
        # the boundary of one case: the report names the error and the
        # remaining cases still run
        return report(status="error", reason=f"{type(exc).__name__}: {exc}",
                      ms=_ms_since(t0))
    return report(status="pass" if nonzero == 0 else "fail",
                  residual_terms=nonzero, witness=witness, ms=_ms_since(t0),
                  oracle=(nonzero == 0) if case.oracle else None)


def _ms_since(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


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
# as operators on the polynomial-tensor-exterior module, which exists for
# every Gram matrix.  Each row is read at its first binding on the group.
# Rows the catalog states too are the catalog's TemplateRows; the others
# sum over the group's reflections or coordinates or state a relation in
# another form.
# Each osp relation is read at its first half.


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


_CONCORDANCE = "engine/module concordance"


def _oracle(name: str, min_dim: int, template):
    return name, TemplateRow(name, _CONCORDANCE, min_dim, (("", template),))


_ROWS = {row.id: row for row in TEMPLATE_ROWS}

ORACLE_ROWS = (
    *((f"osp12re.{halves[0][0]}", _ROWS[f"osp12re.{name}"])
      for name, _, halves in RELATIONS),
    _oracle("rc.y1x1", 1, _commutation(1, 1)),
    _oracle("rc.y1x2", 2, _commutation(1, 2)),
    _oracle("l_Buv", 2, "[beta(x1), x2] - [beta(x2), x1]"),
    _oracle("e_Ogamma", 2,
            "[gamma(x1), O(x2)] - [beta(x1), x2] + B(x1, x2)"),
    _oracle("l_Oug", 1, form_sum("O(x{p})*gamma(x{q})", "{sum} - OmegaKappa")),
    ("gensym.x1", _ROWS["gensym.lower_x1"]),
    ("scasimir.square", _ROWS["scasimir.square"]),
    ("centmember.X_O12", _ROWS["centmember.X.n2"]),
    ("centmember.D_O1", _ROWS["centmember.D.n1"]),
    # Gamma squares to det B, as in pin.chirality
    _oracle("chirality.square", 1, gamma_square),
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
    row plus one must be caught (harness self-test).  Seeds and the degree
    (at least 3) of the sampled vectors come from the env's options, and
    ``ORACLE_SAMPLES`` vectors and ``ORACLE_PRODUCTS`` products are
    drawn.  The sampled vectors are drawn once, on the first row, and
    every row acts on the same ones, through one ModuleEvaluator built
    with them, so the rows share its leaf values and node images.
    """
    samples = []
    module_eval = None

    def diverges(env, node) -> bool:
        """Is the expression nonzero on a sampled vector or in the engine?"""
        nonlocal module_eval
        if module_eval is None:
            opts = env.options
            samples.extend(mod.random_vector(opts.seed + 7919 * i,
                                             max(opts.max_degree, 3))
                           for i in range(ORACLE_SAMPLES))
            module_eval = ModuleEvaluator(mod)
        for vec in samples:
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
        for i in range(ORACLE_PRODUCTS):
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
    return sorted((IdentityCase(*c, oracle=True) for c in checks),
                  key=lambda c: c.id)


def oracle_ids() -> list:
    return [c.id for c in oracle_cases()]


def run_oracle_crosscheck(env: SuiteEnv, ids=None) -> list:
    """Exact agreement between the engine and the concrete module: the
    reports of the oracle checks named in ``ids`` (all if None), on one
    module, under any Gram matrix."""
    mod = SpinorModule(env.ctx)
    return [_report(env, c) for c in oracle_cases(mod)
            if ids is None or c.id in ids]


def make_env(spec, options: RunOptions = None) -> SuiteEnv:
    if isinstance(spec, ReflectionGroup):
        return SuiteEnv(spec, options)
    return SuiteEnv(parse_group_spec(spec), options)
