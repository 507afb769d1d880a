"""Expression language for elements of the engine's algebra.

Grammar (standard precedence, carets bind tightest, so -y^2 is -(y^2)):

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?
    atom    :=  NUMBER | NAME | NAME '(' expr (',' expr)* ')'
             |  '(' expr ')' | '[' expr ',' expr ']' | '{' expr ',' expr '}'

An exponent is a nonnegative integer literal, and a power is taken by
squaring and multiplying.  A product's operands must keep every x and y
exponent below 2^27 (lower past dimension 16, see core.exponent_bits); a
product with a larger one raises OverflowError, exit 2 in the CLI.

Square brackets are the graded commutator, braces the graded
anticommutator; both are atoms.  Call arguments are evaluated in covector
mode for the index-taking operations and for the form B(u, v), and in
element mode for the projector-style maps (Pp, Pm, Palpha, Qp, Qm).  The
index-taking operations are

    O(u, ...)   the projected element -P(antisymmetrized word)/2
    A(u, ...)   the antisymmetrized Clifford word
    M(u, v)     the angular momentum u beta(v) - v beta(u)
    R(u)        the generalized symmetry (H - 1) gamma(u) - X beta(u)
    gamma(u)    the Clifford image of u
    Of(u)       the one-index element of u, from its reflection sum
    x(u)        u itself, a degree-one element
    beta(u)     the vector beta(u), a degree-one element
    psi(u, v)   the group-algebra part of the deformed form

B(u, v) is the symmetric form on two covectors, a scalar that may stand
wherever a scalar may, so O(x1*B(x2, x3) - x2*B(x1, x3), x3) and
B(x1, x2)/2 both read.  A covector reflected in the root alpha reads
u - 2*B(alpha, u)/B(alpha, alpha)*alpha.  The canonical printer of
elements emits only this grammar, so print-then-parse is the identity on
values.

DEFINITIONS writes each element of the realization and its
supercentralizer once in this language: the names X, D, H, Ep, Em, Fp,
Fm, Casimir, Scasimir, Omega, Otop, Gamma, OmegaKappa and the calls M,
R, Pm, Qp, Qm, psi.  Each holds for every Gram matrix: a sum over
coordinates is weighted by the form (`forms.form_sum`, `forms.omega`),
and a sum over reflections (`forms.reflection_sum`) reads the form on
the roots.  A name is evaluated once per context (the osp names by
`osp.build_osp`, which checks the relations first); a call binds its
placeholders to its evaluated arguments for that call only, so
Pm(R(x1)) reads.  The atoms below the table are the routines O, A, Pp,
Palpha, gamma, Of, x, beta, rho and B.

Names are read by mode.  An indexed name is a prefix and an ASCII
index, and INDEXED_NAMES gives each prefix its range on the group, which
`index_of` checks for every reader:

    element mode    x*, y*, e*, s*, g*; the names of DEFINITIONS; the
                    scalars i, sqrt2, k*
    covector mode   x*, zp*, zm*, z0 (odd dimension), alpha*; the same
                    scalars as coefficients

Every other name is unknown to the evaluator, so `substitute` can bind
such names (placeholders like a, b, u) to parsed covectors before a
template is evaluated.

A covector has no single element image (it may stand for x, for y through
beta, or for gamma), so zp*, zm*, z0 and alpha* in element position raise
EvalError; gamma(zp1) names the Clifford image explicitly, x(zp1) the
degree-one element and beta(zp1) the vector.

An Evaluator computes one expression with `eval_element`, which memoizes
nothing and hashes no node, or a batch with `eval_elements`: there each
composite subexpression that the batch requests more than once is
computed once and held until its last use.

The AST nodes (Num, Name, Call, Neg, Bin, Bracket) are NamedTuples, so
the tables keyed by nodes (a batch's shared values, the oracle's
``ModuleEvaluator``) hash and compare them in C.  Tuple equality does not
look at the class, yet no two node types compare equal: Call has two
fields, Bin and Bracket three, the others one; Num holds an int, Name a
str and Neg a node; and a Bin's operator symbol is never a Bracket's kind,
"super" or "anti".
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .centralizer import o_proj
from .core import (Context, Element, anticommutator, antisymmetrize,
                   supercommutator)
from .forms import form_sum, omega, reflection_sum
from .geometry import Covector, beta, bilinear_B, witt_basis
from .osp import GENERATORS, build_osp, p_alpha, p_plus
from .scalars import BN_I, BN_SQRT2, SC_ZERO, Scalar, as_scalar, power


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalError(ValueError):
    pass


class Num(NamedTuple):
    value: int


class Name(NamedTuple):
    ident: str


class Call(NamedTuple):
    fn: str
    args: tuple


class Neg(NamedTuple):
    arg: object


class Bin(NamedTuple):
    op: str
    left: object
    right: object


class Bracket(NamedTuple):
    kind: str       # "super" or "anti"
    left: object
    right: object


_PUNCT = "+-*/^()[]{},"
_DIGITS = "0123456789"      # ASCII only: str.isdigit also takes '²' and '١'


def _tokenize(src: str):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            toks.append(("NUM", int(src[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("NAME", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("EOF", None, line, col))
    return toks


class _Parser:
    def __init__(self, src):
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, value):
        kind, val, line, col = self.next()
        if kind != "OP" or val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", line, col)

    def parse(self):
        node = self.expr()
        kind, val, line, col = self.peek()
        if kind != "EOF":
            raise ParseError(f"unexpected trailing input {val!r}", line, col)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "OP" and val in "+-":
                self.next()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _, _ = self.peek()
            if kind == "OP" and val in "*/":
                self.next()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _, _ = self.peek()
        if kind == "OP" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _, _ = self.peek()
        if kind == "OP" and val == "^":
            self.next()
            return Bin("^", node, self.unary())
        return node

    def atom(self):
        kind, val, line, col = self.next()
        if kind == "EOF":
            raise ParseError("unexpected end of input", line, col)
        if kind == "NUM":
            return Num(val)
        if kind == "NAME":
            pk, pv, _, _ = self.peek()
            if pk == "OP" and pv == "(":
                self.next()
                args = [self.expr()]
                while True:
                    k2, v2, l2, c2 = self.next()
                    if k2 == "OP" and v2 == ",":
                        args.append(self.expr())
                    elif k2 == "OP" and v2 == ")":
                        break
                    else:
                        raise ParseError("expected ',' or ')'", l2, c2)
                return Call(val, tuple(args))
            return Name(val)
        if kind == "OP" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "OP" and val in "[{":
            closing = "]" if val == "[" else "}"
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect(closing)
            return Bracket("super" if val == "[" else "anti", left, right)
        raise ParseError(f"unexpected token {val!r}", line, col)


def parse_expression(src: str):
    """Parse source text to an AST; raises ParseError with position, also
    when the nesting is deeper than the interpreter's recursion limit."""
    parser = _Parser(src)
    try:
        return parser.parse()
    except RecursionError:
        _, _, line, col = parser.toks[min(parser.pos, len(parser.toks) - 1)]
        raise ParseError("expression nested too deeply", line, col) from None


def substitute(node, bindings: dict):
    """The AST with every Name whose identifier is a key of ``bindings``
    replaced by the AST bound to it."""
    if isinstance(node, Name):
        return bindings.get(node.ident, node)
    if isinstance(node, Call):
        return Call(node.fn, tuple(substitute(a, bindings) for a in node.args))
    if isinstance(node, Neg):
        return Neg(substitute(node.arg, bindings))
    if isinstance(node, (Bin, Bracket)):
        return node._replace(left=substitute(node.left, bindings),
                             right=substitute(node.right, bindings))
    return node


@functools.cache
def parsed(src: str):
    """The AST of a definition or template, parsed once per text."""
    return parse_expression(src)


def _chirality(group) -> str:
    """The volume element, normalised by i^(d(d - 1)/2) to square to
    det B."""
    d = group.dim
    unit = ("", "i*", "-", "-i*")[d * (d - 1) // 2 % 4]
    return f"{unit}A({', '.join(f'x{p}' for p in range(1, d + 1))})"


# Every element of the realization and its supercentralizer, written once:
# a name, or a call with its placeholders, and its text or a function of
# the group returning the text.  A covector call binds its covectors to
# its placeholders, a map its element.
DEFINITIONS = {
    "X": form_sum("x(x{p})*gamma(x{q})"),
    "D": form_sum("beta(x{p})*gamma(x{q})"),
    "H": form_sum("x(x{p})*beta(x{q})", "{sum} + {d}/2 + OmegaKappa"),
    "Ep": form_sum("x(x{p})*x(x{q})", "({sum})/2"),
    "Em": form_sum("beta(x{p})*beta(x{q})", "-({sum})/2"),
    "Fp": "sqrt2*X/2",
    "Fm": "sqrt2*D/2",
    "Casimir": "H^2 + 2*(Ep*Em + Em*Ep) - (X*D - D*X)/2",
    "Scasimir": "(X*D - D*X)/2 + 1/2",
    "Omega": omega,
    "Otop": lambda group: "O(" + ", ".join(
        f"x{p}" for p in range(1, group.dim + 1)) + ")",
    "Gamma": _chirality,
    "OmegaKappa": reflection_sum("s{k}"),
    "M(u, v)": "x(u)*beta(v) - x(v)*beta(u)",
    "R(u)": "(H - 1)*gamma(u) - X*beta(u)",
    "Pm(a)": "a + [X, [D, a]]/2",
    "Qp(a)": "(H + 1)*a - D*[X, a]/2",
    "Qm(a)": "(H - 1)*a - X*[D, a]/2",
    "psi(u, v)": reflection_sum(
        "2*B(alpha{k}, u)*B(v, alpha{k})/B(alpha{k}, alpha{k})*s{k}"),
}

# The calls of DEFINITIONS: name -> (placeholders, key in DEFINITIONS).
_DEFINED_CALLS = {
    call.fn: (tuple(a.ident for a in call.args), key)
    for call, key in ((parse_expression(key), key)
                      for key in DEFINITIONS if "(" in key)}


def definition(key: str, group):
    """The parsed text that DEFINITIONS gives the key on the group."""
    text = DEFINITIONS[key]
    return parsed(text(group) if callable(text) else text)


# The indexed names: prefix -> (what the index counts, the first index, the
# size of its range on a group).  Element mode reads x, y, e, s and g,
# covector mode x, alpha, zp and zm, and both read k as a scalar.
INDEXED_NAMES = {
    "x": ("coordinate", 1, lambda group: group.dim),
    "y": ("coordinate", 1, lambda group: group.dim),
    "e": ("coordinate", 1, lambda group: group.dim),
    "s": ("reflection", 1, lambda group: len(group.reflections)),
    "alpha": ("reflection", 1, lambda group: len(group.reflections)),
    "g": ("group element", 0, lambda group: group.order),
    "k": ("deformation class", 1, lambda group: group.num_classes),
    "zp": ("isotropic", 1, lambda group: group.dim // 2),
    "zm": ("isotropic", 1, lambda group: group.dim // 2),
}

# The unindexed scalar names.
_CONSTANTS = {"i": Scalar.of(BN_I), "sqrt2": Scalar.of(BN_SQRT2)}


def index_of(ident: str, group):
    """The prefix of an indexed name (x1, g0, alpha3, ...) and the place of
    its index in the range, counted from 0; None for any other name.  An
    index outside the range raises EvalError."""
    prefix = ident.rstrip(_DIGITS)
    if prefix not in INDEXED_NAMES or prefix == ident:
        return None
    counts, first, size = INDEXED_NAMES[prefix]
    place = int(ident[len(prefix):]) - first
    if not 0 <= place < size(group):
        raise EvalError(f"{counts} index out of range in {ident}")
    return prefix, place


# The calls that take covectors: name -> (number of covectors, None for
# any, and the routine, or None for a call of DEFINITIONS).  Each routine
# reads its function from this module's globals when called.
_COV_CALLS = {
    "O": (None, lambda ctx, *covs: o_proj(ctx, covs)),
    "M": (2, None),
    "A": (None, lambda ctx, *covs: antisymmetrize(ctx, covs)),
    "R": (1, None),
    "gamma": (1, lambda ctx, u: ctx.gamma(u)),
    "Of": (1, lambda ctx, u: ctx.o_frak(u)),
    "x": (1, lambda ctx, u: ctx.from_covector(u)),
    "beta": (1, lambda ctx, u: ctx.from_vector(beta(u))),
    "psi": (2, None),
}
_COUNTS = {1: "one covector", 2: "two covectors"}

# The projector-style maps, which take one element: name -> the routine,
# or None for a call of DEFINITIONS.  Each routine reads its function from
# this module's globals when called.
_MAPS = {
    "Pp": lambda ctx, a: p_plus(ctx, a),
    "Pm": None,
    "Palpha": lambda ctx, a: p_alpha(ctx, a),
    "Qp": None,
    "Qm": None,
}


class Evaluator:
    """Resolve ASTs against a context, producing normal-form elements: one
    at a time (`eval_element`), or a batch that shares its repeated
    subexpressions (`eval_elements`)."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._witt = None
        self._held: dict = {}       # shared node -> (uses left, value)
        self._scope: dict = {}      # name -> the Covector or Element
                                    # bound to it in the text being read

    # -- scalar/covector layer ---------------------------------------------

    def _witt_basis(self):
        if self._witt is None:
            self._witt = witt_basis(self.ctx.space)
        return self._witt

    def _cov_atom(self, ident):
        """The Covector or Scalar that a name reads in covector mode."""
        if self._scope:
            bound = self._scope.get(ident)
            if isinstance(bound, Covector):
                return bound
        ctx = self.ctx
        indexed = index_of(ident, ctx.group)
        if indexed is not None:
            prefix, n = indexed
            if prefix == "x":
                return ctx.space.basis_covector(n)
            if prefix == "alpha":
                return ctx.root_covector(ctx.group.reflections[n])
            if prefix == "k":
                return ctx.kappas[n]
            if prefix in ("zp", "zm"):
                wb = self._witt_basis()
                return (wb.zplus if prefix == "zp" else wb.zminus)[n]
        elif ident == "z0":
            wb = self._witt_basis()
            if wb.z0 is None:
                raise EvalError("z0 requires odd dimension")
            return wb.z0
        elif ident in _CONSTANTS:
            return _CONSTANTS[ident]
        raise EvalError(f"{ident!r} is not a covector or scalar")

    def eval_covector(self, node):
        val = self._eval_cov(node)
        if not isinstance(val, Covector):
            raise EvalError("expected a covector-valued expression")
        return val

    def _form(self, node) -> Scalar:
        if len(node.args) != 2:
            raise EvalError("B takes exactly two covectors")
        return bilinear_B(*(self.eval_covector(a) for a in node.args))

    def _eval_cov(self, node):
        """The Covector or Scalar value of a covector-mode expression."""
        if isinstance(node, Num):
            return as_scalar(node.value)
        if isinstance(node, Name):
            return self._cov_atom(node.ident)
        if isinstance(node, Call) and node.fn == "B":
            return self._form(node)
        if isinstance(node, Neg):
            return -self._eval_cov(node.arg)
        if isinstance(node, Bin):
            first, steps = _left_run(node)
            acc = self._eval_cov(first)
            for op, right in steps:
                acc = _cov_op(op, acc, self._eval_cov(right))
            return acc
        raise EvalError("expression form not allowed in covector position")

    # -- element layer -----------------------------------------------------------

    def eval_element(self, node):
        """The normal form of one expression.  Nothing is memoized, so no
        node is hashed, however deep."""
        return self._eval(node)

    def eval_elements(self, nodes) -> list:
        """The normal forms of a batch of expressions, each composite
        subexpression that the batch requests more than once computed once.

        `_shared_requests` counts the requests before any is made, and a
        shared value is held until its last counted use, then dropped;
        nothing is held once the batch returns or raises.  The count walk
        follows `_eval`'s recursion, so a miscount could only cost a
        recomputation, never a wrong value.  The shared nodes are hashed,
        which suits template-sized expressions."""
        self._held = {node: (uses, None)
                      for node, uses in _shared_requests(nodes).items()}
        try:
            return [self._eval(node) for node in nodes]
        finally:
            self._held = {}

    def _eval(self, node):
        if self._held:
            entry = self._held.pop(node, None)
            if entry is not None:
                # a shared node: computed at its first request, while it is
                # out of the table (no node is its own subexpression), and
                # put back for as many requests as remain
                uses, value = entry
                if value is None:
                    value = self._eval(node)
                if uses > 1:
                    self._held[node] = (uses - 1, value)
                return value
        ctx = self.ctx
        if isinstance(node, Num):
            return ctx.scalar_elem(node.value)
        if isinstance(node, Name):
            return self._elem_atom(node.ident)
        if isinstance(node, Neg):
            return -self._eval(node.arg)
        if isinstance(node, Bracket):
            a = self._eval(node.left)
            b = self._eval(node.right)
            return (supercommutator if node.kind == "super"
                    else anticommutator)(a, b)
        if isinstance(node, Call):
            return self._call(node)
        if isinstance(node, Bin):
            if node.op == "^":
                base = self._eval(node.left)
                exp = node.right
                if isinstance(exp, Neg):
                    raise EvalError("negative powers are not defined")
                if not isinstance(exp, Num):
                    raise EvalError("exponents must be integer literals")
                return base ** exp.value
            first, steps = _left_run(node)
            acc = self._eval(first)
            for op, right in steps:
                b = self._eval(right)
                if op == "+":
                    acc = acc + b
                elif op == "-":
                    acc = acc - b
                elif op == "*":
                    acc = _times(acc, b)
                else:
                    acc = acc * reciprocal(b)
            return acc
        raise EvalError(f"cannot evaluate node {node!r}")

    def eval_bound(self, node, names: dict):
        """The normal form of ``node`` with the names of ``names`` bound to
        their values and no other name bound.  A batch's shared values are
        set aside meanwhile: they belong to the text that holds the
        binding."""
        outer = self._scope, self._held
        self._scope, self._held = names, {}
        try:
            return self._eval(node)
        finally:
            self._scope, self._held = outer

    def _elem_atom(self, ident):
        ctx = self.ctx
        if self._scope:
            bound = self._scope.get(ident)
            if isinstance(bound, Element):
                return bound
        if ident in GENERATORS:
            return getattr(build_osp(ctx), ident)
        if ident in DEFINITIONS:
            return ctx.cached(ident, lambda: self.eval_bound(
                definition(ident, ctx.group), {}))
        indexed = index_of(ident, ctx.group)
        if indexed is not None:
            prefix, n = indexed
            if prefix in ("x", "y", "e", "g"):     # Context.x, ... build them
                return getattr(ctx, prefix)(n)
            if prefix == "s":
                return ctx.g(ctx.group.reflections[n].elem)
            if prefix == "k":
                return ctx.scalar_elem(ctx.kappas[n])
        elif ident in _CONSTANTS:
            return ctx.scalar_elem(_CONSTANTS[ident])
        elif ident != "z0":
            raise EvalError(f"unknown identifier {ident!r}")
        # z0, or a covector-mode prefix: zp, zm or alpha
        raise EvalError(f"{ident!r} is a covector name, allowed only "
                        f"inside {'/'.join(_COV_CALLS)}(...)")

    def _call(self, node):
        ctx = self.ctx
        fn = node.fn
        if fn == "B":
            return ctx.scalar_elem(self._form(node))
        if fn == "rho":
            word = []
            for a in node.args:
                indexed = isinstance(a, Name) and index_of(a.ident, ctx.group)
                if not indexed or indexed[0] != "s":
                    raise EvalError("rho takes reflection names like s1")
                word.append(indexed[1])
            return ctx.rho(word)
        if fn in _COV_CALLS:
            count, routine = _COV_CALLS[fn]
            if count is not None and len(node.args) != count:
                raise EvalError(f"{fn} takes exactly {_COUNTS[count]}")
            args = [self.eval_covector(a) for a in node.args]
        elif fn in _MAPS:
            if len(node.args) != 1:
                raise EvalError(f"{fn} takes exactly one argument")
            routine = _MAPS[fn]
            args = [self._eval(node.args[0])]
        else:
            raise EvalError(f"unknown operation {fn!r}")
        if routine is not None:
            return routine(ctx, *args)
        # a call of DEFINITIONS: its text, its placeholders bound to args
        placeholders, key = _DEFINED_CALLS[fn]
        return self.eval_bound(definition(key, ctx.group),
                               dict(zip(placeholders, args)))


def _left_run(node: Bin):
    """The left spine of ``node`` as its leftmost operand and the
    (operator, right operand) pairs in order, so that folding the pairs
    from the left gives the node's value.  The parser builds chains like
    x1+x1+... in a loop, so they are walked in one too, not one stack frame
    per operand.  The spine stops at a '^' below the top, which stays an
    operand."""
    steps = [(node.op, node.right)]
    node = node.left
    while isinstance(node, Bin) and node.op != "^":
        steps.append((node.op, node.right))
        node = node.left
    steps.reverse()
    return node, steps


def _requests(node) -> tuple:
    """The subexpressions that `Evaluator._eval` requests to evaluate
    ``node``: the argument of a Neg, both sides of a bracket, the base of a
    power, the operands of a left run (not its spine) and the element
    argument of a projector-style map."""
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, Bracket):
        return (node.left, node.right)
    if isinstance(node, Bin):
        if node.op == "^":
            return (node.left,)
        first, steps = _left_run(node)
        return (first, *(right for _, right in steps))
    if isinstance(node, Call) and node.fn in _MAPS and len(node.args) == 1:
        return node.args
    return ()


def _shared_requests(nodes) -> dict:
    """The composite nodes that evaluating ``nodes`` in turn requests more
    than once, each with its number of requests.  A node met again is
    counted but not walked into, since its value is computed once; leaves
    (numbers and names) are not counted."""
    uses: dict = {}
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (Num, Name)):
            continue
        seen = uses.get(node, 0)
        uses[node] = seen + 1
        if not seen:
            stack.extend(_requests(node))
    return {node: n for node, n in uses.items() if n > 1}


def _cov_op(op: str, left, right):
    """One binary step on covector-mode values, each a Covector or a
    Scalar."""
    lsc, rsc = isinstance(left, Scalar), isinstance(right, Scalar)
    if op in "+-":
        if lsc != rsc:
            raise EvalError("cannot add a scalar and a covector")
        return left + right if op == "+" else left - right
    if op == "*":
        if rsc:
            return left * right
        if lsc:
            return right * left
        raise EvalError("cannot multiply two covectors")
    if op == "/":
        if not rsc:
            raise EvalError("can only divide by a scalar")
        return left * _scalar_inverse(right)
    if not (lsc and rsc):
        raise EvalError("powers apply to scalars here")
    return _scalar_pow(left, right)


def _scalar_pow(s: Scalar, e: Scalar) -> Scalar:
    const = e.constant_part()
    if not e.is_constant() or const.b or const.c or const.d \
            or const.a.denominator != 1 or const.a < 0:
        raise EvalError("exponents must be nonnegative integers")
    return power(s, int(const.a), as_scalar(1))


def _scalar_inverse(s: Scalar) -> Scalar:
    if s.is_zero():
        raise EvalError("division by zero")
    if not s.is_constant():
        raise EvalError("can only divide by constant scalars")
    return as_scalar(s.constant_part().inverse())


def _times(a, b):
    """a*b; scalars are central, so a scalar factor only scales the other."""
    ident = a.ctx.ident_mono
    if b.terms.keys() <= {ident}:
        return a * b.terms.get(ident, SC_ZERO)
    if a.terms.keys() <= {ident}:
        return b * a.terms.get(ident, SC_ZERO)
    return a * b


def reciprocal(elem) -> Scalar:
    """1/elem for an element that is a nonzero constant scalar."""
    ident = elem.ctx.ident_mono
    if elem.terms.keys() - {ident}:
        raise EvalError("can only divide by scalar elements")
    return _scalar_inverse(elem.terms.get(ident, SC_ZERO))


def evaluate(ctx: Context, src: str):
    """Parse and evaluate source text to a normal-form element."""
    return Evaluator(ctx).eval_element(parse_expression(src))
