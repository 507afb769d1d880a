"""Expression language for elements of the engine's algebra.

Grammar (standard precedence, carets bind tightest, so -y^2 is -(y^2)):

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?
    atom    :=  NUMBER | NAME | NAME '(' expr (',' expr)* ')'
             |  '(' expr ')' | '[' expr ',' expr ']' | '{' expr ',' expr '}'

Square brackets are the graded commutator, braces the graded
anticommutator; both are atoms.  Call arguments are evaluated in covector
mode for the index-taking operations (O, M, A, R, gamma) and for the form
B(u, v), and in element mode for the projector-style maps (Pp, Pm, Palpha,
Qp, Qm).  B(u, v) is the symmetric form on two covectors, a scalar that
may stand wherever a scalar may, so O(x1*B(x2, x3) - x2*B(x1, x3), x3) and
B(x1, x2)/2 both read.  The canonical printer of elements emits only this
grammar, so print-then-parse is the identity on values.

Names are read by mode:

    element mode    x*, y*, e*, s*, g*; the osp names X, D, H, Ep, Em, Fp,
                    Fm, Casimir, Scasimir; the centralizer names Omega,
                    OmegaKappa, Otop, Gamma; the scalars i, sqrt2, k*
    covector mode   x*, zp*, zm*, z0 (odd dimension), alpha*; the same
                    scalars as coefficients

Every other name is unknown to the evaluator, so `substitute` can bind
such names (placeholders like a, b, u) to parsed covectors before a
template is evaluated.

A covector has no single element image (it may stand for x, for y through
beta, or for gamma), so zp*, zm*, z0 and alpha* in element position raise
EvalError; gamma(zp1) names the Clifford image explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .centralizer import M as _M, central_omega, o_proj, o_top
from .core import Context, anticommutator, antisymmetrize, supercommutator
from .geometry import bilinear_B, witt_basis
from .osp import (build_osp, casimir, gen_symmetry, p_alpha, p_minus, p_plus,
                  q_minus, q_plus, scasimir)
from .scalars import BN_I, BN_SQRT2, SC_ZERO, Scalar, as_scalar


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Bracket:
    kind: str       # "super" or "anti"
    left: object
    right: object


_PUNCT = "+-*/^()[]{},"


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
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
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
    """Parse source text to an AST; raises ParseError with position."""
    return _Parser(src).parse()


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
        return replace(node, left=substitute(node.left, bindings),
                       right=substitute(node.right, bindings))
    return node


_COV_CALLS = {"O", "M", "A", "R", "gamma"}


class Evaluator:
    """Resolve an AST against a context, producing a normal-form element."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._witt = None

    # -- scalar/covector layer ---------------------------------------------

    def _witt_basis(self):
        if self._witt is None:
            self._witt = witt_basis(self.ctx.space)
        return self._witt

    def _cov_atom(self, ident):
        ctx = self.ctx
        d = ctx.dim
        if ident.startswith("x") and ident[1:].isdigit():
            p = int(ident[1:])
            if not 1 <= p <= d:
                raise EvalError(f"coordinate index out of range in {ident}")
            return ("cov", ctx.space.basis_covector(p - 1))
        if ident.startswith("zp") and ident[2:].isdigit():
            j = int(ident[2:])
            wb = self._witt_basis()
            if not 1 <= j <= wb.ell:
                raise EvalError(f"isotropic index out of range in {ident}")
            return ("cov", wb.zplus[j - 1])
        if ident.startswith("zm") and ident[2:].isdigit():
            j = int(ident[2:])
            wb = self._witt_basis()
            if not 1 <= j <= wb.ell:
                raise EvalError(f"isotropic index out of range in {ident}")
            return ("cov", wb.zminus[j - 1])
        if ident == "z0":
            wb = self._witt_basis()
            if wb.z0 is None:
                raise EvalError("z0 requires odd dimension")
            return ("cov", wb.z0)
        if ident.startswith("alpha") and ident[5:].isdigit():
            k = int(ident[5:])
            refs = self.ctx.group.reflections
            if not 1 <= k <= len(refs):
                raise EvalError(f"reflection index out of range in {ident}")
            return ("cov", self.ctx.root_covector(refs[k - 1]))
        sc = self._scalar_atom(ident)
        if sc is not None:
            return ("sc", sc)
        raise EvalError(f"{ident!r} is not a covector or scalar")

    def _scalar_atom(self, ident):
        if ident == "i":
            return Scalar.of(BN_I)
        if ident == "sqrt2":
            return Scalar.of(BN_SQRT2)
        if ident.startswith("k") and ident[1:].isdigit():
            c = int(ident[1:])
            if not 1 <= c <= self.ctx.num_classes:
                raise EvalError(f"deformation class out of range in {ident}")
            return Scalar.kappa(c - 1)
        return None

    def eval_covector(self, node):
        tag, val = self._eval_cov(node)
        if tag != "cov":
            raise EvalError("expected a covector-valued expression")
        return val

    def _form(self, node) -> Scalar:
        if len(node.args) != 2:
            raise EvalError("B takes exactly two covectors")
        return bilinear_B(*(self.eval_covector(a) for a in node.args))

    def _eval_cov(self, node):
        if isinstance(node, Num):
            return ("sc", as_scalar(node.value))
        if isinstance(node, Name):
            return self._cov_atom(node.ident)
        if isinstance(node, Call) and node.fn == "B":
            return ("sc", self._form(node))
        if isinstance(node, Neg):
            tag, v = self._eval_cov(node.arg)
            return (tag, -v)
        if isinstance(node, Bin):
            lt, lv = self._eval_cov(node.left)
            rt, rv = self._eval_cov(node.right)
            if node.op in "+-":
                if lt != rt:
                    raise EvalError("cannot add a scalar and a covector")
                return (lt, lv + rv if node.op == "+" else lv - rv)
            if node.op == "*":
                if lt == "sc" and rt == "sc":
                    return ("sc", lv * rv)
                if lt == "sc":
                    return ("cov", rv * lv)
                if rt == "sc":
                    return ("cov", lv * rv)
                raise EvalError("cannot multiply two covectors")
            if node.op == "/":
                if rt != "sc":
                    raise EvalError("can only divide by a scalar")
                inv = _scalar_inverse(rv)
                return (lt, lv * inv)
            if node.op == "^":
                if lt != "sc" or rt != "sc":
                    raise EvalError("powers apply to scalars here")
                return ("sc", _scalar_pow(lv, rv))
        raise EvalError("expression form not allowed in covector position")

    # -- element layer -----------------------------------------------------------

    def eval_element(self, node):
        ctx = self.ctx
        if isinstance(node, Num):
            return ctx.scalar_elem(node.value)
        if isinstance(node, Name):
            return self._elem_atom(node.ident)
        if isinstance(node, Neg):
            return -self.eval_element(node.arg)
        if isinstance(node, Bracket):
            a = self.eval_element(node.left)
            b = self.eval_element(node.right)
            return (supercommutator if node.kind == "super"
                    else anticommutator)(a, b)
        if isinstance(node, Call):
            return self._call(node)
        if isinstance(node, Bin):
            if node.op == "^":
                base = self.eval_element(node.left)
                exp = node.right
                if isinstance(exp, Neg):
                    raise EvalError("negative powers are not defined")
                if not isinstance(exp, Num):
                    raise EvalError("exponents must be integer literals")
                return base ** exp.value
            a = self.eval_element(node.left)
            b = self.eval_element(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return _times(a, b)
            if node.op == "/":
                return a * reciprocal(b)
        raise EvalError(f"cannot evaluate node {node!r}")

    def _elem_atom(self, ident):
        ctx = self.ctx
        d = ctx.dim
        simple = {
            "Casimir": lambda: casimir(ctx),
            "Scasimir": lambda: scasimir(ctx),
            "OmegaKappa": lambda: ctx.omega_kappa(),
            "Omega": lambda: central_omega(ctx),
            "Otop": lambda: o_top(ctx),
            "Gamma": lambda: ctx.chirality(),
            "X": lambda: build_osp(ctx).X,
            "D": lambda: build_osp(ctx).D,
            "H": lambda: build_osp(ctx).H,
            "Ep": lambda: build_osp(ctx).Ep,
            "Em": lambda: build_osp(ctx).Em,
            "Fp": lambda: build_osp(ctx).Fp,
            "Fm": lambda: build_osp(ctx).Fm,
        }
        if ident in simple:
            return simple[ident]()
        for prefix, mk in (("x", ctx.x), ("y", ctx.y), ("e", ctx.e)):
            if ident.startswith(prefix) and ident[1:].isdigit():
                p = int(ident[1:])
                if not 1 <= p <= d:
                    raise EvalError(f"index out of range in {ident}")
                return mk(p - 1)
        if ident.startswith("s") and ident[1:].isdigit():
            k = int(ident[1:])
            refs = ctx.group.reflections
            if not 1 <= k <= len(refs):
                raise EvalError(f"reflection index out of range in {ident}")
            return ctx.g(refs[k - 1].elem)
        if ident.startswith("g") and ident[1:].isdigit():
            k = int(ident[1:])
            if not 0 <= k < ctx.group.order:
                raise EvalError(f"group element index out of range in {ident}")
            return ctx.g(k)
        sc = self._scalar_atom(ident)
        if sc is not None:
            return ctx.scalar_elem(sc)
        if ident == "z0" or (ident[:2] in ("zp", "zm") and ident[2:].isdigit()) \
                or (ident.startswith("alpha") and ident[5:].isdigit()):
            raise EvalError(f"{ident!r} is a covector name, allowed only "
                            "inside O/M/A/R/gamma(...)")
        raise EvalError(f"unknown identifier {ident!r}")

    def _call(self, node):
        ctx = self.ctx
        fn = node.fn
        if fn in _COV_CALLS:
            covs = [self.eval_covector(a) for a in node.args]
            if fn == "O":
                return o_proj(ctx, covs)
            if fn == "M":
                if len(covs) != 2:
                    raise EvalError("M takes exactly two covectors")
                return _M(ctx, covs[0], covs[1])
            if fn == "A":
                return antisymmetrize(ctx, covs)
            if fn == "R":
                if len(covs) != 1:
                    raise EvalError("R takes exactly one covector")
                return gen_symmetry(ctx, covs[0])
            if fn == "gamma":
                if len(covs) != 1:
                    raise EvalError("gamma takes exactly one covector")
                return ctx.gamma(covs[0])
        if fn == "B":
            return ctx.scalar_elem(self._form(node))
        if fn == "rho":
            word = []
            for a in node.args:
                if not (isinstance(a, Name) and a.ident.startswith("s")
                        and a.ident[1:].isdigit()):
                    raise EvalError("rho takes reflection names like s1")
                k = int(a.ident[1:])
                refs = ctx.group.reflections
                if not 1 <= k <= len(refs):
                    raise EvalError(f"reflection index out of range in s{k}")
                word.append(k - 1)
            return ctx.rho(word)
        unary = {"Pp": p_plus, "Pm": p_minus, "Palpha": p_alpha,
                 "Qp": q_plus, "Qm": q_minus}
        if fn in unary:
            if len(node.args) != 1:
                raise EvalError(f"{fn} takes exactly one argument")
            return unary[fn](ctx, self.eval_element(node.args[0]))
        raise EvalError(f"unknown operation {fn!r}")


def _scalar_pow(s: Scalar, e: Scalar) -> Scalar:
    const = e.constant_part()
    if not e.is_constant() or const.b or const.c or const.d \
            or const.a.denominator != 1 or const.a < 0:
        raise EvalError("exponents must be nonnegative integers")
    out = as_scalar(1)
    for _ in range(int(const.a)):
        out = out * s
    return out


def _scalar_inverse(s: Scalar) -> Scalar:
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
    terms = elem.terms
    if not terms:
        raise EvalError("division by zero")
    if len(terms) != 1:
        raise EvalError("can only divide by scalar elements")
    (mono, coef), = terms.items()
    if mono != elem.ctx.ident_mono:
        raise EvalError("can only divide by scalar elements")
    return _scalar_inverse(coef)


def evaluate(ctx: Context, src: str):
    """Parse and evaluate source text to a normal-form element."""
    return Evaluator(ctx).eval_element(parse_expression(src))
