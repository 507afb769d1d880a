"""Identity catalog, suite runner, and the oracle cross-check harness.

Every verified statement is an IdentityCase: a stable dotted id, a short
human anchor, a minimum ambient dimension, and a builder producing a list of
(label, residual) pairs.  A case passes exactly when every residual is the
empty combination; the runner never compares against a tolerance, only
against structural zero.

The first dotted component of an id names its suite; `run_suite` selects by
that prefix (or "all").  Cases whose dimension prerequisite fails, and
cases stated for the orthonormal configuration when the Gram matrix is
not the identity, are reported as skipped with the reason.  Reports are
ordered by id regardless of execution order, and their content is
deterministic (the elapsed-time field aside) for fixed inputs including
the seed.
"""

from __future__ import annotations

import itertools
import json
import random
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
from .oracle import SpinorModule
from .osp import (build_osp, casimir, gen_symmetry, osp_relations,
                  pair_element, p_alpha, p_minus, p_plus, q_minus, q_plus,
                  scasimir, b_form, XPLUS, XMINUS, GAMMA, _PARITY)
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

    def cov(self, coords):
        return self.ctx.covector(coords)

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

    def hat(self, a, b, u):
        return a * bilinear_B(b, u) - b * bilinear_B(a, u)


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

    # ---- Scasimir / Casimir ------------------------------------------------
    @_case(cases, "scasimir.square", "Scasimir squares to Casimir + 1/4", 1)
    def _(env):
        S, Om = scasimir(env.ctx), casimir(env.ctx)
        return [("S^2", S * S - Om - Fraction(1, 4))]

    @_case(cases, "scasimir.parity",
           "Scasimir commutes with even and anticommutes with odd generators", 1)
    def _(env):
        g = env.gens()
        S = scasimir(env.ctx)
        return [("X", S * g.X + g.X * S), ("D", S * g.D + g.D * S),
                ("H", commutator(S, g.H)), ("Ep", commutator(S, g.Ep)),
                ("Em", commutator(S, g.Em))]

    @_case(cases, "scasimir.projected",
           "projecting the Scasimir yields twice its square", 1)
    def _(env):
        S = scasimir(env.ctx)
        Om = casimir(env.ctx)
        return [("plus", p_plus(env.ctx, S) - S * S * 2),
                ("minus", p_minus(env.ctx, S) - S * S * 2),
                ("constants", p_plus(env.ctx, S) - Om * 2 - Fraction(1, 2))]

    @_case(cases, "scasimir.casimir_central",
           "the Casimir supercommutes with all five generators", 1)
    def _(env):
        g = env.gens()
        Om = casimir(env.ctx)
        return [(n, sc(Om, t)) for n, t in
                [("X", g.X), ("D", g.D), ("H", g.H), ("Ep", g.Ep), ("Em", g.Em)]]

    # ---- extremal projector laws ------------------------------------------
    def _central_samples(env):
        out = [("one", env.ctx.one()),
               ("O1", env.O(env.x(0))), ("O12", env.O(env.x(0), env.x(1))),
               ("invariant", central_omega(env.ctx))]
        if env.group.reflections:
            out.append(("rho", env.ctx.rho([0])))
            out.append(("mixed", env.O(env.x(0), env.x(1)) * env.ctx.rho([0])))
        return out

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

    @_case(cases, "projector.fixes_central",
           "supercentralizer elements are fixed points", 2)
    def _(env):
        return [(n, p_plus(env.ctx, c) - c) for n, c in _central_samples(env)]

    @_case(cases, "projector.mult_central",
           "multiplicativity when one factor is a supercentralizer element", 2)
    def _(env):
        ctx = env.ctx
        out = []
        b = ctx.e(0) + ctx.x(0) * ctx.y(1)
        for n, a in _central_samples(env):
            out.append((f"left.{n}",
                        p_plus(ctx, a * b) - p_plus(ctx, a) * p_plus(ctx, b)))
            out.append((f"right.{n}",
                        p_plus(ctx, b * a) - p_plus(ctx, b) * p_plus(ctx, a)))
        return out

    @_case(cases, "projector.sandwich",
           "central factors pull out of the projector on both sides", 2)
    def _(env):
        ctx = env.ctx
        a = env.O(env.x(0), env.x(1))
        c = ctx.rho([0]) if env.group.reflections else ctx.one()
        b = ctx.e(0) * ctx.x(1)
        return [("abc", p_plus(ctx, a * b * c) - a * p_plus(ctx, b) * c)]

    @_case(cases, "projector.pm_agree",
           "both projectors agree on weight-zero arguments", 2)
    def _(env):
        ctx = env.ctx
        samples = [("M12", M(ctx, env.x(0), env.x(1))),
                   ("e1", ctx.e(0)), ("x1y1", ctx.x(0) * ctx.y(0)),
                   ("S", scasimir(ctx))]
        if env.group.reflections:
            samples.append(("g", ctx.g(env.group.reflections[0].elem)))
        return [(n, p_plus(ctx, a) - p_minus(ctx, a)) for n, a in samples]

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

    @_case(cases, "projector.cliffpair",
           "projected Clifford pair: two-index element shifted by the form", 2)
    def _(env):
        ctx = env.ctx
        pairs = [(env.x(0), env.x(1)), (env.x(0), env.x(0) + env.x(1))]
        out = []
        for i, (u, v) in enumerate(pairs):
            lhs = -(p_plus(ctx, ctx.gamma(u) * ctx.gamma(v)) * Fraction(1, 2))
            rhs = env.O(u, v) - env.scal(bilinear_B(u, v) * Fraction(1, 2))
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

    # ---- generalized symmetries ---------------------------------------------
    def _gensym_covs(env):
        covs = [("x1", env.x(0))]
        if env.dim > 1:
            covs += [("x2", env.x(1)), ("x1+x2", env.x(0) + env.x(1))]
        return covs

    for tag, pick in [("lower_x1", 0), ("lower_x2", 1), ("lower_sum", 2)]:
        def mk(pick=pick):
            def b(env):
                covs = _gensym_covs(env)
                if pick >= len(covs):
                    return [("missing", env.ctx.zero())]
                name, u = covs[pick]
                g = env.gens()
                R = gen_symmetry(env.ctx, u)
                gu = env.ctx.gamma(u)
                return [(name, g.D * R + (R + gu) * g.D)]
            return b
        _case(cases, f"gensym.{tag}",
              "the lowering generator intertwines the symmetry element "
              "up to a shift", 2 if tag != "lower_x1" else 1)(mk())

    @_case(cases, "gensym.qminus_def",
           "the symmetry element is the lowering-side map of the Clifford "
           "generator", 1)
    def _(env):
        return [(n, gen_symmetry(env.ctx, u) - q_minus(env.ctx, env.ctx.gamma(u)))
                for n, u in _gensym_covs(env)]

    @_case(cases, "gensym.raise_x1",
           "mirror identity for the raising side", 1)
    def _(env):
        g = env.gens()
        out = []
        for n, u in _gensym_covs(env):
            gu = env.ctx.gamma(u)
            Qp = q_plus(env.ctx, gu)
            out.append((n, g.X * Qp + (Qp - gu) * g.X))
        return out

    @_case(cases, "gensym.qplus_one", "the raising-side map fixes one up to H", 1)
    def _(env):
        return [("one", q_plus(env.ctx, env.ctx.one()) - env.gens().H - 1)]

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

    @_case(cases, "p_OujOun.case4",
           "four-term alternating bracket of triples against singles", 4)
    def _(env):
        out = []
        for t in env.tuples(4, cap=2):
            u, v, w, z = (env.x(p) for p in t)
            O = lambda *cs: o_proj(env.ctx, cs)
            out.append((f"{t}", sc(O(u, v, w), O(z)) - sc(O(u, v, z), O(w))
                        + sc(O(u, w, z), O(v)) - sc(O(v, w, z), O(u))))
        return out

    # ---- the two-by-two bracket proposition ------------------------------------
    def _pat22(env):
        pats = [((0, 1), (0, 1))]
        if env.dim >= 3:
            pats += [((0, 1), (0, 2)), ((0, 2), (1, 2))]
        if env.dim >= 4:
            pats.append(((0, 1), (2, 3)))
        return pats

    @_case(cases, "p_OabOuv.form1",
           "two-by-two bracket: pairing-weighted one-index commutators", 3)
    def _(env):
        ctx = env.ctx
        O = lambda *cs: o_proj(ctx, cs)
        out = []
        for (ia, ib), (iu, iv) in _pat22(env):
            a, b, u, v = env.x(ia), env.x(ib), env.x(iu), env.x(iv)

            def GG(p, q):
                return ac(O(p), O(q))
            B = bilinear_B
            rhs = (env.scal(B(b, u)) * (O(a, v) + GG(a, v))
                   - env.scal(B(a, u)) * (O(b, v) + GG(b, v))
                   - env.scal(B(b, v)) * (O(a, u) + GG(a, u))
                   + env.scal(B(a, v)) * (O(b, u) + GG(b, u))
                   + (sc(O(a), O(b, u, v)) - sc(O(b), O(a, u, v))
                      + sc(O(a, b, u), O(v)) - sc(O(a, b, v), O(u)))
                   * Fraction(1, 2))
            out.append((f"{(ia, ib)}{(iu, iv)}", sc(O(a, b), O(u, v)) - rhs))
        return out

    @_case(cases, "p_OabOuv.form2",
           "two-by-two bracket: hatted-index form", 3)
    def _(env):
        ctx = env.ctx
        O = lambda *cs: o_proj(ctx, cs)
        out = []
        pats = [tuple(env.x(i) for i in p[0]) + tuple(env.x(i) for i in p[1])
                for p in _pat22(env)]
        if env.dim >= 4:
            pats.append((env.x(0), env.x(1) + env.x(2),
                         env.x(0) + env.x(1), env.x(3)))
        for i, (a, b, u, v) in enumerate(pats):
            uh, vh = env.hat(a, b, u), env.hat(a, b, v)
            rhs = (O(uh, v) + ac(O(uh), O(v)) + sc(O(a, b, u), O(v))
                   + O(u, vh) + ac(O(u), O(vh)) - sc(O(a, b, v), O(u)))
            out.append((f"p{i}", sc(O(a, b), O(u, v)) - rhs))
        return out

    # ---- two against three / four ------------------------------------------------
    @_case(cases, "p_O2O34.n3",
           "pair bracket against a triple: hatted triples and pair brackets", 5)
    def _(env):
        ctx = env.ctx
        O = lambda *cs: o_proj(ctx, cs)
        pats = [((0, 1), (2, 3, 4)), ((0, 1), (0, 2, 3)), ((0, 1), (0, 1, 2))]
        gen = [(env.x(0) + env.x(2), env.x(1),
                env.x(1) + env.x(3), env.x(0), env.x(2))]
        out = []
        for (ia, ib), (iu, iv, iw) in pats:
            a, b = env.x(ia), env.x(ib)
            u, v, w = env.x(iu), env.x(iv), env.x(iw)
            gen.append((a, b, u, v, w))
        for i, (a, b, u, v, w) in enumerate(gen):
            uh, vh, wh = env.hat(a, b, u), env.hat(a, b, v), env.hat(a, b, w)
            rhs = (O(uh, v, w) + O(u, vh, w) + O(u, v, wh)
                   + ac(O(uh), O(v, w)) - ac(O(vh), O(u, w))
                   + ac(O(wh), O(u, v))
                   + sc(O(a), O(b, u, v, w)) - sc(O(b), O(a, u, v, w)))
            out.append((f"p{i}", sc(O(a, b), O(u, v, w)) - rhs))
        return out

    @_case(cases, "p_O2O34.n4",
           "pair bracket against a quadruple (singly-paired patterns)", 5)
    def _(env):
        ctx = env.ctx
        O = lambda *cs: o_proj(ctx, cs)
        pats = [((0, 1), (0, 2, 3, 4)), ((0, 1), (1, 2, 3, 4))]
        if env.dim >= 6:
            pats.append(((0, 1), (2, 3, 4, 5)))
        out = []
        for (ia, ib), (ic, iu, iv, iw) in pats:
            a, b = env.x(ia), env.x(ib)
            c, u, v, w = (env.x(p) for p in (ic, iu, iv, iw))
            ch, uh = env.hat(a, b, c), env.hat(a, b, u)
            vh, wh = env.hat(a, b, v), env.hat(a, b, w)
            rhs = (O(ch, u, v, w) + O(c, uh, v, w) + O(c, u, vh, w)
                   + O(c, u, v, wh)
                   + ac(O(ch), O(u, v, w)) + ac(O(uh), O(c, v, w))
                   + ac(O(vh), O(c, u, w)) + ac(O(wh), O(c, u, v))
                   + sc(O(a), O(b, c, u, v, w)) - sc(O(b), O(a, c, u, v, w)))
            out.append((f"{(ia, ib)}{(ic, iu, iv, iw)}",
                        sc(O(a, b), O(c, u, v, w)) - rhs))
        return out

    @_case(cases, "p_O3O3",
           "triple bracket against a triple under the diagonal pairing pattern", 6)
    def _(env):
        ctx = env.ctx
        O = lambda *cs: o_proj(ctx, cs)
        B = bilinear_B
        out = []
        for abc, uvw in [((0, 1, 2), (3, 4, 5)), ((0, 1, 2), (0, 1, 2)),
                         ((0, 1, 2), (0, 3, 4)), ((0, 1, 2), (0, 1, 5))]:
            a, b, c = (env.x(p) for p in abc)
            u, v, w = (env.x(p) for p in uvw)
            Bau, Bbv, Bcw = B(a, u), B(b, v), B(c, w)
            rhs = (env.scal(Bau) * (O(b, c, v, w) + ac(O(b, c), O(v, w)))
                   + sc(O(a), O(b, c, u, v, w))
                   + env.scal(Bbv) * (O(a, c, u, w) + ac(O(a, c), O(u, w)))
                   - sc(O(b), O(a, c, u, v, w))
                   + env.scal(Bcw) * (O(a, b, u, v) + ac(O(a, b), O(u, v)))
                   + sc(O(c), O(a, b, u, v, w))
                   + env.scal(Bbv * Bcw) * sc(O(a), O(u))
                   + env.scal(Bau * Bcw) * sc(O(b), O(v))
                   + env.scal(Bau * Bbv) * sc(O(c), O(w))
                   - env.scal(Bau * Bbv * Bcw) * Fraction(1, 2))
            out.append((f"{abc}{uvw}", sc(O(a, b, c), O(u, v, w)) - rhs))
        return out

    # ---- orthonormal-basis corollary -----------------------------------------
    def _corollary_case(cid, anchor, min_dim, fn):
        def b(env, fn=fn):
            idx = list(range(min(env.dim, 6)))
            return [("main", fn(env, *idx[:6 if env.dim >= 6 else env.dim]))]
        _case(cases, cid, anchor, min_dim)(b)

    def _add_corollary():
        H = Fraction(1, 2)

        def c_OijOki(env, i, j, k, *r):
            Oi = env.Oi
            return (sc(Oi(i, j), -Oi(i, k))
                    - (Oi(j, k) + ac(Oi(j), Oi(k)) + sc(Oi(i, j, k), Oi(i))))

        def c_OijOkl_half(env, i, j, k, l, *r):
            Oi = env.Oi
            return (sc(Oi(i, j), Oi(k, l))
                    - (sc(Oi(i), Oi(j, k, l)) - sc(Oi(j), Oi(i, k, l))
                       - sc(Oi(i, j, l), Oi(k)) + sc(Oi(i, j, k), Oi(l))) * H)

        def c_OijOkl(env, i, j, k, l, *r):
            Oi = env.Oi
            return (sc(Oi(i, j), Oi(k, l))
                    - (sc(Oi(i), Oi(j, k, l)) - sc(Oi(j), Oi(i, k, l))))

        def c_OjkOlmn(env, j, k, l, m, n, *r):
            Oi = env.Oi
            return (sc(Oi(j, k), Oi(l, m, n))
                    - (sc(Oi(j), Oi(k, l, m, n)) - sc(Oi(k), Oi(j, l, m, n))))

        def c_OjkOjlm(env, j, k, l, m, *r):
            Oi = env.Oi
            return (sc(Oi(j, k), Oi(j, l, m))
                    - (-Oi(k, l, m) - ac(Oi(k), Oi(l, m))
                       - sc(Oi(j), Oi(j, k, l, m))))

        def c_OjkOjkl(env, j, k, l, *r):
            Oi = env.Oi
            return (sc(Oi(j, k), Oi(j, k, l))
                    - (-ac(Oi(j), Oi(j, l)) - ac(Oi(k), Oi(k, l))))

        def c_e24(env, i, j, k, *r):
            Oi = env.Oi
            return (sc(Oi(i, j, k), Oi(i, j, k))
                    - ((Oi(i) ** 2 + Oi(j) ** 2 + Oi(k) ** 2 + Oi(i, j) ** 2
                        + Oi(i, k) ** 2 + Oi(j, k) ** 2) * 2
                       - env.scal(H)))

        def c_e25(env, i, j, k, l, *r):
            Oi = env.Oi
            return (sc(Oi(i, j, k), Oi(i, j, l))
                    - (sc(Oi(k), Oi(l)) + ac(Oi(i, k), Oi(i, l))
                       + ac(Oi(j, k), Oi(j, l))))

        def c_e26(env, i, j, k, m, n, *r):
            Oi = env.Oi
            return (sc(Oi(i, j, k), Oi(i, m, n))
                    - (Oi(j, k, m, n) + ac(Oi(j, k), Oi(m, n))
                       + sc(Oi(i), Oi(i, j, k, m, n))))

        def c_e27(env, i, j, k, l, m, n):
            Oi = env.Oi
            return (sc(Oi(i, j, k), Oi(l, m, n))
                    - (sc(Oi(i), Oi(j, k, l, m, n))
                       - sc(Oi(j), Oi(i, k, l, m, n))
                       + sc(Oi(k), Oi(i, j, l, m, n))))

        def c_OjkOjklm(env, j, k, l, m, *r):
            Oi = env.Oi
            return (sc(Oi(j, k), Oi(j, k, l, m))
                    - (-ac(Oi(j), Oi(j, l, m)) - ac(Oi(k), Oi(k, l, m))))

        def c_OjkOjlmn(env, j, k, l, m, n, *r):
            Oi = env.Oi
            return (sc(Oi(j, k), Oi(j, l, m, n))
                    - (-Oi(k, l, m, n) - ac(Oi(k), Oi(l, m, n))
                       - sc(Oi(j), Oi(j, k, l, m, n))))

        def c_OijOklmn(env, i, j, k, l, m, n):
            Oi = env.Oi
            return (sc(Oi(i, j), Oi(k, l, m, n))
                    - (sc(Oi(i), Oi(j, k, l, m, n))
                       - sc(Oi(j), Oi(i, k, l, m, n))))

        def c_OjklOjkm(env, j, k, l, m, *r):
            Oi = env.Oi
            return (ac(Oi(j, k, l), Oi(j, k, m))
                    - (-Oi(l, m) - ac(Oi(l), Oi(m))
                       + ac(Oi(j, k), Oi(j, k, l, m))))

        rows = [
            ("OijOki", "pair bracket with one repeated index", 3, c_OijOki),
            ("OijOkl_half", "disjoint pair bracket, halved four-term form", 4,
             c_OijOkl_half),
            ("OijOkl", "disjoint pair bracket, two-term form", 4, c_OijOkl),
            ("OjkOlmn", "pair against disjoint triple", 5, c_OjkOlmn),
            ("OjkOjlm", "pair against triple sharing one index", 4, c_OjkOjlm),
            ("OjkOjkl", "pair against triple sharing both indices", 3,
             c_OjkOjkl),
            ("e24", "square of a triple element", 3, c_e24),
            ("e25", "triples sharing two indices", 4, c_e25),
            ("e26", "triples sharing one index", 5, c_e26),
            ("e27", "disjoint triples", 6, c_e27),
            ("OjkOjklm", "pair against quadruple sharing both indices", 4,
             c_OjkOjklm),
            ("OjkOjlmn", "pair against quadruple sharing one index", 5,
             c_OjkOjlmn),
            ("OijOklmn", "pair against disjoint quadruple", 6, c_OijOklmn),
            ("OjklOjkm", "product of triples sharing two indices", 4,
             c_OjklOjkm),
        ]
        for name, anchor, md, fn in rows:
            _corollary_case(f"corollary.{name}", anchor, md, fn)

    _add_corollary()

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
        from .parser import parse_expression, Evaluator
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


def _factored_residuals(env: SuiteEnv):
    """Catalog residuals in factored form: lists of (coefficient, factors)
    summing to zero in the engine; the oracle evaluates the same sums by
    operator composition without engine products."""
    ctx = env.ctx
    g = env.gens()
    one = ctx.one()
    out = []
    X, D, H, Ep, Em = g.X, g.D, g.H, g.Ep, g.Em
    out.append(("osp12re.FpFm", [(1, [X, D]), (1, [D, X]), (-2, [H])]))
    out.append(("osp12re.HFp", [(1, [H, X]), (-1, [X, H]), (-1, [X])]))
    out.append(("osp12re.FpFp", [(1, [X, X]), (-2, [Ep])]))
    out.append(("osp12re.EpEm", [(1, [Ep, Em]), (-1, [Em, Ep]), (-1, [H])]))
    out.append(("osp12re.HEp", [(1, [H, Ep]), (-1, [Ep, H]), (-2, [Ep])]))
    out.append(("osp12re.XEm", [(1, [X, Em]), (-1, [Em, X]), (-1, [D])]))

    for (p, q) in [(0, 0), (0, 1)]:
        terms = [(1, [ctx.y(p), ctx.x(q)]), (-1, [ctx.x(q), ctx.y(p)])]
        if p == q:
            terms.append((-1, [one]))
        for refl in env.group.reflections:
            c = ctx.kappas[refl.class_id] * (refl.root[p] * refl.coroot[q])
            if not c.is_zero():
                terms.append((-c, [ctx.g(refl.elem)]))
        out.append((f"rc.y{p + 1}x{q + 1}", terms))

    u, v = env.x(0), env.x(1)
    bu, bv = ctx.from_vector(beta(u)), ctx.from_vector(beta(v))
    ue, ve = ctx.from_covector(u), ctx.from_covector(v)
    out.append(("l_Buv", [(1, [bu, ve]), (-1, [ve, bu]),
                          (-1, [bv, ue]), (1, [ue, bv])]))

    gu, ov = ctx.gamma(u), ctx.o_frak(v)
    out.append(("e_Ogamma", [(1, [gu, ov]), (1, [ov, gu]),
                             (-1, [bu, ve]), (1, [ve, bu]),
                             (bilinear_B(u, v), [one])]))

    terms = []
    for p in range(env.dim):
        for q in range(env.dim):
            bvq = ctx.space.inv_gram[p][q]
            if not bvq.is_zero():
                terms.append((as_scalar(bvq),
                              [ctx.o_frak(env.x(p)), ctx.gamma(env.x(q))]))
    for refl in env.group.reflections:
        terms.append((-ctx.kappas[refl.class_id], [ctx.g(refl.elem)]))
    out.append(("l_Oug", terms))

    R = gen_symmetry(ctx, u)
    out.append(("gensym.x1", [(1, [D, R]), (1, [R, D]), (1, [gu, D])]))

    S = scasimir(ctx)
    Om = casimir(ctx)
    out.append(("scasimir.square", [(1, [S, S]), (-1, [Om]),
                                    (Fraction(-1, 4), [one])]))

    O12 = o_proj(ctx, [u, v])
    out.append(("centmember.X_O12", [(1, [X, O12]), (-1, [O12, X])]))
    O1 = o_proj(ctx, [u])
    out.append(("centmember.D_O1", [(1, [D, O1]), (1, [O1, D])]))

    G = ctx.chirality()
    out.append(("chirality.square", [(1, [G, G]), (-1, [one])]))
    if env.group.reflections:
        rho = ctx.rho([0])
        out.append(("pin.rho_sq", [(1, [rho, rho]), (-1, [one])]))
        OmC = central_omega(ctx)
        out.append(("central.omega_rho", [(1, [OmC, rho]), (-1, [rho, OmC])]))

        # projected Clifford pair, fully factored through the projector
        w1, w2 = gu, ctx.gamma(v)
        quarter = Fraction(1, 4)
        out.append(("projector.cliffpair", [
            (Fraction(-1, 2), [w1, w2]),
            (quarter, [D, X, w1, w2]), (-quarter, [D, w1, w2, X]),
            (quarter, [X, w1, w2, D]), (-quarter, [w1, w2, X, D]),
            (-1, [O12]), (bilinear_B(u, v) * Fraction(1, 2), [one])]))

        s0 = ctx.g(env.group.reflections[0].elem)
        scale = ROOT_SCALE.get(env.group.reflections[0].root_norm)
        if scale is not None:
            half = Fraction(1, 2)
            oal = ctx.o_frak(ctx.root_covector(env.group.reflections[0]))
            out.append(("projector.reflection", [
                (Fraction(1, 1), [s0]),
                (-half, [D, X, s0]), (half, [D, s0, X]),
                (-half, [X, s0, D]), (half, [s0, X, D]),
                (as_scalar(scale) * 2, [oal, rho])]))
    return out


def run_oracle_crosscheck(env: SuiteEnv, seed: int = None, samples: int = None,
                          max_degree: int = 3, product_checks: int = 50,
                          include_mutation: bool = True) -> list:
    """Exact agreement between the engine and the concrete module.

    Every factored catalog residual must annihilate all sampled vectors;
    engine products must compose: act(a*b, v) = act(a, act(b, v)).  A
    deliberately perturbed residual must be caught (harness self-test).
    The module exists for the orthonormal configuration only; on a general
    Gram matrix every check is reported as skipped.
    """
    opts = env.options
    seed = opts.seed if seed is None else seed
    samples = opts.oracle_samples if samples is None else samples
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

    def diverges(terms) -> bool:
        """Is the sum nonzero in the engine or on a sampled vector?"""
        engine = env.ctx.zero()
        for c, factors in terms:
            prod = env.ctx.one()
            for f in factors:
                prod = prod * f
            engine = engine + prod * c
        for i in range(samples):
            vec = mod.random_vector(seed + 7919 * i, max_degree)
            acc = None
            for c, factors in terms:
                w = mod.act_factors(factors, vec).scale(as_scalar(c))
                acc = w if acc is None else acc + w
            if not acc.is_zero():
                return True
        return not engine.is_zero()

    def products():
        rng = random.Random(seed)
        for i in range(product_checks):
            a = random_element(env.ctx, rng, max_degree=2)
            b = random_element(env.ctx, rng, max_degree=2)
            vec = mod.random_vector(rng.randrange(10 ** 9), max_degree)
            if mod.act(a * b, vec) != mod.act(a, mod.act(b, vec)):
                return f"trial {i}"
        return None

    residuals = _factored_residuals(env)
    reports = []
    for name, terms in residuals:
        reports.append(report(name, "engine/module concordance",
                              lambda: name if diverges(terms) else None))
    reports.append(report("products", "module action is multiplicative",
                          products))
    if include_mutation:
        mutated = residuals[0][1] + [(1, [env.ctx.one()])]
        reports.append(report("mutation", "perturbed residual must be detected",
                              lambda: None if diverges(mutated) else "mutation"))
    return sorted(reports, key=lambda r: r.id)


def make_env(spec, options: RunOptions = None) -> SuiteEnv:
    if isinstance(spec, SuiteEnv):
        return spec
    if isinstance(spec, ReflectionGroup):
        return SuiteEnv(spec, options)
    return SuiteEnv(parse_group_spec(spec), options)
