import itertools
from fractions import Fraction

import pytest

from cheralg.core import Context, supercommutator as sc
from cheralg.geometry import beta
from cheralg.groups import from_generators, trivial_group
from cheralg.osp import (GAMMA, RELATIONS, NotWeightZero, RelationError,
                         XMINUS, XPLUS, build_osp, p_alpha, p_plus, b_form,
                         _PARITY)
from cheralg.parser import evaluate, form_sum
from cheralg.scalars import Scalar

_SLOTS = {XPLUS: "x", XMINUS: "beta", GAMMA: "gamma"}


def pairing(ctx, w, z):
    """The supersymmetrized pairing of two auxiliary basis directions with
    B: the sum of B^pq w(x_p)*z(x_q), less b(w, z) d/2, and less
    b(w, z) OmegaKappa when both directions are even."""
    b = b_form(w, z)
    rest = "{d}/2" if GAMMA in (w, z) else "{d}/2 + OmegaKappa"
    text = form_sum(f"{_SLOTS[w]}(x{{p}})*{_SLOTS[z]}(x{{q}})",
                    f"{{sum}} - ({b})*({rest})")
    return evaluate(ctx, text(ctx.group))


def test_relations_hold_in_all_small_groups(env_a12, env_b22, env_a23):
    for env in (env_a12, env_b22, env_a23):
        build_osp(env.ctx)                 # raises on any failure
        for _, _, halves in RELATIONS:
            for label, src in halves:
                assert evaluate(env.ctx, src).is_zero(), label


def test_relations_hold_with_general_gram():
    ctx = Context(trivial_group(2, gram=[[1, 1], [1, 3]]))
    build_osp(ctx)


def test_explicit_h(ctx_a12):
    ctx = ctx_a12
    gens = build_osp(ctx)
    s = ctx.g(ctx.group.reflections[0].elem)
    expect = (ctx.x(0) * ctx.y(0) + ctx.x(1) * ctx.y(1) + ctx.one()
              + ctx.scalar_elem(Scalar.kappa(0)) * s)
    assert gens.H == expect
    assert gens.X == ctx.x(0) * ctx.e(0) + ctx.x(1) * ctx.e(1)
    assert gens.Ep.substitute_kappa([0]) == \
        (ctx.x(0) ** 2 + ctx.x(1) ** 2) * Fraction(1, 2)


def test_sqrt2_normalization(ctx_a12):
    gens = build_osp(ctx_a12)
    assert gens.Fp * gens.Fp == gens.Ep          # [F+,F+] = 2E+
    assert sc(gens.Fp, gens.Fm) == gens.H


def test_pair_element_examples(ctx_a12):
    # every ordered pair of basis directions pairs to an osp generator, the
    # same for both orders, and the odd direction pairs with itself to zero
    swap = Context(from_generators([[[0, 1], [1, 0]]], gram=[[2, 1], [1, 2]]))
    for ctx in (ctx_a12, swap):
        gens = build_osp(ctx)
        named = {(XPLUS, XPLUS): gens.Ep * 2, (XPLUS, XMINUS): gens.H,
                 (XPLUS, GAMMA): gens.X, (XMINUS, XMINUS): gens.Em * (-2),
                 (XMINUS, GAMMA): gens.D, (GAMMA, GAMMA): ctx.zero()}
        for w, z in itertools.product((XPLUS, XMINUS, GAMMA), repeat=2):
            want = named[(w, z) if (w, z) in named else (z, w)]
            assert pairing(ctx, w, z) == want, (ctx.group.label, w, z)


def test_a_perturbed_generator_fails_the_relation_check(monkeypatch):
    from cheralg import parser
    monkeypatch.setitem(parser.DEFINITIONS, "H", form_sum(
        "x(x{p})*beta(x{q})", "{sum} + {d}/2 + OmegaKappa + 1"))
    with pytest.raises(RelationError, match="defining relation"):
        build_osp(Context(trivial_group(2)))


def test_projector_examples(ctx_a12):
    ctx = ctx_a12
    s = ctx.g(ctx.group.reflections[0].elem)
    kk = ctx.scalar_elem(Scalar.kappa(0))
    assert p_plus(ctx, ctx.one()) == ctx.one()
    assert p_plus(ctx, ctx.e(0)) == -(kk * s * (ctx.e(0) - ctx.e(1)))
    assert p_plus(ctx, ctx.e(0)) == ctx.o_frak(ctx.covector([1, 0])) * (-2)
    assert p_plus(ctx, s) == kk * (-2)
    assert evaluate(ctx, "Pm(e1)") == p_plus(ctx, ctx.e(0))


def test_projector_difference_is_h_bracket(ctx_a12):
    # P- minus P+ acts as the bracket with H
    ctx = ctx_a12
    gens = build_osp(ctx)
    for src, a in (("x1", ctx.x(0)), ("e1*x2", ctx.e(0) * ctx.x(1)),
                   ("g1*y1", ctx.g(1) * ctx.y(0))):
        assert evaluate(ctx, f"Pm({src})") - p_plus(ctx, a) == sc(gens.H, a)


def test_scasimir_laws(ctx_b22):
    ctx = ctx_b22
    gens = build_osp(ctx)
    S = evaluate(ctx, "Scasimir")
    Om = evaluate(ctx, "Casimir")
    assert (S * S - Om - Fraction(1, 4)).is_zero()
    assert (S * gens.X + gens.X * S).is_zero()
    assert (S * gens.Ep - gens.Ep * S).is_zero()
    assert sc(Om, gens.D).is_zero()
    assert (p_plus(ctx, S) - S * S * 2).is_zero()
    assert (evaluate(ctx, "Pm(Scasimir)") - Om * 2 - Fraction(1, 2)).is_zero()


def test_series_projector(ctx_a12):
    ctx = ctx_a12
    gens = build_osp(ctx)
    m = evaluate(ctx, "M(x1, x2)")
    assert p_alpha(ctx, ctx.one()) == ctx.one()
    assert p_alpha(ctx, m) == m
    a = ctx.x(0) * ctx.y(0) - ctx.x(1) * ctx.y(1)
    pa = p_alpha(ctx, a)
    assert sc(gens.Ep, pa).is_zero()
    assert sc(gens.Em, pa).is_zero()
    with pytest.raises(NotWeightZero):
        p_alpha(ctx, ctx.x(0))


def test_series_projector_bound(ctx_a12):
    from cheralg.osp import NilpotenceBoundExceeded
    ctx = ctx_a12
    a = ctx.x(0) * ctx.y(0) - ctx.x(1) * ctx.y(1)
    with pytest.raises(NilpotenceBoundExceeded):
        p_alpha(ctx, a, bound=0)


def test_generalized_symmetry(env_a12, env_a23):
    for env in (env_a12, env_a23):
        ctx = env.ctx
        gens = build_osp(ctx)
        for u in ("x1", "x2", "x1 + x2"):
            R = evaluate(ctx, f"R({u})")
            gu = evaluate(ctx, f"gamma({u})")
            assert R == evaluate(ctx, f"Qm(gamma({u}))")
            assert (gens.D * R + (R + gu) * gens.D).is_zero()
            Qp = evaluate(ctx, f"Qp(gamma({u}))")
            assert (gens.X * Qp + (Qp - gu) * gens.X).is_zero()


def test_q_plus_on_one(ctx_a12):
    ctx = ctx_a12
    assert evaluate(ctx, "Qp(1)") == build_osp(ctx).H + 1


def test_structure_constants(ctx_a12):
    ctx = ctx_a12
    syms = (XPLUS, XMINUS, GAMMA)

    def pair(w, z):
        return pairing(ctx, w, z)

    for z1, z2, z3, z4 in itertools.product(syms, repeat=4):
        lhs = sc(pair(z1, z2), pair(z3, z4))
        s23 = -1 if (_PARITY[z2] and _PARITY[z3]) else 1
        s24 = -1 if (_PARITY[z2] and _PARITY[z4]) else 1
        s123 = -1 if ((_PARITY[z1] ^ _PARITY[z2]) and _PARITY[z3]) else 1
        rhs = (pair(z1, z4) * b_form(z2, z3)
               + pair(z2, z4) * (b_form(z1, z3) * s23)
               + (pair(z3, z1) * b_form(z2, z4)
                  + pair(z3, z2) * (b_form(z1, z4) * s24)) * s123)
        assert (lhs - rhs).is_zero(), (z1, z2, z3, z4)


def test_adjoint_action_laws(ctx_a23):
    ctx = ctx_a23
    u = ctx.covector([1, 0, 2])
    ue = ctx.from_covector(u)
    ve = ctx.from_vector(beta(u))
    mm = pairing(ctx, XMINUS, XMINUS)
    pp = pairing(ctx, XPLUS, XPLUS)
    pm = pairing(ctx, XPLUS, XMINUS)
    assert sc(mm, ue) == ve * 2
    assert sc(pp, ve) == -(ue * 2)
    assert sc(pm, ue) == ue
    assert sc(pm, ve) == -ve
