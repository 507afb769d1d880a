"""The sparse sum that Scalar, Element, PolySpinor, Covector and Vector
share.

``merged`` is checked against a plain-dict reference with BaseNumber
coefficients, so a fault in it fails here without reading the engine or
the module; the group laws are then checked on each kind on seeded random
values."""

import random

import pytest

from cheralg.core import Context, random_element
from cheralg.geometry import QuadraticSpace
from cheralg.groups import from_generators
from cheralg.oracle import SpinorModule
from cheralg.scalars import BN_ZERO, BaseNumber, Scalar, merged

SEEDS = range(6)


def _coefficient(rng):
    return BaseNumber(rng.randint(-2, 2), rng.randint(-1, 1))


def _number_dict(rng):
    """Up to five nonzero coefficients on the keys 0..5, so two dicts
    share keys and some shared coefficients cancel."""
    out = {}
    for _ in range(rng.randint(0, 5)):
        c = _coefficient(rng)
        if not c.is_zero():
            out[rng.randrange(6)] = c
    return out


def _reference(a, b, subtract):
    out = {}
    for key in {**a, **b}:
        v = a.get(key, BN_ZERO)
        w = b.get(key, BN_ZERO)
        s = v - w if subtract else v + w
        if not s.is_zero():
            out[key] = s
    return out


@pytest.mark.parametrize("seed", range(40))
def test_merged_matches_a_plain_dict_sum(seed):
    rng = random.Random(seed)
    a, b = _number_dict(rng), _number_dict(rng)
    if rng.random() < 0.3:      # b cancels some of a's terms
        b.update({k: -v for k, v in a.items() if rng.random() < 0.5})
    before = (dict(a), dict(b))
    for subtract in (False, True):
        assert merged(a, b, subtract) == _reference(a, b, subtract)
    assert (a, b) == before, "merged changed an operand"


def _scalar(rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = () if rng.random() < 0.4 else ((rng.randrange(2),
                                              rng.randint(1, 2)),)
        terms[key] = _coefficient(rng)
    return Scalar(terms)


def _swap_context():
    return Context(from_generators([[[0, 1], [1, 0]]],
                                   gram=[[2, 1], [1, 2]]))


def _samplers(env_a12):
    ctx = env_a12.ctx
    swap = _swap_context()
    module = SpinorModule(ctx)
    samplers = {
        "Scalar": _scalar,
        "Element-A1@2": lambda rng: random_element(ctx, rng, n_terms=4),
        "Element-swap-gram": lambda rng: random_element(swap, rng,
                                                        n_terms=4),
        "PolySpinor": lambda rng: module.random_vector(
            rng.randrange(10**6), max_degree=2),
    }
    for gram, space in (("identity", ctx.space), ("swap-gram", swap.space)):
        for name, make in (("Covector", space.covector),
                           ("Vector", space.vector)):
            samplers[f"{name}-{gram}"] = (
                lambda rng, make=make: make([_scalar(rng) for _ in range(2)]))
    return samplers


@pytest.mark.parametrize("kind", [
    "Scalar", "Element-A1@2", "Element-swap-gram", "PolySpinor",
    "Covector-identity", "Vector-identity", "Covector-swap-gram",
    "Vector-swap-gram"])
def test_sum_laws(kind, env_a12):
    sample = _samplers(env_a12)[kind]
    for seed in SEEDS:
        rng = random.Random(seed)
        a, b, c = sample(rng), sample(rng), sample(rng)
        # a sum that cancels part of a
        b = b - a if rng.random() < 0.5 else b
        values = [a, b, c, (a + b) - b, a - a, -(-a), a + (b + c),
                  (a + b) + c, b - a]
        assert values[3] == a
        assert values[4].is_zero() and not values[4].terms
        assert values[5] == a
        assert values[6] == values[7]
        assert (a - b) == -(b - a)
        for v in values:
            assert type(v) is type(a)
            assert all(not coef.is_zero() for coef in v.terms.values())


def test_covectors_and_vectors_sum_within_one_kind_and_space():
    space = QuadraticSpace(2)
    other = QuadraticSpace(2, gram=[[2, 1], [1, 2]])
    u, v = space.covector([1, 2]), space.vector([1, 2])
    for a, b in ((u, v), (v, u), (u, other.covector([1, 2])),
                 (v, other.vector([1, 2]))):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    for sp in (space, other):
        with pytest.raises(IndexError):
            sp.basis_covector(sp.dim)
        with pytest.raises(IndexError):
            sp.basis_vector(-1)
        with pytest.raises(ValueError):
            sp.covector([1, 2, 3])
    assert (u * 0).is_zero() and u * 0 == u - u


def test_scaling_by_a_scalar_builds_no_scalar_to_compare(monkeypatch):
    """An Element or PolySpinor times a Scalar tests the Scalar for zero
    and one on its own terms: comparing it with an int would build a
    Scalar through Scalar.of on every product."""
    ctx = Context(from_generators([[[0, 1], [1, 0]]]))
    mod = SpinorModule(ctx)
    x1, vec = ctx.x(0), mod.random_vector(3)
    kappa, two = Scalar.kappa(0), Scalar.of(2)
    made = []
    of = Scalar.of

    def counted(x):
        made.append(x)
        return of(x)

    monkeypatch.setattr(Scalar, "of", staticmethod(counted))
    products = [x1 * kappa, x1 * two, x1 * Scalar({}), vec.scale(kappa),
                vec.scale(two), vec.scale(Scalar({}))]
    assert made == []
    monkeypatch.undo()
    assert products[0].terms == {m: c * kappa for m, c in x1.terms.items()}
    assert products[1] == x1 + x1 and products[2].is_zero()
    assert products[3].terms == {k: c * kappa for k, c in vec.terms.items()}
    assert products[4] == vec + vec and products[5].is_zero()
    assert x1 * Scalar.of(1) is x1 and vec.scale(Scalar.of(1)) is vec
