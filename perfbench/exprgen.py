"""Seeded expression pool for the eval-D4_4 workload.

Every expression is built from one of a fixed list of shapes.  A shape fixes
the syntax and the degree bounds (total x/y degree at most 4, y degree at
most 3), so no request can take seconds where the others take milliseconds.
Expressions use only the x/y/e/s names, scalars, gamma, rho, M and A in
covector-taking position, sums, powers and brackets: no projector, no osp
name, and no Witt or root name in element position.
"""

from __future__ import annotations

import random

DIM = 4            # ambient dimension of D4@4
NREFL = 12         # reflections of D4


def _p(rng):
    return rng.randint(1, DIM)


def _x(rng):
    return f"x{_p(rng)}"


def _y(rng):
    return f"y{_p(rng)}"


def _e(rng):
    return f"e{_p(rng)}"


def _s(rng):
    return f"s{rng.randint(1, NREFL)}"


def _coef(rng):
    return rng.choice(["2", "3", "k1", "i", "sqrt2", "2*k1", "(1 + i)"])


def _cov(rng):
    """A covector: a basis covector, a short combination, or a Witt or root
    name (allowed in covector position only)."""
    kind = rng.randrange(4)
    if kind == 0:
        return _x(rng)
    if kind == 1:
        p, q = rng.sample(range(1, DIM + 1), 2)
        return f"x{p} {rng.choice('+-')} {rng.randint(1, 3)}*x{q}"
    if kind == 2:
        return f"alpha{rng.randint(1, NREFL)}"
    return rng.choice(["zp1", "zm1", "zp2", "zm2"])


def _lin(rng):
    """A degree-one element: x, y, e or gamma of a covector."""
    kind = rng.randrange(4)
    if kind == 0:
        return _x(rng)
    if kind == 1:
        return _y(rng)
    if kind == 2:
        return _e(rng)
    return f"gamma({_cov(rng)})"


SHAPES = {
    "yxs": lambda r: f"{_y(r)}*{_x(r)}*{_s(r)}",
    "xye": lambda r: f"{_coef(r)}*{_x(r)}*{_y(r)}*{_e(r)}",
    "super": lambda r: f"[{_coef(r)}*{_y(r)}, {_x(r)}*{_e(r)}]",
    "anti": lambda r: f"{{gamma({_cov(r)}), gamma({_cov(r)})}}",
    "bracket_s": lambda r: f"[{_lin(r)}, {_s(r)}]",
    "square": lambda r: f"({_x(r)} + {_coef(r)}*{_y(r)})^2",
    "M": lambda r: f"M({_cov(r)}, {_cov(r)})*{_e(r)}",
    "rho": lambda r: f"rho({_s(r)}, {_s(r)})*{_x(r)}",
    "A3": lambda r: f"A({_cov(r)}, {_cov(r)}, {_cov(r)})*{_y(r)}",
    "kappa_sum":
        lambda r: f"k1*{_s(r)}*{_x(r)} + {_y(r)}*{_e(r)} - {_coef(r)}",
    "nested": lambda r: f"[[{_y(r)}, {_x(r)}], {_s(r)}*{_e(r)}]",
    "div": lambda r: f"({_x(r)}*{_y(r)} - {_y(r)}*{_x(r)})/2",
    "yyxx": lambda r: f"{_y(r)}*{_y(r)}*{_x(r)}*{_x(r)}",
    "cube": lambda r: f"({_x(r)} + {_y(r)} + {_s(r)})^3",
    "bracket2": lambda r: f"[{_y(r)}*{_y(r)}, {_x(r)}*{_x(r)}*{_e(r)}]",
    "MM": lambda r: f"M({_cov(r)}, {_cov(r)})*M({_cov(r)}, {_cov(r)})",
}


def make_pool(seed: int, per_shape: int) -> list:
    """Distinct (shape, expression) pairs, per_shape of each shape."""
    rng = random.Random(seed)
    pool = []
    for name, make in SHAPES.items():
        seen = set()
        tries = 0
        while len(seen) < per_shape:
            tries += 1
            if tries > 100 * per_shape:
                raise ValueError(f"shape {name} has too few distinct forms")
            expr = make(rng)
            if expr not in seen:
                seen.add(expr)
                pool.append((name, expr))
    return pool
