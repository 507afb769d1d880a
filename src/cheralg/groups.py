"""Finite real reflection groups of the crystallographic families A, B, D.

Elements are stored as exact rational matrices giving the action on covector
coordinates: row p of the matrix holds the coordinates of the image of x_p.
The contragredient action on V is the inverse transpose, so the natural
pairing is preserved.  Only these families are built in, because their roots
have rational coordinates of squared length 1 or 2, which keeps every
construction inside the scalar ring.  Arbitrary finite subgroups of the
orthogonal group can be supplied as generator matrices; the closure is
enumerated up to a cap.

Element indices follow the order in which the elements are enumerated
(element 0 is the identity); the multiplication table, the inverses and the
reflection data all refer to them, and witnesses print them.  The table is
filled by generator closure.  The generators are the reflections, plus the
first element a breadth-first search from the identity misses, as long as
one does.  One matrix product per element and generator gives that
generator's column of the table and checks closure.  The search tree writes
each element as a parent times a generator, so a row of the table is filled
on first use by integer lookups alone.

A group may be embedded in an ambient dimension larger than its natural one;
the extra coordinates are fixed pointwise.  This keeps identities that need
many distinct orthonormal directions affordable with a tiny group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Covector, QuadraticSpace, Vector, row_reduce
from .scalars import BN_ZERO, as_base

DEFAULT_ORDER_CAP = 10_000

Matrix = tuple  # tuple of rows, each a tuple of Fraction


def _identity_matrix(d: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(d))
                 for i in range(d))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # Row p of the product is the image of x_p under "first a, then b":
    # (ab).x_p = a(b.x_p) requires composing actions; we store plain matrix
    # products and fix the composition order at the call sites.  Zero
    # entries are skipped: a signed permutation has one nonzero per row.
    n = len(a)
    zero = Fraction(0)
    out = []
    for arow in a:
        acc = [zero] * n
        for k, v in enumerate(arow):
            if v:
                for j, w in enumerate(b[k]):
                    if w:
                        acc[j] += v * w
        out.append(tuple(acc))
    return tuple(out)


def _transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def _check_preserves_form(m: Matrix, space: QuadraticSpace):
    """Raise unless m G m^T = G for the Gram matrix G of ``space``; under
    the identity Gram matrix, unless the rows of m are orthonormal, summed
    in plain Fraction arithmetic."""
    d = len(m)
    gram = space.gram
    for p in range(d):
        for q in range(p, d):
            if space.is_identity:
                dot = sum(a * b for a, b in zip(m[p], m[q]))
                ok = dot == (1 if p == q else 0)
            else:
                acc = BN_ZERO
                for k in range(d):
                    if m[p][k] == 0:
                        continue
                    for l in range(d):
                        if m[q][l] == 0:
                            continue
                        acc = acc + as_base(m[p][k] * m[q][l]) * gram[k][l]
                ok = acc == gram[p][q]
            if not ok:
                raise ValueError(
                    "group element does not preserve the bilinear form")


def _primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero positive."""
    denls = [c.denominator for c in vec if c != 0]
    if not denls:
        raise ValueError("zero vector has no primitive form")
    mult = 1
    for dnm in denls:
        mult = mult * dnm // math.gcd(mult, dnm)
    ints = [int(c * mult) for c in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    ints = [v // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def _minus_one_eigenvector(mat: Matrix):
    """Kernel of (M^T + I); one-dimensional for a reflection matrix."""
    n = len(mat)
    rows, pivots = row_reduce([[mat[j][i] + (1 if i == j else 0)
                                for j in range(n)] for i in range(n)])
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ValueError("matrix is not a reflection (fixed space too small)")
    f = free[0]
    sol = [Fraction(0)] * n
    sol[f] = Fraction(1)
    for i, c in enumerate(pivots):
        sol[c] = -rows[i][f]
    return _primitive(sol)


@dataclass(frozen=True)
class Reflection:
    """A reflection with its root data in the distinguished coordinates."""

    elem: int                       # group-element index
    root: tuple                     # covector coordinates (Fraction)
    coroot: tuple                   # vector coordinates (Fraction)
    root_norm: Fraction             # B(root, root)
    class_id: int                   # conjugacy class of the reflection


class ReflectionGroup:
    """A finite B-preserving matrix group with flagged reflections."""

    def __init__(self, space: QuadraticSpace, mats, label: str = "custom"):
        self.space = space
        self.dim = space.dim
        self.label = label
        self.mats = tuple(mats)
        self.index = {m: i for i, m in enumerate(self.mats)}
        if len(self.index) != len(self.mats):
            raise ValueError("duplicate group elements")
        ident = _identity_matrix(self.dim)
        if self.mats[0] != ident:
            raise ValueError("element 0 must be the identity")
        for m in self.mats:
            _check_preserves_form(m, space)
        # A reflection is an involution fixing a hyperplane: trace d - 2.
        d = self.dim
        refl_elems = [i for i, m in enumerate(self.mats)
                      if sum(m[p][p] for p in range(d)) == d - 2
                      and _mat_mul(m, m) == ident]
        self._tree, gens = self._closure_tree(refl_elems)
        # Row i of the multiplication table, filled on first use from the
        # tree; a flat list holds the products in a tenth of a dict's memory.
        self._mul_rows: list = [None] * len(self.mats)
        self.ymats = tuple(_transpose(self.mats[self.inv(i)])
                           for i in range(len(self.mats)))
        self._find_reflections(refl_elems, gens)

    # -- group structure ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.mats)

    def _right_column(self, s: int) -> list:
        """mul(x, s) for every x: the only matrix products of the table, and
        with the generators the closure check."""
        col = []
        for m in self.mats:
            # (gh).x_p = g.(h.x_p); with rows holding basis images this
            # composes as the matrix product mats[h] @ mats[g].
            k = self.index.get(_mat_mul(self.mats[s], m))
            if k is None:
                raise ValueError("group is not closed under multiplication")
            col.append(k)
        return col

    def _closure_tree(self, gens: list):
        """A breadth-first tree from the identity, as entries
        (j, parent, column of s) with j = mul(parent, s) for a generator s,
        and the generators.  The reflections generate a reflection group; an
        element the search misses joins the generators, so rotation-only and
        trivial groups take the same path."""
        gens = list(gens)
        cols = [self._right_column(s) for s in gens]
        n = len(self.mats)
        while True:
            seen = [True] + [False] * (n - 1)
            reached = [0]
            tree = []
            for x in reached:
                for col in cols:
                    j = col[x]
                    if not seen[j]:
                        seen[j] = True
                        reached.append(j)
                        tree.append((j, x, col))
            if len(reached) == n:
                return tree, gens
            missed = seen.index(False)
            gens.append(missed)
            cols.append(self._right_column(missed))

    def _row(self, i: int) -> list:
        row = self._mul_rows[i]
        if row is None:
            # i.(x.s) = (i.x).s: integer lookups along the tree.
            row = [0] * len(self.mats)
            row[0] = i
            for j, parent, col in self._tree:
                row[j] = col[row[parent]]
            self._mul_rows[i] = row
        return row

    def mul(self, i: int, j: int) -> int:
        row = self._mul_rows[i]
        if row is None:
            row = self._row(i)
        return row[j]

    def inv(self, i: int) -> int:
        return self._row(i).index(0)

    # -- reflections ----------------------------------------------------------

    def _find_reflections(self, refl_elems: list, gens: list):
        d = self.dim
        roots = {i: _minus_one_eigenvector(self.mats[i]) for i in refl_elems}
        order = sorted(refl_elems, key=lambda i: roots[i])
        # Conjugacy classes, numbered by first appearance in root order; a
        # class is an orbit under conjugation by the generators.
        conj = [(g, self.inv(g)) for g in gens]
        class_of: dict = {}
        next_id = 0
        for i in order:
            if i in class_of:
                continue
            class_of[i] = next_id
            orbit = [i]
            for r in orbit:
                for g, g_inv in conj:
                    j = self.mul(self.mul(g, r), g_inv)
                    if j not in class_of:
                        class_of[j] = next_id
                        orbit.append(j)
            next_id += 1
        self.num_classes = next_id
        gram = self.space.gram
        if refl_elems and any(not gram[p][q].is_rational()
                              for p in range(d) for q in range(d)):
            raise ValueError("reflection root data needs a rational Gram matrix")
        refs = []
        for i in order:
            alpha = roots[i]
            norm = Fraction(0)
            for p in range(d):
                if alpha[p] == 0:
                    continue
                for q in range(d):
                    if alpha[q] != 0:
                        norm += alpha[p] * alpha[q] * gram[p][q].a
            beta_alpha = [sum((alpha[q] * gram[q][p].a for q in range(d)
                               if alpha[q] != 0), Fraction(0))
                          for p in range(d)]
            coroot = tuple(2 * b / norm for b in beta_alpha)
            refs.append(Reflection(elem=i, root=alpha, coroot=coroot,
                                   root_norm=norm, class_id=class_of[i]))
        self.reflections = tuple(refs)
        self.reflection_by_elem = {r.elem: r for r in refs}

    # -- actions ----------------------------------------------------------------

    def act(self, g: int, u):
        """g.u for a covector (through ``mats``) or a vector (through the
        contragredient ``ymats``)."""
        if isinstance(u, Covector):
            m, make = self.mats[g], u.space.covector
        elif isinstance(u, Vector):
            m, make = self.ymats[g], u.space.vector
        else:
            raise TypeError("act expects a Covector or Vector")
        d, coords = self.dim, u.coords
        return make(
            sum((coords[p] * m[p][q] for p in range(d) if m[p][q] != 0),
                start=coords[0] * 0)
            for q in range(d))

    def __repr__(self):
        return (f"ReflectionGroup({self.label}, order={self.order}, "
                f"dim={self.dim}, reflections={len(self.reflections)}, "
                f"classes={self.num_classes})")


def _signed_permutation_matrix(d, perm, signs):
    zero = Fraction(0)
    rows = []
    for p in range(d):
        row = [zero] * d
        if p < len(perm):
            row[perm[p]] = Fraction(signs[p])
        else:
            row[p] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows)


def build_group(family: str, rank: int, ambient_dim: int,
                gram=None, order_cap: int = DEFAULT_ORDER_CAP) -> ReflectionGroup:
    """Construct a type A/B/D group embedded in the given ambient dimension."""
    family = family.upper()
    if rank < 1:
        raise ValueError("rank must be positive")
    if family == "A":
        natural = rank + 1
    elif family in ("B", "D"):
        natural = rank
    else:
        raise ValueError(f"unsupported family {family!r}; only A, B, D are "
                         "crystallographic with unit/length-2 roots here")
    if ambient_dim < natural:
        raise ValueError(f"{family}{rank} needs ambient dimension >= {natural}")

    if family == "A":
        order = math.factorial(rank + 1)
    elif family == "B":
        order = 2 ** rank * math.factorial(rank)
    else:
        order = 2 ** (rank - 1) * math.factorial(rank)
    if order > order_cap:
        raise ValueError(f"group order {order} exceeds cap {order_cap}")

    mats = []
    if family == "A":
        for perm in itertools.permutations(range(natural)):
            mats.append(_signed_permutation_matrix(
                ambient_dim, perm, (1,) * natural))
    else:
        for perm in itertools.permutations(range(natural)):
            for signs in itertools.product((1, -1), repeat=natural):
                if family == "D" and signs.count(-1) % 2:
                    continue
                mats.append(_signed_permutation_matrix(
                    ambient_dim, perm, signs))
    ident = _identity_matrix(ambient_dim)
    mats.sort(key=lambda m: m != ident)
    space = QuadraticSpace(ambient_dim, gram)
    return ReflectionGroup(space, mats, label=f"{family}{rank}@{ambient_dim}")


def from_generators(matrices, gram=None, closure_cap: int = DEFAULT_ORDER_CAP,
                    label: str = "custom") -> ReflectionGroup:
    """Enumerate the closure of rational generator matrices (capped)."""
    if not matrices:
        raise ValueError("at least one generator matrix is required")
    d = len(matrices[0])
    gens = []
    for m in matrices:
        rows = tuple(tuple(Fraction(v) for v in row) for row in m)
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError("generator matrices must be square, same size")
        gens.append(rows)
    space = QuadraticSpace(d, gram)
    for g in gens:
        _check_preserves_form(g, space)
    ident = _identity_matrix(d)
    seen = {ident}
    frontier = [ident]
    ordered = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _mat_mul(m, g)
                if prod not in seen:
                    if len(seen) >= closure_cap:
                        raise ValueError(
                            f"closure exceeds the cap of {closure_cap} elements")
                    seen.add(prod)
                    ordered.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return ReflectionGroup(space, ordered, label=label)


def trivial_group(dim: int, gram=None) -> ReflectionGroup:
    """The one-element group; the engine then has no deformation classes."""
    space = QuadraticSpace(dim, gram)
    return ReflectionGroup(space, [_identity_matrix(dim)], label=f"1@{dim}")


def parse_group_spec(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> ReflectionGroup:
    """Parse strings like ``A1@2``, ``B2@2``, ``A2@3``."""
    s = spec.strip()
    if "@" not in s or len(s) < 4:
        raise ValueError(f"bad group spec {spec!r}; expected like 'A1@2'")
    head, _, tail = s.partition("@")
    family = head[0]
    try:
        rank = int(head[1:])
        ambient = int(tail)
    except ValueError as exc:
        raise ValueError(f"bad group spec {spec!r}") from exc
    return build_group(family, rank, ambient, order_cap=order_cap)
