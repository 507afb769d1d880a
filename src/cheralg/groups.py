"""Finite real reflection groups of the crystallographic families A, B, D.

An element is held as sparse integer rows giving its action on covector
coordinates (``x_rows``): row p lists the nonzero pairs (q, entry) of the
image of x_p, an entry an int where integral and a Fraction otherwise.  The
contragredient action on V is the inverse transpose, so the natural pairing
is preserved; its rows (``y_rows``) are the sparse transpose of the
inverse's.  The rows are the group's only matrix form, and ``act`` applies
them too.  Only the families A, B and D are built in, because their roots
have rational coordinates of squared length 1 or 2, which keeps every
construction inside the scalar ring.  They are signed-permutation groups,
one entry +-1 per row, so ``build_group`` writes each element from a table
of the 2d rows ((q, +-1),) and the fixed ambient rows.  Arbitrary finite
subgroups of the orthogonal group can be supplied as generator matrices;
the closure is enumerated breadth-first up to a cap.

Every matrix product of the module is taken by one routine,
``_row_product``, on the rows; a one-entry row picks one row of the right
factor, scaled, without a sum.  The closure of custom generators, the
reflection test (trace d - 2 and square 1), the columns of the table and
the form check m G m^T = G (m times the sparse Gram rows of the space,
times the sparse transpose of m) all multiply through it, so a signed
permutation under the identity form is checked in O(d).  The root of a
reflection s is read off I - s: u - s.u lies on the root for every covector
u, so the first nonzero row of I - s, scaled to coprime integers, is the
root.

Element indices follow the order in which the elements are enumerated
(element 0 is the identity); the multiplication table, the inverses and the
reflection data all refer to them, and witnesses print them.  The table is
filled by generator closure.  The generators are a subset of the
reflections, taken greedily in element order: a reflection joins only when
a breadth-first search from the identity over the generators so far misses
it.  An element the search still misses joins too, as long as one does.
One product per element and generator, looked up by its rows, gives that
generator's column of the table and checks closure.  Only the generators are
checked to preserve the bilinear form; every element is a product of them.
The search tree writes each element as a parent times a generator, so a row
of the table is filled on first use by integer lookups alone, and the
inverses follow the tree too: building a group fills only the rows of its
generators and their inverses.

A group may be embedded in an ambient dimension larger than its natural one;
the extra coordinates are fixed pointwise.  This keeps identities that need
many distinct orthonormal directions affordable with a tiny group.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .geometry import (Covector, QuadraticSpace, Vector, sparse_transpose,
                       times_matrix)
from .scalars import int_if_integral

DEFAULT_ORDER_CAP = 10_000


def _identity_rows(d: int) -> tuple:
    return tuple(((p, 1),) for p in range(d))


def _sparse_rows(m) -> tuple:
    """The rows of the dense matrix m without their zeros, in the form of
    ``x_rows``."""
    return tuple(tuple((q, int_if_integral(v))
                       for q, v in enumerate(map(Fraction, row)) if v)
                 for row in m)


def _element_rows(m, d: int, kind: str, i: int) -> tuple:
    """The matrix m, the i-th ``kind`` of the input, as sparse rows: m is in
    the form of ``x_rows`` or dense (rows of numbers), converted here.
    Raise ValueError unless it has d rows over the columns 0..d-1."""
    if m and m[0] and isinstance(m[0][0], tuple):
        cols = sorted({q for row in m for q, _ in row})
        if len(m) == d and 0 <= cols[0] and cols[-1] < d:
            return tuple(m)
        shape = f"{len(m)} sparse rows over the columns {cols[0]}..{cols[-1]}"
    else:
        widths = sorted({len(row) for row in m})
        if len(m) == d and widths == [d]:
            return _sparse_rows(m)
        shape = f"{len(m)}x{'/'.join(map(str, widths)) or 0}"
    raise ValueError(f"{kind} {i} is {shape}, not {d}x{d}")


def _row_product(a: tuple, b: tuple) -> tuple:
    """The product a @ b of two matrices in the sparse-row form of
    ``x_rows``, in that form: every entry goes through
    ``int_if_integral``, so equal matrices give equal rows and a lookup
    by them hashes small ints, not Fractions.  Row p of a stored matrix is
    the image of x_p, so a @ b is "first a, then b" on the covectors.  A
    one-entry row of a, the only kind a signed permutation has, is row k
    of b times the entry."""
    prod = []
    for arow in a:
        if len(arow) == 1:
            (k, v), = arow
            brow = b[k]
            prod.append(brow if v == 1 else tuple(
                (q, int_if_integral(v * w)) for q, w in brow))
            continue
        acc: dict = {}
        for k, v in arow:
            for q, w in b[k]:
                acc[q] = acc.get(q, 0) + v * w
        row = ((q, int_if_integral(c)) for q, c in sorted(acc.items()))
        prod.append(tuple((q, c) for q, c in row if c))
    return tuple(prod)


def _check_preserves_form(rows: tuple, space: QuadraticSpace):
    """Raise unless m G m^T = G for the Gram matrix G of ``space`` and the
    matrix m with these sparse rows: two products by ``_row_product``."""
    gram = space.gram
    if _row_product(_row_product(rows, gram), sparse_transpose(rows)) != gram:
        raise ValueError("group element does not preserve the bilinear form")


def _primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero positive."""
    if not any(vec):
        raise ValueError("zero vector has no primitive form")
    mult = math.lcm(*(c.denominator for c in vec))
    ints = [int(c * mult) for c in vec]
    g = math.gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
    return tuple(Fraction(v // g) for v in ints)


def _trace(rows: tuple):
    return sum(v for p, row in enumerate(rows) for q, v in row if q == p)


def _root(rows: tuple):
    """The root of the reflection with these rows: u - s.u lies on the
    root for every covector u, so the first nonzero row of I - s, made
    primitive.  Row p of I - s is zero exactly when row p is ((p, 1),)."""
    p = next(p for p, row in enumerate(rows) if row != ((p, 1),))
    vec = [0] * len(rows)
    vec[p] = 1
    for q, v in rows[p]:
        vec[q] -= v
    return _primitive(vec)


class Reflection(NamedTuple):
    """A reflection with its root data in the distinguished coordinates."""

    elem: int                       # group-element index
    root: tuple                     # covector coordinates (Fraction)
    coroot: tuple                   # vector coordinates (Fraction)
    root_norm: Fraction             # B(root, root)
    class_id: int                   # conjugacy class of the reflection


class ReflectionGroup:
    """A finite B-preserving matrix group with flagged reflections.

    ``elements`` lists each element's sparse rows in the form of
    ``x_rows``, element 0 the identity; a dense matrix among them (rows of
    numbers) is converted to rows once, here.  Everything the group
    computes reads the rows."""

    def __init__(self, space: QuadraticSpace, elements, label: str = "custom"):
        self.space = space
        self.dim = space.dim
        self.label = label
        self._x_rows = tuple(_element_rows(m, self.dim, "group element", i)
                             for i, m in enumerate(elements))
        ident = _identity_rows(self.dim)
        if not self._x_rows or self._x_rows[0] != ident:
            raise ValueError("element 0 must be the identity")
        # Row i of the multiplication table, filled on first use from the
        # tree; a flat list holds the products in a tenth of a dict's memory.
        # The y views and the reflection factors are filled on first use the
        # same way: the engine's rewrite memos read them on every miss.
        n = len(self._x_rows)
        self._mul_rows: list = [None] * n
        self._y_rows: list = [None] * n
        self._shared_rows: dict = {}
        self._refl_factors = None
        # A reflection is an involution fixing a hyperplane: trace d - 2.
        refl_elems = [i for i, m in enumerate(self._x_rows)
                      if _trace(m) == self.dim - 2
                      and _row_product(m, m) == ident]
        self._tree, gens = self._closure_tree(refl_elems)
        self._inverses = self._tree_inverses()
        self._find_reflections(refl_elems, gens)

    # -- group structure ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._x_rows)

    def _right_column(self, s: int, keys: dict) -> list:
        """mul(x, s) for every x: the only matrix products of the table, and
        with the generators the closure check.  The products are taken by
        ``_row_product`` and looked up in ``keys``, which maps each
        element's ``x_rows`` to its index."""
        # (gh).x_p = g.(h.x_p); with rows holding basis images this
        # composes as the matrix product of h's rows by g's.
        srows = self.x_rows(s)
        col = []
        for xrows in self._x_rows:
            k = keys.get(_row_product(srows, xrows))
            if k is None:
                raise ValueError("group is not closed under multiplication")
            col.append(k)
        return col

    def _closure_tree(self, refls: list):
        """A breadth-first tree from the identity, as entries
        (j, parent, column of s) with j = mul(parent, s) for a generator s,
        and the generators.

        The generators are a subset of the reflections, taken greedily in
        element order: a reflection joins when the search over the
        generators so far has not reached it, and the search is integer
        lookups only.  The reflections generate a reflection group; an
        element the search still misses joins the generators, so
        rotation-only and trivial groups take the same path.  Each
        generator is checked to preserve the bilinear form when it is
        chosen, before its column is computed; every element is a product
        of generators along the tree, so every element preserves it."""
        n = self.order
        keys = {rows: i for i, rows in enumerate(self._x_rows)}
        if len(keys) != n:
            raise ValueError("duplicate group elements")
        candidates = iter(refls)
        gens: list = []
        cols: list = []
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
            s = next((r for r in candidates if not seen[r]), None)
            if s is None:
                s = seen.index(False)
            _check_preserves_form(self._x_rows[s], self.space)
            gens.append(s)
            cols.append(self._right_column(s, keys))

    def row(self, i: int) -> list:
        """Row i of the multiplication table: row(i)[j] == mul(i, j)."""
        row = self._mul_rows[i]
        if row is None:
            # i.(x.s) = (i.x).s: integer lookups along the tree.
            row = [0] * self.order
            row[0] = i
            for j, parent, col in self._tree:
                row[j] = col[row[parent]]
            self._mul_rows[i] = row
        return row

    def mul(self, i: int, j: int) -> int:
        row = self._mul_rows[i]
        if row is None:
            row = self.row(i)
        return row[j]

    def inv(self, i: int) -> int:
        return self._inverses[i]

    def _tree_inverses(self) -> list:
        """The inverse of every element along the tree:
        inv(parent.s) = inv(s).inv(parent), where inv(s) is the x with
        x.s = 1 in the column of s.  Only the rows of the generators'
        inverses are filled."""
        invs = [0] * self.order
        gen_inv: dict = {}
        for j, parent, col in self._tree:
            s = col[0]
            if s not in gen_inv:
                gen_inv[s] = col.index(0)
            invs[j] = self.mul(gen_inv[s], invs[parent])
        return invs

    # -- reflections ----------------------------------------------------------

    def _find_reflections(self, refl_elems: list, gens: list):
        d = self.dim
        roots = {i: _root(self._x_rows[i]) for i in refl_elems}
        order = sorted(refl_elems, key=lambda i: roots[i])
        # Conjugacy classes, numbered by first appearance in root order; a
        # class is an orbit under conjugation by the generators, taken as
        # g.r.g^-1 = inv(g.inv(g.r)) so that only the generators' rows fill.
        class_of: dict = {}
        next_id = 0
        for i in order:
            if i in class_of:
                continue
            class_of[i] = next_id
            orbit = [i]
            for r in orbit:
                for g in gens:
                    j = self.inv(self.mul(g, self.inv(self.mul(g, r))))
                    if j not in class_of:
                        class_of[j] = next_id
                        orbit.append(j)
            next_id += 1
        self.num_classes = next_id
        gram = self.space.gram
        if refl_elems and any(not x.is_rational()
                              for row in gram for _, x in row):
            raise ValueError("reflection root data needs a rational Gram matrix")
        refs = []
        for i in order:
            alpha = roots[i]
            # beta(alpha)_p = sum_q alpha_q B_qp, and B(alpha, alpha) is its
            # pairing with alpha
            beta_alpha = [Fraction(0)] * d
            for q, a in enumerate(alpha):
                if a:
                    for p, x in gram[q]:
                        beta_alpha[p] += a * x.a
            norm = sum((a * b for a, b in zip(alpha, beta_alpha) if a),
                       Fraction(0))
            coroot = tuple(2 * b / norm for b in beta_alpha)
            refs.append(Reflection(elem=i, root=alpha, coroot=coroot,
                                   root_norm=norm, class_id=class_of[i]))
        self.reflections = tuple(refs)
        self.reflection_by_elem = {r.elem: r for r in refs}
        # element index -> 1-based position in `reflections`, the k of s{k}
        self.reflection_number = {r.elem: k for k, r in enumerate(refs, 1)}

    # -- integer views ----------------------------------------------------------

    def x_rows(self, g: int) -> tuple:
        """The rows of element g: row p holds the pairs (q, entry) with
        entry != 0 of the image of x_p, an int when integral and a
        Fraction otherwise."""
        return self._x_rows[g]

    def y_rows(self, g: int) -> tuple:
        """The rows of element g acting on vectors, in the form of
        ``x_rows``: the sparse transpose of ``x_rows(inv(g))``."""
        rows = self._y_rows[g]
        if rows is None:
            # Rows repeat across elements (a signed permutation matrix has
            # one of 2d rows), so each distinct row is stored once.
            shared = self._shared_rows
            rows = self._y_rows[g] = tuple(
                shared.setdefault(row, row)
                for row in sparse_transpose(self._x_rows[self.inv(g)]))
        return rows

    def reflection_factors(self, j: int, r: int) -> tuple:
        """The triples (reflection element, class id, root[j] * coroot[r])
        over the reflections where that product is nonzero, in reflection
        order; the product is an int when integral, else a Fraction."""
        table = self._refl_factors
        if table is None:
            d = self.dim
            table = [[[] for _ in range(d)] for _ in range(d)]
            for refl in self.reflections:
                for jj, a in enumerate(refl.root):
                    for rr, c in enumerate(refl.coroot):
                        if a and c:
                            table[jj][rr].append((refl.elem, refl.class_id,
                                                  int_if_integral(a * c)))
            table = self._refl_factors = [[tuple(f) for f in row]
                                          for row in table]
        return table[j][r]

    # -- actions ----------------------------------------------------------------

    def act(self, g: int, u):
        """g.u for a covector (through ``x_rows``) or a vector (through the
        contragredient ``y_rows``)."""
        if isinstance(u, Covector):
            return times_matrix(u, self.x_rows(g))
        if isinstance(u, Vector):
            return times_matrix(u, self.y_rows(g))
        raise TypeError("act expects a Covector or Vector")

    def __repr__(self):
        return (f"ReflectionGroup({self.label}, order={self.order}, "
                f"dim={self.dim}, reflections={len(self.reflections)}, "
                f"classes={self.num_classes})")


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

    # The order, (rank + 1)! for A, 2.4...(2 rank) for B and 4.6...(2 rank)
    # for D, is multiplied up only until it passes the cap.
    factors = (range(2, natural + 1) if family == "A" else
               range(2 if family == "B" else 4, 2 * natural + 1, 2))
    for order in itertools.accumulate(factors, operator.mul, initial=1):
        if order > order_cap:
            raise ValueError(f"{family}{rank} has more elements than the "
                             f"order cap of {order_cap}")

    # Row p of the signed permutation (perm, signs) is ((perm[p], signs[p]),),
    # one of 2d shared rows; the ambient coordinates keep the identity's.
    # The first permutation and the first sign pattern make the identity
    # element 0.
    table = {(q, s): ((q, s),) for q in range(natural) for s in (1, -1)}
    fixed = _identity_rows(ambient_dim)[natural:]
    if family == "A":
        patterns = [(1,) * natural]
    else:
        patterns = [signs
                    for signs in itertools.product((1, -1), repeat=natural)
                    if family == "B" or not signs.count(-1) % 2]
    elements = [tuple(map(table.__getitem__, zip(perm, signs))) + fixed
                for perm in itertools.permutations(range(natural))
                for signs in patterns]
    space = QuadraticSpace(ambient_dim, gram)
    return ReflectionGroup(space, elements,
                           label=f"{family}{rank}@{ambient_dim}")


def from_generators(matrices, gram=None, closure_cap: int = DEFAULT_ORDER_CAP,
                    label: str = "custom") -> ReflectionGroup:
    """Enumerate the closure of rational generator matrices (capped)."""
    if not matrices:
        raise ValueError("at least one generator matrix is required")
    d = len(matrices[0])
    gens = [_element_rows(m, d, "generator", k)
            for k, m in enumerate(matrices)]
    space = QuadraticSpace(d, gram)
    for g in gens:
        _check_preserves_form(g, space)
    ident = _identity_rows(d)
    seen = {ident}
    frontier = [ident]
    ordered = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _row_product(m, g)
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
    return ReflectionGroup(space, [_identity_rows(dim)], label=f"1@{dim}")


def parse_group_spec(spec: str) -> ReflectionGroup:
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
    return build_group(family, rank, ambient)
