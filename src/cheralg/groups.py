"""Finite real reflection groups of the crystallographic families A, B, D.

Elements are stored as exact rational matrices giving the action on covector
coordinates: row p of the matrix holds the coordinates of the image of x_p.
The contragredient action on V is the inverse transpose, so the natural
pairing is preserved.  Only these families are built in, because their roots
have rational coordinates of squared length 1 or 2, which keeps every
construction inside the scalar ring.  Arbitrary finite subgroups of the
orthogonal group can be supplied as generator matrices; the closure is
enumerated breadth-first up to a cap.

Every matrix product of the module is taken by one routine,
``_row_product``, on sparse integer rows: row p lists the nonzero
(q, entry) pairs of row p, an entry an int where integral.  The closure of
custom generators, the reflection test (trace d - 2 and square 1) and the
columns of the table all multiply through it.  The root of a reflection s
is read off I - s: u - s.u lies on the root for every covector u, so the
first nonzero row of I - s, scaled to coprime integers, is the root.

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
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Covector, QuadraticSpace, Vector, times_matrix
from .scalars import BN_ZERO, as_base, int_if_integral

DEFAULT_ORDER_CAP = 10_000

Matrix = tuple  # tuple of rows, each a tuple of Fraction


def _identity_matrix(d: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(d))
                 for i in range(d))


def _sparse_rows(m: Matrix) -> tuple:
    """The rows of m without their zeros, in the form of ``x_rows``."""
    return tuple(tuple((q, int_if_integral(v)) for q, v in enumerate(row) if v)
                 for row in m)


def _row_product(a: tuple, b: tuple) -> tuple:
    """The product a @ b of two matrices in the sparse-row form of
    ``x_rows``, in that form: every entry goes through
    ``int_if_integral``, so equal matrices give equal rows and a lookup
    by them hashes small ints, not Fractions.  Row p of a stored matrix is
    the image of x_p, so a @ b is "first a, then b" on the covectors."""
    prod = []
    for arow in a:
        acc: dict = {}
        for k, v in arow:
            for q, w in b[k]:
                acc[q] = acc.get(q, 0) + v * w
        prod.append(tuple((q, int_if_integral(c))
                          for q, c in sorted(acc.items()) if c))
    return tuple(prod)


def _dense(rows: tuple, d: int) -> Matrix:
    """The dense Fraction matrix of sparse rows."""
    return tuple(tuple(Fraction(dict(row).get(q, 0)) for q in range(d))
                 for row in rows)


def _transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def _check_preserves_form(m: Matrix, space: QuadraticSpace):
    """Raise unless m G m^T = G for the Gram matrix G of ``space``."""
    d = len(m)
    gram = space.gram
    for p in range(d):
        for q in range(p, d):
            acc = BN_ZERO
            for k in range(d):
                if m[p][k] == 0:
                    continue
                for l in range(d):
                    if m[q][l] == 0:
                        continue
                    acc = acc + as_base(m[p][k] * m[q][l]) * gram[k][l]
            if acc != gram[p][q]:
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


def _root(m: Matrix):
    """The root of the reflection m: u - m.u lies on the root for every
    covector u, so the first nonzero row of I - m, made primitive."""
    d = len(m)
    return _primitive(next(
        row for row in (tuple((p == q) - m[p][q] for q in range(d))
                        for p in range(d)) if any(row)))


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
        ident = _identity_matrix(self.dim)
        if self.mats[0] != ident:
            raise ValueError("element 0 must be the identity")
        # Row i of the multiplication table, filled on first use from the
        # tree; a flat list holds the products in a tenth of a dict's memory.
        # The integer views of the matrices and of the reflection data are
        # filled on first use the same way: the engine's rewrite memos read
        # them on every miss, so the Fraction entries are scanned and
        # converted once per group, not once per miss.  The closure reads
        # the x views of every element.
        self._mul_rows: list = [None] * len(self.mats)
        self._x_rows: list = [None] * len(self.mats)
        self._y_rows: list = [None] * len(self.mats)
        self._shared_rows: dict = {}
        self._refl_factors = None
        # A reflection is an involution fixing a hyperplane: trace d - 2.
        d = self.dim
        ident_rows = _sparse_rows(ident)
        refl_elems = [i for i, m in enumerate(self.mats)
                      if sum(m[p][p] for p in range(d)) == d - 2
                      and _row_product(self.x_rows(i), self.x_rows(i))
                      == ident_rows]
        self._tree, gens = self._closure_tree(refl_elems)
        self._inverses = self._tree_inverses()
        self.ymats = tuple(_transpose(self.mats[self.inv(i)])
                           for i in range(len(self.mats)))
        self._find_reflections(refl_elems, gens)

    # -- group structure ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.mats)

    def _right_column(self, s: int, keys: dict) -> list:
        """mul(x, s) for every x: the only matrix products of the table, and
        with the generators the closure check.  The products are taken by
        ``_row_product`` and looked up in ``keys``, which maps each
        element's ``x_rows`` to its index."""
        # (gh).x_p = g.(h.x_p); with rows holding basis images this
        # composes as the matrix product mats[h] @ mats[g].
        srows = self.x_rows(s)
        col = []
        for x in range(len(self.mats)):
            k = keys.get(_row_product(srows, self.x_rows(x)))
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
        n = len(self.mats)
        keys = {self.x_rows(i): i for i in range(n)}
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
            _check_preserves_form(self.mats[s], self.space)
            gens.append(s)
            cols.append(self._right_column(s, keys))

    def row(self, i: int) -> list:
        """Row i of the multiplication table: row(i)[j] == mul(i, j)."""
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
            row = self.row(i)
        return row[j]

    def inv(self, i: int) -> int:
        return self._inverses[i]

    def _tree_inverses(self) -> list:
        """The inverse of every element along the tree:
        inv(parent.s) = inv(s).inv(parent), where inv(s) is the x with
        x.s = 1 in the column of s.  Only the rows of the generators'
        inverses are filled."""
        invs = [0] * len(self.mats)
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
        roots = {i: _root(self.mats[i]) for i in refl_elems}
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
        # element index -> 1-based position in `reflections`, the k of s{k}
        self.reflection_number = {r.elem: k for k, r in enumerate(refs, 1)}

    # -- integer views ----------------------------------------------------------

    def x_rows(self, g: int) -> tuple:
        """The rows of ``mats[g]`` without their zeros: row p holds the
        pairs (q, entry) with entry != 0, an int when integral and a
        Fraction otherwise."""
        return self._sparse(self._x_rows, self.mats, g)

    def y_rows(self, g: int) -> tuple:
        """The rows of ``ymats[g]`` in the form of ``x_rows``."""
        return self._sparse(self._y_rows, self.ymats, g)

    def _sparse(self, views: list, mats: tuple, g: int) -> tuple:
        rows = views[g]
        if rows is None:
            # Rows repeat across elements (a signed permutation matrix has
            # one of 2d rows), so each distinct row is stored once.
            shared = self._shared_rows
            rows = views[g] = tuple(shared.setdefault(row, row)
                                    for row in _sparse_rows(mats[g]))
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
        """g.u for a covector (through ``mats``) or a vector (through the
        contragredient ``ymats``)."""
        if isinstance(u, Covector):
            return times_matrix(u, self.mats[g])
        if isinstance(u, Vector):
            return times_matrix(u, self.ymats[g])
        raise TypeError("act expects a Covector or Vector")

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
    gen_rows = [_sparse_rows(g) for g in gens]
    ident = _sparse_rows(_identity_matrix(d))
    seen = {ident}
    frontier = [ident]
    ordered = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gen_rows:
                prod = _row_product(m, g)
                if prod not in seen:
                    if len(seen) >= closure_cap:
                        raise ValueError(
                            f"closure exceeds the cap of {closure_cap} elements")
                    seen.add(prod)
                    ordered.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return ReflectionGroup(space, [_dense(m, d) for m in ordered], label=label)


def trivial_group(dim: int, gram=None) -> ReflectionGroup:
    """The one-element group; the engine then has no deformation classes."""
    space = QuadraticSpace(dim, gram)
    return ReflectionGroup(space, [_identity_matrix(dim)], label=f"1@{dim}")


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
