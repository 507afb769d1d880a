"""The quadratic space (V, B).

Coordinates are always taken with respect to the distinguished dual pair of
bases: x_1..x_d for the covector space V* and y_1..y_d for V, with
<x_j, y_k> = delta_jk.  The Gram matrix holds B on V*, B(x_p, x_q) in row
p, and the induced form on V is its inverse.  Both are sparse rows, the one
matrix form of the package: row p holds the pairs (q, entry) with a nonzero
BaseNumber entry, in column order.  The identity is the d rows ((p, 1),)
and its own inverse; a general Gram matrix is read into sparse rows once,
checked for symmetry and inverted on them by `echelon`, the package's one
elimination.  The involution beta exchanges V and V* so that
<beta(u), w> = B(u, w).

Covectors and vectors are scalars.Combination subclasses whose ``terms``
map a coordinate index to its nonzero Scalar coordinate, so combinations
with deformation-parameter coefficients are representable, although in
practice coordinates are plain numbers.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (BN_ONE, BaseNumber, Combination, SC_ONE, SC_ZERO,
                      Scalar, as_base, as_scalar)

COVECTOR = "V*"
VECTOR = "V"


def permutation_sign(seq) -> int:
    """The sign of the permutation that sorts the distinct items of
    ``seq``: -1 to the number of pairs out of order."""
    odd = sum(p > q for i, p in enumerate(seq) for q in seq[i + 1:]) % 2
    return -1 if odd else 1


def echelon(rows):
    """Gauss-Jordan elimination on sparse rows, dicts from column to nonzero
    entry of a field that mixes with ints (Fraction, BaseNumber, a prime
    field).  A row reduced by the pivot rows so far pivots on its largest
    column and clears it from them.  Return the pivot rows by column, 1
    there and 0 at the other pivots, and the determinant: the pivots'
    product times the sign of their columns in row order, 0 once a row
    depends on those before it."""
    pivots: dict = {}
    order = []
    det = 1
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in pivots]:
            _subtract(row, row[c], pivots[c])
        if not row:
            det = 0
            continue
        col = max(row)
        det = row[col] * det
        inv = 1 / row[col]
        row = {q: x * inv for q, x in row.items()}
        for other in pivots.values():
            if col in other:
                _subtract(other, other[col], row)
        pivots[col] = row
        order.append(col)
    return pivots, det * permutation_sign(order)


def _subtract(row: dict, f, pivot: dict):
    """row -= f * pivot, in place, dropping the entries that cancel."""
    for q, x in pivot.items():
        row[q] = row.get(q, 0) - f * x
        if row[q] == 0:
            del row[q]


def sparse_transpose(rows: tuple) -> tuple:
    """The transpose of a square matrix in the sparse-row form."""
    cols: list = [[] for _ in rows]
    for p, row in enumerate(rows):
        for q, v in row:
            cols[q].append((p, v))
    return tuple(map(tuple, cols))


def invert_matrix(rows):
    """Exact inverse and determinant of n sparse rows in the form of
    ``QuadraticSpace.gram``, in the entries' field, from one `echelon` of
    the rows (e_p, row p) with the matrix in the columns n + q: a pivot
    below n means it is singular, else the pivot row of column n + q holds
    row q of the inverse below n.  The 1 of e_p is the entries' own."""
    n = len(rows)
    one = next((x * 0 + 1 for row in rows for _, x in row), 1)
    pivots, det = echelon({p: one, **{n + q: x for q, x in row}}
                          for p, row in enumerate(rows))
    if min(pivots, default=n) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(sorted((p, x) for p, x in pivots[n + q].items()
                              if p < n))
                 for q in range(n)), det


class QuadraticSpace:
    """Dimension, Gram matrix on V*, and its cached inverse (form on V),
    both as sparse rows."""

    __slots__ = ("dim", "gram", "inv_gram", "is_identity")

    def __init__(self, dim: int, gram=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        identity = tuple(((p, BN_ONE),) for p in range(dim))
        if gram is None:
            self.gram = self.inv_gram = identity
        else:
            if len(gram) != dim or any(len(row) != dim for row in gram):
                raise ValueError("Gram matrix shape does not match dimension")
            self.gram = tuple(
                tuple((q, x) for q, x in enumerate(map(as_base, row))
                      if not x.is_zero())
                for row in gram)
            if self.gram != sparse_transpose(self.gram):
                raise ValueError("Gram matrix must be symmetric")
            self.inv_gram = invert_matrix(self.gram)[0]
        self.is_identity = self.gram == identity

    def covector(self, coords) -> "Covector":
        return Covector(self, self._terms(coords))

    def vector(self, coords) -> "Vector":
        return Vector(self, self._terms(coords))

    def basis_covector(self, p: int) -> "Covector":
        return Covector(self, self._unit(p))

    def basis_vector(self, p: int) -> "Vector":
        return Vector(self, self._unit(p))

    def _terms(self, coords) -> dict:
        """The nonzero entries of a dense coordinate sequence, as Scalars."""
        coords = [as_scalar(c) for c in coords]
        if len(coords) != self.dim:
            raise ValueError("coordinate length does not match dimension")
        return {p: c for p, c in enumerate(coords) if not c.is_zero()}

    def _unit(self, p: int) -> dict:
        if not 0 <= p < self.dim:
            raise IndexError(f"basis index {p} out of range")
        return {p: SC_ONE}

    def __repr__(self):
        tag = "identity" if self.is_identity else "general"
        return f"QuadraticSpace(dim={self.dim}, gram={tag})"


class _Linear(Combination):
    """A covector or a vector of one space: ``terms`` maps a coordinate
    index to its nonzero Scalar coordinate.  Sums with an element of the
    same kind and space come from Combination."""

    __slots__ = ("space", "terms")
    tag = "?"

    def __init__(self, space: QuadraticSpace, terms: dict):
        self.space = space
        self.terms = terms

    def _operand(self, other):
        same = type(other) is type(self) and other.space is self.space
        return other if same else None

    def _wrap(self, terms):
        return type(self)(self.space, terms)

    def __mul__(self, scal):
        return self._scaled(as_scalar(scal))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self) and other.space is self.space
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.tag, frozenset(self.terms.items())))

    def __repr__(self):
        names = ("x" if self.tag == COVECTOR else "y")
        parts = [f"{self.terms[p]}*{names}{p + 1}" for p in sorted(self.terms)]
        return f"<{self.tag}: {' + '.join(parts) or '0'}>"


class Covector(_Linear):
    tag = COVECTOR


class Vector(_Linear):
    tag = VECTOR


def times_matrix(u, rows, kind=None):
    """The row u times the matrix with these sparse rows (entries numbers),
    as a ``kind`` of u's space; the kind defaults to u's own."""
    terms: dict = {}
    for p, c in u.terms.items():
        for q, a in rows[p]:
            w = terms.get(q)
            terms[q] = c * a if w is None else w + c * a
    return (kind or type(u))(u.space, {q: c for q, c in terms.items()
                                       if not c.is_zero()})


def pairing(u, v) -> Scalar:
    """Natural pairing <u, v> between a covector and a vector (either order)."""
    if isinstance(u, Vector) and isinstance(v, Covector):
        u, v = v, u
    if not (isinstance(u, Covector) and isinstance(v, Vector)):
        raise TypeError("pairing needs one covector and one vector")
    acc = SC_ZERO
    for p, a in u.terms.items():
        b = v.terms.get(p)
        if b is not None:
            acc = acc + a * b
    return acc


def beta(u):
    """The involution V <-> V* with <beta(u1), u2> = B(u1, u2)."""
    if isinstance(u, Covector):
        return times_matrix(u, u.space.gram, Vector)
    if isinstance(u, Vector):
        return times_matrix(u, u.space.inv_gram, Covector)
    raise TypeError("beta expects a Covector or Vector")


def bilinear_B(u, v) -> Scalar:
    """The symmetric form B, on V* or on V (both arguments from one side)."""
    if type(u) is not type(v) or u.space is not v.space:
        raise TypeError("bilinear_B needs two covectors or two vectors "
                        "of the same space")
    return pairing(beta(u), v)


class WittBasis:
    """Isotropic pairs z_j^+/z_j^- (plus anisotropic z0 when the dimension
    is odd) with B(z_j^+, z_k^-) = delta_jk / 2."""

    __slots__ = ("space", "ell", "zplus", "zminus", "z0")

    def __init__(self, space, ell, zplus, zminus, z0):
        self.space = space
        self.ell = ell
        self.zplus = zplus
        self.zminus = zminus
        self.z0 = z0


def witt_basis(space: QuadraticSpace) -> WittBasis:
    """z_j^+- = (x_{2j-1} +- i x_{2j})/2, and z0 = x_d for odd dimension.

    Defined for the orthonormal configuration only; the pairing invariants
    would fail against any other Gram matrix.
    """
    if not space.is_identity:
        raise ValueError("Witt basis requires the identity Gram matrix")
    d = space.dim
    ell = d // 2
    h = Fraction(1, 2)
    ih = Scalar.of(BaseNumber(0, h))
    zplus, zminus = [], []
    for j in range(ell):
        a = space.basis_covector(2 * j) * h
        b = space.basis_covector(2 * j + 1)
        zplus.append(a + b * ih)
        zminus.append(a - b * ih)
    z0 = space.basis_covector(d - 1) if d % 2 else None
    return WittBasis(space, ell, tuple(zplus), tuple(zminus), z0)
