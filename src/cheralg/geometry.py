"""The quadratic space (V, B).

Coordinates are always taken with respect to the distinguished dual pair of
bases: x_1..x_d for the covector space V* and y_1..y_d for V, with
<x_j, y_k> = delta_jk.  The Gram matrix holds B on V*, B(x_p, x_q) in row
p, and the induced form on V is its inverse.  Both are sparse rows, the one
matrix form of the package: row p holds the pairs (q, entry) with a nonzero
BaseNumber entry, in column order.  The identity is the d rows ((p, 1),)
and its own inverse; a general Gram matrix is checked and inverted dense
once.  The involution beta exchanges V and V* so that
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


def row_reduce(rows):
    """Reduced row echelon form by Gauss-Jordan elimination: the reduced
    rows, the pivot column of each nonzero row, and the product of the
    pivots divided out, negated at each row swap (the determinant of an
    invertible square matrix).  The entries may be Fractions or
    BaseNumbers; they stay in the entries' ring."""
    rows = [list(row) for row in rows]
    pivots = []
    det = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            det = -det
        rows[r], rows[piv] = rows[piv], rows[r]
        det = rows[r][col] * det
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [vk - f * vc for vk, vc in zip(rows[k], rows[r])]
        pivots.append(col)
    return rows, pivots, det


def invert_matrix(rows):
    """Exact inverse and determinant of a square matrix, in the entries'
    ring, from one elimination."""
    n = len(rows)
    zero = rows[0][0] * 0
    one = zero + 1
    aug, pivots, det = row_reduce(
        list(rows[i]) + [one if i == j else zero for j in range(n)]
        for i in range(n))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug), det


def _sparse(rows) -> tuple:
    """The sparse rows of a dense matrix of BaseNumbers."""
    return tuple(tuple((q, x) for q, x in enumerate(row) if not x.is_zero())
                 for row in rows)


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
            rows = tuple(tuple(as_base(v) for v in row) for row in gram)
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValueError("Gram matrix shape does not match dimension")
            for i in range(dim):
                for j in range(i + 1, dim):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError("Gram matrix must be symmetric")
            self.gram = _sparse(rows)
            self.inv_gram = _sparse(invert_matrix(rows)[0])
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
    rows = u.space.gram if isinstance(u, Covector) else u.space.inv_gram
    acc = SC_ZERO
    for p, a in u.terms.items():
        for q, x in rows[p]:
            b = v.terms.get(q)
            if b is not None:
                acc = acc + a * b * x
    return acc


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
