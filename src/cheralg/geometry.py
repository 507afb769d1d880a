"""The quadratic space (V, B).

Coordinates are always taken with respect to the distinguished dual pair of
bases: x_1..x_d for the covector space V* and y_1..y_d for V, with
<x_j, y_k> = delta_jk.  The Gram matrix stores B on V*, i.e.
gram[p][q] = B(x_p, x_q); the induced form on V is its inverse.  The
involution beta exchanges V and V* so that <beta(u), w> = B(u, w).

Coordinates of covectors and vectors are Scalars, so linear combinations with
deformation-parameter coefficients are representable, although in practice
coordinates are plain numbers.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (BN_ONE, BN_ZERO, BaseNumber, SC_ZERO, Scalar, as_base,
                      as_scalar)

COVECTOR = "V*"
VECTOR = "V"


def row_reduce(rows):
    """Reduced row echelon form by Gauss-Jordan elimination: the reduced
    rows and the pivot column of each nonzero row.  The entries may be
    Fractions or BaseNumbers; they stay in the entries' ring."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [vk - f * vc for vk, vc in zip(rows[k], rows[r])]
        pivots.append(col)
    return rows, pivots


def invert_matrix(rows):
    """Exact inverse of a square matrix, in the entries' ring."""
    n = len(rows)
    zero = rows[0][0] * 0
    one = zero + 1
    aug, pivots = row_reduce(
        list(rows[i]) + [one if i == j else zero for j in range(n)]
        for i in range(n))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)


class QuadraticSpace:
    """Dimension, Gram matrix on V*, and its cached inverse (form on V)."""

    __slots__ = ("dim", "gram", "inv_gram", "is_identity", "_basis_covs",
                 "_basis_vecs")

    def __init__(self, dim: int, gram=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        if gram is None:
            rows = tuple(tuple(BN_ONE if i == j else BN_ZERO for j in range(dim))
                         for i in range(dim))
            self.gram = rows
            self.inv_gram = rows
            self.is_identity = True
        else:
            rows = tuple(tuple(as_base(v) for v in row) for row in gram)
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValueError("Gram matrix shape does not match dimension")
            for i in range(dim):
                for j in range(i + 1, dim):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError("Gram matrix must be symmetric")
            self.gram = rows
            self.inv_gram = invert_matrix(rows)
            self.is_identity = all(
                rows[i][j] == (BN_ONE if i == j else BN_ZERO)
                for i in range(dim) for j in range(dim))
        units = [[1 if q == p else 0 for q in range(dim)] for p in range(dim)]
        self._basis_covs = tuple(Covector(self, u) for u in units)
        self._basis_vecs = tuple(Vector(self, u) for u in units)

    def covector(self, coords) -> "Covector":
        return Covector(self, coords)

    def vector(self, coords) -> "Vector":
        return Vector(self, coords)

    def basis_covector(self, p: int) -> "Covector":
        return self._basis_covs[p]

    def basis_vector(self, p: int) -> "Vector":
        return self._basis_vecs[p]

    def __repr__(self):
        tag = "identity" if self.is_identity else "general"
        return f"QuadraticSpace(dim={self.dim}, gram={tag})"


class _Linear:
    """Shared arithmetic for coordinate tuples over Scalar."""

    __slots__ = ("space", "coords", "_hash")
    tag = "?"

    def __init__(self, space: QuadraticSpace, coords):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", tuple(as_scalar(c) for c in coords))
        object.__setattr__(self, "_hash", None)
        if len(self.coords) != space.dim:
            raise ValueError("coordinate length does not match dimension")

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _wrap(self, coords):
        return type(self)(self.space, coords)

    def __add__(self, other):
        self._check(other)
        return self._wrap(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        return self._wrap(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return self._wrap(-a for a in self.coords)

    def __mul__(self, scal):
        s = as_scalar(scal)
        return self._wrap(a * s for a in self.coords)

    __rmul__ = __mul__

    def _check(self, other):
        if type(other) is not type(self) or other.space is not self.space:
            raise TypeError(f"expected a {self.tag} element of the same space")

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (type(other) is type(self) and other.space is self.space
                and other.coords == self.coords)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.tag, self.coords))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        names = ("x" if self.tag == COVECTOR else "y")
        parts = [f"{c}*{names}{p + 1}" for p, c in enumerate(self.coords)
                 if not c.is_zero()]
        return f"<{self.tag}: {' + '.join(parts) or '0'}>"


class Covector(_Linear):
    tag = COVECTOR


class Vector(_Linear):
    tag = VECTOR


def pairing(u, v) -> Scalar:
    """Natural pairing <u, v> between a covector and a vector (either order)."""
    if isinstance(u, Vector) and isinstance(v, Covector):
        u, v = v, u
    if not (isinstance(u, Covector) and isinstance(v, Vector)):
        raise TypeError("pairing needs one covector and one vector")
    acc = SC_ZERO
    for a, b in zip(u.coords, v.coords):
        acc = acc + a * b
    return acc


def beta(u):
    """The involution V <-> V* with <beta(u1), u2> = B(u1, u2)."""
    space = u.space
    if isinstance(u, Covector):
        mat, out = space.gram, space.vector
    elif isinstance(u, Vector):
        mat, out = space.inv_gram, space.covector
    else:
        raise TypeError("beta expects a Covector or Vector")
    coords = []
    for p in range(space.dim):
        acc = SC_ZERO
        for q in range(space.dim):
            acc = acc + u.coords[q] * mat[q][p]
        coords.append(acc)
    return out(coords)


def bilinear_B(u, v) -> Scalar:
    """The symmetric form B, on V* or on V (both arguments from one side)."""
    if type(u) is not type(v) or u.space is not v.space:
        raise TypeError("bilinear_B needs two covectors or two vectors "
                        "of the same space")
    mat = u.space.gram if isinstance(u, Covector) else u.space.inv_gram
    acc = SC_ZERO
    for p, a in enumerate(u.coords):
        if a.is_zero():
            continue
        for q, b in enumerate(v.coords):
            if not b.is_zero():
                acc = acc + a * b * mat[p][q]
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
