import itertools
import math
from fractions import Fraction

import pytest

from cheralg.geometry import (QuadraticSpace, beta, bilinear_B, echelon,
                              invert_matrix, pairing, permutation_sign,
                              witt_basis)
from cheralg.scalars import BaseNumber, Scalar, as_scalar


def test_beta_on_basis():
    sp = QuadraticSpace(2)
    assert beta(sp.basis_covector(0)) == sp.basis_vector(0)
    assert beta(sp.basis_vector(1)) == sp.basis_covector(1)


def test_beta_involution_and_linearity():
    sp = QuadraticSpace(3)
    u = sp.covector([1, -2, Fraction(1, 3)])
    assert beta(beta(u)) == u
    x1, x2 = sp.basis_covector(0), sp.basis_covector(1)
    assert beta(x1 - x2) == sp.vector([1, -1, 0])


def test_beta_defining_property_general_gram():
    sp = QuadraticSpace(2, gram=[[1, 1], [1, 3]])
    u = sp.covector([2, -1])
    v = sp.covector([1, 1])
    assert pairing(beta(u), v) == bilinear_B(u, v)
    assert beta(beta(u)) == u
    w = sp.vector([1, 2])
    assert pairing(beta(w), w) == bilinear_B(w, w)


def test_coordinate_expansions_general_gram():
    # every covector is recovered from its pairings against the dual bases
    sp = QuadraticSpace(3, gram=[[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    u = sp.covector([1, -1, 2])
    acc = sp.covector([0, 0, 0])
    for p in range(3):
        acc = acc + beta(sp.basis_vector(p)) * bilinear_B(u, sp.basis_covector(p))
    assert acc == u
    v = sp.vector([3, 0, -2])
    accv = sp.vector([0, 0, 0])
    for p in range(3):
        accv = accv + beta(sp.basis_covector(p)) * bilinear_B(v, sp.basis_vector(p))
    assert accv == v


def test_bilinear_values():
    sp = QuadraticSpace(2)
    x1, x2 = sp.basis_covector(0), sp.basis_covector(1)
    assert bilinear_B(x1, x1) == as_scalar(1)
    assert bilinear_B(x1 - x2, x1 - x2) == as_scalar(2)
    with pytest.raises(TypeError):
        bilinear_B(x1, sp.basis_vector(0))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_witt_invariants(d):
    sp = QuadraticSpace(d)
    wb = witt_basis(sp)
    half = as_scalar(Fraction(1, 2))
    for j in range(wb.ell):
        for k in range(wb.ell):
            expected = half if j == k else as_scalar(0)
            assert bilinear_B(wb.zplus[j], wb.zminus[k]) == expected
            assert bilinear_B(wb.zplus[j], wb.zplus[k]).is_zero()
            assert bilinear_B(wb.zminus[j], wb.zminus[k]).is_zero()
    if d % 2:
        assert wb.z0 == sp.basis_covector(d - 1)
        assert bilinear_B(wb.z0, wb.z0) == as_scalar(1)
    else:
        assert wb.z0 is None


def test_witt_explicit_d2():
    sp = QuadraticSpace(2)
    wb = witt_basis(sp)
    from cheralg.scalars import BaseNumber
    half = Fraction(1, 2)
    assert wb.zplus[0] == sp.covector([half, BaseNumber(0, half)])
    assert wb.zminus[0] == sp.covector([half, BaseNumber(0, -half)])


def test_witt_requires_identity_gram():
    sp = QuadraticSpace(2, gram=[[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        witt_basis(sp)


def test_bad_gram_rejected():
    with pytest.raises(ValueError):
        QuadraticSpace(2, gram=[[1, 2], [3, 1]])       # not symmetric
    with pytest.raises(ValueError):
        QuadraticSpace(2, gram=[[1, 1], [1, 1]])       # singular


def test_invert_matrix_keeps_the_entries_ring():
    f = (((1, Fraction(2)),), ((0, Fraction(1)), (1, Fraction(1))))
    inv, det = invert_matrix(f)
    assert inv == (((0, Fraction(-1, 2)), (1, Fraction(1))),
                   ((0, Fraction(1, 2)),))
    assert det == -2
    assert all(type(v) is Fraction for row in inv for _, v in row)
    assert type(det) is Fraction
    b = (((0, BaseNumber(2)), (1, BaseNumber(1))),
         ((0, BaseNumber(1)), (1, BaseNumber(0, 1))))
    inv, det = invert_matrix(b)
    assert det == BaseNumber(-1, 2)
    assert all(type(v) is BaseNumber for row in inv for _, v in row)
    assert type(det) is BaseNumber
    assert [[sum((x * dict(inv[k]).get(j, 0) for k, x in b[i]), BaseNumber())
             for j in range(2)] for i in range(2)] == [[1, 0], [0, 1]]


def test_invert_matrix_rejects_singular():
    for m in ((((0, Fraction(1)), (1, Fraction(2))),
               ((0, Fraction(2)), (1, Fraction(4)))),
              (((0, BaseNumber(1)), (1, BaseNumber(0, 1))),
               ((0, BaseNumber(0, 1)), (1, BaseNumber(-1)))),
              ((), ((1, Fraction(1)),))):
        with pytest.raises(ValueError, match="singular"):
            invert_matrix(m)


def test_echelon_returns_pivots_of_a_rank_deficient_matrix():
    # each pivot is the largest column of its reduced row; the second row
    # is half the first, so the determinant is 0
    pivots, det = echelon([{1: Fraction(2), 2: Fraction(4)},
                           {1: Fraction(1), 2: Fraction(2)},
                           {0: Fraction(3), 2: Fraction(3)}])
    assert pivots == {2: {0: 1, 2: 1}, 1: {0: -2, 1: 1}}
    assert det == 0
    assert echelon([]) == ({}, 1)


class Mod7:
    """The integers mod 7: a field from outside the package, mixing with
    ints like Fraction does."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = (v.v if isinstance(v, Mod7) else v) % 7

    def __add__(self, o):
        return Mod7(self.v + Mod7(o).v)

    def __sub__(self, o):
        return Mod7(self.v - Mod7(o).v)

    def __rsub__(self, o):
        return Mod7(Mod7(o).v - self.v)

    def __mul__(self, o):
        return Mod7(self.v * Mod7(o).v)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Mod7(-self.v)

    def __rtruediv__(self, o):
        if not self.v:
            raise ZeroDivisionError("inverse of zero mod 7")
        return Mod7(Mod7(o).v * pow(self.v, -1, 7))

    def __eq__(self, o):
        return isinstance(o, (int, Mod7)) and (self - o).v == 0


def test_echelon_over_a_prime_field():
    # x1 + 3 x2 and 2 x1 - x2 are independent over Q, but their
    # determinant -7 vanishes mod 7
    pivots, det = echelon([{0: Mod7(1), 1: Mod7(3)},
                           {0: Mod7(2), 1: Mod7(-1)}])
    assert det == 0 and list(pivots) == [1]
    assert pivots[1] == {0: Mod7(5), 1: Mod7(1)}       # 1/3 = 5 mod 7
    # a permutation matrix has determinant the sign of its permutation,
    # here the product over i < j of (perm[j] - perm[i]) / (j - i)
    for perm in itertools.permutations(range(4)):
        sign = math.prod(Fraction(perm[j] - perm[i], j - i)
                         for i, j in itertools.combinations(range(4), 2))
        pivots, det = echelon({perm[i]: Mod7(1)} for i in range(4))
        assert det == int(sign) == permutation_sign(perm)
        assert sorted(pivots) == [0, 1, 2, 3]
