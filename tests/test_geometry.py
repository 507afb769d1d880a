from fractions import Fraction

import pytest

from cheralg.geometry import (QuadraticSpace, beta, bilinear_B,
                              invert_matrix, pairing, row_reduce,
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
    f = [[Fraction(0), Fraction(2)], [Fraction(1), Fraction(1)]]
    inv = invert_matrix(f)
    assert inv == ((Fraction(-1, 2), Fraction(1)), (Fraction(1, 2), 0))
    assert all(type(v) is Fraction for row in inv for v in row)
    b = [[BaseNumber(2), BaseNumber(1)], [BaseNumber(1), BaseNumber(0, 1)]]
    inv = invert_matrix(b)
    assert all(type(v) is BaseNumber for row in inv for v in row)
    assert [[sum((b[i][k] * inv[k][j] for k in range(2)), BaseNumber())
             for j in range(2)] for i in range(2)] == [[1, 0], [0, 1]]


def test_invert_matrix_rejects_singular():
    for m in ([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
              [[BaseNumber(1), BaseNumber(0, 1)],
               [BaseNumber(0, 1), BaseNumber(-1)]]):
        with pytest.raises(ValueError, match="singular"):
            invert_matrix(m)


def test_row_reduce_returns_pivots_of_a_rank_deficient_matrix():
    rows, pivots = row_reduce([[Fraction(0), Fraction(2), Fraction(4)],
                               [Fraction(0), Fraction(1), Fraction(2)],
                               [Fraction(3), Fraction(0), Fraction(3)]])
    assert pivots == [0, 1]
    assert rows == [[1, 0, 1], [0, 1, 2], [0, 0, 0]]
    assert row_reduce([]) == ([], [])
