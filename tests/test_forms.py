"""The text the `forms` writers produce from the Gram rows, pinned on the
identity, the A2 Cartan Gram and the hyperbolic plane."""

import pytest

from cheralg.forms import gamma_square, gram_of, omega, subset_squares
from cheralg.groups import trivial_group

GRAMS = {
    "identity": None,
    "a2_cartan": [[2, -1], [-1, 2]],
    "hyperbolic": [[0, 1], [1, 0]],
}

_SQ = "O(x{0})*O(x{0}) - (1)*(0 - ((-1)*O(x{0})^2))"
_PAIR = "O(x{0}, x{1})*O(x{0}, x{1}) - (-1)*(0 - (O(x{0}, x{1})^2))"
_OMEGA3 = ("O(x1)^2 + O(x2)^2 + O(x3)^2 + O(x1, x2)^2 + O(x1, x3)^2"
           " + O(x2, x3)^2")

# omega, gamma_square and subset_squares(n, 4, "{o}*{o} - {rhs}") for
# n = 1, 2, 3; the identity is taken in dimension 3, so that n = 3 has a
# subset
EXPECTED = {
    "identity": (
        _OMEGA3,
        "Gamma^2 - (1)",
        (("(0,)", _SQ.format(1)), ("(1,)", _SQ.format(2)),
         ("(2,)", _SQ.format(3))),
        (("(0, 1)", _PAIR.format(1, 2)), ("(0, 2)", _PAIR.format(1, 3)),
         ("(1, 2)", _PAIR.format(2, 3))),
        (("(0, 1, 2)", "O(x1, x2, x3)*O(x1, x2, x3) - (-1)*(1/4 - ("
          + _OMEGA3 + "))"),),
    ),
    "a2_cartan": (
        "(1/3)*O(x1, x2)^2",
        "Gamma^2 - (3)",
        (("(0,)", "O(x1)*O(x1) - (2)*(0 - ((-1/2)*O(x1)^2))"),
         ("(1,)", "O(x2)*O(x2) - (2)*(0 - ((-1/2)*O(x2)^2))")),
        (("(0, 1)", "O(x1, x2)*O(x1, x2) - (-3)*(0 - ((1/3)*O(x1, x2)^2))"),),
        (),
    ),
    # B(x1, x1) = B(x2, x2) = 0: no singleton has an O_A^2 row
    "hyperbolic": (
        "(-1)*O(x1, x2)^2",
        "Gamma^2 - (-1)",
        (),
        (("(0, 1)", "O(x1, x2)*O(x1, x2) - (1)*(0 - ((-1)*O(x1, x2)^2))"),),
        (),
    ),
}


@pytest.mark.parametrize("name", sorted(GRAMS))
def test_forms_text_is_pinned(name):
    gram = GRAMS[name]
    group = trivial_group(3) if gram is None else trivial_group(2, gram)
    got = (omega(group), gamma_square(group),
           *(subset_squares(n, 4, "{o}*{o} - {rhs}")(group)
             for n in (1, 2, 3)))
    assert got == EXPECTED[name]


def test_gram_of_a_singular_subset_is_none():
    group = trivial_group(2, GRAMS["hyperbolic"])
    assert gram_of(group, (0,)) is None and gram_of(group, (1,)) is None
    assert gram_of(group, (0, 1))[1] == -1
