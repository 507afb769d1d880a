"""Template text written from the Gram rows of a group.

An identity stated on coordinates holds for every Gram matrix B when its
sums carry the weights of the form: B_pq = B(x_p, x_q), the entries B^pq
of its inverse, the Gram matrix of an index subset with its inverse and
determinant, and the minors of B between two index tuples.  The writers
here read those weights when the text is written, from the sparse Gram
rows and from one elimination (`geometry.invert_matrix`), whose inverse
is sparse rows too; no writer builds a dense matrix.  A zero weight's term
is left out and a weight 1 is not written, so under the identity Gram
each text reads as the orthonormal statement.  `parser.DEFINITIONS`
writes X, D, H, E+- and Omega through them, and the catalog of `suites`
the coordinate forms of the generators, Gamma^2, O_A^2 and the brackets
of O's.  `reflection_sum` writes the sums over reflections, OmegaKappa
and psi.

A writer returns a template, the text as a function of the group, or,
for a list of them, the (label, text) pairs as a function of the group.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .geometry import invert_matrix, permutation_sign
from .scalars import BN_ZERO, BaseNumber, as_base


def form_sum(term: str, around: str = "{sum}", form: str = "inv_gram"):
    """The text, as a function of the group, of ``around`` with {d} the
    dimension and {sum} the sum over p, q of w_pq*term, where the term's
    {p} and {q} read the indices p and q and w is the space's ``form``:
    inv_gram (B^pq, the form on vectors), gram (B_pq, the form on
    covectors) or, for "delta", the identity.  A zero weight's term is left
    out, and a weight 1 is not written."""
    def template(group):
        rows = (tuple(((p, 1),) for p in range(group.dim)) if form == "delta"
                else getattr(group.space, form))
        terms = (("" if b == 1 else f"({b})*") + term.format(p=p + 1, q=q + 1)
                 for p, row in enumerate(rows) for q, b in row)
        return around.format(sum=" + ".join(terms), d=group.dim)
    return template


def quadratic_invariant(inverse, covs) -> str:
    """The text of Omega on the span of the covectors ``covs`` (n texts),
    for ``inverse`` the inverse W of their Gram matrix as sparse rows:
    (n - 2) times the sum over i, j of W^ij O(u_i)*O(u_j), plus the sum
    over i < j and k < l of (W^ik W^jl - W^il W^jk) O(u_i, u_j)*O(u_k, u_l).
    A diagonal term is written as a square, and the two orders of an
    off-diagonal pair as one bracket: the graded commutator of the odd
    one-index elements, the anticommutator of the even two-index ones."""
    n = len(covs)
    pairs = list(itertools.combinations(range(n), 2))
    rows = [dict(row) for row in inverse]

    def w(i, j):
        return rows[i].get(j, 0)

    def minor(s, t):
        (i, j), (k, l) = pairs[s], pairs[t]
        return w(i, k) * w(j, l) - w(i, l) * w(j, k)
    return " + ".join(
        _squares([f"O({u})" for u in covs], "[{}, {}]",
                 lambda i, j: (n - 2) * w(i, j))
        + _squares([f"O({covs[i]}, {covs[j]})" for i, j in pairs],
                   "{{{}, {}}}", minor)) or "0"


def _squares(factors, bracket: str, weight) -> list:
    """The terms of the sum over i, j of w_ij f_i*f_j for the symmetric
    weight w(i, j): w_ii f_i^2, and w_ij times the ``bracket`` of f_i and
    f_j for i < j.  Zero weights are left out, and a weight 1 is not
    written."""
    terms = []
    for i, j in itertools.combinations_with_replacement(range(len(factors)),
                                                        2):
        w = weight(i, j)
        if w != 0:
            t = (f"{factors[i]}^2" if i == j
                 else bracket.format(factors[i], factors[j]))
            terms.append(t if w == 1 else f"({w})*{t}")
    return terms


def reflection_sum(term: str):
    """The text, as a function of the group, of the sum over the
    reflections of k{c}*term, with c the class of the reflection and the
    term's {k} its number, as in s{k} and alpha{k}."""
    return lambda group: " + ".join(
        f"k{r.class_id + 1}*" + term.format(k=k)
        for k, r in enumerate(group.reflections, 1)) or "0"


def omega(group) -> str:
    """The text of Omega on the whole space, whose inverse Gram matrix is
    the form on vectors."""
    return quadratic_invariant(group.space.inv_gram,
                               [f"x{p}" for p in range(1, group.dim + 1)])


def gamma_square(group) -> str:
    """Gamma^2 against det B; the Gram matrix of a space is invertible."""
    return f"Gamma^2 - ({gram_of(group, range(group.dim))[1]})"


def _entries(group, indices):
    """B(x_(i + 1), x_(j + 1)) as a function of i in ``indices`` and j,
    from those Gram rows, each read once; past the dimension, where no
    instance is evaluated, the identity's entry."""
    rows = {i: dict(group.space.gram[i]) for i in indices if i < group.dim}

    def entry(i: int, j: int) -> BaseNumber:
        if max(i, j) >= group.dim:
            return as_base(int(i == j))
        return rows[i].get(j, BN_ZERO)
    return entry


def gram_of(group, indices):
    """The inverse, as sparse rows, and the determinant of the Gram matrix
    of the basis covectors x_(i + 1), i in ``indices``, from one
    elimination, or None if it is singular."""
    entry = _entries(group, indices)
    rows = tuple(tuple((k, x) for k, x in enumerate(entry(i, j)
                                                    for j in indices)
                       if not x.is_zero())
                 for i in indices)
    try:
        return invert_matrix(rows)
    except ValueError:
        return None


def subset_squares(n: int, cap: int, form: str):
    """Templates over the first ``cap`` n-subsets A of the coordinates,
    labelled like (0, 1), each the ``form`` of {o}, the text of O_A, and
    {rhs}, that of O_A^2: (-1)^(n(n - 1)/2) det G ((n - 1)(n - 2)/8 -
    Omega_A), with G the Gram matrix of A and Omega_A the quadratic
    invariant of its span.  A subset whose G is singular is left out."""
    def templates(group):
        out = []
        for A in itertools.combinations(range(group.dim), n):
            gram = gram_of(group, A)
            if gram is not None:
                covs = [f"x{i + 1}" for i in A]
                rhs = (f"({(-1) ** (n * (n - 1) // 2) * gram[1]})*("
                       f"{Fraction((n - 1) * (n - 2), 8)}"
                       f" - ({quadratic_invariant(gram[0], covs)}))")
                out.append((str(A), form.format(o=_o_text(A), rhs=rhs)))
        return tuple(out[:cap])
    return templates


def bracket(A: tuple, U: tuple, kind: str = "[]", half: bool = False):
    """The template, as a function of the group, of the bracket of O(A) and
    O(U) against its expansion over contractions, for tuples A (two or
    three indices) and U of coordinate indices.  Each contraction pairs
    a_i with u_j and weighs by B(a_i, u_j), read from the Gram rows, so
    the text holds for every Gram matrix.  With i, j, m, n counted from 0,
    a minor taken of the matrix B(a_i, u_j) and A - i the tuple A without
    a_i:

    - ``kind`` "[]": the sum of (-1)^(|A| + i + j + 1) B(a_i, u_j) times
      O(A - i, U - j) + {O(A - i), O(U - j)}; for |A| = |U| = 3, the sum of
      (-1)^(m + n) times the minor without row m and column n times
      [O(a_m), O(u_n)], and -det/2; then the sum of (-1)^i
      [O(a_i), O(A - i, U)] or, with ``half``, its mean with the sum of
      (-1)^(j + 1) [O(A, U - j), O(u_j)].  The hatted rows
      p_OabOuv.form2 and p_O2O34.n3 state the case |A| = 2 on patterns
      that hold sums of basis covectors.
    - ``kind`` "{}", |A| = |U| = 3: minus the sum of (-1)^(m + n) times that
      minor times O(a_m, u_n) + {O(a_m), O(u_n)}, plus the sum of (-1)^i
      {O(A - i), O(a_i, U)}.

    An O with a repeated index vanishes, the indices of each O are sorted
    with the sign of the permutation, like terms are summed, and a zero
    weight's term is left out."""
    def template(group):
        terms: dict = {}
        entry = _entries(group, A)

        def add(w, *factors, shape=None):
            """w times O of the one factor, or the ``shape`` "[]" or "{}"
            of the O's of the two factors, or w alone."""
            for f in factors:
                if len(set(f)) < len(f):
                    return
                w *= permutation_sign(f)
            key = (shape, tuple(tuple(sorted(f)) for f in factors))
            terms[key] = terms.get(key, 0) + w

        def form(i, j):
            return entry(A[i], U[j])

        def minor(m, n):
            (i, k), (j, l) = _without(range(3), m), _without(range(3), n)
            return form(i, j) * form(k, l) - form(i, l) * form(k, j)
        rows, cols = range(len(A)), range(len(U))
        if kind == "[]":
            for i, j in itertools.product(rows, cols):
                w = (-1) ** (len(A) + i + j + 1) * form(i, j)
                add(w, _without(A, i) + _without(U, j))
                add(w, _without(A, i), _without(U, j), shape="{}")
            if len(A) == 3:
                for m, n in itertools.product(rows, cols):
                    add((-1) ** (m + n) * minor(m, n), (A[m],), (U[n],),
                        shape="[]")
                add(sum((-1) ** n * form(0, n) * minor(0, n) for n in cols)
                    * Fraction(-1, 2))
            for i in rows:
                add(Fraction((-1) ** i, 2 if half else 1), (A[i],),
                    _without(A, i) + U, shape="[]")
            for j in cols if half else ():
                add(Fraction((-1) ** (j + 1), 2), A + _without(U, j), (U[j],),
                    shape="[]")
        else:
            for m, n in itertools.product(rows, cols):
                w = -(-1) ** (m + n) * minor(m, n)
                add(w, (A[m], U[n]))
                add(w, (A[m],), (U[n],), shape="{}")
            for i in rows:
                add((-1) ** i, _without(A, i), (A[i],) + U, shape="{}")
        parts = []
        for (shape, factors), w in terms.items():
            if w != 0:
                text = (shape[0] + ", ".join(map(_o_text, factors)) + shape[1]
                        if shape else "*".join(map(_o_text, factors)) or "1")
                parts.append(text if w == 1 else f"({w})*{text}")
        lhs = kind[0] + f"{_o_text(A)}, {_o_text(U)}" + kind[1]
        return f"{lhs} - ({' + '.join(parts) or '0'})"
    return template


def brackets(pairs, half: bool = False):
    """Templates, as a function of the group, of `bracket` at each (A, U)
    of ``pairs``, labelled by their indices like (0, 1)(0, 2)."""
    return lambda group: tuple((str(A) + str(U),
                                bracket(A, U, half=half)(group))
                               for A, U in pairs)


def _without(seq, i: int) -> tuple:
    return tuple(seq[:i]) + tuple(seq[i + 1:])


def _o_text(indices) -> str:
    return f"O({', '.join(f'x{i + 1}' for i in indices)})"
