import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from cheralg import groups
from cheralg.cli import main
from cheralg.core import Context
from cheralg.geometry import (QuadraticSpace, bilinear_B, invert_matrix,
                              pairing, beta)
from cheralg.groups import (ReflectionGroup, _row_product, _sparse_rows,
                            build_group, from_generators, parse_group_spec,
                            trivial_group)
from cheralg.parser import Evaluator, parse_expression
from cheralg.scalars import BaseNumber

EVAL_POOL = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
             / "eval_D4_4.json")


def _mats(g):
    """The elements of g as dense Fraction matrices, row p the image of x_p:
    the reference the sparse rows are checked against."""
    d = g.dim
    return tuple(tuple(tuple(Fraction(dict(row).get(q, 0)) for q in range(d))
                       for row in g.x_rows(i))
                 for i in range(g.order))


def _ymats(g):
    """The contragredient matrices: the transpose of _mats(g)[inv(i)]."""
    mats = _mats(g)
    return tuple(tuple(zip(*mats[g.inv(i)])) for i in range(g.order))


def test_orders_and_reflection_counts():
    a1 = build_group("A", 1, 2)
    assert a1.order == 2 and len(a1.reflections) == 1 and a1.num_classes == 1
    a2 = build_group("A", 2, 3)
    assert a2.order == 6 and len(a2.reflections) == 3 and a2.num_classes == 1
    b2 = build_group("B", 2, 2)
    assert b2.order == 8 and len(b2.reflections) == 4 and b2.num_classes == 2
    b3 = build_group("B", 3, 3)
    assert b3.order == 48 and len(b3.reflections) == 9 and b3.num_classes == 2
    d3 = build_group("D", 3, 3)
    assert d3.order == 24 and len(d3.reflections) == 6


def test_a1_root_data():
    g = build_group("A", 1, 2)
    r = g.reflections[0]
    assert r.root == (Fraction(1), Fraction(-1))
    assert r.coroot == (Fraction(1), Fraction(-1))
    assert r.root_norm == 2


def test_b2_roots_and_classes():
    g = build_group("B", 2, 2)
    roots = {r.root for r in g.reflections}
    assert roots == {(1, 0), (0, 1), (1, -1), (1, 1)}
    short = {r.class_id for r in g.reflections if r.root_norm == 1}
    long = {r.class_id for r in g.reflections if r.root_norm == 2}
    assert len(short) == 1 and len(long) == 1 and short != long


def test_reflections_are_involutions_with_correct_action():
    g = build_group("B", 2, 2)
    sp = g.space
    for r in g.reflections:
        assert g.mul(r.elem, r.elem) == 0
        alpha = sp.covector(r.root)
        assert g.act(r.elem, alpha) == -alpha
        # s(u) = u - alpha <coroot, u> on every basis covector
        coroot = sp.vector(r.coroot)
        for p in range(g.dim):
            u = sp.basis_covector(p)
            expect = u - alpha * pairing(coroot, u)
            assert g.act(r.elem, u) == expect


def test_conjugate_reflections_share_class():
    g = build_group("B", 2, 2)
    for r in g.reflections:
        for h in range(g.order):
            conj = g.mul(g.mul(h, r.elem), g.inv(h))
            assert g.reflection_by_elem[conj].class_id == r.class_id


def test_gram_preservation_random():
    g = build_group("A", 2, 3)
    rng = random.Random(5)
    sp = g.space
    for _ in range(25):
        u = sp.covector([rng.randint(-3, 3) for _ in range(3)])
        v = sp.covector([rng.randint(-3, 3) for _ in range(3)])
        h = rng.randrange(g.order)
        assert bilinear_B(g.act(h, u), g.act(h, v)) == bilinear_B(u, v)
        # pairing with the contragredient action is invariant too
        w = sp.vector([rng.randint(-3, 3) for _ in range(3)])
        assert pairing(g.act(h, u), g.act(h, w)) == pairing(u, w)


def test_ambient_embedding_fixes_extra_coordinates():
    g = build_group("A", 1, 6)
    assert g.dim == 6 and g.order == 2
    s = g.reflections[0]
    sp = g.space
    for p in range(2, 6):
        assert g.act(s.elem, sp.basis_covector(p)) == sp.basis_covector(p)


def test_group_spec_parsing():
    assert parse_group_spec("A1@2").label == "A1@2"
    assert parse_group_spec("B2@2").order == 8
    with pytest.raises(ValueError):
        parse_group_spec("Z2@2")
    with pytest.raises(ValueError):
        parse_group_spec("A1")
    with pytest.raises(ValueError):
        build_group("A", 2, 2)        # ambient too small
    with pytest.raises(ValueError):
        build_group("A", 7, 8, order_cap=10_000)     # 8! over the cap


def test_custom_group_closure():
    # sign flip in coordinate 1: the rank-one family-B group
    g = from_generators([[[-1, 0], [0, 1]]])
    assert g.order == 2
    assert len(g.reflections) == 1
    assert g.reflections[0].root == (Fraction(1), Fraction(0))
    assert g.reflections[0].root_norm == 1


def test_custom_group_cap():
    mats = _mats(build_group("A", 2, 3))
    with pytest.raises(ValueError):
        from_generators(list(mats[1:3]), closure_cap=3)


def test_custom_group_must_preserve_form():
    with pytest.raises(ValueError):
        from_generators([[[2, 0], [0, 1]]])


def test_generator_not_preserving_form_fails_before_closure():
    # the closure of diag(2, 1) is infinite; the generator check stops it
    with pytest.raises(ValueError, match="does not preserve the bilinear form"):
        from_generators([[[2, 0], [0, 1]]])


@pytest.mark.parametrize("gen", [
    [[1, 1], [0, 1]],                          # a shear
    [[0, 2], [Fraction(1, 2), 0]],             # orthogonal rows, order 2
    [[Fraction(3, 5), Fraction(4, 5)], [1, 0]],  # unit rows, not orthogonal
])
def test_identity_gram_rejects_non_orthogonal_generator(gen):
    with pytest.raises(ValueError, match="does not preserve the bilinear form"):
        from_generators([gen])


def test_identity_gram_accepts_orthogonal_generators():
    rot = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    with pytest.raises(ValueError, match="cap"):
        from_generators([rot], closure_cap=50)   # infinite order, but orthogonal
    assert from_generators([[[0, -1], [1, 0]]]).order == 4


def test_general_gram_rejects_generator_breaking_it():
    gram = [[2, 1], [1, 2]]
    assert from_generators([[[0, 1], [1, 0]]], gram=gram).order == 2
    # orthogonal for the identity form, but not for this one
    with pytest.raises(ValueError, match="does not preserve the bilinear form"):
        from_generators([[[-1, 0], [0, 1]]], gram=gram)


def test_trivial_group():
    g = trivial_group(3)
    assert g.order == 1 and g.num_classes == 0 and not g.reflections


def test_multiplication_closure_and_inverses():
    g = build_group("A", 2, 3)
    for i in range(g.order):
        assert g.mul(i, g.inv(i)) == 0
        for j in range(g.order):
            k = g.mul(i, j)
            assert 0 <= k < g.order
    # composition convention: (gh).u = g.(h.u)
    sp = g.space
    u = sp.covector([1, 2, 3])
    for i in range(g.order):
        for j in range(g.order):
            assert g.act(g.mul(i, j), u) == g.act(i, g.act(j, u))


def _dense_product(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


CLOSURE_GROUPS = {
    "A2@3": lambda: parse_group_spec("A2@3"),
    "B3@3": lambda: parse_group_spec("B3@3"),
    "D3@3": lambda: parse_group_spec("D3@3"),
    "D4@4": lambda: parse_group_spec("D4@4"),
    "A3@4": lambda: parse_group_spec("A3@4"),
    "A4@5": lambda: parse_group_spec("A4@5"),
    "B4@4": lambda: parse_group_spec("B4@4"),
    "rotation90": lambda: from_generators([[[0, -1], [1, 0]]]),
    "B2xrotation": lambda: from_generators(
        [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]),
    "flip1": lambda: from_generators([[[-1]]]),
    "trivial3": lambda: trivial_group(3),
    "A1_general_gram": lambda: from_generators([[[0, 1], [1, 0]]],
                                               gram=[[2, 1], [1, 2]]),
}


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_closure_table_matches_matrix_products(name):
    g = CLOSURE_GROUPS[name]()
    n = g.order
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if len(pairs) > 2000:
        pairs = random.Random(7).sample(pairs, 2000)
    mats, ymats = _mats(g), _ymats(g)
    index = {m: i for i, m in enumerate(mats)}
    for i, j in pairs:
        assert g.mul(i, j) == index[_dense_product(mats[j], mats[i])]
    for i in range(n):
        assert g.mul(i, g.inv(i)) == 0
        # the transpose's sparse rows, entries kept as Fractions
        transpose = tuple(tuple((q, v) for q, v in enumerate(col) if v)
                          for col in zip(*mats[i]))
        assert _sparse_rows(ymats[i]) == invert_matrix(transpose)[0]
    for r in g.reflections:
        for h in range(n):
            conj = g.mul(g.mul(h, r.elem), g.inv(h))
            assert g.reflection_by_elem[conj].class_id == r.class_id


@pytest.mark.parametrize("name", sorted(CLOSURE_GROUPS))
def test_rows_match_the_dense_matrices(name):
    g = CLOSURE_GROUPS[name]()
    mats, ymats = _mats(g), _ymats(g)
    for i in range(g.order):
        assert g.x_rows(i) == _sparse_rows(mats[i])
        assert g.y_rows(i) == _sparse_rows(ymats[i])


def test_d4_build_takes_788_row_products(monkeypatch):
    # 12 squares in the reflection test, and for each of the 4 generators
    # the two products of its form check and one column of 192 products
    calls = []

    def counting(a, b):
        calls.append(None)
        return _row_product(a, b)
    monkeypatch.setattr(groups, "_row_product", counting)
    parse_group_spec("D4@4")
    assert len(calls) == 788


def test_row_product_drops_a_cancelled_base_number():
    # 1 - 1 in BaseNumbers is a zero entry, left out like an int zero
    b = (((0, BaseNumber(1)),), ((0, BaseNumber(-1)),))
    assert _row_product((((0, 1), (1, 1)),), b) == ((),)


def test_a_wide_ambient_space_builds_fast():
    # the form check reads nonzero entries only: O(d) for A1@400, where a
    # dense m G m^T took seconds; the identity Gram matrix is d one-entry
    # rows, where a dense d x d tuple peaked at 21 MB for A1@1600
    for d in (400, 1600):
        gram = QuadraticSpace(d).gram
        assert len(gram) == d and all(row == ((p, 1),)
                                      for p, row in enumerate(gram))
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            g = parse_group_spec(f"A1@{d}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert peak < 4_000_000
        assert g.order == 2 and g.reflections[0].root[:3] == (1, -1, 0)


@pytest.mark.parametrize("spec", ["A2000@2001", "B1000000@1000000"])
def test_an_order_past_the_cap_fails_before_it_is_computed(spec):
    # the order is multiplied up only until it passes the cap, so a huge
    # factorial is neither computed nor printed
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="cap") as err:
        parse_group_spec(spec)
    assert time.perf_counter() - t0 < 1.0
    assert spec.partition("@")[0] in str(err.value)


def test_cli_reports_an_order_past_the_cap(capsys):
    assert main(["info", "--group", "A2000@2001"]) == 2
    err = capsys.readouterr().err
    assert "order cap of 10000" in err and "A2000" in err


@pytest.mark.parametrize("elem, shape", [
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), "3x3"),
    (((0, 1),), "1x2"),
    ((((1, 1),), ((2, 1),)), "2 sparse rows over the columns 1..2"),
], ids=["dense-3x3", "one-row", "sparse-column-out-of-range"])
def test_an_element_of_the_wrong_shape_is_refused(elem, shape):
    ident = ((1, 0), (0, 1))
    with pytest.raises(ValueError, match=f"element 1 is {shape}, not 2x2"):
        ReflectionGroup(QuadraticSpace(2), [ident, elem])


def test_d4_closes_on_a_subset_of_its_reflections():
    # D4 has rank 4: four reflections generate it, where the table could
    # take a column for each of the twelve
    g = parse_group_spec("D4@4")
    refls = sorted(r.elem for r in g.reflections)
    tree, gens = g._closure_tree(refls)
    assert len(refls) == 12
    assert len(gens) == 4 and set(gens) <= set(refls)
    assert len(tree) == g.order - 1


def test_construction_fills_only_the_generators_rows():
    # inverses come from the search tree and classes from the generators'
    # rows, so a fresh group has filled no other row of its table
    g = parse_group_spec("D4@4")
    filled = {i for i, row in enumerate(g._mul_rows) if row is not None}
    _, gens = g._closure_tree(sorted(r.elem for r in g.reflections))
    assert filled <= set(gens) | {g.inv(s) for s in gens}
    assert len(filled) <= 2 * len(gens) and len(filled) < g.order


def test_duplicate_elements_are_refused():
    ident = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError, match="duplicate group elements"):
        ReflectionGroup(QuadraticSpace(2), [ident, ident])


_I = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
_SWAP = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
_ROT = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))


def _powers(m, k):
    out = [_I]
    for _ in range(k - 1):
        out.append(_dense_product(out[-1], m))
    return out


@pytest.mark.parametrize("mats", [
    [_I, _SWAP],              # the swap is chosen as a reflection generator
    _powers(_ROT, 4),         # no reflections: the rotation joins as missed
    [_I, _ROT],               # neither closed nor form-preserving
], ids=["reflection", "rotation", "unclosed"])
def test_generator_check_rejects_a_form_breaking_element(mats):
    # only the generators are checked; under Gram diag(1, 2) neither the
    # swap nor the quarter turn preserves the form, and the check runs
    # before the generator's column, so it wins over "not closed"
    space = QuadraticSpace(2, [[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="does not preserve the bilinear form"):
        ReflectionGroup(space, mats)


def test_an_empty_element_list_is_refused():
    with pytest.raises(ValueError, match="element 0 must be the identity"):
        ReflectionGroup(QuadraticSpace(2), [])


def test_a_generator_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match="generator 1 is 3x3, not 2x2"):
        from_generators([[[0, 1], [1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])


# Element indices are part of the output: witnesses print g<index>, and the
# benchmark's eval digests depend on them.  Both digests were taken from the
# dense-table implementation that preceded the generator closure.
D4_MATS_SHA256 = "66d841a65282c70e49266ec938b2b2116198d5d49c34b21846a76103c9ce53d4"
D4_INFO_SHA256 = "5f639f7c06bb78117cd63d016abfd2f2321eee1a453d512f93c17df201ecc0da"


def test_d4_indexing_is_pinned(capsys):
    g = build_group("D", 4, 4)
    assert hashlib.sha256(repr(_mats(g)).encode()).hexdigest() == D4_MATS_SHA256
    assert main(["info", "--group", "D4@4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == D4_INFO_SHA256


def _reflection(alpha):
    """The reflection with root alpha under the identity Gram matrix."""
    n = sum(a * a for a in alpha)
    return [[(p == q) - Fraction(2 * a * b) / n for q, b in enumerate(alpha)]
            for p, a in enumerate(alpha)]


_H = Fraction(1, 2)
# Custom groups keep their element order too.  Each entry is (generators,
# Gram matrix, order, sha256 of repr(mats), sha256 of the reflections'
# (elem, root, coroot, root_norm, class_id)); the digests were taken from
# the dense Fraction closure that preceded the integer-row product.
CUSTOM_PINS = {
    "rotation90": (
        [[[0, -1], [1, 0]]], None, 4,
        "1d6a443cfaf7f31d7c12850c6413a7e948079d5c72bc36568f86b313fa62bd8c",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "B2xrotation": (
        [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]]],
        None, 8,
        "f9e5f40e1f2fd43c43582d6ff4e12fe4cd06e5c66cc6ed14e39e9d9411b2dba0",
        "31a2c8f0d1df154caa273d08c2878879d7f9e6fbcca956379a5a870ceaf5a5c6"),
    "swap": (
        [[[0, 1], [1, 0]]], None, 2,
        "e6aaf9ff1f8261c5941b3595fd985602192f26910b155a312002cac6a32d405c",
        "6655cd8c8c49cc99af0e6c49887bdfc5294bea91ef7d1f88a616c64b281d6e53"),
    "swap_general_gram": (
        [[[0, 1], [1, 0]]], [[2, 1], [1, 2]], 2,
        "e6aaf9ff1f8261c5941b3595fd985602192f26910b155a312002cac6a32d405c",
        "6655cd8c8c49cc99af0e6c49887bdfc5294bea91ef7d1f88a616c64b281d6e53"),
    "reflection_3_4_5": (
        [[[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]],
        None, 2,
        "58aad49ea880cbab5061f244586613ac409a2fc06ee3a18bf93445d443c1ff20",
        "b42a325390db90e89f6e67df2c1143e8da3b602ee9017f9321f89f807a7022cd"),
    "F4_simple": (
        [_reflection(a) for a in ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1),
                                  (_H, -_H, -_H, -_H))], None, 1152,
        "8100f5822c91ba26e1c1d90da5689e9d891232d13747f9f43b022656a8548151",
        "ee5201cbf494df5bf857f851ece925b83148c3e69c77a186b7a34f0ef6471d6d"),
}


@pytest.mark.parametrize("name", sorted(CUSTOM_PINS))
def test_custom_group_data_is_pinned(name):
    gens, gram, order, mats_sha, refl_sha = CUSTOM_PINS[name]
    g = from_generators(gens, gram=gram)
    refl = [(r.elem, r.root, r.coroot, r.root_norm, r.class_id)
            for r in g.reflections]
    assert g.order == order
    assert hashlib.sha256(repr(_mats(g)).encode()).hexdigest() == mats_sha
    assert hashlib.sha256(repr(refl).encode()).hexdigest() == refl_sha


def test_d4_eval_pool_one_entry_per_shape():
    pool = json.loads(EVAL_POOL.read_text())["pool"]
    first = {}
    for shape, expr, terms, ref in pool:
        first.setdefault(shape, (expr, terms, ref))
    g = parse_group_spec("D4@4")
    for shape, (expr, terms, ref) in sorted(first.items()):
        value = Evaluator(Context(g)).eval_element(parse_expression(expr))
        digest = hashlib.sha256(str(value).encode()).hexdigest()[:16]
        assert (digest, len(value.terms)) == (ref, terms), (shape, expr)
