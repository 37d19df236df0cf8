import pytest
from hypothesis import given, settings, strategies as st

from charkit import fixtures
from charkit.csmodel import (
    B_COEFFS, EXP_MAX, CorpusIncompleteError, Delta1Operator,
    MonomialRangeError, QuadraticCorpus, build_a, build_b, unpack,
)
from charkit.lie_core import (
    FUNDAMENTAL_WEIGHTS, ZERO_WEIGHT, dominant_weights_below, eigenvalue,
)
from charkit.polyring import MultiPoly

from test_polyring import partial

L = FUNDAMENTAL_WEIGHTS


def test_build_b_coefficients():
    b = build_b()
    assert B_COEFFS == (72, 105, 144, 216, 165, 112, 57)
    for j in range(7):
        assert b[j] == B_COEFFS[j] * MultiPoly.variable(j + 1)
        assert B_COEFFS[j] == eigenvalue(L[j])


def test_a77_and_a17(assembled):
    a, _, _ = assembled
    assert a[(7, 7)] == MultiPoly.from_text("3*z7^2 -4*z6 -24*z1 -60")
    want17 = 2 * (MultiPoly.variable(1) * MultiPoly.variable(7)
                  - 7 * MultiPoly.variable(2) - 19 * MultiPoly.variable(7))
    assert a[(1, 7)] == want17


def test_a_is_symmetric(operator):
    # a_jk = a_kj is stored once, under the pair with j <= k
    assert sorted(operator.a) == [(j, k) for j in range(1, 8)
                                  for k in range(j, 8)]


def test_reconstruction_matches_printed_table_modulo_errata(assembled):
    a, _, _ = assembled
    printed = fixtures.load_a_table(fixtures.data_path("printed_a_table.txt"))
    errata = fixtures.load_errata(fixtures.data_path("a_table_errata.txt"))
    for jk in sorted(a):
        if jk in errata:
            printed_poly, recon_poly, verdict = errata[jk]
            assert printed[jk] == printed_poly
            assert a[jk] == recon_poly
            assert verdict == "reconstructed-wins"
        else:
            assert a[jk] == printed[jk], f"a_{jk} differs and is not in errata"


def test_eigen_identity_on_fundamentals(operator):
    for j in range(7):
        zj = MultiPoly.variable(j + 1)
        assert operator.apply(zj) == eigenvalue(L[j]) * zj


def test_apply_examples(operator, table):
    assert operator.apply(MultiPoly.one()) == MultiPoly.zero()
    chi = table.character((0, 0, 0, 0, 0, 0, 2))
    eps = eigenvalue((0, 0, 0, 0, 0, 0, 2))
    assert eps == 120
    assert operator.apply(chi) == eps * chi


def test_apply_linearity(operator, table):
    p = table.character((1, 0, 0, 0, 0, 0, 1))
    q = table.character((0, 1, 0, 0, 0, 0, 0))
    assert operator.apply(p + q) == operator.apply(p) + operator.apply(q)
    assert operator.apply(3 * p - 2 * q) == \
        3 * operator.apply(p) - 2 * operator.apply(q)


def image_of(op, n):
    """``op.image_terms(n)`` keyed by exponent tuples."""
    return {unpack(q): c for q, c in op.image_terms(n).items()}


def test_monomial_image_z7(operator):
    z7 = (0, 0, 0, 0, 0, 0, 1)
    assert image_of(operator, z7) == {z7: 57}


def test_monomial_image_constant(operator):
    assert operator.image_terms(ZERO_WEIGHT) == {}


def test_monomial_image_z7_squared(operator):
    n = (0, 0, 0, 0, 0, 0, 2)
    image = image_of(operator, n)
    assert image[n] == eigenvalue(n)
    # the off-diagonal terms land exactly on the monomials z6, z1, 1
    assert set(image) == {n, (0, 0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0, 0),
                          ZERO_WEIGHT}


def test_triangularity_on_dominant_monomials(operator):
    for m in [(0, 1, 0, 0, 0, 1, 0), (2, 0, 0, 0, 1, 0, 0)]:
        for n in dominant_weights_below(m):
            image = image_of(operator, n)
            assert set(image) <= set(dominant_weights_below(n))
            assert image.get(n, 0) == eigenvalue(n)


def by_definition(op, p):
    """D p = sum_{j<=k} (2 if j < k else 1) a_jk d_j d_k p
    + sum_j b_j d_j p."""
    want = MultiPoly.zero()
    for (j, k), a_jk in op.a.items():
        want += (2 if j < k else 1) * a_jk * partial(partial(p, j), k)
    for j, b_j in enumerate(build_b(), 1):
        want += b_j * partial(p, j)
    return want


def test_packed_range_boundary(operator):
    # The largest a_jk exponent is 4, on the z1^4 term of a_44.
    top = max(x for a_jk in operator.a.values() for e in a_jk.terms
              for x in e)
    assert top == 4
    assert operator.a[(4, 4)].coefficient_of((4, 0, 0, 0, 0, 0, 0)) == -24
    last = EXP_MAX - top
    # z4^2 lets a_44 act, which puts z1^4 on z1^last: an exponent EXP_MAX.
    n = (last, 0, 0, 2, 0, 0, 0)
    image = image_of(operator, n)
    assert max(max(e) for e in image) == EXP_MAX
    assert MultiPoly(image) == by_definition(operator, MultiPoly.monomial(n))
    for i in range(7):
        operator.image_terms(tuple(last if j == i else 0 for j in range(7)))
        with pytest.raises(MonomialRangeError, match=f"0..{last}"):
            operator.image_terms(
                tuple(last + 1 if j == i else 0 for j in range(7)))
    with pytest.raises(MonomialRangeError):
        operator.image_terms((0, 0, -1, 0, 0, 1, 0))
    assert issubclass(MonomialRangeError, ValueError)


def test_packed_range_follows_the_registered_terms():
    op = Delta1Operator()
    op.register_pair(7, 7, MultiPoly.from_text("3*z7^2 -4*z6 -24*z1 -60"))
    last = EXP_MAX - 2
    n = (0, 0, 0, 0, 0, 0, last)
    want = by_definition(op, MultiPoly.monomial(n))
    assert MultiPoly(image_of(op, n)) == want
    with pytest.raises(MonomialRangeError):
        op.image_terms((0, 0, 0, 0, 0, 0, last + 1))


small_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 7),
                              st.integers(-9, 9), max_size=4).map(MultiPoly)


@given(small_polys)
@settings(max_examples=30, deadline=None)
def test_apply_matches_the_operator_definition(operator, p):
    assert operator.apply(p) == by_definition(operator, p)


def test_corpus_invariants(corpus):
    for (j, k), ser in corpus.series.items():
        top = tuple(a + b for a, b in zip(L[j - 1], L[k - 1]))
        assert ser[top] == 1
    assert len(corpus.series) == 28
    assert len(corpus.second_order_chars) == 28


def test_incomplete_corpus_raises_named_error(corpus):
    broken = QuadraticCorpus(
        series=dict(corpus.series),
        second_order_chars={
            w: chi for w, chi in corpus.second_order_chars.items()
            if w != (0, 0, 0, 0, 0, 0, 2)})
    with pytest.raises(CorpusIncompleteError, match="0000002"):
        build_a(broken)


def test_incomplete_operator_raises():
    op = Delta1Operator()
    op.register_pair(7, 7, MultiPoly.from_text("3*z7^2 -4*z6 -24*z1 -60"))
    # z6*z7 needs the (6, 7) pair
    from charkit.csmodel import OperatorIncompleteError
    with pytest.raises(OperatorIncompleteError):
        op.image_terms((0, 0, 0, 0, 0, 1, 1))
