import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from charkit import csmodel, fixtures
from charkit.csmodel import (
    B_COEFFS, CorpusIncompleteError, Delta1Operator, MonomialRangeError,
    OperatorIncompleteError, QuadraticCorpus, build_a,
)
from charkit.lie_core import (
    FUNDAMENTAL_WEIGHTS, KEY_MAX, ZERO_WEIGHT, InvariantError,
    dominant_weights_below, eigenvalue, is_below, key_weight, weight_height2,
)
from charkit.polyring import MultiPoly

from test_polyring import partial

L = FUNDAMENTAL_WEIGHTS

PRINTED_A_TABLE = pathlib.Path(__file__).parent / "data" / "printed_a_table.txt"


def load_a_table():
    """Parse the ``a j k = <poly>`` lines of the printed table into
    {(j, k): MultiPoly}."""
    return {pair: poly for _, pair, poly in fixtures._entries(
        PRINTED_A_TABLE, "a", fixtures._pair_key, MultiPoly.from_text)}


def apply(op, p):
    """The operator applied to a MultiPoly, through ``apply_terms``."""
    return MultiPoly(op.apply_terms(p.terms))


def test_build_b_coefficients():
    assert B_COEFFS == (72, 105, 144, 216, 165, 112, 57)
    for j in range(7):
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
    # There are no errata: every one of the 28 entries must match.
    a, _, _ = assembled
    printed = load_a_table()
    assert sorted(printed) == sorted(a)
    for jk in sorted(a):
        assert a[jk] == printed[jk], f"a_{jk} differs from the printed table"


def test_eigen_identity_on_fundamentals(operator):
    for j in range(7):
        zj = MultiPoly.variable(j + 1)
        assert apply(operator, zj) == eigenvalue(L[j]) * zj


def test_apply_examples(operator, table):
    assert apply(operator, MultiPoly.one()) == MultiPoly.zero()
    chi = table.character((0, 0, 0, 0, 0, 0, 2))
    eps = eigenvalue((0, 0, 0, 0, 0, 0, 2))
    assert eps == 120
    assert apply(operator, chi) == eps * chi


def test_apply_linearity(operator, table):
    p = table.character((1, 0, 0, 0, 0, 0, 1))
    q = table.character((0, 1, 0, 0, 0, 0, 0))
    assert apply(operator, p + q) == apply(operator, p) + apply(operator, q)
    assert apply(operator, 3 * p - 2 * q) == \
        3 * apply(operator, p) - 2 * apply(operator, q)


def image_of(op, n):
    """``op.image_terms(n)`` keyed by exponent tuples.  The image lists each
    key once, with a nonzero coefficient."""
    keys, coeffs = op.image_terms(n)
    assert len(keys) == len(coeffs) == len(set(keys))
    assert 0 not in coeffs
    return {key_weight(q): c for q, c in zip(keys, coeffs)}


def test_monomial_image_z7(operator):
    z7 = (0, 0, 0, 0, 0, 0, 1)
    assert image_of(operator, z7) == {z7: 57}


def test_monomial_image_constant(operator):
    assert operator.image_terms(ZERO_WEIGHT) == ((), ())


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


@pytest.mark.parametrize("top", [(0, 0, 0, 3, 0, 0, 0), (0, 0, 0, 0, 2, 2, 2)])
def test_restriction_rows_are_the_images_by_position(operator, top):
    weights = dominant_weights_below(top)
    support = operator.restrict(weights)
    assert support.weights is weights
    for i, mu in enumerate(weights):
        row = support.row(i)
        targets, coeffs = row
        assert all(j >= i for j in targets)
        assert {weights[j]: c for j, c in zip(targets, coeffs)} == \
            operator.apply_terms({mu: 1})
        assert support.position(mu) == i
        assert support.row(i) is row


def with_a_huge_coefficient(operator):
    """The operator with 2**62 added to the z6 coefficient of a_77: its
    images no longer fit int64."""
    a = operator.a
    a[(7, 7)] = a[(7, 7)] + MultiPoly({(0, 0, 0, 0, 0, 1, 0): 2 ** 62})
    return Delta1Operator(a)


@pytest.mark.parametrize("chunk_rows", [7, csmodel._CHUNK_ROWS])
@pytest.mark.parametrize("top", [(0, 0, 0, 3, 0, 0, 0), (0, 0, 0, 0, 2, 2, 2)])
@pytest.mark.parametrize("huge", [False, True], ids=["int64", "python-ints"])
def test_restriction_arrays_are_the_rows_off_the_diagonal(
        operator, monkeypatch, top, chunk_rows, huge):
    import numpy as np

    monkeypatch.setattr(csmodel, "_CHUNK_ROWS", chunk_rows)
    if huge:
        operator = with_a_huge_coefficient(operator)
    weights = dominant_weights_below(top)
    n = len(weights)
    support = operator.restrict(weights)
    levels = support.levels()
    assert support.levels() is levels
    assert levels.eps.tolist() == [eigenvalue(mu) for mu in weights]
    heights = [weight_height2(mu) for mu in weights]
    assert levels.cuts == [0] + [i for i in range(1, n)
                                 if heights[i] != heights[i - 1]] + [n]
    # blocks of whole levels, each of at least chunk_rows rows but the last
    blocks = levels.blocks
    assert blocks[0] == 0 and blocks[-1] == n and set(blocks) <= set(levels.cuts)
    assert all(b - a >= chunk_rows for a, b in zip(blocks, blocks[1:-1]))
    assert len(blocks) > 2 or n < 2 * chunk_rows
    # Images that may leave int64 leave no limb width: the level solve
    # hands such an operator to the position solve and builds no block.
    assert (levels.limb_bits < 1) == huge
    if huge:
        return
    for k, (a, b) in enumerate(zip(blocks, blocks[1:])):
        start, target, value = rows = levels.block(k)
        assert levels.block(k) is rows
        assert value.dtype == np.int64
        assert start[0] == 0 and start[-1] == len(target) == len(value)
        assert len(start) == b - a + 1
        for i in range(a, b):
            targets, coeffs = support.row(i)
            lo, hi = start[i - a], start[i - a + 1]
            assert (target[lo:hi] > i).all() and value[lo:hi].all()
            assert dict(zip(target[lo:hi].tolist(), value[lo:hi].tolist())) == \
                {j: c for j, c in zip(targets, coeffs) if j != i}


def test_a_block_not_kept_is_built_afresh(operator):
    levels = operator.restrict(
        dominant_weights_below((0, 0, 0, 0, 2, 2, 2))).levels()
    first = levels.block(0, keep=False)
    again = levels.block(0, keep=False)
    assert again is not first
    assert all((x == y).all() for x, y in zip(first, again))
    assert levels.block(0) is levels.block(0) is not again


def test_restriction_arrays_refuse_a_target_outside_the_support(operator):
    # Without the zero weight, the images that reach it have a target
    # whose nearest key belongs to another member.
    weights = dominant_weights_below((0, 0, 0, 0, 0, 0, 4))[:-1]
    levels = operator.restrict(weights).levels()
    assert levels.blocks == [0, len(weights)]
    with pytest.raises(KeyError, match=r"image term z\^\(0, 0, 0, 0, 0, 0, 0\)"
                                       r" of z\^.* is not in the support"):
        levels.block(0)
    support = operator.restrict(weights)
    with pytest.raises(KeyError):
        [support.row(i) for i in range(len(weights))]


def constant_hash(keys, bits):
    """Slot 0 as every key's home: all keys share one probe chain."""
    import numpy as np

    return np.zeros(len(keys), dtype=np.int64)


def test_the_key_index_probes_past_collisions(operator, monkeypatch):
    # With one home slot, each key is placed and found only by walking the
    # probe chain of every key before it; the blocks stay the same.
    monkeypatch.setattr(csmodel, "_CHUNK_ROWS", 7)
    weights = dominant_weights_below((0, 0, 0, 0, 2, 2, 2))
    levels = operator.restrict(weights).levels()
    want = [levels.block(k) for k in range(len(levels.blocks) - 1)]
    assert len(want) > 1
    monkeypatch.setattr(csmodel, "_hash", constant_hash)
    levels = operator.restrict(weights).levels()
    got = [levels.block(k) for k in range(len(levels.blocks) - 1)]
    assert len(got) == len(want)
    for rows, want_rows in zip(got, want):
        for x, y in zip(rows, want_rows):
            assert x.dtype == y.dtype and x.tolist() == y.tolist()


def test_a_target_outside_the_support_is_refused_past_collisions(
        operator, monkeypatch):
    # As in test_restriction_arrays_refuse_a_target_outside_the_support:
    # the zero weight's key, missing, ends its probe at the empty slot
    # after the one chain, and is refused with the same message.
    weights = dominant_weights_below((0, 0, 0, 0, 0, 0, 4))[:-1]
    with pytest.raises(KeyError) as want:
        operator.restrict(weights).levels().block(0)
    monkeypatch.setattr(csmodel, "_hash", constant_hash)
    with pytest.raises(KeyError) as got:
        operator.restrict(weights).levels().block(0)
    assert str(got.value) == str(want.value)


def test_restriction_arrays_refuse_what_the_images_refuse(operator):
    last = KEY_MAX - 4
    beyond = operator.restrict([(0, 0, 0, 0, 0, 0, last + 1)])
    with pytest.raises(MonomialRangeError, match=f"0..{last}"):
        beyond.levels()
    op = Delta1Operator()
    op.register_pair(7, 7, MultiPoly.from_text("3*z7^2 -4*z6 -24*z1 -60"))
    assert op.restrict(dominant_weights_below((0, 0, 0, 0, 0, 0, 2))
                       ).levels().block(0)
    with pytest.raises(OperatorIncompleteError,
                       match=r"^coefficient pair \(\d, \d\) needed for "
                             r"monomial \(\d(, \d){6}\) is not built$"):
        op.restrict(dominant_weights_below((0, 0, 0, 0, 0, 1, 1))
                    ).levels().block(0)


def by_definition(op, p):
    """D p = sum_{j<=k} (2 if j < k else 1) a_jk d_j d_k p
    + sum_j b_j d_j p."""
    want = MultiPoly.zero()
    for (j, k), a_jk in op.a.items():
        want += (2 if j < k else 1) * a_jk * partial(partial(p, j), k)
    for j in range(1, 8):
        want += B_COEFFS[j - 1] * MultiPoly.variable(j) * partial(p, j)
    return want


def test_packed_range_boundary(operator):
    # The largest a_jk exponent is 4, on the z1^4 term of a_44.
    top = max(x for a_jk in operator.a.values() for e in a_jk.terms
              for x in e)
    assert top == 4
    assert operator.a[(4, 4)].coefficient_of((4, 0, 0, 0, 0, 0, 0)) == -24
    last = KEY_MAX - top
    # z4^2 lets a_44 act, which puts z1^4 on z1^last: an exponent KEY_MAX.
    n = (last, 0, 0, 2, 0, 0, 0)
    image = image_of(operator, n)
    assert max(max(e) for e in image) == KEY_MAX
    assert MultiPoly(image) == by_definition(operator, MultiPoly({n: 1}))
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
    last = KEY_MAX - 2
    n = (0, 0, 0, 0, 0, 0, last)
    want = by_definition(op, MultiPoly({n: 1}))
    assert MultiPoly(image_of(op, n)) == want
    with pytest.raises(MonomialRangeError):
        op.image_terms((0, 0, 0, 0, 0, 0, last + 1))


small_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 7),
                              st.integers(-9, 9), max_size=4).map(MultiPoly)


@given(small_polys)
@settings(max_examples=30, deadline=None)
def test_apply_matches_the_operator_definition(operator, p):
    assert apply(operator, p) == by_definition(operator, p)


@given(st.tuples(*[st.integers(0, 3)] * 7))
@settings(max_examples=40, deadline=None)
def test_every_image_term_lies_below_its_monomial(operator, n):
    # The triangle that register_pair certifies pair by pair, seen on the
    # images of whole monomials.
    image = operator.apply_terms({n: 1})
    assert all(is_below(q, n) for q in image)


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


def test_a_corpus_without_all_28_pairs_is_refused(corpus):
    series = {pair: ser for pair, ser in corpus.series.items()
              if pair != (3, 5)}
    broken = QuadraticCorpus(series=series,
                             second_order_chars=corpus.second_order_chars)
    with pytest.raises(ValueError, match="must contain all 28 pairs"):
        broken.validate()


def test_a_top_weight_that_does_not_occur_once_is_refused(corpus):
    # cg 6 7 with its top lambda_6 + lambda_7 twice
    top = (0, 0, 0, 0, 0, 1, 1)
    series = {**corpus.series, (6, 7): {**corpus.series[(6, 7)], top: 2}}
    broken = QuadraticCorpus(series=series,
                             second_order_chars=corpus.second_order_chars)
    with pytest.raises(ValueError) as refused:
        broken.validate()
    assert str(refused.value) == (
        "series 6 7: top weight must occur once, got 2")


def test_a_non_integral_a_jk_is_refused(corpus):
    # One more lambda_7 in cg 7 7 adds eps_7 * z7 = 57 * z7 to twice a_77,
    # an odd coefficient.
    series = {**corpus.series,
              (7, 7): {**corpus.series[(7, 7)], L[6]: 1}}
    broken = QuadraticCorpus(series=series,
                             second_order_chars=corpus.second_order_chars)
    with pytest.raises(ArithmeticError) as refused:
        build_a(broken)
    assert str(refused.value) == (
        "a_77 reconstruction is not an integer polynomial")


def test_indistinct_pair_heights_are_refused(monkeypatch):
    monkeypatch.setattr(csmodel, "TWO_RHO_ALPHA", (1,) * 7)
    with pytest.raises(InvariantError, match="^the 28 fundamental pair "
                       "heights are not pairwise distinct$"):
        csmodel._pair_order()


def test_an_operator_short_of_a_pair_is_refused(corpus, monkeypatch):
    # The last pair in bootstrap order is needed by no other: left out,
    # every other a_jk is built and the count certificate refuses.
    order = csmodel._pair_order()
    monkeypatch.setattr(csmodel, "_pair_order", lambda: order[:-1])
    with pytest.raises(InvariantError,
                       match="^27 a_jk polynomials built, not 28$"):
        build_a(corpus)


def test_incomplete_operator_raises():
    op = Delta1Operator()
    op.register_pair(7, 7, MultiPoly.from_text("3*z7^2 -4*z6 -24*z1 -60"))
    # z6*z7 needs the (6, 7) pair
    with pytest.raises(OperatorIncompleteError):
        op.image_terms((0, 0, 0, 0, 0, 1, 1))
