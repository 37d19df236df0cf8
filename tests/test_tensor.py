import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from charkit import build_a, charsolve, fixtures
from charkit.charsolve import LEVEL_SOLVE_MIN_SUPPORT, CharacterTable
from charkit.csmodel import Delta1Operator
from charkit.lie_core import (
    FUNDAMENTAL_WEIGHTS, ZERO_WEIGHT, NonDominantError,
    dominant_weights_below, is_below, monomial_dim, weyl_dim,
)
from charkit.oracle import minuscule_series
from charkit.polyring import MultiPoly
from charkit.tensor import (
    CGSeries, DecompositionError, _subtractive_decompose, cg_decompose,
    monomial_decompose,
)

from test_charsolve import off_diagonal_terms

L = FUNDAMENTAL_WEIGHTS

Z7_FAMILIES = pathlib.Path(__file__).parent / "data" / "z7_families.txt"


def load_families():
    """k -> the published offsets of z7 * chi_{n lambda_k}, as weights."""
    rows = {}
    for line in Z7_FAMILIES.read_text().splitlines():
        if line and not line.startswith("#"):
            k, offsets = line.split(":")
            rows[int(k)] = [fixtures.parse_weight(d) for d in offsets.split()]
    return rows


PUBLISHED = load_families()


def closed_form(k, n, rows=PUBLISHED):
    """The published series of z7 * chi_{n lambda_k} as {weight: 1}: each
    row is (n - 1) lambda_k + d, d its weight at n = 1."""
    return {tuple((n - 1) * x + d for x, d in zip(L[k - 1], offset)): 1
            for offset in rows[k]}


def family(k, n, table):
    """The computed series of z7 * chi_{n lambda_k}, and its closed form."""
    computed = cg_decompose(L[6], tuple(n * x for x in L[k - 1]), table)
    return computed, closed_form(k, n)


def rule_mismatches(rows, n_max=20):
    """The (k, n) with n <= n_max at which the rows of ``rows`` differ
    from the minuscule rule."""
    return [(k, n) for k in range(1, 8) for n in range(1, n_max + 1)
            if closed_form(k, n, rows)
            != minuscule_series(tuple(n * x for x in L[k - 1]))]


def quadratic_roundtrip(corpus, table):
    """(j, k) -> whether cg_decompose reproduces the corpus series of the
    pair lambda_j, lambda_k."""
    return {(j, k): cg_decompose(L[j - 1], L[k - 1], table).terms == want
            for (j, k), want in corpus.series.items()}


def test_cg_l7_l7(table):
    got = cg_decompose(L[6], L[6], table)
    assert got.terms == {(0, 0, 0, 0, 0, 0, 2): 1, L[0]: 1, L[5]: 1,
                         ZERO_WEIGHT: 1}
    assert got.total_dimension() == 56 * 56


def test_cg_with_trivial_factor(table):
    m = (0, 1, 0, 0, 1, 0, 0)
    assert cg_decompose(m, ZERO_WEIGHT, table).terms == {m: 1}


def test_cg_symmetry(table):
    a = cg_decompose(L[1], L[6], table)
    b = cg_decompose(L[6], L[1], table)
    assert a.terms == b.terms


def test_cg_leading_multiplicity_one(table):
    for m, n in [(L[0], L[2]), (L[4], L[6]), (L[1], L[1])]:
        got = cg_decompose(m, n, table)
        top = tuple(x + y for x, y in zip(m, n))
        assert got.terms.get(top, 0) == 1


def test_trivial_rep_multiplicity_reflects_self_duality(table):
    # all irreducibles are self-adjoint, so chi_j * chi_k contains the
    # trivial representation once iff j == k
    for j in range(7):
        for k in range(j, 7):
            got = cg_decompose(L[j], L[k], table)
            assert got.terms.get(ZERO_WEIGHT, 0) == (1 if j == k else 0)


def test_monomial_z7_squared(table):
    got = monomial_decompose((0, 0, 0, 0, 0, 0, 2), table)
    assert got.terms == {(0, 0, 0, 0, 0, 0, 2): 1, L[0]: 1, L[5]: 1,
                         ZERO_WEIGHT: 1}


def test_monomial_single_variable(table):
    assert monomial_decompose(L[0], table).terms == {L[0]: 1}


def test_monomial_z7_cubed(table):
    got = monomial_decompose((0, 0, 0, 0, 0, 0, 3), table)
    assert got.terms == {
        (0, 0, 0, 0, 0, 0, 3): 1,
        (0, 0, 0, 0, 0, 1, 1): 2,
        (0, 0, 0, 0, 1, 0, 0): 1,
        (1, 0, 0, 0, 0, 0, 1): 3,
        (0, 1, 0, 0, 0, 0, 0): 2,
        (0, 0, 0, 0, 0, 0, 1): 4,
    }


def test_monomial_z1_cubed_matches_fixture(table):
    fixture = fixtures.load_mcg_file(fixtures.data_path("cubic_series.txt"))
    want = fixture[(3, 0, 0, 0, 0, 0, 0)]
    got = monomial_decompose((3, 0, 0, 0, 0, 0, 0), table)
    assert got.terms == want
    assert len(want) == 11
    assert want[(1, 0, 0, 0, 0, 0, 0)] == 5


def test_dimension_identity_everywhere(table):
    for m, n in [(L[0], L[6]), (L[2], L[6])]:
        got = cg_decompose(m, n, table)
        assert got.total_dimension() == weyl_dim(m) * weyl_dim(n)


def test_constituent_supports_filter_the_top_downset(operator, table):
    # Constituents solved inside a decomposition are solved on the top's
    # downset: the members from a constituent's position on that lie below
    # it must be its own enumeration, order included, and the character
    # solved there must be the one solved on its own.
    z4_cubed = (0, 0, 0, 3, 0, 0, 0)
    m, n = (0, 0, 0, 0, 0, 1, 2), (0, 0, 1, 0, 0, 0, 1)
    cases = [(z4_cubed, monomial_decompose(z4_cubed, table)),
             (tuple(a + b for a, b in zip(m, n)), cg_decompose(m, n, table))]
    for top, series in cases:
        support = operator.restrict(dominant_weights_below(top))
        on_top = CharacterTable(operator)
        for mu in series.terms:
            p = support.position(mu)
            below = [nu for nu in support.weights[p:] if is_below(nu, mu)]
            assert below == dominant_weights_below(mu)
            assert on_top.character_m1(mu, support=support) == \
                CharacterTable(operator).character_m1(mu)


def test_a_decomposition_reads_each_row_once(operator, monkeypatch):
    # All 305 weights below z4^3 are constituents of it, and each solve
    # reads the rows it needs from the top's downset: one image per weight
    # for the whole decomposition, not one per constituent that needs it.
    z4_cubed = (0, 0, 0, 3, 0, 0, 0)
    calls = []
    image_terms = Delta1Operator.image_terms

    def counted(self, n):
        calls.append(tuple(n))
        return image_terms(self, n)

    monkeypatch.setattr(Delta1Operator, "image_terms", counted)
    series = monomial_decompose(z4_cubed, CharacterTable(operator))
    monkeypatch.undo()
    downset = dominant_weights_below(z4_cubed)
    assert len(series) == len(downset) == 305
    assert len(calls) <= len(downset)
    assert set(calls) <= set(downset)


def test_a_small_decomposition_keeps_its_constituents(operator):
    top = (1, 0, 0, 0, 0, 0, 1)
    assert len(dominant_weights_below(top)) < LEVEL_SOLVE_MIN_SUPPORT
    t = CharacterTable(operator)
    series = cg_decompose(L[0], L[6], t)
    assert all(t.provenance(mu) == "method-1" for mu in series.terms)


def test_a_large_decomposition_keeps_no_constituent(operator):
    # The top lambda_1 + 15 lambda_7 has 2 068 weights below it: only the
    # factors, asked for by name, stay in the table.
    m, n = L[0], (0, 0, 0, 0, 0, 0, 15)
    top = (1, 0, 0, 0, 0, 0, 15)
    assert len(dominant_weights_below(top)) == 2068
    t = CharacterTable(operator)
    series = cg_decompose(m, n, t)
    assert top in series.terms
    assert {mu for mu in series.terms if t.provenance(mu)} <= {m, n}
    assert t.provenance(m) == t.provenance(n) == "method-1"


def test_decomposition_error_on_corrupted_character(operator):
    t = CharacterTable(operator)
    bad = MultiPoly.from_text("1*z7^2 -1*z6 -1*z1 -2")  # wrong constant
    t.seed((0, 0, 0, 0, 0, 0, 2), bad)
    with pytest.raises(DecompositionError):
        cg_decompose(L[6], L[6], t)


@pytest.mark.parametrize("bad, message", [
    # a term z1^5 above lambda_7: the product's terms off the downset of
    # z7^2 are never subtracted, while the series and its dimension sum
    # come out right
    (MultiPoly.variable(7) + MultiPoly({(5, 0, 0, 0, 0, 0, 0): 1}),
     "nonzero residual after decomposing below (0, 0, 0, 0, 0, 0, 2): "
     "[(5, 0, 0, 0, 0, 0, 1), (10, 0, 0, 0, 0, 0, 0)] ..."),
    # z7 twice over: the product is four times z7^2's, and the top's
    # multiplicity is refused ahead of the dimension sum
    (2 * MultiPoly.variable(7),
     "top weight (0, 0, 0, 0, 0, 0, 2) has multiplicity 4, not 1"),
], ids=["residual", "top"])
def test_a_corrupted_factor_is_refused_by_its_certificate(operator, bad,
                                                          message):
    t = CharacterTable(operator)
    t.seed(L[6], bad)
    with pytest.raises(DecompositionError) as refused:
        cg_decompose(L[6], L[6], t)
    assert str(refused.value) == message


@pytest.mark.parametrize("exps", [(0, 0, 0, 0, 0, 2),
                                  (0, 0, 0, 0, 0, -1, 2)],
                         ids=["six-exponents", "negative"])
def test_monomial_decompose_refuses_bad_exponents(table, exps):
    with pytest.raises(NonDominantError, match="is not dominant"):
        monomial_decompose(exps, table)
    assert issubclass(NonDominantError, ValueError)


def test_cgseries_rejects_nonpositive():
    with pytest.raises(ValueError):
        CGSeries({L[0]: 0})


def test_family_k7(table):
    computed, closed = family(7, 2, table)
    assert computed.terms == closed
    assert computed.terms == {
        (0, 0, 0, 0, 0, 0, 3): 1, (0, 0, 0, 0, 0, 1, 1): 1,
        (1, 0, 0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0, 0, 1): 1}


def test_family_k7_n1_degenerates_to_quadratic(table):
    computed, closed = family(7, 1, table)
    assert computed.terms == closed
    assert computed.terms == cg_decompose(L[6], L[6], table).terms


def test_family_k2_n2(table):
    computed, closed = family(2, 2, table)
    assert computed.terms == closed
    assert computed.terms == {
        (0, 2, 0, 0, 0, 0, 1): 1, (0, 1, 1, 0, 0, 0, 0): 1,
        (0, 1, 0, 0, 0, 1, 0): 1, (1, 1, 0, 0, 0, 0, 0): 1}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_family_n1_matches_quadratic_series(k, table, corpus):
    computed, closed = family(k, 1, table)
    assert computed.terms == closed
    pair = (min(k, 7), max(k, 7))
    assert computed.terms == corpus.series[pair]


def test_family_k4(table):
    # the widest family row: seven constituents for every n
    computed, closed = family(4, 2, table)
    assert computed.terms == closed
    assert len(computed.terms) == 7


@pytest.mark.parametrize("k", range(1, 8))
def test_closed_form_rows_are_distinct_and_sum_to_the_dimension(k):
    # No row of a family merges with another or leaves the dominant
    # chamber, and 56 * dim(n lambda_k) is the dimension sum, up to n = 8.
    for n in range(1, 9):
        terms = minuscule_series(tuple(n * x for x in L[k - 1]))
        assert len(terms) == len(PUBLISHED[k])
        assert all(x >= 0 for w in terms for x in w)
        total = sum(weyl_dim(w) for w in terms)
        assert total == 56 * weyl_dim(tuple(n * x for x in L[k - 1]))


def test_published_families_are_the_minuscule_rule():
    assert sorted(PUBLISHED) == list(range(1, 8))
    assert rule_mismatches(PUBLISHED) == []


def test_a_changed_published_offset_fails_the_comparison():
    rows = {k: list(offsets) for k, offsets in PUBLISHED.items()}
    rows[4][2] = (1, 0, 0, 1, 0, 0, 1)      # was 1000100
    assert rule_mismatches(rows) == [(4, n) for n in range(1, 21)]


# Every dominant weight with coordinate sum at most 3.
SMALL_DOMINANT = [w for w in itertools.product(range(4), repeat=7)
                  if sum(w) <= 3]


def test_every_small_product_with_lambda_7_is_the_minuscule_rule(table):
    assert len(SMALL_DOMINANT) == 120
    for m in SMALL_DOMINANT:
        assert cg_decompose(m, L[6], table).terms == minuscule_series(m), m


def test_quadratic_roundtrip(corpus, table):
    results = quadratic_roundtrip(corpus, table)
    assert all(results.values())
    assert len(results) == 28
    assert results[(1, 7)]
    # spot values against the fixtures
    got17 = cg_decompose(L[0], L[6], table)
    assert got17.terms == {(1, 0, 0, 0, 0, 0, 1): 1, L[1]: 1, L[6]: 1}
    got44 = cg_decompose(L[3], L[3], table)
    assert got44.terms.get((1, 1, 0, 0, 0, 0, 1), 0) == 12


def test_decomposition_certifies_its_dimension_sum(table):
    support = table.operator.restrict(
        dominant_weights_below((0, 0, 0, 0, 0, 0, 2)))
    product = table.character(L[6]) * table.character(L[6])
    got = _subtractive_decompose(product.terms, support, table, 56 * 56)
    assert got.terms == cg_decompose(L[6], L[6], table).terms
    with pytest.raises(DecompositionError, match="dimension sum"):
        _subtractive_decompose(product.terms, support, table, 56 * 56 + 1)


def test_a_series_comes_out_in_its_top_downset_order(table):
    # The printed order of a series is the order its terms come in: the
    # downset's of the top weight, which the subtraction walks.
    cubics = [e for e in itertools.product(range(4), repeat=7) if sum(e) == 3]
    assert len(cubics) == 84
    cases = [(e, monomial_decompose(e, table)) for e in cubics]
    for j in range(7):
        for k in range(j, 7):
            cases.append((tuple(a + b for a, b in zip(L[j], L[k])),
                          cg_decompose(L[j], L[k], table)))
    m, n = (0, 0, 0, 0, 0, 1, 2), (0, 0, 1, 0, 0, 0, 1)
    cases.append(((0, 0, 1, 0, 0, 1, 3), cg_decompose(m, n, table)))
    for k in range(1, 8):
        for n in range(1, 4):
            top = tuple(a + n * b for a, b in zip(L[6], L[k - 1]))
            cases.append((top, family(k, n, table)[0]))
    assert len(cases) == 84 + 28 + 1 + 21
    for top, series in cases:
        assert list(series.terms) == [
            w for w in dominant_weights_below(top) if w in series.terms]


# The decomposition as one walk with a lane per constituent, against the
# triangular subtraction one constituent after the other.

def literal_decompose(product_terms, support, table, expected_dim):
    """The subtraction one constituent at a time, as ``_subtractive_
    decompose`` ran before its constituents shared one walk: each
    constituent not in memory is solved alone on the top's support
    (``CharacterTable.character``), then subtracted whole."""
    top = support.weights[0]
    residual = dict(product_terms)
    series = {}
    for mu in support.weights:
        c = residual.get(mu, 0)
        if c == 0:
            continue
        if c < 0:
            raise DecompositionError(
                f"negative multiplicity {c} for weight {mu} under {top}")
        chi = table.character(mu, support=support)
        for q, s in chi.terms.items():
            v = residual.get(q, 0) - c * s
            if v:
                residual[q] = v
            else:
                residual.pop(q, None)
        series[mu] = c
    if residual:
        raise DecompositionError(
            f"nonzero residual after decomposing below {top}: "
            f"{sorted(residual)[:5]} ...")
    if series.get(top) != 1:
        raise DecompositionError(
            f"top weight {top} has multiplicity {series.get(top, 0)}, not 1")
    got = sum(weyl_dim(mu) * c for mu, c in series.items())
    if got != expected_dim:
        raise DecompositionError(
            f"dimension sum {got} != {expected_dim} below {top}")
    return CGSeries(series)


def literal_monomial(exps, table):
    support = table.operator.restrict(dominant_weights_below(exps))
    return literal_decompose({exps: 1}, support, table, monomial_dim(exps))


def literal_cg(m, n, table):
    top = tuple(a + b for a, b in zip(m, n))
    support = table.operator.restrict(dominant_weights_below(top))
    product = table.character(m) * table.character(n)
    return literal_decompose(product.terms, support, table,
                             weyl_dim(m) * weyl_dim(n))


def copy_table(table):
    """A table on the same operator holding the same characters."""
    t = CharacterTable(table.operator)
    for m, chi in table._cache.items():
        t._cache[m] = chi
        t._provenance[m] = table.provenance(m)
    return t


def contents(table):
    """The table's characters, in the order they were kept, with their
    terms in order and their provenance."""
    return [(m, list(chi.terms.items()), table.provenance(m))
            for m, chi in table._cache.items()]


def outcome(decompose, *args):
    """The series as a list of items, or the refusal's type and text."""
    try:
        return list(decompose(*args).terms.items())
    except ArithmeticError as err:
        return type(err).__name__, str(err)


CUBICS = sorted(e for e in itertools.product(range(4), repeat=7)
                if sum(e) == 3)


def test_cubic_series_in_one_walk_are_the_sequential_ones(corpus):
    # verify all's order on one shared table each: after every series the
    # two tables hold the same characters, terms and provenance, in order.
    _, _, bootstrap = build_a(corpus)
    walked, sequential = copy_table(bootstrap), copy_table(bootstrap)
    lanes = 0
    for e in CUBICS:
        before = len(walked._cache)
        got = monomial_decompose(e, walked)
        assert list(got.terms.items()) == list(
            literal_monomial(e, sequential).terms.items()), e
        assert contents(walked) == contents(sequential), e
        lanes += len(walked._cache) - before
    assert lanes == 411


small_weights = st.lists(st.integers(0, 7), min_size=1, max_size=2).map(
    lambda ks: tuple(sum(k == i for k in ks) for i in range(1, 8)))


@given(st.lists(st.tuples(small_weights, small_weights), min_size=1,
                max_size=3))
@settings(max_examples=15, deadline=None)
def test_cg_series_in_one_walk_are_the_sequential_ones(assembled, pairs):
    # Products of weights of degree one or two, in turn on one table each;
    # degree 0 is the trivial weight.
    walked, sequential = copy_table(assembled[2]), copy_table(assembled[2])
    for m, n in pairs:
        got = cg_decompose(m, n, walked)
        assert list(got.terms.items()) == list(
            literal_cg(m, n, sequential).terms.items())
        assert contents(walked) == contents(sequential)


def test_a_narrow_lane_restarts_the_walk_wider(corpus, monkeypatch):
    # Lanes of 8 bits admit no push at all (127 // 307 is 0), and 16 bits
    # too few for z4^3: the walk starts again wider, and gives the series
    # and characters of the 32-bit walk.
    _, _, bootstrap = build_a(corpus)
    z4_cubed = (0, 0, 0, 3, 0, 0, 0)
    wide = copy_table(bootstrap)
    want = list(monomial_decompose(z4_cubed, wide).terms.items())
    widths = []
    walk = charsolve._walk

    def recorded(support, p, admit=None, bits=charsolve._LANE_BITS):
        widths.append(bits)
        return walk(support, p, admit, bits)

    monkeypatch.setattr(charsolve, "_LANE_BITS", 8)
    monkeypatch.setattr(charsolve, "_walk", recorded)
    narrow = copy_table(bootstrap)
    got = list(monomial_decompose(z4_cubed, narrow).terms.items())
    assert widths[0] == 8 and len(widths) > 1
    assert widths == [8 << k for k in range(len(widths))]
    assert got == want
    assert contents(narrow) == contents(wide)


PERTURBED_TOPS = [(0, 0, 0, 3, 0, 0, 0), (0, 0, 0, 2, 1, 0, 0),
                  (0, 0, 0, 0, 3, 0, 0)]


def test_a_walk_refuses_perturbed_operators_as_the_sequential_loop(
        operator):
    # The operators of test_m2_refuses_perturbed_operators_as_the_literal_
    # product: every 13th off-diagonal a_jk term, one at a time, off by
    # one.  On one table per operator, each top gets the sequential
    # loop's series or its refusal, of the same type with the same text.
    # Every one of them refuses all three tops, nine of them by a lane
    # that fails after a later-opened lane has failed.
    a = operator.a
    terms = off_diagonal_terms(a)[::13]
    refused = 0
    for pair, term in terms:
        op = Delta1Operator({**a, pair: a[pair] + MultiPoly({term: 1})})
        walked, sequential = CharacterTable(op), CharacterTable(op)
        for e in PERTURBED_TOPS:
            got = outcome(monomial_decompose, e, walked)
            assert got == outcome(literal_monomial, e, sequential), (
                pair, term, e)
            refused += isinstance(got, tuple)
    assert refused == 3 * len(terms)


def test_a_negative_multiplicity_waits_for_the_lanes_opened_before_it(
        operator):
    # z5^3 less 10**6 z^nu: the first refusal is the negative multiplicity
    # at nu, unless a lane fails first.  The sequential loop solves every
    # constituent above nu, and refuses nu only if they all come out; the
    # walk, closed at nu, finishes the lanes opened above it and refuses
    # as that loop does: on the good operator and on perturbed ones.
    top = (0, 0, 0, 0, 3, 0, 0)
    weights = dominant_weights_below(top)
    a = operator.a
    ops = [operator] + [
        Delta1Operator({**a, pair: a[pair] + MultiPoly({term: 1})})
        for pair, term in off_diagonal_terms(a)[:40:13]]
    kinds = set()
    for op in ops:
        support = op.restrict(weights)
        for nu in weights[1::10]:
            terms = {top: 1, nu: -10 ** 6}
            got = outcome(_subtractive_decompose, terms, support,
                          CharacterTable(op), monomial_dim(top))
            assert got == outcome(literal_decompose, terms, support,
                                  CharacterTable(op), monomial_dim(top))
            kinds.add(got[0])
    assert kinds == {"DecompositionError", "IntegralityError"}
