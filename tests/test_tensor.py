import itertools
import pathlib

import pytest

from charkit import fixtures
from charkit.charsolve import LEVEL_SOLVE_MIN_SUPPORT, CharacterTable
from charkit.csmodel import Delta1Operator
from charkit.lie_core import (
    FUNDAMENTAL_WEIGHTS, ZERO_WEIGHT, NonDominantError,
    dominant_weights_below, is_below, weyl_dim,
)
from charkit.oracle import minuscule_series
from charkit.polyring import MultiPoly
from charkit.tensor import (
    CGSeries, DecompositionError, _subtractive_decompose, cg_decompose,
    monomial_decompose,
)

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
