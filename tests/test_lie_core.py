import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charkit import lie_core
from charkit.lie_core import (
    CARTAN_A, CARTAN_AINV2, FUNDAMENTAL_DIMS, FUNDAMENTAL_WEIGHTS, KEY_MAX,
    POSITIVE_ROOTS, POSITIVE_ROOTS_FUND, RANK, TWO_RHO_ALPHA, ZERO_WEIGHT,
    dominant_weights_below, is_below,
    eigenvalue, key_weight, weight_height2, weight_key, weyl_dim,
    MonomialRangeError, NonDominantError,
)

L = FUNDAMENTAL_WEIGHTS


def weight_diff_in_roots(m, mu):
    """Express m - mu in the simple-root basis if it lies in the positive
    root lattice; return None otherwise."""
    d = tuple(a - b for a, b in zip(m, mu))
    c2 = [sum(CARTAN_AINV2[i][j] * d[j] for j in range(RANK))
          for i in range(RANK)]
    if any(x < 0 or x % 2 for x in c2):
        return None
    return tuple(x // 2 for x in c2)


def _downset_order(m, weights):
    hm = weight_height2(m)
    return sorted(weights, key=lambda mu: (hm - weight_height2(mu),
                                           tuple(-x for x in mu)))


def boxed_dominant_weights_below(m):
    """Reference enumeration by search over the coordinate box
    0 <= c <= A^{-1} m of m - mu in the simple-root basis.  A branch is cut
    once some coordinate of m - A c can no longer become non-negative."""
    bound = [sum(CARTAN_AINV2[i][j] * m[j] for j in range(RANK)) // 2
             for i in range(RANK)]
    # slack[k][i]: the most that c_k, ..., c_7 can still add to mu_i
    slack = [[sum(-CARTAN_A[i][j] * bound[j]
                  for j in range(k, RANK) if j != i)
              for i in range(RANK)] for k in range(RANK + 1)]
    out = []

    def rec(idx, mu):
        if idx == RANK:
            if min(mu) >= 0:
                out.append(tuple(mu))
            return
        for v in range(bound[idx] + 1):
            nxt = [mu[i] - CARTAN_A[i][idx] * v for i in range(RANK)]
            if nxt[idx] + slack[idx + 1][idx] < 0:
                break       # mu_idx only falls as c_idx grows
            if all(nxt[i] + slack[idx + 1][i] >= 0 for i in range(RANK)):
                rec(idx + 1, nxt)

    rec(0, list(m))
    return _downset_order(m, out)


def closure_dominant_weights_below(m):
    """Reference enumeration on weight tuples: the closure of {m} under
    subtraction of positive roots, keeping dominant results."""
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for mu in frontier:
            for rf in POSITIVE_ROOTS_FUND:
                nu = tuple(a - b for a, b in zip(mu, rf))
                if nu not in seen and min(nu) >= 0:
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return _downset_order(m, seen)


def test_cartan_matrix_entries():
    # 1-indexed: A[1][3] = -1, A[1][2] = 0
    assert CARTAN_A[0][2] == -1
    assert CARTAN_A[0][1] == 0
    for i in range(RANK):
        assert CARTAN_A[i][i] == 2


def test_ainv_is_exact_inverse():
    ainv = [[Fraction(x, 2) for x in row] for row in CARTAN_AINV2]
    for i in range(RANK):
        for j in range(RANK):
            s = sum(ainv[i][k] * CARTAN_A[k][j] for k in range(RANK))
            assert s == (1 if i == j else 0)


def test_positive_roots_histogram_and_weyl_vector():
    assert len(POSITIVE_ROOTS) == 63
    hist = {}
    for r in POSITIVE_ROOTS:
        hist[sum(r)] = hist.get(sum(r), 0) + 1
    assert [hist.get(h, 0) for h in range(1, 18)] == [
        7, 6, 6, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1]
    # the highest root
    assert POSITIVE_ROOTS[-1] == (2, 2, 3, 4, 3, 2, 1)
    # sum of positive roots is 2 rho
    assert tuple(sum(r[i] for r in POSITIVE_ROOTS)
                 for i in range(RANK)) == TWO_RHO_ALPHA
    # (rho, rho) = 399/2
    rho_alpha = [Fraction(x, 2) for x in TWO_RHO_ALPHA]
    rr = sum(rho_alpha[i] * CARTAN_A[i][j] * rho_alpha[j]
             for i in range(RANK) for j in range(RANK))
    assert rr == Fraction(399, 2)


def test_weyl_dim_fundamentals():
    assert tuple(weyl_dim(w) for w in L) == FUNDAMENTAL_DIMS


def test_weyl_dim_trivial_and_56_squared():
    assert weyl_dim(ZERO_WEIGHT) == 1
    assert weyl_dim(L[6]) == 56
    # 56^2 must split as dim(2*l7) + dim(l1) + dim(l6) + 1
    assert weyl_dim((0, 0, 0, 0, 0, 0, 2)) == 56 * 56 - 133 - 1539 - 1 == 1463


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(NonDominantError):
        weyl_dim((1, 0, 0, -1, 0, 0, 0))


def test_eigenvalue_values():
    assert eigenvalue(L[6]) == 57
    assert eigenvalue(ZERO_WEIGHT) == 0
    assert eigenvalue(L[0]) == 72
    # all seven, equal to the first-derivative coefficients
    assert [eigenvalue(w) for w in L] == [72, 105, 144, 216, 165, 112, 57]


def test_eigenvalue_strictly_monotone_under_dominance():
    for m in [(0, 0, 0, 0, 0, 0, 2), (1, 1, 0, 0, 0, 0, 1),
              (0, 0, 2, 0, 0, 1, 0), (2, 0, 0, 1, 0, 0, 0)]:
        top = eigenvalue(m)
        for mu in dominant_weights_below(m)[1:]:
            assert eigenvalue(mu) < top


def test_weight_diff_in_roots():
    # lambda_1 is the highest root
    assert weight_diff_in_roots(L[0], ZERO_WEIGHT) == (2, 2, 3, 4, 3, 2, 1)
    assert weight_diff_in_roots(L[3], L[3]) == (0,) * 7
    assert weight_diff_in_roots(L[6], L[0]) is None
    # not in the lattice: l7 - 0 is not an integral root combination
    assert weight_diff_in_roots(L[6], ZERO_WEIGHT) is None


def test_dominant_weights_below_examples():
    assert dominant_weights_below(L[6]) == [L[6]]
    assert dominant_weights_below(ZERO_WEIGHT) == [ZERO_WEIGHT]
    got = dominant_weights_below((0, 0, 0, 0, 0, 0, 2))
    assert got == [(0, 0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 0, 1, 0),
                   (1, 0, 0, 0, 0, 0, 0), ZERO_WEIGHT]


def test_dominant_weights_below_order_and_membership():
    m = (1, 0, 1, 0, 0, 0, 1)
    got = dominant_weights_below(m)
    assert got[0] == m
    # ascending height of m - mu, ties by descending lex on mu
    keys = [(weight_height2(m) - weight_height2(mu), tuple(-x for x in mu))
            for mu in got]
    assert keys == sorted(keys)
    for mu in got:
        assert weight_diff_in_roots(m, mu) is not None
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("m", [
    (0, 0, 0, 0, 0, 0, 2), (1, 0, 0, 0, 0, 0, 1), (2, 0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0, 0),
])
def test_dominant_weights_below_matches_box_enumeration(m):
    assert dominant_weights_below(m) == boxed_dominant_weights_below(m)


@pytest.mark.parametrize("m", [
    (0, 0, 0, 0, 1, 1, 1), (0, 0, 0, 0, 2, 2, 2), (0, 0, 0, 0, 0, 0, 24),
])
def test_dominant_weights_below_matches_tuple_closure(m):
    got = dominant_weights_below(m)
    assert got == closure_dominant_weights_below(m)
    # The first two reach coordinates that a bit field sized from max(m),
    # with two of headroom, could not hold; the bound 2(m, rho) // 27 can.
    top = max(max(mu) for mu in got)
    assert top <= weight_height2(m) // min(TWO_RHO_ALPHA)
    if max(m) <= 2:
        assert top >= 1 << (max(m) + 2).bit_length()


def test_is_below_is_a_positive_root_lattice_difference():
    assert is_below(ZERO_WEIGHT, L[0]) and is_below(L[3], L[3])
    assert not is_below(L[0], L[6])      # not in the root lattice
    assert not is_below(L[6], ZERO_WEIGHT)
    assert not is_below(L[0], ZERO_WEIGHT)   # a negative difference
    assert not is_below((0, 0, 0, 0, 0, 0, 2), (2, 0, 0, 0, 0, 0, 0))
    small = [mu for mu in itertools.product(range(2), repeat=RANK)
             if sum(mu) <= 2]
    for m in small:
        for mu in small:
            assert is_below(mu, m) == (weight_diff_in_roots(m, mu)
                                       is not None)


def test_dominant_weights_below_rejects_non_dominant():
    with pytest.raises(NonDominantError):
        dominant_weights_below((-1, 0, 0, 0, 0, 0, 0))


def test_dominant_weights_below_refuses_a_top_beyond_the_keys(monkeypatch):
    # A member of the downset of (0,0,0,0,0,3,251) can reach a coordinate
    # of 2(m, rho) // 27 = 256, which no key field holds.  With no root
    # step for any key class a closure that failed to refuse would end at
    # once.
    monkeypatch.setattr(lie_core, "_CLASS_STEPS",
                        collections.defaultdict(tuple))
    with pytest.raises(MonomialRangeError,
                       match=r"^weight \(0, 0, 0, 0, 0, 3, 251\) is outside "
                             r"the key range: 2\(m, rho\) = 6933 must be "
                             r"below 6885$"):
        dominant_weights_below((0, 0, 0, 0, 0, 3, 251))
    with pytest.raises(MonomialRangeError, match="6885 must be below 6885"):
        dominant_weights_below((0, 0, 0, 0, 0, 0, KEY_MAX))
    assert issubclass(MonomialRangeError, ValueError)


def test_dominant_weights_below_refuses_a_downset_past_the_budget(
        monkeypatch):
    # 48 lambda_7, the largest top measured, has 631 751 members.
    assert lie_core.SUPPORT_MAX > 631_751
    m = (0, 0, 0, 0, 0, 0, 6)
    size = len(dominant_weights_below(m))
    monkeypatch.setattr(lie_core, "SUPPORT_MAX", size)
    assert len(dominant_weights_below(m)) == size
    monkeypatch.setattr(lie_core, "SUPPORT_MAX", size - 1)
    with pytest.raises(MonomialRangeError,
                       match=rf"^weight \(0, 0, 0, 0, 0, 0, 6\) is outside "
                             rf"the work budget: its downset has more than "
                             rf"SUPPORT_MAX = {size - 1} dominant weights$"):
        dominant_weights_below(m)


def closure_key(mu, h):
    """The key of mu as the closure holds it: guard bits set, h from bit 63."""
    return (h << 63) + lie_core._KEY_GUARD + weight_key(mu)


def key_class(y):
    """The class of a closure key, as ``dominant_weights_below`` reads it."""
    g, ones = lie_core._KEY_GUARD, lie_core._KEY_ONES
    return ((y - ones) & g) | (((y - 2 * ones) & g) >> 1)


def guard_test_steps(y):
    g = lie_core._KEY_GUARD
    return [r for r in lie_core._ROOT_STEPS if (y - r) & g == g]


# A closure member has coordinates below KEY_MAX (require_keyed_downset).
member_coordinate = st.one_of(st.sampled_from((0, 1, 2, KEY_MAX - 1)),
                              st.integers(0, KEY_MAX - 1))


@given(st.tuples(*[member_coordinate] * RANK), st.integers(0, 6884))
@settings(max_examples=300)
def test_class_steps_are_the_guard_test(mu, h):
    y = closure_key(mu, h)
    assert list(lie_core._CLASS_STEPS[key_class(y)]) == guard_test_steps(y)


@given(st.tuples(*[st.sampled_from((0, 1, 2, KEY_MAX - 1, KEY_MAX))] * RANK))
def test_class_steps_at_key_max(mu):
    # At KEY_MAX the guard test also refuses each step that raises that
    # coordinate, whose field would carry; the class cannot see it, which
    # is why a closure refuses any top whose members could get there.
    y = closure_key(mu, 0)
    steps = lie_core._CLASS_STEPS[key_class(y)]
    fund = dict(zip(lie_core._ROOT_STEPS, POSITIVE_ROOTS_FUND))
    assert guard_test_steps(y) == [
        r for r in steps
        if not any(x == KEY_MAX and f < 0 for x, f in zip(mu, fund[r]))]


keyed = st.tuples(*[st.integers(0, KEY_MAX)] * RANK)


@given(keyed)
def test_weight_key_round_trip(w):
    q = weight_key(w)
    assert 0 <= q < 2 ** 62
    assert key_weight(q) == w


@given(keyed, keyed, keyed, st.sampled_from(POSITIVE_ROOTS_FUND))
def test_weight_key_is_linear(a, b, c, root):
    # Signed deltas too: a positive root in fundamental coordinates has
    # negative entries, and the operator's shifts are signed.
    def plus(x, y, sign=1):
        return tuple(p + sign * q for p, q in zip(x, y))

    assert weight_key(a) + weight_key(b) - weight_key(c) == \
        weight_key(plus(plus(a, b), c, -1))
    assert weight_key(a) - weight_key(root) == weight_key(plus(a, root, -1))
    below = plus(a, root, -1)
    if 0 <= min(below) and max(below) <= KEY_MAX:
        assert key_weight(weight_key(a) - weight_key(root)) == below


@given(keyed, keyed)
def test_weight_key_order_is_lexicographic(a, b):
    assert (weight_key(a) < weight_key(b)) == (a < b)
