"""Root and weight combinatorics of E7.

Weights live in the fundamental-weight basis and are plain 7-tuples of
integers; elements of the root lattice are 7-tuples in the simple-root
basis.  All inner products use the bilinear form given by the Cartan
matrix with the simply-laced normalization (alpha_i, alpha_i) = 2, so
every computation is exact: half-integers appear only through the inverse
Cartan matrix and are handled by keeping twice the form integral.

The Cartan data are plain integer constants: ``CARTAN_A``, twice its
inverse ``CARTAN_AINV2``, the doubled Weyl vector ``TWO_RHO_ALPHA``, and
the 63 positive roots ``POSITIVE_ROOTS`` (alpha-coordinates, by height) and
``POSITIVE_ROOTS_FUND`` (fundamental coordinates), computed at import and
checked there against the identities of ``_check``.

The downset closure and the operator (``csmodel``) both run on one integer
key per weight, ``weight_key`` (inverse ``key_weight``).  A positive root
has fundamental coordinates in -1..2 (``_check``), so whether a root step
keeps a weight dominant depends only on which of its coordinates are at
least 1 and which at least 2, its class; the closure reads each class's
admissible steps from one table, ``_CLASS_STEPS``.
"""

from __future__ import annotations

import functools
import operator

RANK = 7

# Cartan matrix: nodes 1-3-4-5-6-7 form a chain, node 2 hangs off node 4.
CARTAN_A = (
    (2, 0, -1, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0),
    (0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, -1, 2),
)

# 2 * A^{-1}; entries of A^{-1} itself are half-integers.
CARTAN_AINV2 = (
    (4, 4, 6, 8, 6, 4, 2),
    (4, 7, 8, 12, 9, 6, 3),
    (6, 8, 12, 16, 12, 8, 4),
    (8, 12, 16, 24, 18, 12, 6),
    (6, 9, 12, 18, 15, 10, 5),
    (4, 6, 8, 12, 10, 8, 4),
    (2, 3, 4, 6, 5, 4, 3),
)

# 2*(lambda_i, rho): twice the heights of the fundamental weights.  Equal to
# the alpha-basis coordinates of 2*rho, and to the column sums of 2*A^{-1}.
TWO_RHO_ALPHA = (34, 49, 66, 96, 75, 52, 27)

ZERO_WEIGHT = (0,) * RANK

FUNDAMENTAL_WEIGHTS = tuple(
    tuple(1 if j == i else 0 for j in range(RANK)) for i in range(RANK))

# dim R_{lambda_i}, i = 1..7
FUNDAMENTAL_DIMS = (133, 912, 8645, 365750, 27664, 1539, 56)


class NonDominantError(ValueError):
    """A weight required to be dominant has a negative coordinate."""


class MonomialRangeError(ValueError):
    """A weight or monomial does not fit the weight keys."""


class InvariantError(ArithmeticError):
    """An exact identity that a computed quantity must satisfy fails."""


# A weight key has seven 9-bit fields, mu_1 most significant, each a
# coordinate in 0..KEY_MAX under a guard bit that a key leaves clear: it is
# linear, in lexicographic order and below 2**62, so int64 holds it.
KEY_MAX = 255


def weight_key(w):
    """The key of a weight with coordinates in 0..KEY_MAX; linear in w."""
    a, b, c, d, e, f, g = w
    return ((a << 54) + (b << 45) + (c << 36) + (d << 27) + (e << 18)
            + (f << 9) + g)


def key_weight(q):
    """The weight of a key, ignoring its guard bits and any bits above."""
    return ((q >> 54) & 255, (q >> 45) & 255, (q >> 36) & 255,
            (q >> 27) & 255, (q >> 18) & 255, (q >> 9) & 255, q & 255)


def require_dominant(m):
    if len(m) != RANK or min(m) < 0:
        raise NonDominantError(f"weight {m} is not dominant")


def weight_height2(m):
    """2*(m, rho) for a weight m in fundamental coordinates (an integer)."""
    return sum(w * x for w, x in zip(TWO_RHO_ALPHA, m))


def bilinear2(m, mu):
    """2*(m, mu) for weights in fundamental coordinates (an integer)."""
    out = 0
    for mi, row in zip(m, CARTAN_AINV2):
        if mi:
            out += mi * sum(map(operator.mul, row, mu))
    return out


def _generate_positive_roots():
    """Closure of the simple roots under root addition, in alpha-coordinates.

    E7 is simply laced, so for a positive root beta other than alpha_i the
    alpha_i-string through beta has at most two roots, and beta + alpha_i
    is a root exactly when (beta, alpha_i) = -1.
    """
    simple = FUNDAMENTAL_WEIGHTS  # unit tuples double as alpha-coordinates
    roots = set(simple)
    frontier = simple
    while frontier:
        new = set()
        for beta in frontier:
            for i, al in enumerate(simple):
                if sum(b * CARTAN_A[j][i] for j, b in enumerate(beta)) == -1:
                    new.add(tuple(x + y for x, y in zip(beta, al)))
        frontier = new - roots
        roots |= frontier
    return sorted(roots, key=lambda r: (sum(r), r))


# The 63 positive roots in alpha-coordinates, by height, and the same roots
# in fundamental coordinates.
POSITIVE_ROOTS = tuple(_generate_positive_roots())
POSITIVE_ROOTS_FUND = tuple(
    tuple(sum(CARTAN_A[i][j] * r[j] for j in range(RANK)) for i in range(RANK))
    for r in POSITIVE_ROOTS)


def _check():
    assert len(POSITIVE_ROOTS) == 63
    # a root step lowers a coordinate by at most 2 and raises it by at most
    # 1, which the closure's key classes and field bound rely on
    assert {x for r in POSITIVE_ROOTS_FUND for x in r} == {-1, 0, 1, 2}
    # A symmetric with diagonal 2, CARTAN_AINV2 twice its exact inverse
    for i in range(RANK):
        assert CARTAN_A[i][i] == 2
        for j in range(RANK):
            assert CARTAN_A[i][j] == CARTAN_A[j][i]
            s = sum(CARTAN_AINV2[i][k] * CARTAN_A[k][j] for k in range(RANK))
            assert s == (2 if i == j else 0)
    # height histogram of the 63 positive roots
    hist = [0] * 18
    for r in POSITIVE_ROOTS:
        hist[sum(r)] += 1
    assert hist[1:] == [7, 6, 6, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1]
    # sum of positive roots is 2*rho
    for i in range(RANK):
        assert sum(r[i] for r in POSITIVE_ROOTS) == TWO_RHO_ALPHA[i]
    # (2 rho, 2 rho) = 798, i.e. (rho, rho) = 399/2
    assert sum(TWO_RHO_ALPHA[i] * CARTAN_A[i][j] * TWO_RHO_ALPHA[j]
               for i in range(RANK) for j in range(RANK)) == 798


_check()


def weyl_dim(m):
    """Dimension of the irreducible representation with highest weight m.

    Exact product over positive roots: each root of height h and
    alpha-coordinates a contributes (h + a.m) / h.  Memoized per weight.
    """
    m = tuple(m)
    require_dominant(m)
    return _weyl_dim(m)


# Each positive root's height with its alpha-coordinates, and the product
# of the heights, the denominator of every dimension.
_ROOT_HEIGHTS = tuple((sum(r), r) for r in POSITIVE_ROOTS)
_HEIGHT_PRODUCT = functools.reduce(operator.mul,
                                   (h for h, _ in _ROOT_HEIGHTS))


@functools.lru_cache(maxsize=1 << 14)
def _weyl_dim(m):
    num = 1
    for h, r in _ROOT_HEIGHTS:
        num *= h + sum(map(operator.mul, r, m))
    q, rem = divmod(num, _HEIGHT_PRODUCT)
    if rem:
        raise InvariantError(f"Weyl's dimension product for {m} is not "
                             f"divisible by the product of the heights")
    return q


def monomial_dim(exps):
    """Dimension of the product of fundamental representations with the
    given multiplicities: the value of z^exps at z_i = dim R_{lambda_i}."""
    out = 1
    for d, x in zip(FUNDAMENTAL_DIMS, exps):
        out *= d ** x
    return out


def series_dim(series):
    """Dimension of a direct sum given as {weight: multiplicity}."""
    return sum(n * weyl_dim(w) for w, n in series.items())


def eigenvalue(m):
    """Energy above the ground state for quantum numbers m: 2(m, m + 2 rho).
    Memoized per weight."""
    m = tuple(m)
    require_dominant(m)
    return _eigenvalue(m)


@functools.lru_cache(maxsize=1 << 16)
def _eigenvalue(m):
    return bilinear2(m, m) + 2 * weight_height2(m)


def is_below(nu, mu):
    """Does nu lie below mu in the dominance order, mu - nu being a sum of
    positive roots (or zero)?  Exactly when CARTAN_AINV2 . (mu - nu), twice
    its simple-root coordinates, is even and non-negative in every entry."""
    d = [a - b for a, b in zip(mu, nu)]
    for row in CARTAN_AINV2:
        c = sum(map(operator.mul, row, d))
        if c < 0 or c % 2:
            return False
    return True


def require_keyed_downset(m):
    """Refuse, with ``MonomialRangeError``, a top weight whose downset the
    keys cannot hold: one with 2(m, rho) // 27 >= KEY_MAX, 27 being the
    least entry of TWO_RHO_ALPHA (see ``dominant_weights_below``)."""
    hm = weight_height2(m)
    least = min(TWO_RHO_ALPHA)
    if hm // least >= KEY_MAX:
        raise MonomialRangeError(
            f"weight {m} is outside the key range: 2(m, rho) = {hm} must be "
            f"below {KEY_MAX * least}")


# The most dominant weights a downset may have: a top with more below it is
# refused (``dominant_weights_below``) before anything is solved.  48
# lambda_7 has 631 751.
SUPPORT_MAX = 2**20


# The guard bits, the ones of every field, and each positive root's key
# under 2(r, rho) from bit 63.
_KEY_GUARD = weight_key((KEY_MAX + 1,) * RANK)
_KEY_ONES = weight_key((1,) * RANK)
_ROOT_STEPS = tuple((weight_height2(r) << 63) + weight_key(r)
                    for r in POSITIVE_ROOTS_FUND)


class _ClassSteps(dict):
    """The root steps that keep a closure key dominant, by the key's class
    (see ``dominant_weights_below``); an entry is made on first use."""

    def __missing__(self, c):
        # The class's least member: mu_i = [mu_i >= 1] + [mu_i >= 2].  A
        # step's height bits, from 63 on, do not reach the guard bits.
        g = _KEY_GUARD
        y = g + ((c & g) >> 8) + ((c & (g >> 1)) >> 7)
        steps = self[c] = tuple(r for r in _ROOT_STEPS if (y - r) & g == g)
        return steps


_CLASS_STEPS = _ClassSteps()


def dominant_weights_below(m):
    """All dominant mu with m - mu in the positive root lattice.

    Found by closing {m} under subtraction of positive roots, keeping only
    dominant results; covers in the dominance order on dominant weights are
    positive-root differences, so the closure is exhaustive.  Sorted by
    ascending height of m - mu, ties by descending lexicographic mu.

    The closure runs on keys with every guard bit set and 2(mu, rho) from
    bit 63 on: a root subtraction is one subtraction, and descending
    integer order the order above.  No field borrows or carries: a member
    has mu_i <= 2(m, rho) // 27 (the least entry of TWO_RHO_ALPHA) and a
    root moves a coordinate by -2..1, so the top must pass
    ``require_keyed_downset``.

    mu - r is dominant exactly when mu_i >= r_i for every i, and r_i <= 2,
    so the admissible steps depend only on the class of mu: which mu_i are
    at least 1, and which at least 2.  Subtracting 1, or 2, from every
    field of the key leaves field i's guard bit set exactly when mu_i is
    at least 1, or 2, without a borrow out of any field; the two guard
    masks, the second shifted one bit down, are the class.  Its steps come
    from ``_CLASS_STEPS``, which tests them once on the class's least
    member with the guard test, so the inner loop tests nothing but
    membership.

    The closure counts its members once per level and refuses, with
    ``MonomialRangeError``, a top with more than ``SUPPORT_MAX`` of them,
    so a run that no memory could hold stops before anything is solved.

    This is the one enumeration of a downset.  A constituent solved inside
    a decomposition is solved on the top weight's restriction of the
    operator (``Delta1Operator.restrict``) instead of enumerating again.
    """
    require_dominant(m)
    require_keyed_downset(m)
    guard = _KEY_GUARD
    ones = _KEY_ONES
    twos = 2 * ones
    table = _CLASS_STEPS
    start = (weight_height2(m) << 63) + guard + weight_key(m)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for y in frontier:
            for r in table[((y - ones) & guard) | (((y - twos) & guard) >> 1)]:
                z = y - r
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        if len(seen) > SUPPORT_MAX:
            raise MonomialRangeError(
                f"weight {m} is outside the work budget: its downset has "
                f"more than SUPPORT_MAX = {SUPPORT_MAX} dominant weights")
        frontier = nxt
    return list(map(key_weight, sorted(seen, reverse=True)))
