"""Root and weight combinatorics of E7.

Weights live in the fundamental-weight basis and are plain 7-tuples of
integers; elements of the root lattice are 7-tuples in the simple-root
basis.  All inner products use the bilinear form given by the Cartan
matrix with the simply-laced normalization (alpha_i, alpha_i) = 2, so
every computation is exact: half-integers appear only through the inverse
Cartan matrix and are handled by keeping twice the form integral.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

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


def require_dominant(m):
    if len(m) != RANK or any(x < 0 for x in m):
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

    Uses the string property: beta + alpha_i is a root iff p - (beta, alpha_i)
    > 0 where p is the number of steps the string extends backwards.
    """
    simple = FUNDAMENTAL_WEIGHTS  # unit tuples double as alpha-coordinates
    roots = set(simple)
    frontier = set(simple)

    def form(u, v):
        return sum(u[i] * CARTAN_A[i][j] * v[j]
                   for i in range(RANK) for j in range(RANK))

    while frontier:
        new = set()
        for beta in frontier:
            for al in simple:
                p = 0
                cur = beta
                while True:
                    back = tuple(x - y for x, y in zip(cur, al))
                    if back == ZERO_WEIGHT or back not in roots:
                        break
                    p += 1
                    cur = back
                if p - form(beta, al) > 0:
                    up = tuple(x + y for x, y in zip(beta, al))
                    if up not in roots:
                        new.add(up)
        roots |= new
        frontier = new
    return sorted(roots, key=lambda r: (sum(r), r))


class CartanData:
    """Immutable bundle of the E7 Cartan data.

    Attributes
    ----------
    A : 7x7 integer Cartan matrix
    Ainv : 7x7 matrix of Fractions, exact inverse of A
    positive_roots : 63 root-lattice vectors in alpha-coordinates, by height
    positive_roots_fund : the same roots in fundamental coordinates
    rho_alpha : Weyl vector in alpha-coordinates (Fractions)
    """

    def __init__(self):
        self.A = CARTAN_A
        self.Ainv = tuple(
            tuple(Fraction(x, 2) for x in row) for row in CARTAN_AINV2)
        self.positive_roots = tuple(_generate_positive_roots())
        self.positive_roots_fund = tuple(
            tuple(sum(CARTAN_A[i][j] * r[j] for j in range(RANK))
                  for i in range(RANK))
            for r in self.positive_roots)
        self.rho_alpha = tuple(Fraction(x, 2) for x in TWO_RHO_ALPHA)
        self._check()

    def _check(self):
        assert len(self.positive_roots) == 63
        # A symmetric with diagonal 2, Ainv exact inverse
        for i in range(RANK):
            assert self.A[i][i] == 2
            for j in range(RANK):
                assert self.A[i][j] == self.A[j][i]
                s = sum(self.Ainv[i][k] * self.A[k][j] for k in range(RANK))
                assert s == (1 if i == j else 0)
        # height histogram of the 63 positive roots
        hist = [0] * 18
        for r in self.positive_roots:
            hist[sum(r)] += 1
        assert hist[1:] == [7, 6, 6, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 1, 1]
        # sum of positive roots is 2*rho
        for i in range(RANK):
            assert sum(r[i] for r in self.positive_roots) == TWO_RHO_ALPHA[i]
        # (rho, rho) = 399/2
        rr = sum(self.rho_alpha[i] * self.A[i][j] * self.rho_alpha[j]
                 for i in range(RANK) for j in range(RANK))
        assert rr == Fraction(399, 2)


@functools.lru_cache(maxsize=1)
def cartan_matrix():
    """The shared, immutable CartanData instance."""
    return CartanData()


def weyl_dim(m):
    """Dimension of the irreducible representation with highest weight m.

    Exact product over positive roots: each root of height h and
    alpha-coordinates a contributes (h + a.m) / h.  Memoized per weight.
    """
    m = tuple(m)
    require_dominant(m)
    return _weyl_dim(m)


@functools.lru_cache(maxsize=1 << 14)
def _weyl_dim(m):
    num = 1
    den = 1
    for r in cartan_matrix().positive_roots:
        h = sum(r)
        num *= h + sum(r[i] * m[i] for i in range(RANK))
        den *= h
    q, rem = divmod(num, den)
    assert rem == 0
    return q


def eigenvalue(m):
    """Energy above the ground state for quantum numbers m: 2(m, m + 2 rho).
    Memoized per weight."""
    m = tuple(m)
    require_dominant(m)
    return _eigenvalue(m)


@functools.lru_cache(maxsize=1 << 16)
def _eigenvalue(m):
    return bilinear2(m, m) + 2 * weight_height2(m)


def dominant_weights_below(m):
    """All dominant mu with m - mu in the positive root lattice.

    Found by closing {m} under subtraction of positive roots, keeping only
    dominant results; covers in the dominance order on dominant weights are
    positive-root differences, so the closure is exhaustive.  Sorted by
    ascending height of m - mu, ties by descending lexicographic mu.

    Each weight is packed into one integer: a field per coordinate, mu_1
    most significant, each field offset by a guard bit, under a top field
    holding 2(mu, rho).  A root subtraction is then one integer
    subtraction, dominance is every guard bit surviving, and descending
    integer order is the order above.

    This is the one enumeration of a downset.  A constituent solved inside
    a decomposition takes its support from the top weight's downset through
    ``Downset.below`` instead of enumerating again.
    """
    require_dominant(m)
    hm = weight_height2(m)
    # A dominant mu <= m has 27 mu_i <= 2(mu, rho) <= 2(m, rho), 27 being the
    # least entry of TWO_RHO_ALPHA, and one root subtraction moves mu_i by
    # -2..1.  A field of `width` bits then holds guard + mu_i for every value
    # the closure meets without borrowing from its neighbour.
    width = (hm // min(TWO_RHO_ALPHA) + 1).bit_length()
    step = width + 1
    offset = 1 << width
    shifts = tuple(step * (RANK - 1 - i) for i in range(RANK))
    height_shift = step * RANK
    guard = sum(offset << s for s in shifts)

    def pack(w):
        return (weight_height2(w) << height_shift) + sum(
            x << s for x, s in zip(w, shifts))

    roots = [pack(r) for r in cartan_matrix().positive_roots_fund]
    start = guard + pack(m)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for y in frontier:
            for r in roots:
                z = y - r
                if z & guard == guard and z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    mask = (1 << step) - 1
    return [tuple(((y >> s) & mask) - offset for s in shifts)
            for y in sorted(seen, reverse=True)]


class Downset:
    """The dominant weights below a top weight, from which the downset of
    every member is filtered instead of enumerated again.

    ``weights`` is ``dominant_weights_below(top)``.  Members differ from the
    top, and so from each other, by root-lattice elements, so nu lies below
    mu exactly when the doubled simple-root coordinates c = CARTAN_AINV2 . w
    satisfy c(mu) - c(nu) >= 0 componentwise.  Each c is packed into one
    integer, so that test is one subtraction and one guard-mask test.
    """

    def __init__(self, weights):
        self.weights = weights
        self._index = {mu: i for i, mu in enumerate(weights)}
        coords = [tuple(sum(row[j] * mu[j] for j in range(RANK))
                        for row in CARTAN_AINV2) for mu in weights]
        # 0 <= c_i(nu) <= c_i(top) on dominant members, so every difference
        # lies within +-max c(top) and fits under a guard bit above it.
        width = max(coords[0]).bit_length()
        step = width + 1
        offset = 1 << width
        shifts = tuple(step * i for i in range(RANK))
        self._guard = sum(offset << s for s in shifts)
        self._packed = [sum(x << s for x, s in zip(c, shifts))
                        for c in coords]

    def below(self, mu):
        """``dominant_weights_below(mu)`` for a member mu, in the same
        order: the sort key differs from the top's by a constant, and no
        weight below mu comes before it."""
        i = self._index[mu]
        guard = self._guard
        base = guard + self._packed[i]
        return [nu for nu, c in zip(self.weights[i:], self._packed[i:])
                if (base - c) & guard == guard]
