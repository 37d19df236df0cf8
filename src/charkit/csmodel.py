"""The second-order character differential operator for E7.

In the variables z_k (the fundamental characters), the operator takes the
form

    D = sum_{j,k} a_jk(z) d_j d_k + sum_j b_j(z) d_j,    a_jk = a_kj,

whose eigenfunctions are the irreducible characters.  The first-derivative
coefficients are fixed by the Cartan matrix alone: b_j = eps_j * z_j with
eps_j the fundamental eigenvalue.  The a_jk are reconstructed exactly from
the 28 pairwise tensor-product series of the fundamental representations:
applying D to both sides of z_j z_k = sum N_m chi_m gives

    2 a_jk = sum_m N_m eps_m chi_m  -  b_j z_k  -  b_k z_j.

The reconstruction bootstraps itself: pairs are processed in ascending
order of the combined weight height 2(lambda_j + lambda_k, rho), and every
character a pair needs (beyond the shipped corpus of degree-two characters)
is computable from the pairs already built, because a character whose top
monomial touches the pair (u, v) has height at least that of
lambda_u + lambda_v.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lie_core import (
    RANK, TWO_RHO_ALPHA, ZERO_WEIGHT, FUNDAMENTAL_WEIGHTS, eigenvalue,
)
from .polyring import MultiPoly
from . import fixtures


class CorpusIncompleteError(ValueError):
    """A series weight has no character available to the reconstruction."""


class OperatorIncompleteError(RuntimeError):
    """A monomial image touched a coefficient pair that is not built yet."""


class StructuralViolationError(AssertionError):
    """The operator sent a monomial of a character's support outside that
    support; the triangular structure would be broken."""


# b_j(z) = eps_j * z_j; the eigenvalue coefficients on z_1..z_7.
B_COEFFS = tuple(eigenvalue(w) for w in FUNDAMENTAL_WEIGHTS)


def build_b():
    """The seven first-derivative coefficient polynomials b_j = eps_j z_j."""
    return tuple(B_COEFFS[j] * MultiPoly.variable(j + 1) for j in range(RANK))


@dataclass
class QuadraticCorpus:
    """The 28 pairwise fundamental tensor series plus the characters needed
    to seed the reconstruction: the constant 1, the fundamentals z_i, and
    the degree-two characters."""

    series: dict = field(default_factory=dict)        # (j,k) -> {weight: N}
    second_order_chars: dict = field(default_factory=dict)  # weight -> MultiPoly

    @classmethod
    def load_default(cls):
        series = fixtures.load_cg_file(fixtures.data_path("quadratic_series.txt"))
        chars = fixtures.load_chi_file(fixtures.data_path("second_order_chars.txt"))
        corpus = cls(series=series, second_order_chars=chars)
        corpus.validate()
        return corpus

    def validate(self):
        if sorted(self.series) != [(j, k) for j in range(1, 8)
                                   for k in range(j, 8)]:
            raise ValueError(
                f"quadratic corpus must contain all 28 pairs, got "
                f"{sorted(self.series)}")
        for (j, k), ser in self.series.items():
            top = tuple(a + b for a, b in zip(FUNDAMENTAL_WEIGHTS[j - 1],
                                              FUNDAMENTAL_WEIGHTS[k - 1]))
            if ser.get(top) != 1:
                raise ValueError(
                    f"series {j} {k}: top weight must occur once, got "
                    f"{ser.get(top)}")
            # every degree-two constituent anywhere must have its character;
            # these are exactly the seeds the bootstrap cannot derive itself
            for w in ser:
                if sum(w) == 2 and w not in self.second_order_chars:
                    raise CorpusIncompleteError(
                        f"series {j} {k}: no character for weight "
                        f"{fixtures.format_weight(w)}")

    def seed_characters(self):
        """Characters known without any operator: 1, the z_i, the corpus."""
        seeds = {ZERO_WEIGHT: MultiPoly.one()}
        for i in range(RANK):
            seeds[FUNDAMENTAL_WEIGHTS[i]] = MultiPoly.variable(i + 1)
        seeds.update(self.second_order_chars)
        return seeds


class Delta1Operator:
    """The assembled operator, supporting exact application to polynomials.

    ``a`` maps unordered index pairs (j, k), 1-based and stored with
    j <= k, to integer-coefficient polynomials; entries may be registered
    incrementally during the bootstrap.  Monomial images are memoized: the
    recursion solvers revisit the same monomials across many characters.
    """

    def __init__(self, a=None):
        self._a = {}
        self._image_cache = {}
        if a:
            for (j, k), poly in a.items():
                self.register_pair(j, k, poly)

    # ------------------------------------------------------------- assembly
    def register_pair(self, j, k, poly):
        j, k = min(j, k), max(j, k)
        self._a[(j, k)] = poly
        self._image_cache.clear()

    @property
    def a(self):
        """Mapping (j, k) with j <= k to the coefficient polynomial."""
        return dict(self._a)

    def complete(self):
        return len(self._a) == 28

    # ----------------------------------------------------------- application
    def image_terms(self, n):
        """D applied to the monomial z^n, as a term dict {exps: coeff}.

        The diagonal term (the input monomial itself) carries its eigenvalue
        when n is dominant; off-diagonal output always sits strictly lower
        in the root-lattice order.
        """
        n = tuple(n)
        cached = self._image_cache.get(n)
        if cached is not None:
            return cached
        out = {}
        for j in range(1, RANK + 1):
            nj = n[j - 1]
            if nj == 0:
                continue
            for k in range(j, RANK + 1):
                nk = n[k - 1]
                factor = nj * (nk - 1) if j == k else 2 * nj * nk
                if factor == 0:
                    continue
                pair = (j, k)
                poly = self._a.get(pair)
                if poly is None:
                    raise OperatorIncompleteError(
                        f"coefficient pair {pair} needed for monomial {n} "
                        f"is not built")
                base = list(n)
                base[j - 1] -= 1
                base[k - 1] -= 1
                for e, c in poly.terms.items():
                    q = (base[0] + e[0], base[1] + e[1], base[2] + e[2],
                         base[3] + e[3], base[4] + e[4], base[5] + e[5],
                         base[6] + e[6])
                    s = out.get(q, 0) + c * factor
                    if s:
                        out[q] = s
                    else:
                        del out[q]
        # first-derivative part: b_j d_j z^n = eps_j n_j z^n
        diag = sum(B_COEFFS[i] * n[i] for i in range(RANK))
        if diag:
            s = out.get(n, 0) + diag
            if s:
                out[n] = s
            else:
                del out[n]
        self._image_cache[n] = out
        return out

    def apply_terms(self, terms):
        """Apply the operator to a raw term dict, returning a term dict."""
        out = {}
        for n, c in terms.items():
            for q, s in self.image_terms(n).items():
                v = out.get(q, 0) + c * s
                if v:
                    out[q] = v
                else:
                    del out[q]
        return out

    def apply(self, p):
        """Apply the operator to a MultiPoly."""
        return MultiPoly(self.apply_terms(p.terms), _clean_input=False)


def _pair_order():
    """The 28 index pairs in ascending combined fundamental height; the
    heights 2(lambda_j + lambda_k, rho) are pairwise distinct, which makes
    the bootstrap order canonical."""
    pairs = [(j, k) for j in range(1, 8) for k in range(j, 8)]
    key = {p: TWO_RHO_ALPHA[p[0] - 1] + TWO_RHO_ALPHA[p[1] - 1]
           for p in pairs}
    assert len(set(key.values())) == 28
    return sorted(pairs, key=key.get)


def build_a(corpus):
    """Reconstruct all 28 a_jk polynomials from the quadratic corpus.

    Returns (a_dict, operator, table): the coefficient polynomials, the
    fully assembled operator, and the character table populated with every
    character computed along the way.
    """
    from .charsolve import CharacterTable

    corpus.validate()
    op = Delta1Operator()
    table = CharacterTable(op)
    for w, chi in corpus.seed_characters().items():
        table.seed(w, chi)

    zvars = [MultiPoly.variable(i + 1) for i in range(RANK)]
    for (j, k) in _pair_order():
        ser = corpus.series[(j, k)]
        total = MultiPoly.zero()
        for mu, n in sorted(ser.items()):
            try:
                chi = table.character(mu)
            except OperatorIncompleteError:
                raise CorpusIncompleteError(
                    f"series {j} {k}: no character available for weight "
                    f"{fixtures.format_weight(mu)}")
            total = total + (n * eigenvalue(mu)) * chi
        total = total - B_COEFFS[j - 1] * (zvars[j - 1] * zvars[k - 1])
        total = total - B_COEFFS[k - 1] * (zvars[k - 1] * zvars[j - 1])
        halved = {}
        for e, c in total.terms.items():
            q, r = divmod(c, 2)
            if r:
                raise ArithmeticError(
                    f"a_{j}{k} reconstruction is not an integer polynomial")
            halved[e] = q
        op.register_pair(j, k, MultiPoly(halved))
    assert op.complete()
    return op.a, op, table
