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

Inside the operator a monomial z^e is the packed integer pack(e): one byte
per exponent, z1's most significant.  The pair (j, k) sends z^n to keys
pack(n) - pack(u_j) - pack(u_k) + pack(e), one integer add per a_jk term.
No byte borrows: the pair contributes only when its factor is nonzero,
which needs n_j, n_k >= 1 (n_j >= 2 when j = k), and every a_jk exponent
is non-negative.  No byte carries: images are built only for exponents up
to EXP_MAX minus the largest registered a_jk exponent (4 for E7); other
monomials raise ``MonomialRangeError``.  Tuples appear only at the
boundary: ``image_terms`` takes one, and ``apply_terms`` maps tuple-keyed
term dicts to tuple-keyed term dicts.
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


class MonomialRangeError(ValueError):
    """A monomial's exponents do not fit the packed keys of its image."""


class StructuralViolationError(AssertionError):
    """The operator sent a monomial of a character's support outside the
    unsolved part of it; the triangular structure would be broken."""


# The largest exponent a packed key holds: one byte per variable.
EXP_MAX = 255


def pack(e):
    """The packed key of an exponent tuple with entries in 0..EXP_MAX."""
    return int.from_bytes(bytes(e), "big")


def unpack(q):
    """The exponent tuple of a packed key."""
    return tuple(q.to_bytes(RANK, "big"))


# pack(u_i) for the unit exponent vectors u_1..u_7.
_UNITS = tuple(pack(w) for w in FUNDAMENTAL_WEIGHTS)

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
    incrementally during the bootstrap.  Each pair's terms are also kept
    packed, as (pack(e), c) pairs.  Monomial images are memoized: the
    recursion solvers revisit the same monomials across many characters.
    """

    def __init__(self, a=None):
        self._a = {}
        self._packed = {}
        self._pair_max_exp = {}
        self._max_exp = 0
        self._image_cache = {}
        if a:
            for (j, k), poly in a.items():
                self.register_pair(j, k, poly)

    # ------------------------------------------------------------- assembly
    def register_pair(self, j, k, poly):
        j, k = min(j, k), max(j, k)
        self._a[(j, k)] = poly
        self._packed[(j, k)] = tuple(
            (pack(e), c) for e, c in poly.terms.items())
        self._pair_max_exp[(j, k)] = max(map(max, poly.terms), default=0)
        self._max_exp = max(self._pair_max_exp.values())
        self._image_cache.clear()

    @property
    def a(self):
        """Mapping (j, k) with j <= k to the coefficient polynomial."""
        return dict(self._a)

    def complete(self):
        return len(self._a) == 28

    # ----------------------------------------------------------- application
    def image_terms(self, n):
        """D applied to the monomial z^n, as a term dict {packed q: coeff}.

        The diagonal term (the input monomial itself, key pack(n)) carries
        its eigenvalue when n is dominant; off-diagonal output always sits
        strictly lower in the root-lattice order.  n is an exponent tuple
        with entries in 0..EXP_MAX - (largest a_jk exponent), which keeps
        every output exponent inside its byte (module docstring); other
        monomials raise ``MonomialRangeError``.
        """
        n = tuple(n)
        cached = self._image_cache.get(n)
        if cached is not None:
            return cached
        limit = EXP_MAX - self._max_exp
        if len(n) != RANK or min(n) < 0 or max(n) > limit:
            raise MonomialRangeError(
                f"monomial {n} is outside the packed range: seven "
                f"exponents in 0..{limit}")
        key = pack(n)
        out = {}
        for j in range(RANK):
            nj = n[j]
            if nj == 0:
                continue
            for k in range(j, RANK):
                nk = n[k]
                factor = nj * (nk - 1) if j == k else 2 * nj * nk
                if factor == 0:
                    continue
                terms = self._packed.get((j + 1, k + 1))
                if terms is None:
                    raise OperatorIncompleteError(
                        f"coefficient pair {(j + 1, k + 1)} needed for "
                        f"monomial {n} is not built")
                base = key - _UNITS[j] - _UNITS[k]
                for e, c in terms:
                    q = base + e
                    out[q] = out.get(q, 0) + c * factor
        # first-derivative part: b_j d_j z^n = eps_j n_j z^n
        out[key] = out.get(key, 0) + sum(B_COEFFS[i] * n[i]
                                         for i in range(RANK))
        if 0 in out.values():
            out = {q: c for q, c in out.items() if c}
        self._image_cache[n] = out
        return out

    def apply_terms(self, terms):
        """Apply the operator to a raw term dict {exps: coeff}, returning a
        term dict of the same kind; the sum runs on packed keys."""
        out = {}
        for n, c in terms.items():
            for q, s in self.image_terms(n).items():
                out[q] = out.get(q, 0) + c * s
        return {unpack(q): v for q, v in out.items() if v}

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
