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

Inside the operator a monomial z^e is its weight key
(``lie_core.weight_key``), which is linear: ``register_pair`` keeps each
a_jk term z^e as its shift d = key(e) - key(u_j) - key(u_k), and the
pair (j, k) sends z^n to key(n) + d, the key of n - u_j - u_k + e, with
one integer add.  That exponent fits the key.  It is non-negative: the
pair acts only when its factor is nonzero (n_j, n_k >= 1, n_j >= 2 when
j = k), and every a_jk exponent is non-negative.  It is at most KEY_MAX:
images are built only for exponents up to KEY_MAX minus the largest
registered a_jk exponent (4 for E7); other monomials raise
``MonomialRangeError`` (``require_in_range``, which the solvers apply to
a top weight before enumerating its downset).  An image is memoized as
two tuples, its keys and their coefficients.  No solver sees a key:
``image_terms`` takes an exponent tuple, ``apply_terms`` maps tuple keys
to tuple keys, and ``restrict`` gives both solvers the operator on a
downset as a ``Restriction``: the members' one index, by key, and their
rows by position, each a list of target positions with the image's
coefficient tuple, built once.  ``Restriction.arrays`` gives the same
rows, the diagonal left out, as numpy int64 arrays for a whole support
(numpy is imported there, and only when first needed).

The array form reads the same shifts.  Every off-diagonal image term of
z^n is z^(n + d) for one of a fixed set of shifts d = e - u_j - u_k (307
for E7, the diagonal one among them), and its coefficient is sum over
pairs of a_jk[d] * f_jk(n), with f_jk(n) = n_j (n_j - 1) when j = k and
2 n_j n_k otherwise.  So the images of a block of rows are one product of
the (rows x 28) factors with the fixed (28 x shifts) coefficient table,
exact in int64 and taken pair by pair (the table has 401 nonzero entries
off the diagonal), and the target keys are the rows' own keys plus the
shifts.

The operator is triangular: an image term n - u_j - u_k + e, for e a term
of a_jk, lies below n exactly when e lies below lambda_j + lambda_k.
``register_pair`` refuses any other term, so a row of a ``Restriction``
never leaves its downset, and no solve checks the triangle again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lie_core import (
    KEY_MAX, RANK, TWO_RHO_ALPHA, ZERO_WEIGHT, FUNDAMENTAL_WEIGHTS,
    MonomialRangeError, eigenvalue, is_below, key_weight, weight_key,
)
from .charsolve import CharacterTable
from .polyring import MultiPoly
from . import fixtures


class CorpusIncompleteError(ValueError):
    """A series weight has no character available to the reconstruction."""


class OperatorIncompleteError(RuntimeError):
    """A monomial image touched a coefficient pair that is not built yet."""


class StructuralViolationError(AssertionError):
    """A coefficient term of a_jk is not below lambda_j + lambda_k, which
    would break the operator's triangle."""


# Rows of a support's array form built at once (``Restriction.arrays``):
# a chunk's (shifts x rows) block of image coefficients is 2.5 MB of int64.
_CHUNK_ROWS = 1024


# b_j(z) = eps_j * z_j; the eigenvalue coefficients on z_1..z_7.
B_COEFFS = tuple(eigenvalue(w) for w in FUNDAMENTAL_WEIGHTS)


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
    as (d, c) pairs, d the term's key shift (module docstring).  Monomial
    images are memoized: the recursion solvers revisit the same monomials
    across many characters.
    """

    def __init__(self, a=None):
        self._a = {}
        self._shifts = {}
        self._max_exp = 0
        self._image_cache = {}
        if a:
            for (j, k), poly in a.items():
                self.register_pair(j, k, poly)

    # ------------------------------------------------------------- assembly
    def register_pair(self, j, k, poly):
        """Register a_jk.  A term not below lambda_j + lambda_k is refused
        with ``StructuralViolationError`` before any state changes."""
        j, k = min(j, k), max(j, k)
        top = tuple(a + b for a, b in zip(FUNDAMENTAL_WEIGHTS[j - 1],
                                          FUNDAMENTAL_WEIGHTS[k - 1]))
        for e in poly.terms:
            if not is_below(e, top):
                raise StructuralViolationError(
                    f"term z^{e} of a_{j}{k} is not below lambda_{j} + "
                    f"lambda_{k} = {top}")
        self._a[(j, k)] = poly
        self._shifts[(j, k)] = tuple((weight_key(e) - weight_key(top), c)
                                     for e, c in poly.terms.items())
        self._max_exp = max(max(map(max, p.terms), default=0)
                            for p in self._a.values())
        self._image_cache.clear()

    @property
    def a(self):
        """Mapping (j, k) with j <= k to the coefficient polynomial."""
        return dict(self._a)

    # ----------------------------------------------------------- application
    def require_in_range(self, n):
        """Refuse, with ``MonomialRangeError``, a monomial whose image would
        not fit the weight keys: seven exponents in 0..KEY_MAX - (largest
        a_jk exponent)."""
        limit = KEY_MAX - self._max_exp
        if len(n) != RANK or min(n) < 0 or max(n) > limit:
            raise MonomialRangeError(
                f"monomial {n} is outside the packed range: seven "
                f"exponents in 0..{limit}")

    def image_terms(self, n):
        """D applied to the monomial z^n, as two tuples: the weight keys q
        of its terms and their coefficients, in the same order.

        The diagonal term (the input monomial itself, key weight_key(n))
        carries its eigenvalue when n is dominant; off-diagonal output sits
        strictly lower in the root-lattice order.  n is an exponent tuple
        with entries in 0..KEY_MAX - (largest a_jk exponent), which keeps
        every output exponent inside its field (module docstring); other
        monomials raise ``MonomialRangeError`` (``require_in_range``).
        """
        n = tuple(n)
        cached = self._image_cache.get(n)
        if cached is not None:
            return cached
        self.require_in_range(n)
        key = weight_key(n)
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
                terms = self._shifts.get((j + 1, k + 1))
                if terms is None:
                    raise OperatorIncompleteError(
                        f"coefficient pair {(j + 1, k + 1)} needed for "
                        f"monomial {n} is not built")
                for d, c in terms:
                    q = key + d
                    out[q] = out.get(q, 0) + c * factor
        # first-derivative part: b_j d_j z^n = eps_j n_j z^n
        out[key] = out.get(key, 0) + sum(B_COEFFS[i] * n[i]
                                         for i in range(RANK))
        if 0 in out.values():
            out = {q: c for q, c in out.items() if c}
        image = tuple(out), tuple(out.values())
        self._image_cache[n] = image
        return image

    def restrict(self, weights):
        """The operator on ``weights``, a ``dominant_weights_below`` list,
        as a ``Restriction``."""
        return Restriction(self, weights)

    def apply_terms(self, terms):
        """Apply the operator to a raw term dict {exps: coeff}, returning a
        term dict of the same kind; the sum runs on weight keys."""
        out = {}
        for n, c in terms.items():
            keys, coeffs = self.image_terms(n)
            for q, s in zip(keys, coeffs):
                out[q] = out.get(q, 0) + c * s
        return {key_weight(q): v for q, v in out.items() if v}


class Restriction:
    """The operator on a downset: ``weights``, the dominant weights below
    a top weight in solving order, and the operator's rows on them.

    ``row(i)`` is the image of the member at position i, as a list of
    target positions and the tuple of their coefficients.  Each row is
    built once, however many members are solved on the restriction.  Every
    target is a member at or after position i: ``register_pair`` admits
    only coefficient terms that keep the operator triangular.  ``arrays()``
    holds every row at once, off the diagonal, for the level solve of a
    large support.
    """

    def __init__(self, operator, weights):
        self.operator = operator
        self.weights = weights
        self._index = {weight_key(mu): i for i, mu in enumerate(weights)}
        self._rows = [None] * len(weights)
        self._arrays = None

    def position(self, mu):
        """The position of the member mu."""
        return self._index[weight_key(mu)]

    def row(self, i):
        r = self._rows[i]
        if r is None:
            keys, coeffs = self.operator.image_terms(self.weights[i])
            index = self._index
            r = self._rows[i] = [index[q] for q in keys], coeffs
        return r

    def arrays(self):
        """The operator's off-diagonal part on the support as numpy
        arrays, built once: ``(weights, start, target, value)``.

        ``weights`` is the (n, 7) int64 array of the members.  Row i holds
        the off-diagonal terms of member i's image: positions
        ``target[start[i]:start[i + 1]]``, all after i, with the nonzero
        coefficients ``value[start[i]:start[i + 1]]``, int64 unless some
        coefficient could leave it (then Python ints).  The rows are
        built ``_CHUNK_ROWS`` at a time, and every target is looked up
        among the members' sorted keys; one that is not a member raises
        ``KeyError``, as ``row`` does.  A member outside the key range
        raises ``MonomialRangeError`` and one that needs an unbuilt pair
        ``OperatorIncompleteError``, as its image would.
        """
        if self._arrays is None:
            self._arrays = self._build_arrays()
        return self._arrays

    def _build_arrays(self):
        import numpy as np

        op = self.operator
        w = np.array(self.weights, dtype=np.int64)
        if w.max() > KEY_MAX - op._max_exp:
            op.require_in_range(self.weights[int(w.max(axis=1).argmax())])
        # The shift table: table[d, p] is the coefficient pair p's a_jk
        # sends z^n to z^(n + shifts[d]) with, in units of f_jk(n).
        pj, pk = np.triu_indices(RANK)
        pairs = list(zip(pj.tolist(), pk.tolist()))
        shifts = np.array(sorted({d for terms in op._shifts.values()
                                  for d, _ in terms} - {0}), dtype=np.int64)
        table = np.zeros((len(shifts), len(pairs)), dtype=object)
        for p, (j, k) in enumerate(pairs):
            for d, c in op._shifts.get((j + 1, k + 1), ()):
                if d:   # d = 0 is the diagonal
                    table[np.searchsorted(shifts, d), p] = c
        # |f_jk(n)| <= 2 max(n)^2: the image coefficients are exact in
        # int64 under this bound, and stay Python ints otherwise.
        bound = 2 * int(w.max()) ** 2 * np.abs(table).sum(axis=1).max(
            initial=0)
        dtype = np.int64 if bound < 2 ** 63 else object
        table = table.astype(dtype)
        missing = [p for p, (j, k) in enumerate(pairs)
                   if (j + 1, k + 1) not in op._shifts]

        keys = np.fromiter(self._index, dtype=np.int64, count=len(w))
        order = np.argsort(keys)
        sorted_keys = keys[order]
        counts, targets, values = [], [], []
        for a in range(0, len(w), _CHUNK_ROWS):
            rows = w[a:a + _CHUNK_ROWS]
            factors = (rows[:, pj] * (rows[:, pk] - (pj == pk))
                       * (2 - (pj == pk))).T
            for p in missing:
                if factors[p].any():
                    j, k = pairs[p]
                    n = self.weights[a + int(np.flatnonzero(factors[p])[0])]
                    raise OperatorIncompleteError(
                        f"coefficient pair {(j + 1, k + 1)} needed for "
                        f"monomial {n} is not built")
            images = np.zeros((len(shifts), len(rows)), dtype=dtype)
            for p, f in enumerate(factors):
                ds = np.flatnonzero(table[:, p])
                if ds.size:
                    images[ds] += table[ds, p, None] * f
            # by row, then by shift: row-major in the (rows x shifts) view
            i, d = np.nonzero(images.T)
            q = keys[a + i] + shifts[d]
            at = np.minimum(np.searchsorted(sorted_keys, q), len(keys) - 1)
            outside = np.flatnonzero(sorted_keys[at] != q)
            if outside.size:
                k = outside[0]
                raise KeyError(
                    f"image term z^{key_weight(int(q[k]))} of "
                    f"z^{self.weights[a + int(i[k])]} is not in the support")
            counts.append(np.bincount(i, minlength=len(rows)))
            targets.append(order[at])
            values.append(images[d, i])
        start = np.zeros(len(w) + 1, dtype=np.intp)
        np.cumsum(np.concatenate(counts), out=start[1:])
        return w, start, np.concatenate(targets), np.concatenate(values)


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
        total = total - ((B_COEFFS[j - 1] + B_COEFFS[k - 1])
                         * (zvars[j - 1] * zvars[k - 1]))
        halved = {}
        for e, c in total.terms.items():
            q, r = divmod(c, 2)
            if r:
                raise ArithmeticError(
                    f"a_{j}{k} reconstruction is not an integer polynomial")
            halved[e] = q
        op.register_pair(j, k, MultiPoly(halved))
    a = op.a
    assert len(a) == 28
    return a, op, table
