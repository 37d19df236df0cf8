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
downset as a ``Restriction``: the members' one index, by key, their rows
by position, each a list of target positions with the image's coefficient
tuple, built once, and their eigenvalues, worked out once.
``Restriction.levels`` gives the same rows, the diagonal left out, as
numpy arrays one block of whole height levels at a time, each block built
when a level solve first reaches it (numpy is imported there, and only
when first needed).

The blocks read the same shifts.  Every off-diagonal image term of z^n is
z^(n + d) for one of a fixed set of shifts d = e - u_j - u_k (306 for E7,
the diagonal one aside), and its coefficient is sum over pairs of
a_jk[d] * f_jk(n), with f_jk(n) = n_j (n_j - 1) when j = k and 2 n_j n_k
otherwise.  So the images of a block of rows are one product of the
(rows x 28) factors with the fixed (28 x shifts) coefficient table, taken
pair by pair (the table has 401 nonzero entries off the diagonal), and the
target keys are the rows' own keys plus the shifts.  The product is exact
in int64 whenever the level solve's limb width is at least 1 (``Levels``);
no block is built otherwise.  A target key's position comes from a hash
index over the members' keys, built once per ``Levels``: open addressing
with linear probing in a power-of-two table at most half full, probed for
all of a block's targets at once, one slot further per round.

The operator is triangular: an image term n - u_j - u_k + e, for e a term
of a_jk, lies below n exactly when e lies below lambda_j + lambda_k.
``register_pair`` refuses any other term, so a row of a ``Restriction``
never leaves its downset, and no solve checks the triangle again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lie_core import (
    CARTAN_AINV2, KEY_MAX, RANK, TWO_RHO_ALPHA, ZERO_WEIGHT,
    FUNDAMENTAL_WEIGHTS, MonomialRangeError, eigenvalue, is_below,
    key_weight, weight_key,
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


# Rows the level solve builds at once (``Levels.block``), at the least: a
# block's (shifts x rows) table of image coefficients is 2.5 MB of int64.
_CHUNK_ROWS = 1024

# The empty slot of the level solve's key index (``Levels``): every weight
# key is non-negative.
_EMPTY = -1


def _hash(keys, bits):
    """The home slots of the int64 ``keys`` in a table of 2**bits slots:
    the top bits of a multiplicative hash on uint64 (Knuth's, with the
    golden ratio)."""
    import numpy as np

    return ((keys.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
            >> np.uint64(64 - bits)).view(np.int64)


# b_j(z) = eps_j * z_j; the eigenvalue coefficients on z_1..z_7.
B_COEFFS = tuple(eigenvalue(w) for w in FUNDAMENTAL_WEIGHTS)


@dataclass
class QuadraticCorpus:
    """The 28 pairwise fundamental tensor series plus the degree-two
    characters, which seed the reconstruction beside the constant 1 and
    the fundamentals z_i."""

    series: dict = field(default_factory=dict)        # (j,k) -> {weight: N}
    second_order_chars: dict = field(default_factory=dict)  # weight -> MultiPoly

    @classmethod
    def load_default(cls):
        """The packaged corpus, unvalidated: ``build_a`` validates it."""
        series = fixtures.load_cg_file(fixtures.data_path("quadratic_series.txt"))
        chars = fixtures.load_chi_file(fixtures.data_path("second_order_chars.txt"))
        return cls(series=series, second_order_chars=chars)

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
    only coefficient terms that keep the operator triangular.
    ``eigenvalues()`` lists the members' eigenvalues by position, once
    for every member solved on the restriction.  ``levels()`` gives the
    level solve of a large support the same rows, off the diagonal, one
    block of height levels at a time.
    """

    def __init__(self, operator, weights):
        self.operator = operator
        self.weights = weights
        self._index = {weight_key(mu): i for i, mu in enumerate(weights)}
        self._rows = [None] * len(weights)
        self._eps = None
        self._levels = None

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

    def eigenvalues(self):
        """The members' eigenvalues, by position, worked out once per
        restriction."""
        if self._eps is None:
            self._eps = [eigenvalue(mu) for mu in self.weights]
        return self._eps

    def levels(self):
        """The operator on the support as the level solve reads it
        (``Levels``), worked out once per restriction."""
        if self._levels is None:
            self._levels = Levels(self)
        return self._levels


class Levels:
    """The level solve's view of a ``Restriction`` (numpy is imported
    here, and only when first needed).

    ``eps`` holds the members' eigenvalues, ``cuts`` the positions where
    their height levels start and ``blocks`` where their blocks start,
    each list ending with the support's size; a block is a run of whole
    levels of at least ``_CHUNK_ROWS`` rows, the last one aside.
    ``block(k)`` is block k's rows off the diagonal.  ``limb_bits`` is
    the width L of the int64 limbs the solve carries its coefficients on:
    L = 62 - bitlen(shifts * max |S|), max |S| bounded by
    2 max(n)^2 * max_d sum over pairs of |a_jk[d]|; below 1, the images
    may not fit int64, and no block is built.  Otherwise the members'
    positions are indexed by key (``_find``): an open-addressing table of
    2**bits >= 2n slots, each slot a key and its int32 position, reached
    from the key's home slot (``_hash``) by linear probing.

    A member outside the key range raises ``MonomialRangeError`` here,
    as its image would.
    """

    def __init__(self, support):
        import numpy as np

        op = support.operator
        weights = support.weights
        n = len(weights)
        w = np.array(weights, dtype=np.int64)
        if w.max() > KEY_MAX - op._max_exp:
            op.require_in_range(weights[int(w.max(axis=1).argmax())])
        height = w @ np.array(TWO_RHO_ALPHA)
        # eps(mu) = 2(mu, mu + 2 rho), as ``eigenvalue`` computes it
        self.eps = np.einsum("ij,jk,ik->i", w, np.array(CARTAN_AINV2),
                             w) + 2 * height
        self._w = w.astype(np.uint8)
        self.cuts = [0] + (1 + np.flatnonzero(np.diff(height))).tolist() + [n]
        self.blocks = [0]
        for c in self.cuts[1:]:
            if c - self.blocks[-1] >= _CHUNK_ROWS or c == n:
                self.blocks.append(c)
        self._memo = {}

        # The shift table: table[d][p] is the coefficient pair p's a_jk
        # sends z^n to z^(n + shifts[d]) with, in units of f_jk(n).
        self._pj, self._pk = np.triu_indices(RANK)
        self._pairs = list(zip(self._pj.tolist(), self._pk.tolist()))
        shifts = sorted({d for terms in op._shifts.values()
                         for d, _ in terms} - {0})     # d = 0 is the diagonal
        column = {d: s for s, d in enumerate(shifts)}
        table = [[0] * len(self._pairs) for _ in shifts]
        for p, (j, k) in enumerate(self._pairs):
            for d, c in op._shifts.get((j + 1, k + 1), ()):
                if d:
                    table[column[d]][p] = c
        most = 2 * int(self._w.max(initial=0)) ** 2 * max(
            (sum(map(abs, r)) for r in table), default=0)
        self.limb_bits = 62 - (len(shifts) * most).bit_length()
        if self.limb_bits < 1:
            return
        self._shifts = np.array(shifts, dtype=np.int64)
        self._table = np.array(table, dtype=np.int64).reshape(
            len(shifts), len(self._pairs))
        self._columns = [np.flatnonzero(t) for t in self._table.T]
        self._missing = [p for p, (j, k) in enumerate(self._pairs)
                         if (j + 1, k + 1) not in op._shifts]
        self._keys = keys = np.fromiter(support._index, dtype=np.int64,
                                        count=n)
        self._weights = weights

        # The key index: positions fit int32, as n is at most SUPPORT_MAX.
        # Each round gives every free slot one of the keys probing it, and
        # moves the others on by one slot.
        self._bits = bits = (2 * n - 1).bit_length()
        self._slot_keys = np.full(1 << bits, _EMPTY, dtype=np.int64)
        self._slot_positions = np.zeros(1 << bits, dtype=np.int32)
        todo = np.arange(n, dtype=np.int32)
        at = _hash(keys, bits)
        while todo.size:
            won = self._slot_keys[at] == _EMPTY
            self._slot_positions[at[won]] = todo[won]
            won[won] = self._slot_positions[at[won]] == todo[won]
            self._slot_keys[at[won]] = keys[todo[won]]
            todo, at = todo[~won], (at[~won] + 1) & ((1 << bits) - 1)

    def _find(self, needles):
        """The positions of the members with keys ``needles``, as int32,
        and -1 for a needle that is no member's key, which ends its probe
        at an empty slot."""
        import numpy as np

        mask = (1 << self._bits) - 1
        at = _hash(needles, self._bits)
        found = self._slot_keys[at]
        out = self._slot_positions[at]
        todo = np.flatnonzero(found != needles)
        out[todo] = -1
        at, found = at[todo], found[todo]
        while todo.size:
            go = found != _EMPTY
            todo, at = todo[go], (at[go] + 1) & mask
            found = self._slot_keys[at]
            hit = found == needles[todo]
            out[todo[hit]] = self._slot_positions[at[hit]]
            todo, at, found = todo[~hit], at[~hit], found[~hit]
        return out

    def block(self, k, keep=True):
        """Block k's rows off the diagonal, as arrays ``(start, target,
        value)``: the row of the member at position ``blocks[k] + r``
        holds positions ``target[start[r]:start[r + 1]]`` (int32), all
        after its own, with the nonzero coefficients
        ``value[start[r]:start[r + 1]]`` (int64).  Kept for the next call
        when ``keep`` is set.

        The images are built shift-major; their nonzero entries are found
        row-major in one contiguous copy of the table's nonzero mask, and
        the table is let go before the targets are looked up in the key
        index.  A target that is not a member raises ``KeyError``, as
        ``Restriction.row`` does, naming the first such entry by row, then
        by shift; a member that needs an unbuilt pair raises
        ``OperatorIncompleteError``, as its image would.
        """
        import numpy as np

        rows = self._memo.get(k)
        if rows is not None:
            return rows
        a, b = self.blocks[k], self.blocks[k + 1]
        w = self._w[a:b].astype(np.int64)
        pj, pk = self._pj, self._pk
        factors = (w[:, pj] * (w[:, pk] - (pj == pk)) * (2 - (pj == pk))).T
        for p in self._missing:
            if factors[p].any():
                pair = tuple(x + 1 for x in self._pairs[p])
                n = self._weights[a + int(np.flatnonzero(factors[p])[0])]
                raise OperatorIncompleteError(
                    f"coefficient pair {pair} needed for monomial {n} is "
                    f"not built")
        shifts = len(self._shifts)
        images = np.zeros((shifts, b - a), dtype=np.int64)
        for p, (f, ds) in enumerate(zip(factors, self._columns)):
            if ds.size:
                images[ds] += self._table[ds, p, None] * f
        # by row, then by shift: row-major in a (rows x shifts) mask
        entries = np.flatnonzero(np.ascontiguousarray((images != 0).T))
        i, d = np.divmod(entries, shifts)
        del entries
        value = images.ravel()[d * (b - a) + i]
        del images
        q = self._keys[a + i] + self._shifts[d]
        target = self._find(q)
        if target.min(initial=0) < 0:
            x = int(np.argmin(target >= 0))
            raise KeyError(
                f"image term z^{key_weight(int(q[x]))} of "
                f"z^{self._weights[a + int(i[x])]} is not in the support")
        start = np.zeros(b - a + 1, dtype=np.intp)
        np.cumsum(np.bincount(i, minlength=b - a), out=start[1:])
        rows = start, target, value
        if keep:
            self._memo[k] = rows
        return rows


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
    # Characters known without any operator: 1, the z_i, the corpus.
    zvars = [MultiPoly.variable(i + 1) for i in range(RANK)]
    seeds = [(ZERO_WEIGHT, MultiPoly.one()), *zip(FUNDAMENTAL_WEIGHTS, zvars),
             *corpus.second_order_chars.items()]
    for w, chi in seeds:
        table.seed(w, chi)

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
