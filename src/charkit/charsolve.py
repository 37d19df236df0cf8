"""Irreducible characters as eigenfunctions of the assembled operator.

Two independent solvers are provided.  Both run on a ``Restriction``,
the operator restricted to a downset (``Delta1Operator.restrict``): its
rows by position, each term at or after its own weight's position, each
row built at most once per restriction.  The operator's triangle is
certified when its coefficients are registered, so neither solver checks
it; a top weight outside the weight keys' range is refused before its
downset is enumerated.

Method 1 walks the dominant weights below m in order of increasing height
gap: the positions of m's own support, or those of a larger support from
m's position on (a decomposition solves every constituent on its top
weight's).  Writing chi_m = sum C_mu z^mu with C_m = 1, the eigenvalue
equation fixes each lower coefficient from the ones already known:

    (eps_m - eps_mu) C_mu = sum over already-solved nu of C_nu * S(nu -> mu)

where S(nu -> mu) is the coefficient the operator sends z^nu to z^mu with.
The denominators are strictly positive by monotonicity of the eigenvalues
along the dominance order, and every division must be exact; a remainder
means a corrupted operator.  A weight's row is read only when its
coefficient is nonzero.

Every off-diagonal term of a row lies strictly lower in height, so the
numerators of one height level are complete once every higher level is
solved: a large support is solved one level at a time (level scheduling
for sparse triangular solves, Anderson & Saad 1989), on the operator's
array form (``Restriction.arrays``).  Each level divides its nonzero
numerators by their gaps at once, refusing a gap <= 0 or a remainder at
the same weight and with the same error as the walk by positions, then
scatters its rows into the numerators below with one ``np.add.at``.  The
arrays are int64 while

    max |C| of the level * max |S| * most rows reaching one position
        + max |numerator| still to be read  <  2**62,

checked before each scatter, so no int64 product or sum can overflow (the
middle factors bound the sum of |S| into any one position); past it the
solve goes on in Python ints (``dtype=object``), exact either way.
Coefficients of the supports solved in practice stay near 20 bits.

The level solve runs for supports of at least ``LEVEL_SOLVE_MIN_SUPPORT``
weights.  Below that the walk by positions is cheaper, counting numpy's
import (about 0.15 s, as long as the whole set-up), which a process pays
on its first level solve; so set-up, decompositions, Method 2 and every
small solve stay on Python ints without numpy.  Measured cold, one process
per solve: 0.21 s against 0.20 s at 3 102 weights, 0.42 s against 0.23 s
at 5 185, and 1.32 s against 0.38 s at 13 081.

Method 2 multiplies out one annihilator per distinct eigenvalue below m,

    P = prod_e (D - e) z^m,    e in {eps_mu : mu < m},

which kills every constituent of z^m except chi_m itself and scales it by
prod_e (eps_m - e); the quotient by that scalar is checked exactly.  z^m
is an integer combination of the characters chi_mu with mu <= m, and D is
diagonal on them, so one factor (D - e) removes every constituent of
eigenvalue e at once; a second factor for the same eigenvalue would only
multiply the result, and so the scale, by eps_m - e again.  Every
factor maps the span of the dominant monomials below m to itself, so
every row on that support is read once, and each factor is one pass of
exact integer arithmetic over a coefficient list indexed by the support.
"""

from __future__ import annotations

import contextlib
import os
import threading

from .lie_core import (
    CARTAN_AINV2, TWO_RHO_ALPHA, dominant_weights_below, eigenvalue,
    require_dominant,
    weyl_dim,  # noqa: F401 -- a binding the benchmark tracer wraps
)
from .polyring import MultiPoly
from . import fixtures


# Method 1 runs level by level on numpy arrays (``_solve_levels``) for
# supports of at least this many weights, and position by position below.
LEVEL_SOLVE_MIN_SUPPORT = 3000

# The level solve stays on int64 while no numerator can reach this bound.
_INT64_BOUND = 2 ** 62


class IntegralityError(ArithmeticError):
    """A character coefficient came out non-integral."""


class ZeroGapError(ArithmeticError):
    """An eigenvalue gap vanished; the dominance-order monotonicity
    invariant is broken (this must never happen)."""


class CharacterTable:
    """Memoized character computations against one operator.

    Results are cached in memory and, when ``cache_dir`` is set, persisted
    as canonical ``chi`` fixture lines (one file per weight), so repeated
    CLI invocations and long corpus runs reuse earlier work.  No lock
    guards the memory cache: each insertion is one dict store.
    """

    def __init__(self, operator):
        self.operator = operator
        self.cache_dir = None
        self._cache = {}
        self._provenance = {}

    # -------------------------------------------------------------- caching
    def seed(self, m, chi):
        m = tuple(m)
        self._cache[m] = chi
        self._provenance[m] = "fixture"

    def provenance(self, m):
        return self._provenance.get(tuple(m))

    def _disk_path(self, m):
        name = "-".join(str(x) for x in m)
        return os.path.join(self.cache_dir, f"chi_{name}.txt")

    def _load_disk(self, m):
        if not self.cache_dir:
            return None
        try:
            loaded = fixtures.load_chi_file(self._disk_path(m))
        except (FileNotFoundError, fixtures.FixtureFormatError,
                fixtures.FixtureCorruptError):
            return None     # a miss: the solve (re)writes the file
        return loaded.get(m)

    def _store_disk(self, m, chi):
        """Write chi_m's cache file atomically: the line goes to a temporary
        file in the cache directory, which then replaces the target, so a
        reader never sees a partial file and a failed write leaves none."""
        if not self.cache_dir:
            return
        path = self._disk_path(m)
        # One name per writing process and thread, so no two writers share it.
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(fixtures.format_chi_line(m, chi) + "\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    def flush_disk(self):
        """Persist every in-memory character that is not on disk yet; used
        when a cache directory is attached after a bootstrap build."""
        if not self.cache_dir:
            return
        for m, chi in list(self._cache.items()):
            if not os.path.exists(self._disk_path(m)):
                self._store_disk(m, chi)

    # -------------------------------------------------------------- solvers
    def character(self, m, support=None):
        """The character of highest weight m, from cache or by Method 1.

        ``support``, a ``Restriction`` with m among its weights, is the one
        the solve runs on, sharing its rows of the operator.  Only solved
        characters are written to the disk cache.
        """
        m = tuple(m)
        require_dominant(m)
        chi = self._cache.get(m)
        if chi is not None:
            return chi
        chi = self._load_disk(m)
        prov = "disk"
        if chi is None:
            chi, prov = self.character_m1(m, support), "method-1"
        self._cache[m] = chi
        self._provenance[m] = prov
        if prov != "disk":
            self._store_disk(m, chi)
        return chi

    def character_m1(self, m, support=None):
        """Solve for chi_m by the triangular recursion (Method 1).

        The solve runs on ``support``, a ``Restriction`` with m among its
        weights (a decomposition passes its top weight's), or else on m's
        own (``_support``).  It walks the support's positions from m's
        own, and the numerators accumulate over those positions; a row of
        a weight below m adds only into positions of weights below it, so
        no numerator leaves the weights below m.  A support of at least
        ``LEVEL_SOLVE_MIN_SUPPORT`` weights is walked one height level at
        a time on numpy arrays (``_solve_levels``), a smaller one position
        by position (``_solve_positions``); both give the same character
        and refuse the same corrupted operator alike.
        """
        m = tuple(m)
        require_dominant(m)
        if support is None:
            support = self._support(m)
        p = support.position(m)
        if len(support.weights) >= LEVEL_SOLVE_MIN_SUPPORT:
            coeffs = _solve_levels(m, support, p)
        else:
            coeffs = _solve_positions(m, support, p)
        return MultiPoly(coeffs, _clean_input=False)

    def character_m2(self, m):
        """Solve for chi_m by the annihilator product (Method 2).

        Every row of m's own ``Restriction`` (``_support``) is read once,
        and the product runs on a list of coefficients over its positions.
        One factor (D - e) is applied per distinct eigenvalue e of the
        dominant weights strictly below m, in order of first appearance
        along the support; the top coefficient must come out as the
        product of the gaps eps_m - e, which then divides every coefficient
        exactly.
        """
        m = tuple(m)
        require_dominant(m)
        support = self._support(m)
        weights = support.weights
        row = support.row
        rows = [list(zip(*row(i))) for i in range(len(weights))]
        eps_m = eigenvalue(m)
        poly = [0] * len(weights)
        poly[0] = 1
        scale = 1
        for e in dict.fromkeys(eigenvalue(mu) for mu in weights[1:]):
            poly = _apply_factor(rows, poly, e)
            scale *= eps_m - e
        if poly[0] != scale:
            raise IntegralityError(
                f"character {m}: annihilator product scales the top "
                f"monomial by {poly[0]}, expected {scale}")
        out = {}
        for n, c in zip(weights, poly):
            if not c:
                continue
            q, rem = divmod(c, scale)
            if rem:
                raise IntegralityError(
                    f"character {m}: coefficient of z^{n} is not an "
                    f"integer after normalization")
            out[n] = q
        return MultiPoly(out, _clean_input=False)

    def _support(self, m):
        """The operator restricted to the dominant weights below m, once m
        is known to fit the operator's range (``require_in_range``)."""
        self.operator.require_in_range(m)
        return self.operator.restrict(dominant_weights_below(m))


def _divide(m, mu, num, gap):
    """The coefficient of z^mu in chi_m, num / gap, refused unless the gap
    is positive and the division exact."""
    if gap <= 0:
        raise ZeroGapError(f"eigenvalue gap {gap} for {mu} below {m}")
    c, rem = divmod(num, gap)
    if rem:
        raise IntegralityError(
            f"character {m}: coefficient of z^{mu} is {num}/{gap}, not an "
            f"integer")
    return c


def _solve_positions(m, support, p):
    """Method 1 one position at a time, on the support's ``row``s; the
    coefficients of chi_m as {weight: C}, in position order."""
    row = support.row
    weights = support.weights
    eps_m = eigenvalue(m)
    acc = [0] * len(weights)
    acc[p] = 1
    coeffs = {}
    for i in range(p, len(weights)):
        num = acc[i]
        if num == 0:
            continue
        mu = weights[i]
        c = 1 if i == p else _divide(m, mu, num, eps_m - eigenvalue(mu))
        coeffs[mu] = c
        targets, values = row(i)
        for j, s in zip(targets, values):
            acc[j] += c * s
    return coeffs


def _solve_levels(m, support, p):
    """Method 1 one height level at a time, on ``support.arrays()``; the
    same coefficients as ``_solve_positions``, in the same order, and the
    same refusal at the same weight."""
    import numpy as np

    w, start, target, value = support.arrays()
    height = w @ np.array(TWO_RHO_ALPHA)
    # eps(mu) = 2(mu, mu + 2 rho), as ``eigenvalue`` computes it
    eps = np.einsum("ij,jk,ik->i", w, np.array(CARTAN_AINV2), w) + 2 * height
    eps_m = eigenvalue(m)
    # A bound on the sum of |S| into any one position: the largest |S|
    # times the most rows that reach one position.
    into = int(np.abs(value).max(initial=0)) * int(
        np.bincount(target).max(initial=0))
    n = len(w)
    acc = np.zeros(n, dtype=value.dtype)
    coeff = np.zeros(n, dtype=value.dtype)
    coeff[p] = 1
    # p's level holds no other weight below m, so its numerators stay 0
    cuts = (p + 1 + np.flatnonzero(np.diff(height[p:]))).tolist()
    for a, b in zip([p] + cuts, cuts + [n]):
        if a > p:
            num = acc[a:b]
            i = np.flatnonzero(num)
            if not i.size:
                continue
            num = num[i]
            i += a
            gap = eps_m - eps[i]
            safe = np.where(gap > 0, gap, 1)
            c = num // safe
            bad = np.flatnonzero((gap <= 0) | (num % safe != 0))
            if bad.size:    # refused by the same check, at the same weight
                k = bad[0]
                _divide(m, support.weights[i[k]], int(num[k]), int(gap[k]))
            coeff[i] = c
        if acc.dtype != object and (
                int(np.abs(coeff[a:b]).max()) * into
                + int(np.abs(acc[b:]).max(initial=0)) >= _INT64_BOUND):
            acc, coeff = acc.astype(object), coeff.astype(object)
        lo, hi = start[a], start[b]
        np.add.at(acc, target[lo:hi],
                  value[lo:hi] * np.repeat(coeff[a:b], np.diff(start[a:b + 1])))
    nonzero = np.flatnonzero(coeff).tolist()
    return dict(zip([support.weights[i] for i in nonzero],
                    coeff[nonzero].tolist()))


def _apply_factor(rows, poly, e):
    """(D - e) applied to ``poly``, a list of coefficients over the
    positions of the restricted operator ``rows``."""
    out = [-e * c for c in poly]
    for c, row in zip(poly, rows):
        if c:
            for j, s in row:
                out[j] += c * s
    return out
