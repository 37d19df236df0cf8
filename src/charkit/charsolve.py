"""Irreducible characters as eigenfunctions of the assembled operator.

Two independent solvers are provided.

Method 1 walks the dominant weights below m in order of increasing height
gap.  Writing chi_m = sum C_mu z^mu with C_m = 1, the eigenvalue equation
fixes each lower coefficient from the ones already known:

    (eps_m - eps_mu) C_mu = sum over already-solved nu of C_nu * S(nu -> mu)

where S(nu -> mu) is the coefficient the operator sends z^nu to z^mu with.
The denominators are strictly positive by monotonicity of the eigenvalues
along the dominance order, and every division must be exact; a remainder
means a corrupted operator.

Method 2 multiplies out one annihilator per distinct eigenvalue below m,

    P = prod_e (D - e) z^m,    e in {eps_mu : mu < m},

which kills every constituent of z^m except chi_m itself and scales it by
prod_e (eps_m - e); the quotient by that scalar is checked exactly.  z^m
is an integer combination of the characters chi_mu with mu <= m, and D is
diagonal on them, so one factor (D - e) removes every constituent of
eigenvalue e at once; a second factor for the same eigenvalue would only
multiply the result, and so the scale, by eps_m - e again.
"""

from __future__ import annotations

import contextlib
import os
import threading

from .csmodel import StructuralViolationError, pack, unpack
from .lie_core import (
    ZERO_WEIGHT, dominant_weights_below, eigenvalue, require_dominant,
    weyl_dim,  # noqa: F401 -- a binding the benchmark tracer wraps
)
from .polyring import MultiPoly
from . import fixtures


class IntegralityError(ArithmeticError):
    """A character coefficient came out non-integral."""


class ZeroGapError(ArithmeticError):
    """An eigenvalue gap vanished; the dominance-order monotonicity
    invariant is broken (this must never happen)."""


class CharacterTable:
    """Memoized character computations against one operator.

    Results are cached in memory and, when ``cache_dir`` is set, persisted
    as canonical ``chi`` fixture lines (one file per weight), so repeated
    CLI invocations and long corpus runs reuse earlier work.  Insertion is
    guarded by a lock; lookups of already-cached weights are lock-free.
    """

    def __init__(self, operator, cache_dir=None):
        self.operator = operator
        self.cache_dir = cache_dir
        self._cache = {}
        self._provenance = {}
        self._lock = threading.Lock()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

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
        path = self._disk_path(m)
        if not os.path.exists(path):
            return None
        try:
            loaded = fixtures.load_chi_file(path)
        except (fixtures.FixtureFormatError, fixtures.FixtureCorruptError):
            return None     # a miss: the solve overwrites the bad file
        return loaded.get(m)

    def _store_disk(self, m, chi):
        """Write chi_m's cache file atomically: the line goes to a temporary
        file in the cache directory, which then replaces the target, so a
        reader never sees a partial file and a failed write leaves none."""
        if not self.cache_dir:
            return
        path = self._disk_path(m)
        # One name per writing thread, so concurrent writers never share it.
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(f"chi {fixtures.format_weight(m)} = {chi.to_text()}\n")
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
    def character(self, m, downset=None):
        """The character of highest weight m, from cache or by Method 1.

        ``downset``, a ``Downset`` containing m, is handed to the solve as
        the source of its support.  Only solved characters are written to
        the disk cache.
        """
        m = tuple(m)
        require_dominant(m)
        chi = self._cache.get(m)
        if chi is not None:
            return chi
        chi = self._load_disk(m)
        prov = "disk"
        if chi is None:
            chi, prov = self.character_m1(m, downset), "method-1"
        with self._lock:
            self._cache.setdefault(m, chi)
            self._provenance.setdefault(m, prov)
        if prov != "disk":
            self._store_disk(m, chi)
        return chi

    def character_m1(self, m, downset=None):
        """Solve for chi_m by the triangular recursion (Method 1).

        The support is ``downset.below(m)`` when m is solved as a
        constituent inside the downset of a larger weight (a decomposition
        passes the top weight's ``Downset``), and ``dominant_weights_below(m)``
        otherwise; both give the same weights in the same order.

        The numerators accumulate under packed keys, the operator's image
        keys, in a dict seeded with the support's keys; a weight's entry
        leaves it once the weight is solved.  So ``acc[q] += ...`` is also
        the exact membership test: an image term outside the support, or on
        a weight already solved, is a KeyError, raised as
        ``StructuralViolationError``.  The result is keyed by tuples.
        """
        m = tuple(m)
        require_dominant(m)
        if m == ZERO_WEIGHT:
            return MultiPoly.one()
        op = self.operator
        if downset is None:
            support = dominant_weights_below(m)
        else:
            support = downset.below(m)
        keys = [pack(mu) for mu in support]
        eps_m = eigenvalue(m)
        acc = dict.fromkeys(keys, 0)
        coeffs = {}
        for mu, key in zip(support, keys):
            num = acc.pop(key)
            if mu == m:
                c = 1
            else:
                if num == 0:
                    continue
                gap = eps_m - eigenvalue(mu)
                if gap <= 0:
                    raise ZeroGapError(
                        f"eigenvalue gap {gap} for {mu} below {m}")
                c, rem = divmod(num, gap)
                if rem:
                    raise IntegralityError(
                        f"character {m}: coefficient of z^{mu} is "
                        f"{num}/{gap}, not an integer")
                if c == 0:
                    continue
            coeffs[mu] = c
            image = op.image_terms(mu)
            acc[key] = 0        # takes the diagonal term, then goes
            try:
                for q, s in image.items():
                    acc[q] += c * s
            except KeyError as exc:
                raise StructuralViolationError(
                    f"image monomial {unpack(exc.args[0])} of {mu} is not "
                    f"an unsolved weight of the support of {m}") from None
            del acc[key]
        return MultiPoly(coeffs, _clean_input=False)

    def character_m2(self, m):
        """Solve for chi_m by the annihilator product (Method 2).

        One factor (D - e) is applied per distinct eigenvalue e of the
        dominant weights strictly below m, in order of first appearance
        along the support; the top coefficient must come out as the
        product of the gaps eps_m - e, which then divides every
        coefficient exactly.
        """
        m = tuple(m)
        require_dominant(m)
        if m == ZERO_WEIGHT:
            return MultiPoly.one()
        op = self.operator
        support = dominant_weights_below(m)
        eps_m = eigenvalue(m)
        poly = {m: 1}
        scale = 1
        for e in dict.fromkeys(eigenvalue(mu) for mu in support[1:]):
            nxt = op.apply_terms(poly)
            for n, c in poly.items():
                v = nxt.get(n, 0) - e * c
                if v:
                    nxt[n] = v
                else:
                    nxt.pop(n, None)
            poly = nxt
            scale *= eps_m - e
        lead = poly.get(m)
        if lead != scale:
            raise IntegralityError(
                f"character {m}: annihilator product scales the top "
                f"monomial by {lead}, expected {scale}")
        out = {}
        for n, c in poly.items():
            q, rem = divmod(c, scale)
            if rem:
                raise IntegralityError(
                    f"character {m}: coefficient of z^{n} is not an "
                    f"integer after normalization")
            out[n] = q
        return MultiPoly(out, _clean_input=False)
