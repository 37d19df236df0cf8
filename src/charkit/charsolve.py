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
coefficient is nonzero.  The eps_mu are the restriction's own list
(``Restriction.eigenvalues``), worked out once per restriction, so a
decomposition's constituents share it.

A decomposition on a support of fewer than ``LEVEL_SOLVE_MIN_SUPPORT``
weights solves every constituent it does not hold in memory in one walk
over the top's positions (``CharacterTable.solve_lanes``), one lane each,
opened where the subtraction meets the constituent.  By Kronecker
substitution (Kronecker 1882; Harvey, J. Symb. Comp. 2009) the lanes'
numerators at a weight are one Python int, B bits a lane, so a row is
pushed once for all lanes, one multiply-add per term.  A weight receives
at most one term per key shift, 307 with the diagonal, so a push that
keeps max |C| * max |S| over its row within (2**(B - 1) - 1) // 307
leaves every lane exact; a walk whose push would not restarts at twice
the width, from B = 32, and keeps nothing before it ends.  The first
refusal, a lane's or a negative multiplicity, closes the walk to new
lanes; the walk finishes the lanes opened before it and raises the
refusal of the earliest-opened one that fails, or else the first.  That
is the refusal of solving the constituents one after the other, as the
characters, their term order and the series are that order's.  A
standalone solve is the same walk with one lane, whose numerator is the
int itself.

Every off-diagonal term of a row lies strictly lower in height, so the
numerators of one height level are complete once every higher level is
solved: a large support is solved one level at a time (level scheduling
for sparse triangular solves, Anderson & Saad 1989), on the operator's
rows one block of whole levels at a time (``Restriction.levels``).  A
block is built when the solve first reaches it; a solve on its own
support drops it after the block's last level, and a decomposition keeps
it for its next constituent.  A level's nonzero numerators are divided
one by one on Python ints, as the walk by positions divides them, by gaps
from one slice of ``Levels.eps``, so a refusal comes at the same weight
with the same error; its rows, one contiguous slice of its block, are
then scattered into the numerators below with ``np.add.at``, a member
without a numerator with coefficient 0.

The scatter runs on int64 limbs.  Each coefficient is split into signed
limbs of L bits, C = sum over t of C_t * 2**(t L) with |C_t| < 2**L, and
limb t of every numerator is summed in its own int64 array.  A position q
receives at most one term per shift over the whole solve, because its
source for shift d is q - d; so with s shifts (306) and every |S| at most
S_max, each limb sum stays below s * 2**L * S_max, which is below 2**62 for

    L = 62 - bitlen(s * S_max)

(``Levels.limb_bits``; at least 28 for any support the weight keys hold,
35 at 24 lambda_7), and no int64 product or sum can overflow.  A level's
numerators are recombined from their limbs as Python ints, so
coefficients pass between levels only as Python ints.  Coefficients
stay near 20 bits at 24 lambda_7, one limb, and reach 44 bits at 48
lambda_7, two.  An operator whose images might not fit int64 (L < 1) is
solved position by position instead.

The level solve runs for supports of at least ``LEVEL_SOLVE_MIN_SUPPORT``
weights, and the walk by positions below, so set-up, decompositions,
Method 2 and every small solve stay on Python ints without numpy, whose
import a process pays on its first level solve.  Measured cold, one
process per solve, support built first, numpy's import counted (median of
7; Python 3.11, numpy 2.4, 2 shared CPUs), by positions against by levels:
0.058 s against 0.079 s at 1 581 weights, 0.071 s against 0.072 s at
1 780, 0.084 s against 0.071 s at 2 068, and 0.139 s against 0.076 s at
3 102; earlier, 1.08 s against 0.20 s at 13 081.  The two cost the same
near 1 780 weights, levels win from 2 068 on, and the threshold sits
between.

Method 2 multiplies out one annihilator per distinct eigenvalue below m,

    P = prod_e (D - e) z^m,    e in {eps_mu : mu < m},

which kills every constituent of z^m except chi_m itself and scales it by
prod_e (eps_m - e).  z^m is an integer combination of the characters
chi_mu with mu <= m, and D is diagonal on them, so one factor (D - e)
removes every constituent of eigenvalue e at once.  The factors come in
order of first appearance along the support, and each touches only the
positions not yet settled.  Let f be the first position whose eigenvalue
is not applied yet.  A row sends its monomial only to itself and to later
positions, so the product on the positions before f moves under the
operator's leading block on them alone.  An off-diagonal term of that
block joins two weights one strictly below the other, whose eigenvalues
differ, since the eigenvalue rises strictly along the dominance order: the
block is triangular by eigenvalue with scalar diagonal blocks, if every
row's diagonal is its weight's eigenvalue, and so diagonalizable.  Every
eigenvalue of the block but eps_m is applied, which leaves the product
there s * chi_m, s the product of the gaps so far, and each later factor
multiplies it by its own gap.  So a position is divided exactly by s as
the frontier passes it.  That refuses at the same first weight, with the
same message, as dividing the whole product by the whole scale at the end:
P[j] / scale = P_k[j] / s_k for a position j settled after the k-th
factor, P_k the product and s_k the scale then.  A settled position's row,
times its coefficient, is added once into a list w of settled
contributions, and a later factor reads s * w[j] in place of the settled
rows, so it reads only the rows and entries at or after f.  Method 1 never
reads the diagonal, so Method 2 certifies it as it settles each position,
the top first, a missing diagonal term reading as 0, as for the zero
weight.  Every row on the support is read once.  On the nine Method-2
weights of the seed-1 verify benchmark pass (supports 95 to 210), the
entries and row terms a solve touches fall to 0.36-0.41 of those of one
full pass per factor.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import threading

from .lie_core import (
    dominant_weights_below, eigenvalue, require_dominant,
    weyl_dim,  # noqa: F401 -- a binding the benchmark tracer wraps
)
from .polyring import MultiPoly
from . import fixtures


# Method 1 runs level by level on numpy arrays (``_solve_levels``) for
# supports of at least this many weights, and position by position below.
LEVEL_SOLVE_MIN_SUPPORT = 2000

# The width in bits a walk of several lanes starts at (``_walk``); a walk
# whose lanes would outgrow it starts again at twice the width.
_LANE_BITS = 32


class IntegralityError(ArithmeticError):
    """A character coefficient came out non-integral."""


class ZeroGapError(ArithmeticError):
    """An eigenvalue gap vanished; the dominance-order monotonicity
    invariant is broken (this must never happen)."""


class CharacterTable:
    """Memoized character computations against one operator.

    Results are cached in memory and, when ``cache_dir`` is set, the
    characters asked for by name are persisted as canonical ``chi`` fixture
    lines (one file per weight), so repeated CLI invocations and long
    corpus runs reuse earlier work; a decomposition's constituents stay in
    memory, unless its support is large (``character``).  No lock guards
    the memory cache: each insertion is one dict store.
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

    def in_memory(self, m):
        """The character of m if the table holds it in memory, else None."""
        return self._cache.get(tuple(m))

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

        Only characters asked for by name go through the disk: without a
        ``support`` the lookup runs memory, then disk, then Method 1 and a
        write.  ``support``, a ``Restriction`` with m among its weights, is
        a large decomposition's constituent path: the solve runs on it,
        sharing its rows of the operator.  On a support of at least
        ``LEVEL_SOLVE_MIN_SUPPORT`` weights the result is not kept at all:
        one decomposition reads each constituent once, and a large one's
        constituents would hold most of its memory; on a smaller one it
        stays in memory.  A smaller decomposition solves its constituents
        together instead (``solve_lanes``).  A character already in memory
        is never written.
        """
        m = tuple(m)
        require_dominant(m)
        chi = self._cache.get(m)
        if chi is not None:
            return chi
        chi = None if support is not None else self._load_disk(m)
        prov = "disk"
        if chi is None:
            chi, prov = self.character_m1(m, support), "method-1"
        if (support is not None
                and len(support.weights) >= LEVEL_SOLVE_MIN_SUPPORT):
            return chi
        self._cache[m] = chi
        self._provenance[m] = prov
        if prov != "disk" and support is None:
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
        by position (``_walk``, in one lane); both give the same character
        and refuse the same corrupted operator alike.
        """
        m = tuple(m)
        require_dominant(m)
        # a solve on its own support drops each block of rows once past it
        keep = support is not None
        if not keep:
            support = self._support(m)
        p = support.position(m)
        if len(support.weights) >= LEVEL_SOLVE_MIN_SUPPORT:
            coeffs = _solve_levels(m, support, p, keep)
        else:
            coeffs = _walk(support, p)[0]
        return MultiPoly(coeffs, _clean_input=False)

    def solve_lanes(self, support, start):
        """Method 1 for the constituents a subtraction along ``support``
        meets, all in one walk by positions from its top (``_walk``).

        ``start()`` makes the subtraction's ``admit``, which opens a lane
        at each constituent not in memory, once per walk: a walk whose
        lanes outgrow their width starts again, from a fresh ``admit``, at
        twice the width.  Once a walk ends, each lane's character is kept
        in memory as a Method-1 solve; a refused walk keeps none.  Returns
        the ``admit`` of the walk that ended.
        """
        bits = _LANE_BITS
        while True:
            admit = start()
            lanes = _walk(support, 0, admit, bits)
            if lanes is not None:
                break
            bits *= 2
        for coeffs in lanes:
            m = next(iter(coeffs))
            self._cache[m] = MultiPoly(coeffs, _clean_input=False)
            self._provenance[m] = "method-1"
        return admit

    def character_m2(self, m):
        """Solve for chi_m by the annihilator product (Method 2).

        One factor (D - e) is applied per distinct eigenvalue e of the
        dominant weights strictly below m, in order of first appearance
        along m's own ``Restriction`` (``_support``), on a list of
        coefficients over its positions.  A position is settled as soon as
        the eigenvalues of every position up to it are applied: its
        coefficient in chi_m is then the product's divided exactly by the
        product of the gaps eps_m - e so far, and its row, times that
        coefficient, is added once into the contributions of the settled
        positions, which every later factor reads scaled by the gaps.  So a
        factor reads only the rows and entries at or after the first
        position not yet settled (module docstring).  Settling a position
        certifies that its row's diagonal is its eigenvalue.
        """
        m = tuple(m)
        require_dominant(m)
        support = self._support(m)
        weights = support.weights
        rows = [support.row(i) for i in range(len(weights))]
        eps = support.eigenvalues()
        eps_m = eps[0]
        product = [1] + [0] * (len(weights) - 1)
        settled = [0] * len(weights)
        applied = {eps_m}
        scale = 1
        out = {}
        for f, (mu, row, e) in enumerate(zip(weights, rows, eps)):
            if e not in applied:
                # the factor order: e first appears at f
                product = _apply_factor(rows, product, settled, scale, e, f)
                scale *= eps_m - e
                applied.add(e)
            targets, values = row
            d = values[targets.index(f)] if f in targets else 0
            if d != e:
                raise IntegralityError(
                    f"character {m}: the operator sends z^{mu} to itself "
                    f"with {d}, not with its eigenvalue {e}")
            c, rem = divmod(product[f], scale)
            if rem:
                raise IntegralityError(
                    f"character {m}: coefficient of z^{mu} is not an "
                    f"integer after normalization")
            if c:
                out[mu] = c
                for j, s in zip(targets, values):
                    settled[j] += c * s
        return MultiPoly(out, _clean_input=False)

    def _support(self, m):
        """The operator restricted to the dominant weights below m, once m
        is known to fit the operator's range (``require_in_range``)."""
        self.operator.require_in_range(m)
        return self.operator.restrict(dominant_weights_below(m))


def _refusal(m, mu, num, gap):
    """The refusal of num / gap as the coefficient of z^mu in chi_m: the
    gap is not positive, or the division is not exact."""
    if gap <= 0:
        return ZeroGapError(f"eigenvalue gap {gap} for {mu} below {m}")
    return IntegralityError(
        f"character {m}: coefficient of z^{mu} is {num}/{gap}, not an "
        f"integer")


def _walk(support, p, admit=None, bits=_LANE_BITS):
    """Method 1 position by position from p, on the support's ``row``s
    and ``eigenvalues``, for one character or for several at once, each
    in its own lane; the coefficients of each lane's character as
    {weight: C}, its top first, then in position order.

    Without ``admit`` the one lane is weights[p]'s.  With it, p is 0 and
    ``admit(i, total)`` is called at each position i once the lanes'
    coefficients there are divided, ``total`` the sum over the lanes of
    their multiplicities times those coefficients; it returns the
    multiplicity of a lane that opens at i, with C = 1 there, or 0.

    The lanes' numerators at a position sit in one Python int: lane k, a
    signed number, in bits k * bits to (k + 1) * bits.  They are read with
    a bias of 2**(bits - 1) per lane, then shifted and masked, and each is
    divided by its own gap inline, a failed division refused by
    ``_refusal``.  A row is pushed once, its coefficient the lanes'
    coefficients packed the same way, one multiply-add per term.  A target
    receives at most one term per key shift (307 for E7, the diagonal
    included: ``Delta1Operator.shift_count``), so no lane's numerator
    reaches 2**(bits - 1) while every push keeps max |C| * max |S| over
    its row at most (2**(bits - 1) - 1) // 307.  A push past that returns
    None at once, before any character is kept, and the caller walks
    again at twice the width.  One lane needs neither bias nor bound: its
    numerator is the int itself, and the walk is the plain recursion.

    The first refusal, a lane's or one ``admit`` raises, closes the walk
    to new lanes; the lanes opened before it are finished, and the walk
    raises the refusal of the earliest-opened lane that fails, or else the
    first one: the order in which solving the lanes one after the other
    would refuse.
    """
    row = support.row
    weights = support.weights
    eps = None      # read when the first lane opens
    acc = [0] * len(weights)
    # each lane's coefficients, its top's eigenvalue and its multiplicity
    lanes, tops, counts = [], [], []
    if admit is None:   # one lane, with no bias and no bound
        bits, half, mask, limit = 0, 0, -1, None
    else:
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        limit = (half - 1) // support.operator.shift_count
    bias = 0
    alive = 0       # lanes 0 .. alive - 1 are being solved
    refusal = failed = None
    for i in range(p, len(weights)):
        x = acc[i]
        if not x and admit is None and i > p:
            continue
        # the lanes' coefficients at i packed, their total and largest size
        v = total = big = 0
        if x and alive:
            mu, e = weights[i], eps[i]
            y = x + bias
            for k in range(alive):
                num = (y & mask) - half
                y >>= bits
                if num:
                    gap = tops[k] - e
                    c, rem = divmod(num, gap) if gap > 0 else (0, 1)
                    if rem:
                        failed = _refusal(next(iter(lanes[k])), mu, num, gap)
                        refusal = refusal or failed
                        alive = k       # no later lane's refusal comes first
                        break
                    lanes[k][mu] = c
                    v += c << (k * bits)
                    total += counts[k] * c
                    if big < c or big < -c:
                        big = abs(c)
        if admit is None:
            n = i == p
        elif refusal is None:
            try:
                n = admit(i, total)
            except ArithmeticError as err:
                refusal, n = err, 0
        else:
            n = 0
        if n:
            mu = weights[i]
            eps = eps or support.eigenvalues()
            lanes.append({mu: 1})
            tops.append(eigenvalue(mu))
            counts.append(n)
            bias += half << (alive * bits)
            v += 1 << (alive * bits)
            big = big or 1
            alive += 1
        if refusal is not None and not alive:
            break
        if v:
            targets, values = row(i)
            if limit is not None and big * max(
                    map(abs, values), default=0) > limit:
                return None
            for j, s in zip(targets, values):
                acc[j] += v * s
            acc[i] = 0      # let the packed numerators behind the walk go
    if refusal is not None:
        raise failed or refusal
    return lanes


def _solve_levels(m, support, p, keep=True):
    """Method 1 one height level at a time, on ``support.levels()``; the
    same coefficients as the walk by positions (``_walk``), in the same
    order, and the same refusal at the same weight.  Each level's rows come from the
    block of levels that holds it, built when the solve first reaches the
    block, and kept on the support for later solves when ``keep`` is set.
    """
    import numpy as np

    levels = support.levels()
    bits = levels.limb_bits
    if bits < 1:    # images past int64
        return _walk(support, p)[0]
    weights = support.weights
    blocks = levels.blocks
    eps_m = eigenvalue(m)
    # acc[t] holds limb t of the numerators, in units of 2**(t * bits)
    acc = [np.zeros(len(weights), dtype=np.int64)]
    k = -1      # the block in hand: none yet
    # p's level holds no other weight below m: only m's row is scattered
    cuts = [p] + levels.cuts[bisect.bisect_right(levels.cuts, p):]
    c = [1]
    coeffs = {m: 1}
    for a, b in zip(cuts, cuts[1:]):
        if a > p:
            i, num = _numerators(acc, a, b, bits)
            if not i:
                continue
            gaps = (eps_m - levels.eps[a:b]).tolist()
            c = [0] * (b - a)
            for j, x in zip(i, num):
                gap = gaps[j]
                q, rem = divmod(x, gap) if gap > 0 else (0, 1)
                if rem:
                    raise _refusal(m, weights[a + j], x, gap)
                c[j] = q
                coeffs[weights[a + j]] = q
        if blocks[k + 1] <= a:
            # let the last block go before the next is built
            rows = start = target = value = None
            k = bisect.bisect_right(blocks, a) - 1
            rows = levels.block(k, keep)
        start, target, value = rows
        # the rows of positions a .. a + len(c), one run of entries
        r = a - blocks[k]
        counts = np.diff(start[r:r + len(c) + 1])
        at = slice(start[r], start[r + len(c)])
        limbs = _limbs(c, bits)
        acc += [np.zeros_like(acc[0]) for _ in limbs[len(acc):]]
        for x, limb in zip(acc, limbs):
            np.add.at(x, target[at], value[at] * np.repeat(limb, counts))
    return coeffs


def _numerators(acc, a, b, bits):
    """The nonzero numerators of positions a..b, from their limbs in
    ``acc``: their offsets from a and their values, as lists of ints."""
    parts = [x[a:b] for x in acc]
    i = parts[0] != 0
    for x in parts[1:]:
        i |= x != 0
    i = i.nonzero()[0]
    num = parts[0][i].tolist()
    for t, x in enumerate(parts[1:], 1):
        num = [y + (z << (t * bits)) for y, z in zip(num, x[i].tolist())]
    i = i.tolist()
    if 0 in num:    # limbs can cancel
        i, num = [j for j, x in zip(i, num) if x], [x for x in num if x]
    return i, num


def _limbs(c, bits):
    """The list of ints c as signed int64 limbs of ``bits`` bits, least
    significant first: c = sum over t of limb t << (t * bits), each |limb|
    below 2**bits.  The split runs on numpy where int64 holds every c."""
    import numpy as np

    top = max(map(abs, c))
    count = max(1, -(-top.bit_length() // bits))
    mask = (1 << bits) - 1
    if top >> 63:
        sign = np.array([(x > 0) - (x < 0) for x in c], dtype=np.int64)
        return [sign * np.array([(abs(x) >> (t * bits)) & mask for x in c],
                                dtype=np.int64) for t in range(count)]
    c = np.array(c, dtype=np.int64)
    if count == 1:
        return [c]
    sign, mag = np.sign(c), np.abs(c)
    return [sign * ((mag >> (t * bits)) & mask) for t in range(count)]


def _apply_factor(rows, product, settled, scale, e, f):
    """(D - e) applied to ``product``, a list of coefficients over the
    positions of the restricted operator ``rows``, at positions f on.

    Every position before f is settled, and its part of the product is
    scale times chi_m there, so the rows before f add ``scale`` times
    ``settled`` and are not read.  The positions before f of the list
    returned hold 0.
    """
    out = [0] * f + [scale * w - e * c
                     for w, c in zip(settled[f:], product[f:])]
    for i in range(f, len(product)):
        c = product[i]
        if c:
            targets, values = rows[i]
            for j, s in zip(targets, values):
                out[j] += c * s
    return out
