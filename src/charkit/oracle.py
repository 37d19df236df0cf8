"""Independent verification channel for computed characters.

Nothing here reads the differential operator or the recursion internals:
weight multiplicities come from the classical Freudenthal recursion over
positive-root strings, and character identities are re-checked exactly on
the torus over the prime field F_P, P = 2^31 - 1, where the character of
weight m is the sum of y^mu over the full weight system of its
representation.

A weight system is a sum over the Weyl orbits of its dominant weights.
Orbit sizes come in closed form from Macdonald's product over the
positive roots (``_orbit_size``), so ``freudenthal`` walks no orbit and
imports no numpy.  On the torus side each random point set of (F_P^*)^7
is one cached entry (``_point_set``): the points, a memo of orbit sums
and the fundamental characters there.  A dominant weight's orbit is
walked (``weyl_orbit``, on int64 rows) and summed mod P at every point
once, the first time any system needs it; a system's direct sum is then
mult times orbit sum over its dominant weights.  numpy is imported only
by that walk and sum, when first needed.  ``minuscule_series``, the tensor
rule of the minuscule lambda_7, finds its 56 weights by their norm, with no
orbit walk, on its first call.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .lie_core import (
    RANK, CARTAN_A, FUNDAMENTAL_WEIGHTS, POSITIVE_ROOTS, POSITIVE_ROOTS_FUND,
    bilinear2, dominant_weights_below, is_below, require_dominant, weyl_dim,
)

# Largest dimension the oracle accepts; above every fundamental (365750).
CEILING = 10**6


class OracleRefusal(RuntimeError):
    """The requested representation exceeds the work ceiling ``CEILING``."""


def dominant_representative(w):
    """The dominant weight in the Weyl orbit of w, by sorting reflections."""
    w = list(w)
    while True:
        for i in range(RANK):
            if w[i] < 0:
                c = w[i]
                row = CARTAN_A[i]
                for j in range(RANK):
                    w[j] -= c * row[j]
                break
        else:
            return tuple(w)


def weyl_orbit(weights):
    """The Weyl orbits of a list of weights, walked together.

    Returns (rows, owner): an int64 array with one row per orbit element,
    each exactly once, its dominant representatives first in input order,
    and for each row the index in ``weights`` of the weight whose orbit
    holds it; a non-dominant weight gives its orbit too.

    Every non-dominant weight u of an orbit has one parent s_i u, where i
    is the first index with u_i < 0; the parent is higher, so following
    parents ends at the dominant representative.  The walk goes down that
    tree one level at a time for all orbits at once: a child s_i v (for
    v_i > 0) is accepted only if no coordinate of it before index i is
    negative, which generates each orbit element once with no membership
    test.  Orbit sizes are bounded by the ambient representation
    dimension, so no global Weyl-group enumeration is ever needed.
    """
    import numpy as np

    cartan = np.array(CARTAN_A, dtype=np.int64)
    level = np.array([dominant_representative(w) for w in weights],
                     dtype=np.int64).reshape(-1, RANK)
    owner = np.arange(len(level))
    levels, owners = [level], [owner]
    while len(level):
        kids, kid_owners = [], []
        for i in range(RANK):
            up = level[:, i] > 0
            v = level[up]
            u = v - v[:, i, None] * cartan[i]
            keep = (u[:, :i] >= 0).all(axis=1)
            kids.append(u[keep])
            kid_owners.append(owner[up][keep])
        level = np.concatenate(kids)
        owner = np.concatenate(kid_owners)
        levels.append(level)
        owners.append(owner)
    return np.concatenate(levels), np.concatenate(owners)


@functools.cache
def _orbit_size(zero_pattern):
    """Size of the Weyl orbit of any dominant weight with this pattern of
    nonzero (1) and zero (0) coordinates, |W| / |W_J|.

    The stabilizer W_J is generated by the simple reflections at the zero
    coordinates J.  By Macdonald's identity the order of a Weyl group is
    the product of (ht + 1) / ht over its positive roots, and those of W_J
    are the positive roots supported on J, so the orbit size is that
    product over the positive roots not supported on J.
    """
    num = den = 1
    for root in POSITIVE_ROOTS:
        if any(x and nonzero for x, nonzero in zip(root, zero_pattern)):
            height = sum(root)
            num *= height + 1
            den *= height
    size, rem = divmod(num, den)
    assert rem == 0, (zero_pattern, num, den)
    return size


@dataclass(frozen=True)
class WeightSystem:
    """Weight multiplicities of one irreducible representation.

    ``dominant_mults`` maps each dominant weight to its multiplicity;
    ``orbit_sizes`` gives the size of its Weyl orbit.  The full system is
    the orbit expansion: every orbit element carries the multiplicity of
    its dominant representative.  Frozen, since ``freudenthal`` shares one
    instance per weight.
    """

    highest: tuple
    dominant_mults: dict
    orbit_sizes: dict

    def total(self):
        return sum(self.dominant_mults[w] * self.orbit_sizes[w]
                   for w in self.dominant_mults)


def freudenthal(m):
    """Weight multiplicities of the irreducible representation of highest
    weight m, by the Freudenthal recursion.

    Dominant weights are processed by increasing height gap from m, so all
    multiplicities entering the string sums are already known.  Off-cone
    lookups go through the dominant representative.  Refuses representations
    with more than ``CEILING`` weights.  Memoized per weight: every caller
    of the same weight gets the same ``WeightSystem``.
    """
    m = tuple(m)
    require_dominant(m)
    return _freudenthal(m)


@functools.lru_cache(maxsize=1 << 10)
def _freudenthal(m):
    dim = weyl_dim(m)
    if dim > CEILING:
        raise OracleRefusal(
            f"dim {dim} of representation {m} exceeds ceiling {CEILING}")
    # rho is (1,...,1) in fundamental coordinates
    mrho = tuple(x + 1 for x in m)
    norm_top = bilinear2(mrho, mrho)
    mults = {m: 1}
    for mu in dominant_weights_below(m)[1:]:
        murho = tuple(x + 1 for x in mu)
        denom = norm_top - bilinear2(murho, murho)
        total = 0
        for alpha in POSITIVE_ROOTS_FUND:
            nu = mu
            while True:
                nu = tuple(a + b for a, b in zip(nu, alpha))
                mult = mults.get(dominant_representative(nu), 0)
                if mult == 0:
                    break
                total += mult * bilinear2(nu, alpha)
        q, rem = divmod(2 * total, denom)
        assert rem == 0 and q > 0, (m, mu, total, denom)
        mults[mu] = q
    orbit_sizes = {w: _orbit_size(tuple(int(x > 0) for x in w))
                   for w in mults}
    system = WeightSystem(highest=m, dominant_mults=mults,
                          orbit_sizes=orbit_sizes)
    assert system.total() == dim
    return system


@functools.cache
def _minuscule_weights():
    """The 56 weights of V(lambda_7): a minuscule orbit is exactly the
    weights of its root-lattice coset with its norm, all in the box -1..1."""
    top = FUNDAMENTAL_WEIGHTS[6]
    norm = bilinear2(top, top)
    weights = tuple(w for w in itertools.product((-1, 0, 1), repeat=RANK)
                    if is_below(w, top) and bilinear2(w, w) == norm)
    assert len(weights) == weyl_dim(top), len(weights)
    return weights


def minuscule_series(m):
    """The series of chi_m * chi_{lambda_7} as {weight: 1}: lambda_7 is
    minuscule, so V(m) x V(lambda_7) is the sum of V(m + w), each once, over
    the weights w of V(lambda_7) with m + w dominant.  No operator, no
    Freudenthal data, no ceiling."""
    require_dominant(m)
    sums = (tuple(a + b for a, b in zip(m, w)) for w in _minuscule_weights())
    return {s: 1 for s in sums if min(s) >= 0}


# --------------------------------------------------------------- torus side

P = 2**31 - 1  # prime, and a product of two residues fits in int64


# Point sets kept per process, each in one entry with its orbit-sum memo
# and fundamental values; a caller looping over seeds keeps the latest ones.
POINT_SETS = 8


@functools.lru_cache(maxsize=POINT_SETS)
def _point_set(trials, seed):
    """``trials`` random points of (F_P^*)^7 drawn from ``seed``, the memo
    of orbit sums at them (each dominant weight walked so far maps to the
    sum of y^mu mod P over its Weyl orbit at every point y) and the seven
    fundamental characters mod P at each point, made and evicted together."""
    rng = random.Random(seed)
    points = tuple(tuple(rng.randrange(1, P) for _ in range(RANK))
                   for _ in range(trials))
    memo = {}
    columns = [_direct_values(freudenthal(lam), points, memo)
               for lam in FUNDAMENTAL_WEIGHTS]
    return points, memo, tuple(zip(*columns))


def _orbit_sums(dominant, points):
    """For each of a list of dominant weights, the sum of y^mu mod P over
    its Weyl orbit at each point y, from one ``weyl_orbit`` of them all.

    At each point y^mu is a product of seven lookups, one in an int64
    table of y_i^e per coordinate i; the residues are then put in owner
    order (one stable argsort, made once) and each orbit's are added in
    int64 by ``np.add.reduceat`` (an orbit has at most |W| < 2^22
    elements, each below 2^31).
    """
    import numpy as np

    weights, owner = weyl_orbit(dominant)
    order = np.argsort(owner, kind="stable")
    starts = np.searchsorted(owner[order], np.arange(len(dominant)))
    lows = weights.min(axis=0)
    weights -= lows  # each column now indexes its table of powers
    exponents = [range(lo, lo + top + 1) for lo, top in
                 zip(lows.tolist(), weights.max(axis=0).tolist())]
    sums = []
    for y in points:
        value = 1
        for column, yi, exps in zip(weights.T, y, exponents):
            powers = [pow(yi, e, P) for e in exps]
            value = value * np.array(powers, np.int64)[column] % P
        sums.append((np.add.reduceat(value[order], starts) % P).tolist())
    return list(zip(*sums))


def _direct_values(system, points, memo):
    """sum(mult * y^mu) mod P over a weight system at each of ``points``:
    mult times orbit sum over its dominant weights, read from the point
    set's ``memo``.  The dominant weights not yet in the memo are walked
    together first, so a weight is walked at most once per point set."""
    mults = system.dominant_mults
    missing = [w for w in mults if w not in memo]
    if missing:
        memo.update(zip(missing, _orbit_sums(missing, points)))
    return [sum(n * memo[w][k] for w, n in mults.items()) % P
            for k in range(len(points))]


def require_trials(trials):
    """Refuse a torus check of fewer than one point with ``ValueError``."""
    if trials < 1:
        raise ValueError(f"torus check needs at least 1 trial, got {trials}")


def torus_check(m, chi, trials=20, seed=20240901):
    """The number of random points y of (F_P^*)^7 at which chi(z(y)) and
    the direct sum over the weight system of m differ mod P.

    y sends a weight mu to y^mu = prod y_i^mu_i, a character of the weight
    lattice, so the identity chi_m = chi(z) holds mod P at every y.  The
    direct sum uses only Freudenthal data, so 0 certifies the candidate
    polynomial ``chi`` independently of how it was computed.  A wrong chi,
    whose difference from chi_m is nonzero mod P and of degree deg with
    its denominator cleared, agrees at a random point with probability at
    most deg / (P - 1) (Schwartz-Zippel).  The z_i(y) are direct sums over
    the fundamental systems (the largest has 24753 distinct weights), kept
    with the points of (trials, seed); ``trials`` must be at least 1.
    """
    require_trials(trials)
    points, memo, fundamentals = _point_set(trials, seed)
    direct = _direct_values(freudenthal(m), points, memo)
    return sum(chi.eval_integer(z) % P != value
               for z, value in zip(fundamentals, direct))
