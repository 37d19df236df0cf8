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
imports no numpy; its root-string lookups read a memoized
``dominant_representative``.  On the torus side each random point set of
(F_P^*)^7 is one cached entry (``_point_set``): the points, a memo of
orbit sums and the fundamental characters there.  The dominant weights a
system needs that the memo lacks are walked together by ``weyl_orbit``,
the one orbit walk, which carries y^u at every point from each orbit
element to its children and sums it per orbit mod P; a system's direct sum
is then mult times orbit sum over its dominant weights.  The values ride
the walk, so a new point set walks its orbits again.  numpy is imported
only by that walk, when first needed.  ``minuscule_series``, the tensor
rule of the minuscule lambda_7, finds its 56 weights by their norm, with no
orbit walk, on its first call.  ``torus_check_listed`` checks lambda_1
and lambda_7 against those listed weights instead (the adjoint's are the
roots and 0), a second route to the fundamental values the walk sums.  A
failed certificate (an orbit size, a multiplicity, a total or the
minuscule count) raises ``InvariantError``.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .lie_core import (
    RANK, CARTAN_A, FUNDAMENTAL_WEIGHTS, POSITIVE_ROOTS, POSITIVE_ROOTS_FUND,
    InvariantError, bilinear2, dominant_weights_below, is_below,
    require_dominant, weyl_dim,
)

# Largest dimension the oracle accepts; above every fundamental (365750).
CEILING = 10**6


class OracleRefusal(RuntimeError):
    """The requested representation exceeds the work ceiling ``CEILING``."""


def dominant_representative(w):
    """The dominant weight in the Weyl orbit of w, by sorting reflections.
    Memoized per weight: Freudenthal's string lookups meet each weight
    several times."""
    return _dominant_representative(tuple(w))


@functools.lru_cache(maxsize=1 << 16)
def _dominant_representative(w):
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
    if rem:
        raise InvariantError(f"orbit size {num}/{den} of zero pattern "
                             f"{zero_pattern} is not an integer")
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
                mult = mults.get(_dominant_representative(nu), 0)
                if mult == 0:
                    break
                total += mult * bilinear2(nu, alpha)
        q, rem = divmod(2 * total, denom)
        if rem or q <= 0:
            raise InvariantError(
                f"Freudenthal multiplicity of {mu} in representation {m} "
                f"is {2 * total}/{denom}, not a positive integer")
        mults[mu] = q
    orbit_sizes = {w: _orbit_size(tuple(int(x > 0) for x in w))
                   for w in mults}
    system = WeightSystem(highest=m, dominant_mults=mults,
                          orbit_sizes=orbit_sizes)
    if system.total() != dim:
        raise InvariantError(f"the weights of representation {m} number "
                             f"{system.total()}, not its dimension {dim}")
    return system


@functools.cache
def _minuscule_weights():
    """The 56 weights of V(lambda_7): a minuscule orbit is exactly the
    weights of its root-lattice coset with its norm, all in the box -1..1."""
    top = FUNDAMENTAL_WEIGHTS[6]
    norm = bilinear2(top, top)
    weights = tuple(w for w in itertools.product((-1, 0, 1), repeat=RANK)
                    if is_below(w, top) and bilinear2(w, w) == norm)
    if len(weights) != weyl_dim(top):
        raise InvariantError(f"{len(weights)} weights of V(lambda_7) found, "
                             f"not its dimension {weyl_dim(top)}")
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


def _monomial(y, exps):
    """y^exps mod P at one point y, negative exponents included."""
    value = 1
    for yi, e in zip(y, exps):
        value = value * pow(yi, e, P) % P
    return value


def _powers(bases, top):
    """An int64 table of bases**c mod P for c = 0..top, indexed [c, ...]."""
    import numpy as np

    table = np.empty((top + 1, *bases.shape), dtype=np.int64)
    table[0] = 1
    for c in range(1, top + 1):
        table[c] = table[c - 1] * bases % P
    return table


def weyl_orbit(weights, points):
    """The Weyl orbits of a list of weights, walked together, with the sum
    of y^u mod P over each orbit at each of ``points``.

    Returns (rows, owner, sums): an int64 array with one row per orbit
    element, each exactly once, its dominant representatives first in
    input order; for each row the index in ``weights`` of the weight whose
    orbit holds it (a non-dominant weight gives its orbit too); and an
    int64 array whose row k holds the orbit sum of ``weights[k]`` mod P at
    every point.

    Every non-dominant weight u of an orbit has one parent v = s_i u, where
    i is the first index with u_i < 0; the parent is higher, so following
    parents ends at the dominant representative.  The walk goes down that
    tree one level at a time for all orbits at once, in one step per
    level: every (row v, i) with v_i > 0 gives u = v - v_i alpha_i, kept
    when no coordinate of u before index i is negative.  Since u_i = -v_i,
    that is when i is u's first negative coordinate, so each orbit element
    comes out once with no membership test.

    The value y^u rides the walk: a child's is its parent's times
    (y^-alpha_i)^(v_i), one int64 multiply-mod for all points, read from a
    table ``step[c, i]`` of those factors; the roots' values come from a
    table of powers per coordinate.  Both tables stop at the largest
    coordinate of an orbit of dominant w, (w, theta) for the highest root
    theta.  Each level's values, all below 2^31, are added per owner in
    int64: an orbit has at most |W| < 2^22 elements, so its sum stays below
    2^53.  Orbit sizes are bounded by the ambient representation
    dimension, so no global Weyl-group enumeration is ever needed.
    """
    import numpy as np

    cartan = np.array(CARTAN_A, dtype=np.int64)
    level = np.array([dominant_representative(w) for w in weights],
                     dtype=np.int64).reshape(-1, RANK)
    owner = np.arange(len(level))
    y = np.array(points, dtype=np.int64).reshape(-1, RANK)
    # y^-alpha_i at each point; alpha_i is row i of the Cartan matrix
    down = np.array([[_monomial(p, [-a for a in alpha]) for alpha in CARTAN_A]
                     for p in points], dtype=np.int64).reshape(-1, RANK)
    theta = np.array(POSITIVE_ROOTS[-1])  # the highest root
    top = int((level @ theta).max(initial=0))
    step = _powers(down.T, top)  # step[c, i] = (y^-alpha_i)^c
    power = _powers(y.T, top)    # power[c, i] = y_i^c
    value = np.ones((len(level), len(y)), dtype=np.int64)
    for i in range(RANK):
        value = value * power[level[:, i], i] % P
    sums = np.zeros_like(value)
    levels, owners = [level], [owner]
    while len(level):
        np.add.at(sums, owner, value)
        parent, i = np.nonzero(level > 0)
        c = level[parent, i]
        kids = level[parent] - c[:, None] * cartan[i]
        keep = (kids < 0).argmax(axis=1) == i
        parent, i, c = parent[keep], i[keep], c[keep]
        level = kids[keep]
        owner = owner[parent]
        value = value[parent] * step[c, i] % P
        levels.append(level)
        owners.append(owner)
    return np.concatenate(levels), np.concatenate(owners), sums % P


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
    its Weyl orbit at each point y, as a tuple of ints: the sums that one
    ``weyl_orbit`` of them all carries down its levels."""
    _, _, sums = weyl_orbit(dominant, points)
    return list(map(tuple, sums.tolist()))


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


def torus_check_listed(m, chi, trials=20, seed=20240901):
    """``torus_check`` for lambda_1 and lambda_7 against a second route:
    the direct sum over a weight system listed without an orbit walk or
    Freudenthal data, the 56 weights of V(lambda_7) found by their norm
    (``_minuscule_weights``) and, for the adjoint V(lambda_1), the 126
    roots, +-``POSITIVE_ROOTS_FUND``, and 0 seven times.

    chi is evaluated, as in ``torus_check``, at the point set's
    fundamental values, which the orbit walk summed.  So where chi is the
    fundamental character itself, a wrong walk fails here, while
    ``torus_check`` compares its value with itself.  The other five
    fundamentals have no second route yet; any other m is refused with
    ``ValueError``.
    """
    require_trials(trials)
    m = tuple(m)
    if m == FUNDAMENTAL_WEIGHTS[6]:
        weights, zeros = _minuscule_weights(), 0
    elif m == FUNDAMENTAL_WEIGHTS[0]:
        weights = POSITIVE_ROOTS_FUND + tuple(
            tuple(-x for x in r) for r in POSITIVE_ROOTS_FUND)
        zeros = RANK
    else:
        raise ValueError(f"no listed weight system for {m}")
    points, _, fundamentals = _point_set(trials, seed)
    direct = [(zeros + sum(_monomial(y, w) for w in weights)) % P
              for y in points]
    return sum(chi.eval_integer(z) % P != value
               for z, value in zip(fundamentals, direct))
