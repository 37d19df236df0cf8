"""Independent verification channel for computed characters.

Nothing here reads the differential operator or the recursion internals:
weight multiplicities come from the classical Freudenthal recursion over
positive-root strings, and character identities are re-checked numerically
on the torus, where the character of weight m is the Weyl-invariant
exponential sum over the full weight system of its representation.

On the torus side a weight system is expanded by one batched walk down
the Weyl orbits of all its dominant weights (``_orbit_walk``, on int64
rows, numpy imported only here and only when first needed), and the
exponential sum keeps only its cosine half: -1 lies in the Weyl group of
E7, so the sine half of every sum cancels exactly.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .lie_core import (
    RANK, CARTAN_A, CARTAN_AINV2, FUNDAMENTAL_WEIGHTS, POSITIVE_ROOTS_FUND,
    bilinear2, dominant_weights_below, require_dominant, weyl_dim,
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


def _orbit_walk(dominant):
    """The Weyl orbits of a list of dominant weights, walked together.

    Returns (weights, owner): an int64 array with one row per orbit
    element, each element exactly once, and for each row the index in
    ``dominant`` of its dominant representative.

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
    level = np.array(dominant, dtype=np.int64).reshape(-1, RANK)
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


def weyl_orbit(w):
    """The Weyl orbit of a weight as a list, each element exactly once,
    its dominant representative first (``_orbit_walk``)."""
    weights, _ = _orbit_walk([dominant_representative(w)])
    return list(zip(*weights.T.tolist()))


@functools.cache
def _orbit_size(zero_pattern):
    """Size of the Weyl orbit of any dominant weight with this pattern of
    nonzero (1) and zero (0) coordinates: its stabilizer is generated by
    the simple reflections at the zero coordinates, so the nonzero values
    do not matter."""
    return len(_orbit_walk([zero_pattern])[0])


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
        if total == 0:
            continue
        q, rem = divmod(2 * total, denom)
        assert rem == 0 and q > 0, (m, mu, total, denom)
        mults[mu] = q
    orbit_sizes = {w: _orbit_size(tuple(int(x > 0) for x in w))
                   for w in mults}
    system = WeightSystem(highest=m, dominant_mults=mults,
                          orbit_sizes=orbit_sizes)
    assert system.total() == dim
    return system


# --------------------------------------------------------------- torus side

def _alcove_points(trials, seed):
    """Random torus points, given by the inner products t_i = (lambda_i, q).

    q is sampled through its pairings with the simple roots, each uniform
    in (0, pi/20): positive roots have height at most 17, so every (alpha, q)
    stays strictly inside (0, pi) and the point is well inside the alcove.
    """
    rng = random.Random(seed)
    ainv = [[x / 2 for x in row] for row in CARTAN_AINV2]
    points = []
    for _ in range(trials):
        g = [rng.uniform(0.0, math.pi / 20.0) for _ in range(RANK)]
        points.append([sum(ainv[i][j] * g[j] for j in range(RANK))
                       for i in range(RANK)])
    return points


def _expand(system):
    """The full weight system as float arrays (weights, multiplicities),
    from one ``_orbit_walk`` over its dominant weights; the expansion can
    run to hundreds of thousands of weights, so callers keep it only while
    they use it."""
    import numpy as np

    weights, owner = _orbit_walk(list(system.dominant_mults))
    mults = np.array(list(system.dominant_mults.values()), dtype=float)
    return weights.astype(float), mults[owner]


def _character_sum(expanded, t):
    """Direct evaluation sum(mult * e^{2i(mu, q)}) over an ``_expand``ed
    system, with compensated summation.  Only the cosine half is summed:
    -1 is in the Weyl group of E7, so every weight system is closed under
    negation and its sine half cancels to exactly 0.0."""
    import numpy as np

    weights, mults = expanded
    phases = 2.0 * (weights @ np.asarray(t, dtype=float))
    return complex(math.fsum((mults * np.cos(phases)).tolist()), 0.0)


@functools.cache
def _fundamental_values(trials, seed):
    """(t, z) for each alcove point t of ``_alcove_points(trials, seed)``,
    z the seven fundamental characters at t; computed once per process
    for each (trials, seed)."""
    points = [tuple(t) for t in _alcove_points(trials, seed)]
    columns = []
    for lam in FUNDAMENTAL_WEIGHTS:
        expanded = _expand(freudenthal(lam))
        columns.append([_character_sum(expanded, t) for t in points])
    return tuple(zip(points, zip(*columns)))


def torus_check(m, chi, trials=20, seed=20240901):
    """Maximum deviation |chi(z(q)) - direct sum| over random alcove points.

    ``chi`` is the candidate polynomial for the character of weight m; the
    direct sum uses only Freudenthal data, so agreement within floating
    error certifies the polynomial independently of how it was computed.
    The values z_i(q) of the seven fundamental characters are direct sums
    too, over the fundamental weight systems (the largest, of dimension
    365750, has 24753 distinct weights); they do not depend on m and are
    computed once per (trials, seed); ``trials`` must be at least 1.
    """
    if trials < 1:
        raise ValueError(f"torus check needs at least 1 trial, got {trials}")
    expanded = _expand(freudenthal(m))
    return max(abs(chi.eval_integer(z) - _character_sum(expanded, t))
               for t, z in _fundamental_values(trials, seed))
