"""Independent verification channel for computed characters.

Nothing here reads the differential operator or the recursion internals:
weight multiplicities come from the classical Freudenthal recursion over
positive-root strings, and character identities are re-checked numerically
on the torus, where the character of weight m is the Weyl-invariant
exponential sum over the full weight system of its representation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .lie_core import (
    RANK, CARTAN_A, FUNDAMENTAL_WEIGHTS,
    bilinear2, cartan_matrix, dominant_weights_below, require_dominant,
    weyl_dim,
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


def weyl_orbit(w):
    """The full Weyl orbit of a weight, by closure under the seven simple
    reflections.  Orbit sizes are bounded by the ambient representation
    dimension, so no global Weyl-group enumeration is ever needed."""
    w = tuple(w)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(RANK):
                c = v[i]
                if c == 0:
                    continue
                row = CARTAN_A[i]
                r = tuple(v[j] - c * row[j] for j in range(RANK))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


@dataclass
class WeightSystem:
    """Weight multiplicities of one irreducible representation.

    ``dominant_mults`` maps each dominant weight to its multiplicity;
    ``orbit_sizes`` gives the size of its Weyl orbit.  The full system is
    the orbit expansion: every orbit element carries the multiplicity of
    its dominant representative.
    """

    highest: tuple
    dominant_mults: dict
    orbit_sizes: dict

    def total(self):
        return sum(self.dominant_mults[w] * self.orbit_sizes[w]
                   for w in self.dominant_mults)

    def multiplicity(self, w):
        return self.dominant_mults.get(dominant_representative(w), 0)

    def iter_all(self):
        """Yield (weight, multiplicity) over the full orbit expansion."""
        for w, mult in self.dominant_mults.items():
            for v in weyl_orbit(w):
                yield v, mult

    def expanded_arrays(self):
        """Full weight system as float arrays (weights, multiplicities);
        built once and cached, since the expansion can run to hundreds of
        thousands of weights."""
        import numpy as np

        cached = getattr(self, "_expanded", None)
        if cached is None:
            weights = []
            mults = []
            for w, mult in self.iter_all():
                weights.append(w)
                mults.append(mult)
            cached = (np.array(weights, dtype=float),
                      np.array(mults, dtype=float))
            self._expanded = cached
        return cached


def freudenthal(m):
    """Weight multiplicities of the irreducible representation of highest
    weight m, by the Freudenthal recursion.

    Dominant weights are processed by increasing height gap from m, so all
    multiplicities entering the string sums are already known.  Off-cone
    lookups go through the dominant representative.  Refuses representations
    with more than ``CEILING`` weights.
    """
    m = tuple(m)
    require_dominant(m)
    dim = weyl_dim(m)
    if dim > CEILING:
        raise OracleRefusal(
            f"dim {dim} of representation {m} exceeds ceiling {CEILING}")
    data = cartan_matrix()
    pos_fund = data.positive_roots_fund
    # rho is (1,...,1) in fundamental coordinates
    mrho = tuple(x + 1 for x in m)
    norm_top = bilinear2(mrho, mrho)
    mults = {m: 1}
    for mu in dominant_weights_below(m)[1:]:
        murho = tuple(x + 1 for x in mu)
        denom = norm_top - bilinear2(murho, murho)
        total = 0
        for alpha in pos_fund:
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
    orbit_sizes = {w: len(weyl_orbit(w)) for w in mults}
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
    ainv = [[float(x) for x in row] for row in cartan_matrix().Ainv]
    points = []
    for _ in range(trials):
        g = [rng.uniform(0.0, math.pi / 20.0) for _ in range(RANK)]
        points.append([sum(ainv[i][j] * g[j] for j in range(RANK))
                       for i in range(RANK)])
    return points


def _character_sum(system, t):
    """Direct evaluation sum(mult * e^{2i(mu, q)}) with compensated
    summation of the real and imaginary parts."""
    import numpy as np

    weights, mults = system.expanded_arrays()
    phases = 2.0 * (weights @ np.asarray(t, dtype=float))
    re = math.fsum((mults * np.cos(phases)).tolist())
    im = math.fsum((mults * np.sin(phases)).tolist())
    return complex(re, im)


_fundamental_systems = {}


def torus_check(m, chi, trials=20, seed=20240901):
    """Maximum deviation |chi(z(q)) - direct sum| over random alcove points.

    ``chi`` is the candidate polynomial for the character of weight m; the
    direct sum uses only Freudenthal data, so agreement within floating
    error certifies the polynomial independently of how it was computed.
    The fundamental weight systems are cached across calls: the largest has
    365750 weights and is needed on every evaluation.
    """
    m = tuple(m)
    target = freudenthal(m)
    fundamentals = []
    for i in range(RANK):
        if i not in _fundamental_systems:
            _fundamental_systems[i] = freudenthal(FUNDAMENTAL_WEIGHTS[i])
        fundamentals.append(_fundamental_systems[i])
    worst = 0.0
    for t in _alcove_points(trials, seed):
        z = [_character_sum(fs, t) for fs in fundamentals]
        direct = _character_sum(target, t)
        value = 0
        for e, c in chi.terms.items():
            term = complex(c)
            for zi, ni in zip(z, e):
                if ni:
                    term *= zi ** ni
            value += term
        worst = max(worst, abs(value - direct))
    return worst
