"""Decomposition of character products into irreducible constituents.

The multiplicity extraction is the straightforward triangular subtraction:
candidates mu run over the dominant weights below the top weight in order
of increasing height gap, each multiplicity is read off as the current
residual coefficient of z^mu, and N_mu * chi_mu is subtracted.  A zero
final residual certifies the decomposition (and, transitively, every
character that entered it); the exact dimension sum is checked as well.

The downset of the top weight is enumerated once per decomposition, and
the operator is restricted to it once, so no constituent's downset is
enumerated again and each row of the operator is read at most once per
decomposition.  On a support of fewer than ``LEVEL_SOLVE_MIN_SUPPORT``
weights the subtraction is one walk over the top's positions
(``CharacterTable.solve_lanes``): a constituent in memory is subtracted
whole when the walk reaches it, and every other one opens a lane of one
Method 1 walk there, whose coefficients the walk subtracts as it settles
them.  The lanes' characters are kept in memory when the walk ends, and
they, the series, its order and any refusal are those of solving the
constituents one after the other.  On a larger support each constituent
not in memory is solved in turn, by levels from its own position, and not
kept (``CharacterTable.character``).  Constituents neither read nor write
the disk cache: solving one again on the shared rows costs less than
parsing its text.  The factors of
``cg_decompose`` are characters asked for by name, so they go through the
disk cache when one is attached.  Each decomposition refuses
a top weight outside the operator's range (``require_in_range``), then
enumerates its downset, whose closure refuses a top outside the keys' range
(``require_keyed_downset``), before either factor is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charsolve import LEVEL_SOLVE_MIN_SUPPORT
from .lie_core import (
    dominant_weights_below, monomial_dim, require_dominant, series_dim,
    weyl_dim,
)


class DecompositionError(ArithmeticError):
    """Negative multiplicity or nonzero residual: some character upstream
    is wrong."""


@dataclass
class CGSeries:
    """A tensor-product decomposition: weight -> positive multiplicity, in
    downset order (height descending, then lexicographically descending)."""

    terms: dict

    def __post_init__(self):
        if any(n <= 0 for n in self.terms.values()):
            raise ValueError("CGSeries multiplicities must be positive")

    def total_dimension(self):
        return series_dim(self.terms)

    def __len__(self):
        return len(self.terms)


class _Subtraction:
    """The triangular subtraction along a support, one position at a time:
    the residual and the series so far."""

    def __init__(self, product_terms, support, table):
        self.residual = dict(product_terms)
        self.series = {}
        self.weights = support.weights
        self.in_memory = table.in_memory

    def __call__(self, i, total):
        """Read the multiplicity of the weight mu at position i, once the
        lanes' ``total`` there, the sum of their multiplicities times
        their coefficients at mu, is subtracted; subtract a constituent in
        memory whole, and return the multiplicity of one that has to be
        solved, as a new lane, or else 0."""
        mu = self.weights[i]
        residual = self.residual
        c = residual.pop(mu, 0) - total
        if c == 0:
            return 0
        if c < 0:
            raise DecompositionError(
                f"negative multiplicity {c} for weight {mu} under "
                f"{self.weights[0]}")
        self.series[mu] = c
        chi = self.in_memory(mu)
        if chi is None:
            return c
        _subtract(residual, mu, c, chi)
        return 0


def _subtract(residual, mu, c, chi):
    """Subtract c chi from ``residual``.  The subtraction has taken mu's
    multiplicity c off the residual already, so it goes back there for
    chi's own term to take off."""
    residual[mu] = c
    for q, s in chi.terms.items():
        v = residual.get(q, 0) - c * s
        if v:
            residual[q] = v
        else:
            residual.pop(q, None)


def _subtractive_decompose(product_terms, support, table, expected_dim):
    """The certified series of a character-positive polynomial whose
    constituents all lie below ``top = support.weights[0]``.

    The certificate: the residual ends at zero, ``top`` occurs exactly
    once, and the dimension sum equals ``expected_dim``, the dimension of
    the product as the caller computed it; otherwise ``DecompositionError``.
    ``support`` is the operator restricted to the downset of ``top``;
    every constituent that has to be solved is solved on it and shares
    its rows: on fewer than ``LEVEL_SOLVE_MIN_SUPPORT`` weights all in one
    walk, one lane each, and on more one after the other.
    """
    top = support.weights[0]
    if len(support.weights) < LEVEL_SOLVE_MIN_SUPPORT:
        sub = table.solve_lanes(
            support, lambda: _Subtraction(product_terms, support, table))
    else:
        sub = _Subtraction(product_terms, support, table)
        for i, mu in enumerate(support.weights):
            if sub(i, 0):
                _subtract(sub.residual, mu, sub.series[mu],
                          table.character(mu, support=support))
    residual, series = sub.residual, sub.series
    if residual:
        raise DecompositionError(
            f"nonzero residual after decomposing below {top}: "
            f"{sorted(residual)[:5]} ...")
    if series.get(top) != 1:
        raise DecompositionError(
            f"top weight {top} has multiplicity {series.get(top, 0)}, not 1")
    got = series_dim(series)
    if got != expected_dim:
        raise DecompositionError(
            f"dimension sum {got} != {expected_dim} below {top}")
    return CGSeries(series)


def cg_decompose(m, n, table):
    """Clebsch-Gordan series of the product of the characters of m and n."""
    m, n = tuple(m), tuple(n)
    require_dominant(m)
    require_dominant(n)
    top = tuple(a + b for a, b in zip(m, n))
    table.operator.require_in_range(top)
    support = table.operator.restrict(dominant_weights_below(top))
    product = table.character(m) * table.character(n)
    return _subtractive_decompose(product.terms, support, table,
                                  weyl_dim(m) * weyl_dim(n))


def monomial_decompose(exps, table):
    """Decompose the monomial z^exps, i.e. the product of fundamental
    characters with the given multiplicities, into irreducibles."""
    exps = tuple(exps)
    require_dominant(exps)      # the top weight of z^exps is exps
    table.operator.require_in_range(exps)
    support = table.operator.restrict(dominant_weights_below(exps))
    return _subtractive_decompose({exps: 1}, support, table,
                                  monomial_dim(exps))

